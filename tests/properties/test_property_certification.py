"""Property-based oracles for the indexed certification machinery.

The serialisation-graph builders and the history order queries run on
persistent indexes and sorted-interval sweeps; the original permutation
implementations they replaced live in :mod:`tests.oracles`.  These tests
generate random *nested* histories (with internal parallelism, so
incomparable siblings and non-trivial disjoint ancestors actually occur)
and assert:

* indexed ``order_pairs`` / ``precedes`` agree with the oracles
  (``order_pairs_legacy`` / ``precedes_legacy``);
* the sweep-based ``serialisation_graph`` / ``sg_local`` / ``sg_mesg``
  reproduce the from-scratch graphs edge for edge and reason for reason;
* Theorem 5's conditions and the whole certification report come out the
  same whether the per-object graphs are shared or rebuilt from scratch.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.analysis import certify_history
from repro.core import (
    History,
    HistoryBuilder,
    ObjectState,
    PerObjectConflicts,
    ReadVariable,
    ReadWriteConflictSpec,
    WriteVariable,
    serialisation_graph,
    sg_local,
    sg_mesg,
    theorem_5_conditions,
)

from tests.oracles import (
    assert_graphs_match,
    certify_history_legacy,
    order_pairs_legacy,
    precedes_legacy,
    serialisation_graph_legacy,
    sg_local_legacy,
    sg_mesg_legacy,
    theorem_5_conditions_legacy,
)

OBJECT_NAMES = ("A", "B", "C")
VARIABLE_NAMES = ("x", "y")


@st.composite
def nested_history(draw):
    """A random legal history of nested transactions with parallel children.

    Each top-level transaction runs a few accesses; an access invokes a
    child method execution which issues one or two local read/write steps
    and is invoked either sequentially or in parallel with its predecessor
    (``after=[]``), so the execution forest exhibits both comparable and
    incomparable sibling pairs.  The interleaving across transactions is
    drawn by hypothesis.
    """
    transaction_count = draw(st.integers(2, 4))
    accesses_per_transaction = draw(st.integers(1, 3))
    builder = HistoryBuilder(
        initial_states={name: ObjectState({"x": 0, "y": 0}) for name in OBJECT_NAMES},
        conflicts=PerObjectConflicts(default=ReadWriteConflictSpec()),
    )
    transactions = [builder.begin_top_level(f"txn{i}") for i in range(transaction_count)]

    plans = []
    for _ in range(transaction_count):
        plan = []
        for _ in range(accesses_per_transaction):
            plan.append(
                (
                    draw(st.sampled_from(OBJECT_NAMES)),
                    draw(st.sampled_from(VARIABLE_NAMES)),
                    draw(st.booleans()),  # write?
                    draw(st.integers(0, 9)),
                    draw(st.booleans()),  # parallel sibling?
                    draw(st.booleans()),  # second local step?
                )
            )
        plans.append(list(reversed(plan)))

    pending = {index for index in range(transaction_count) if plans[index]}
    while pending:
        index = draw(st.sampled_from(sorted(pending)))
        object_name, variable, is_write, value, parallel, extra_step = plans[index].pop()
        child = builder.invoke(
            transactions[index],
            object_name,
            "access",
            after=[] if parallel else None,
        )
        if is_write:
            builder.local(child, WriteVariable(variable, value))
        else:
            builder.local(child, ReadVariable(variable, default=0))
        if extra_step:
            builder.local(child, ReadVariable(variable, default=0))
        builder.finish(child)
        if not plans[index]:
            pending.discard(index)
    return builder.build(check=True)


class TestIndexedHistoryOracles:
    @settings(max_examples=40, deadline=None)
    @given(nested_history())
    def test_order_pairs_sweep_matches_legacy(self, history):
        assert history.order_pairs() == order_pairs_legacy(history)

    @settings(max_examples=30, deadline=None)
    @given(nested_history())
    def test_precedes_matches_legacy_on_every_pair(self, history):
        steps = history.steps()
        for first, second in itertools.permutations(steps, 2):
            assert history.precedes(first, second) == precedes_legacy(history, first, second)

    @settings(max_examples=20, deadline=None)
    @given(nested_history())
    def test_order_pairs_representation_matches_legacy(self, history):
        # Re-encode the same history through explicit order pairs to
        # exercise the reachability (non-interval) code path.
        encoded = History(
            list(history.executions.values()),
            history.initial_states,
            conflicts=history.conflicts,
            order_pairs=history.order_pairs(),
        )
        steps = encoded.steps()
        for first, second in itertools.permutations(steps, 2):
            assert encoded.precedes(first, second) == precedes_legacy(encoded, first, second)
            assert encoded.precedes(first, second) == history.precedes(first, second)

    @settings(max_examples=30, deadline=None)
    @given(nested_history())
    def test_ordered_step_pairs_sweep_is_exact(self, history):
        for object_name in history.object_names():
            steps = history.local_steps(object_name)
            swept = set()
            for first, second in history.ordered_step_pairs(steps):
                swept.add((first.step_id, second.step_id))
            expected = {
                (first.step_id, second.step_id)
                for first, second in itertools.permutations(steps, 2)
                if precedes_legacy(history, first, second)
            }
            assert swept == expected


class TestGraphBuilderOracles:
    @settings(max_examples=30, deadline=None)
    @given(nested_history())
    def test_serialisation_graph_matches_legacy(self, history):
        assert_graphs_match(
            serialisation_graph(history), serialisation_graph_legacy(history), "SG(h)"
        )

    @settings(max_examples=30, deadline=None)
    @given(nested_history())
    def test_per_object_graphs_match_legacy(self, history):
        for object_name in sorted(history.object_names() | {"environment"}):
            assert_graphs_match(
                sg_local(history, object_name),
                sg_local_legacy(history, object_name),
                f"sg_local({object_name!r})",
            )
            assert_graphs_match(
                sg_mesg(history, object_name),
                sg_mesg_legacy(history, object_name),
                f"sg_mesg({object_name!r})",
            )

    @settings(max_examples=20, deadline=None)
    @given(nested_history())
    def test_theorem_5_matches_legacy(self, history):
        assert theorem_5_conditions(history) == theorem_5_conditions_legacy(history)

    @settings(max_examples=20, deadline=None)
    @given(nested_history())
    def test_certification_report_matches_legacy(self, history):
        assert (
            certify_history(history).as_dict()
            == certify_history_legacy(history).as_dict()
        )
