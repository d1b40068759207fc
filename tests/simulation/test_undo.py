"""Incremental undo: per-transaction undo segments vs full-history replay.

The abort path no longer replays the whole run; it rolls every touched
object back to the snapshot taken before the aborted subtree's first step
and re-applies the surviving suffix.  These tests pin the equivalence:
:class:`tests.oracles.CheckedUndoEngine` compares the incremental result
with a full replay after *every* abort and raises on any divergence, and
:class:`tests.oracles.ReplayUndoEngine` (full replay instead of undo
segments) must produce byte-identical runs.
"""

from __future__ import annotations

import pytest

from repro.core.operations import LocalStep
from repro.core.state import ObjectState, UndoLog
from repro.objectbase.adts.register import WriteRegister
from repro.scheduler import Scheduler, make_scheduler
from repro.scheduler.base import SchedulerResponse
from repro.simulation import (
    BankingWorkload,
    HotspotWorkload,
    QueueWorkload,
    SimulationEngine,
)

from tests.oracles import CheckedUndoEngine, ReplayUndoEngine

ABORT_HEAVY = [
    ("nto", lambda: HotspotWorkload(
        transactions=12, hot_objects=2, cold_objects=6,
        operations_per_transaction=3, hot_probability=0.8, seed=41,
    )),
    ("n2pl", lambda: HotspotWorkload(
        transactions=12, hot_objects=2, cold_objects=6,
        operations_per_transaction=3, hot_probability=0.9, seed=42,
    )),
    ("certifier", lambda: HotspotWorkload(
        transactions=10, hot_objects=2, cold_objects=6,
        operations_per_transaction=3, hot_probability=0.8, seed=43,
    )),
    ("nto-step", lambda: QueueWorkload(
        queues=2, producers=6, consumers=6, initial_depth=4, seed=44,
    )),
    ("modular", lambda: BankingWorkload(accounts=4, transactions=10, seed=45)),
]


def run_engine(workload, scheduler_name, engine_class=SimulationEngine):
    base, specs = workload.build()
    engine = engine_class(base, make_scheduler(scheduler_name), seed=7)
    engine.submit_all(specs)
    return engine.run()


class TestIncrementalUndoEquivalence:
    @pytest.mark.parametrize("scheduler_name,make_workload", ABORT_HEAVY)
    def test_incremental_undo_matches_full_replay_on_every_abort(
        self, scheduler_name, make_workload
    ):
        # CheckedUndoEngine re-derives every object state by full replay
        # after each abort and raises SimulationError on the slightest
        # divergence.
        result = run_engine(make_workload(), scheduler_name, CheckedUndoEngine)
        assert result.metrics.aborted_attempts > 0, (
            f"{scheduler_name}: the workload must actually abort for the "
            "equivalence check to mean anything"
        )
        assert result.metrics.committed + result.metrics.gave_up == result.metrics.submitted

    @pytest.mark.parametrize("scheduler_name,make_workload", ABORT_HEAVY)
    def test_replay_strategy_produces_identical_runs(self, scheduler_name, make_workload):
        # The undo strategy must not influence scheduling decisions: the
        # same seed under either strategy yields the same run.
        incremental = run_engine(make_workload(), scheduler_name)
        replay = run_engine(make_workload(), scheduler_name, ReplayUndoEngine)
        assert incremental.metrics.as_dict() == replay.metrics.as_dict()
        assert incremental.final_states() == replay.final_states()

    def test_committed_state_preserved_across_interleaved_abort(self):
        # A committed write that lands *after* the aborted transaction's
        # first step on the same object must survive the rollback: the
        # surviving suffix is re-applied on top of the snapshot.
        from repro.objectbase import MethodDefinition, ObjectBase
        from repro.simulation import TransactionSpec

        base = ObjectBase()
        from repro.objectbase.adts import register_definition

        base.register(register_definition("cell", 0))

        def write_cell(ctx, value):
            yield ctx.invoke("cell", "write", value)
            yield ctx.invoke("cell", "write", value + 1)
            return value

        base.register_transaction(MethodDefinition("write_cell", write_cell))

        class AbortSecondTransactionLate(Scheduler):
            """Grant everything, but veto the second transaction's commit."""

            def on_commit_request(self, info):
                if info.execution_id == "T2":
                    return SchedulerResponse.abort("validation failed: synthetic")
                return SchedulerResponse.grant()

        engine = CheckedUndoEngine(
            base,
            AbortSecondTransactionLate(),
            scheduling="round-robin",
            max_restarts=0,
        )
        engine.submit(TransactionSpec("write_cell", (10,)))
        engine.submit(TransactionSpec("write_cell", (20,)))
        result = engine.run()
        assert result.metrics.committed == 1
        assert result.metrics.gave_up == 1
        assert result.final_states()["cell"]["value"] == 11


class TestUndoLogUnit:
    def apply(self, log, object_name, execution_id, top_level_id, operation, states):
        pre = states.get(object_name, ObjectState())
        _, states[object_name] = operation.apply(pre)
        log.record(object_name, execution_id, top_level_id, operation, pre)

    def test_undo_removes_only_subtree_steps_and_repairs_state(self):
        log = UndoLog()
        states = {"A": ObjectState({"value": 0})}
        self.apply(log, "A", "T1.1", "T1", WriteRegister(1), states)
        self.apply(log, "A", "T2.1", "T2", WriteRegister(2), states)
        self.apply(log, "A", "T1.2", "T1", WriteRegister(3), states)
        assert states["A"]["value"] == 3

        removed = log.undo("T1", {"T1", "T1.1", "T1.2"}, states)
        assert removed == 2
        # T2's surviving write is re-applied on the pre-T1 snapshot.
        assert states["A"]["value"] == 2
        assert [entry.execution_id for entry in log.steps_on("A")] == ["T2.1"]

    def test_snapshots_are_refreshed_for_reapplied_survivors(self):
        # After one undo the survivors' snapshots must be consistent, so a
        # second undo (of the survivor itself) still lands on the right state.
        log = UndoLog()
        states = {"A": ObjectState({"value": 0})}
        self.apply(log, "A", "T1.1", "T1", WriteRegister(1), states)
        self.apply(log, "A", "T2.1", "T2", WriteRegister(2), states)
        log.undo("T1", {"T1", "T1.1"}, states)
        assert states["A"]["value"] == 2
        log.undo("T2", {"T2", "T2.1"}, states)
        assert states["A"]["value"] == 0
        assert log.steps_on("A") == []
        assert log.total_steps() == 0

    def test_untouched_objects_are_left_alone(self):
        log = UndoLog()
        states = {"A": ObjectState({"value": 0}), "B": ObjectState({"value": 9})}
        self.apply(log, "A", "T1.1", "T1", WriteRegister(5), states)
        log.undo("T1", {"T1", "T1.1"}, states)
        assert states["A"]["value"] == 0
        assert states["B"]["value"] == 9

    def test_undo_of_unknown_transaction_is_a_noop(self):
        log = UndoLog()
        states = {"A": ObjectState({"value": 0})}
        self.apply(log, "A", "T1.1", "T1", WriteRegister(5), states)
        assert log.undo("T9", {"T9"}, states) == 0
        assert states["A"]["value"] == 5

    def test_step_level_values_survive_reapplication(self):
        # Operations whose return values depend on the state (a queue's
        # dequeue) still re-apply deterministically.
        from repro.objectbase.adts.fifo_queue import Dequeue, Enqueue

        log = UndoLog()
        states = {"Q": ObjectState({"items": ("seed",)})}
        self.apply(log, "Q", "T1.1", "T1", Enqueue("x"), states)
        self.apply(log, "Q", "T2.1", "T2", Dequeue(), states)
        log.undo("T1", {"T1", "T1.1"}, states)
        # The dequeue re-applies against the rolled-back queue: "seed" is
        # still the item removed, and T1's enqueue is gone.
        assert tuple(states["Q"]["items"]) == ()
