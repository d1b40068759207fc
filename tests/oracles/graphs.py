"""Certification oracles: the original from-scratch order and graph builders.

The library enumerates ordered pairs with sorted-interval sweeps and
builds ``SG(h)``, ``SG_local`` and ``SG_mesg`` from them.  The functions
here are the permutation scans those builders replaced, written against
the library's :class:`~repro.core.history.History` from outside; the
property tests assert edge-for-edge (and reason-for-reason) agreement,
and E12 times certification against them.
"""

from __future__ import annotations

import itertools

import networkx as nx

from repro.analysis.certify import CertificationReport, cyclic_nodes
from repro.core.errors import IllegalHistoryError, VerificationError
from repro.core.graphs import (
    _add_edge,
    _add_type_a_edges,
    _add_type_b_edges,
    _objects_with_executions,
    is_acyclic,
    message_relation,
)
from repro.core.history import History
from repro.core.operations import Step
from repro.core.theorems import Theorem5Report, execution_serial_order


def order_pairs_legacy(history: History) -> set[tuple[int, int]]:
    """The ``O(n^2)`` permutation enumeration of ``<``'s generating pairs."""
    intervals = history._intervals
    if intervals is None:
        return set(history._order_pairs)
    pairs: set[tuple[int, int]] = set()
    for (first_id, (_, first_end)), (second_id, (second_start, _)) in itertools.permutations(
        intervals.items(), 2
    ):
        if first_end < second_start:
            pairs.add((first_id, second_id))
    return pairs


def precedes_legacy(history: History, first: Step | int, second: Step | int) -> bool:
    """Uncached ``t < t'``: interval comparison or a fresh reachability walk."""
    first_id = first.step_id if isinstance(first, Step) else int(first)
    second_id = second.step_id if isinstance(second, Step) else int(second)
    if first_id == second_id:
        return False
    intervals = history._intervals
    if intervals is not None:
        first_interval = intervals.get(first_id)
        second_interval = intervals.get(second_id)
        if first_interval is None or second_interval is None:
            return False
        return first_interval[1] < second_interval[0]
    successors: dict[int, set[int]] = {}
    for before, after in history._order_pairs:
        successors.setdefault(before, set()).add(after)
    reached: set[int] = set()
    frontier = list(successors.get(first_id, ()))
    while frontier:
        current = frontier.pop()
        if current in reached:
            continue
        reached.add(current)
        frontier.extend(successors.get(current, ()))
    return second_id in reached


def _conflicting_ordered_pairs_legacy(history: History):
    for object_name in history.object_names():
        steps = history.local_steps(object_name)
        for first, second in itertools.permutations(steps, 2):
            if not precedes_legacy(history, first, second):
                continue
            if history.conflicts.steps_conflict(first, second):
                yield first, second


def serialisation_graph_legacy(history: History) -> nx.DiGraph:
    """``SG(h)`` from a permutation scan over every object's step pairs."""
    graph = nx.DiGraph()
    graph.add_nodes_from(history.execution_ids())
    _add_type_a_edges(graph, history, _conflicting_ordered_pairs_legacy(history))
    _add_type_b_edges(graph, history)
    return graph


def sg_local_legacy(history: History, object_name: str) -> nx.DiGraph:
    """``SG_local`` from a scan over every pair of the object's executions."""
    graph = nx.DiGraph()
    executions = [
        history.execution(execution_id)
        for execution_id in history.executions_of_object(object_name)
    ]
    graph.add_nodes_from(execution.execution_id for execution in executions)
    for first_execution, second_execution in itertools.permutations(executions, 2):
        if not history.are_incomparable(first_execution.execution_id, second_execution.execution_id):
            continue
        for first_step in first_execution.local_steps():
            for second_step in second_execution.local_steps():
                if not precedes_legacy(history, first_step, second_step):
                    continue
                if history.conflicts.steps_conflict(first_step, second_step):
                    _add_edge(
                        graph,
                        first_execution.execution_id,
                        second_execution.execution_id,
                        ("local-conflict", first_step.step_id, second_step.step_id),
                    )
    return graph


def sg_mesg_legacy(history: History, object_name: str) -> nx.DiGraph:
    """``SG_mesg`` from an execution-pair scan over every object's local graph."""
    graph = nx.DiGraph()
    executions = [
        history.execution(execution_id)
        for execution_id in history.executions_of_object(object_name)
    ]
    graph.add_nodes_from(execution.execution_id for execution in executions)
    local_graphs = {
        other_object: sg_local_legacy(history, other_object)
        for other_object in _objects_with_executions(history)
    }
    for first_execution, second_execution in itertools.permutations(executions, 2):
        first_id = first_execution.execution_id
        second_id = second_execution.execution_id
        if not history.are_incomparable(first_id, second_id):
            continue
        first_descendants = set(history.descendants(first_id, include_self=False))
        second_descendants = set(history.descendants(second_id, include_self=False))
        for local_graph in local_graphs.values():
            for source, target in local_graph.edges:
                if source in first_descendants and target in second_descendants:
                    _add_edge(graph, first_id, second_id, ("mesg", source, target))
    return graph


def theorem_5_conditions_legacy(history: History) -> Theorem5Report:
    """Theorem 5 with every per-object graph rebuilt from scratch."""
    cyclic_objects: list[str] = []
    for object_name in sorted(_objects_with_executions(history)):
        combined = nx.DiGraph()
        local_graph = sg_local_legacy(history, object_name)
        mesg_graph = sg_mesg_legacy(history, object_name)
        combined.add_nodes_from(local_graph.nodes)
        combined.add_nodes_from(mesg_graph.nodes)
        combined.add_edges_from(local_graph.edges)
        combined.add_edges_from(mesg_graph.edges)
        if not is_acyclic(combined):
            cyclic_objects.append(object_name)
    cyclic_executions = [
        execution_id
        for execution_id in sorted(history.execution_ids())
        if not is_acyclic(message_relation(history, execution_id))
    ]
    holds = not cyclic_objects and not cyclic_executions
    return Theorem5Report(holds, cyclic_objects, cyclic_executions)


def certify_history_legacy(history: History, *, check_legality: bool = True) -> CertificationReport:
    """:func:`~repro.analysis.certify.certify_history` on the from-scratch builders."""
    violations: list[str] = []
    legal = True
    if check_legality:
        try:
            history.check_legal()
        except IllegalHistoryError as error:
            legal = False
            violations.append(f"legality: {error}")
    graph = serialisation_graph_legacy(history)
    serialisable = is_acyclic(graph)
    cycle = None
    if not serialisable:
        violations.append("serialisation graph contains a cycle")
        cycle = cyclic_nodes(graph)
    report5 = theorem_5_conditions_legacy(history)
    if report5.cyclic_objects:
        violations.append(
            "Theorem 5(a) violated for objects: " + ", ".join(report5.cyclic_objects)
        )
    if report5.cyclic_executions:
        violations.append(
            "Theorem 5(b) violated for executions: " + ", ".join(report5.cyclic_executions)
        )
    serial_order: tuple[str, ...] = ()
    if serialisable:
        serial_order = tuple(
            execution_id
            for execution_id in execution_serial_order(history, graph=graph)
            if history.execution(execution_id).is_top_level
        )
    return CertificationReport(
        legal=legal,
        serialisable=serialisable,
        theorem5_holds=report5.holds,
        violations=violations,
        committed_transactions=len(history.top_level_executions()),
        committed_executions=len(history.execution_ids()),
        committed_local_steps=len(history.local_steps()),
        sg_nodes=graph.number_of_nodes(),
        sg_edges=graph.number_of_edges(),
        serial_order=serial_order,
        cycle=cycle,
    )


def _reason_multisets(graph: nx.DiGraph) -> dict[tuple, dict[tuple, int]]:
    rendered: dict[tuple, dict[tuple, int]] = {}
    for source, target, data in graph.edges(data=True):
        counts: dict[tuple, int] = {}
        for reason in data["reasons"]:
            key = tuple(reason)
            counts[key] = counts.get(key, 0) + 1
        rendered[(source, target)] = counts
    return rendered


def assert_graphs_match(candidate: nx.DiGraph, oracle: nx.DiGraph, label: str) -> None:
    """Raise :class:`VerificationError` unless nodes, edges and reasons agree."""
    if set(candidate.nodes) != set(oracle.nodes):
        raise VerificationError(
            f"{label}: node sets diverge (indexed {sorted(candidate.nodes)!r} "
            f"vs legacy {sorted(oracle.nodes)!r})"
        )
    candidate_reasons = _reason_multisets(candidate)
    oracle_reasons = _reason_multisets(oracle)
    if candidate_reasons != oracle_reasons:
        missing = set(oracle_reasons) - set(candidate_reasons)
        extra = set(candidate_reasons) - set(oracle_reasons)
        raise VerificationError(
            f"{label}: edge/reason sets diverge (missing {sorted(missing)!r}, "
            f"extra {sorted(extra)!r}, or reason multiplicities differ)"
        )
