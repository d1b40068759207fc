"""Engine oracles: the frame-scan chooser and full-replay undo.

Both are :class:`~repro.simulation.engine.SimulationEngine` subclasses that
replace one mechanism of the library engine with the simple, slow
implementation it was optimised from:

* :class:`ScanLoopEngine` chooses the next frame by scanning the frame
  table every tick instead of drawing from the maintained ready list;
* :class:`ReplayUndoEngine` repairs object states after an abort by
  replaying every surviving step the history builder recorded instead of
  undoing the aborted subtree's segments;
* :class:`CheckedUndoEngine` keeps the incremental undo and verifies it
  against that replay after every abort.

Decisions never depend on the mechanism, so every run of an oracle must
be bit-identical to the plain engine's run; the tests and E11/E16 assert
exactly that.
"""

from __future__ import annotations

import heapq

from repro.core.errors import SimulationError
from repro.core.operations import LocalStep
from repro.core.state import ObjectState, UndoLog
from repro.simulation.engine import (
    _EVENT_FAULT,
    _EVENT_RESTART,
    _READY,
    SimulationEngine,
    _Frame,
)


class ScanLoopEngine(SimulationEngine):
    """The pre-ready-list hot loop: one frame-table scan per decision."""

    def _run_event_loop(self, horizon: int) -> int:
        horizon = min(horizon, self.max_ticks)
        decisions = 0
        while (self._frames or self._events) and self._tick < horizon:
            self._release_due_events()
            frame = self._choose_frame_scan()
            if frame is None:
                if self._events:
                    self._tick = min(self._events[0][0], horizon)
                    continue
                if not self._force_wake_all():
                    break
                continue
            self._tick += 1
            self.metrics.decisions += 1
            decisions += 1
            self._advance(frame)
        return decisions

    def _release_due_events(self) -> None:
        """Release every queued restart/arrival/fault whose due tick was reached."""
        events = self._events
        tick = self._tick
        while events and events[0][0] <= tick:
            due, kind, _, payload = heapq.heappop(events)
            if kind == _EVENT_RESTART:
                spec, attempt, lineage = payload
                self.metrics.restarts += 1
                self._start_transaction(spec, attempt=attempt, lineage=lineage)
            elif kind == _EVENT_FAULT:
                self._inject_fault(due)
            else:
                self.metrics.submitted += 1
                self.metrics.arrived += 1
                self._admit(payload, arrival_tick=due)

    def _choose_frame_scan(self) -> _Frame | None:
        """Scan the frame table for ready frames.

        The candidate list is in frame-table insertion order == creation
        order, which is what the maintained ready list reproduces.
        """
        candidates = [frame for frame in self._frames.values() if frame.status == _READY]
        if not candidates:
            return None
        if self.scheduling == "random":
            return self.rng.choice(candidates)
        index = self._round_robin_cursor % len(candidates)
        self._round_robin_cursor = index + 1
        return candidates[index]


def replay_states(engine: SimulationEngine) -> dict[str, ObjectState]:
    """Every object state rebuilt by replaying the surviving recorded steps.

    The history builder records each executed local step in execution
    order; steps of aborted executions are skipped.
    """
    states = dict(engine.object_base.initial_states())
    aborted = engine._aborted_executions
    for step in engine._builder._steps_by_id.values():
        if isinstance(step, LocalStep) and step.execution_id not in aborted:
            state = states.get(step.object_name, ObjectState())
            _, states[step.object_name] = step.operation.apply(state)
    return states


def prune_undo_log(log: UndoLog, top_level_id: str, subtree_ids) -> int:
    """Remove the subtree's undo entries without recomputing states.

    The remaining entries' snapshots go stale, which is harmless for an
    engine that recomputes every state by replay.
    """
    subtree = frozenset(subtree_ids)
    removed = 0
    for object_name in log._touched_by_transaction.pop(top_level_id, ()):
        entries = log._by_object.get(object_name)
        if not entries:
            continue
        kept = [entry for entry in entries if entry.execution_id not in subtree]
        removed += len(entries) - len(kept)
        log._by_object[object_name] = kept
    return removed


class ReplayUndoEngine(SimulationEngine):
    """Abort repair by full replay of the recorded history (E11's baseline)."""

    def _undo_states(self, top_level_id: str, subtree_ids: set[str]) -> int:
        removed = prune_undo_log(self._undo_log, top_level_id, subtree_ids)
        self._states = replay_states(self)
        return removed


class CheckedUndoEngine(SimulationEngine):
    """Incremental undo, verified against full replay after every abort."""

    def _undo_states(self, top_level_id: str, subtree_ids: set[str]) -> int:
        removed = super()._undo_states(top_level_id, subtree_ids)
        replayed = replay_states(self)
        if self._states != replayed:
            differing = sorted(
                name
                for name in set(self._states) | set(replayed)
                if self._states.get(name) != replayed.get(name)
            )
            raise SimulationError(
                "incremental undo diverged from full replay on objects "
                f"{differing} after abort of {top_level_id}"
            )
        return removed
