"""One shard's engine: the plain engine plus its side of the shard protocol.

A sharded run partitions the object space across engines, one full
engine (+ scheduler) per shard.  Shards advance in lock-step *tick
rounds*: each round the driver (:class:`~repro.shard.engine.ShardWorker`)
applies the coordinator's directives (remote admissions, results, votes,
global commit/abort decisions), runs the event loop up to a common
horizon, then drains the shard's outbox/notes for the coordinator.  All
cross-shard interaction happens at these barriers, so a sharded run is a
pure function of (spec, shard map, seed) regardless of transport —
in-process and multiprocess execution are bit-identical.

Cross-shard transactions follow the paper's modular recipe one level up:
on its home shard the transaction runs normally until commit, which is
*held* for a two-phase decision; on every other shard its remote invokes
run under a local *session* root that carries the foreign top-level id,
so the owner's scheduler synchronises it like any ordinary nested
transaction (locks, timestamps and commit gates all key by that id), and
the session's locks are retained until the coordinator's global
decision.

:class:`ParticipantEngine` adds all of this by overriding the engine's
hooks — top-level id allocation, request dispatch, step execution,
delivery to the parent, top-level completion, fault-victim choice, abort
and the loop's idle-path stall test — so a plain
:class:`~repro.simulation.engine.SimulationEngine` run never touches it.
"""

from __future__ import annotations

import itertools
from typing import Any

from ..core.errors import SimulationError
from ..scheduler.base import ExecutionInfo
from ..simulation.engine import _DONE, _PARKED, _WAITING, SimulationEngine, _Frame
from ..simulation.events import ABORTED, BEGIN, BLOCKED, COMMITTED, INVOKE
from ..simulation.metrics import RunResult
from ..simulation.transactions import InvokeRequest, ParallelRequest

__all__ = ["ParticipantEngine"]


def _proxy_session_marker():  # pragma: no cover - never advanced
    """Placeholder body for remote-session roots (driven imperatively)."""


class ParticipantEngine(SimulationEngine):
    """Runs shard ``index`` of ``count`` under the inter-shard coordinator.

    Args:
        object_base, scheduler, **options: as for
            :class:`~repro.simulation.engine.SimulationEngine`.
        index: this shard's position in the fleet.
        count: the number of shards.
        owns: ``owns(object_name) -> bool`` — does this shard hold the
            object?
        classify: ``classify(spec) -> bool`` — may the submitted
            transaction touch foreign objects?  Advisory: a missed
            classification is repaired at the first actual remote invoke
            (see :meth:`_send_remote_invoke`).
        tracker: optional conflict observer fed every executed step of
            cross-shard transactions (``note_step(info, step)``), for the
            inter-shard coordinator's precedence graph.

    Raises:
        SimulationError: when asked to certify online (each shard's
            ``RunResult`` is certified post-hoc in the shard worker).
    """

    def __init__(
        self,
        object_base,
        scheduler,
        *,
        index: int,
        count: int,
        owns,
        classify,
        tracker=None,
        **options,
    ):
        super().__init__(object_base, scheduler, **options)
        if self._certifier is not None:
            raise SimulationError(
                "sharded engines cannot certify online; certify each shard's "
                "RunResult post-hoc in the shard worker instead"
            )
        self._owns = owns
        self._classify = classify
        self._tracker = tracker
        #: Execution-id namespace (``"s<i>:"``); empty at ``count == 1`` so a
        #: single-shard run is bit-identical to the plain engine.
        self._id_prefix = f"s{index}:" if count > 1 else ""
        self._txn_counter = itertools.count(1)
        self._remote_counter = itertools.count(1)
        #: Home-side: top-level ids known (or discovered) to be cross-shard.
        self._cross: set[str] = set()
        #: Home-side: prepared root frames awaiting the global commit decision.
        self._held: dict[str, _Frame] = {}
        #: Owner-side: one *session* root per foreign transaction, carrying the
        #: foreign top-level id as its own execution id so the local scheduler
        #: sees a perfectly ordinary nested transaction.
        self._sessions: dict[str, _Frame] = {}
        #: remote message id -> local frame waiting on its result.
        self._waiters: dict[str, str] = {}
        #: Owner-side: session child execution id -> the remote message id
        #: whose result travels back to the requesting shard.
        self._remote_children: dict[str, str] = {}
        #: Outgoing messages for the coordinator, drained at the tick barrier.
        self._outbox: list[tuple] = []
        #: Outgoing lifecycle notes (prepared / aborted / vote results).
        self._notes: list[tuple] = []

    # ------------------------------------------------------------------
    # the round protocol (driven by ShardWorker)
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Admit the pending closed-batch submissions (mirrors :meth:`run`)."""
        self._admit_pending()

    def run_round(self, horizon: int) -> int:
        """Advance the event loop until ``horizon`` (or a cross-shard stall).

        Idle gaps within the round fast-forward exactly as in a plain run,
        so a single-shard round sequence reproduces the plain engine's
        clock bit for bit.

        Returns:
            The number of scheduling decisions made this round.
        """
        return self._run_event_loop(horizon)

    def _stalled_on_remote_work(self) -> bool:
        # Blocked on the barrier: a directive (remote result, global
        # decision) must arrive before progress resumes.
        return bool(self._waiters or self._held or self._sessions)

    def apply_directives(self, directives) -> None:
        """Apply one round's coordinator directives, in order.

        Directive tuples: ``("invoke", remote_id, gid, object, method,
        args)`` admits a remote invocation; ``("result", remote_id,
        value)`` delivers a remote result; ``("vote", gid)`` asks the local
        scheduler's commit vote (answered via a ``("vote", gid, verdict,
        reason)`` note); ``("commit", gid)`` / ``("abort", gid, reason)``
        apply the coordinator's global decision.
        """
        for directive in directives:
            kind = directive[0]
            if kind == "invoke":
                _, remote_id, gid, object_name, method_name, arguments = directive
                self.admit_remote(gid, remote_id, object_name, method_name, arguments)
            elif kind == "result":
                self.deliver_remote_result(directive[1], directive[2])
            elif kind == "vote":
                gid = directive[1]
                verdict, reason = self.commit_vote(gid)
                self._notes.append(("vote", gid, verdict, reason))
            elif kind == "commit":
                self.apply_global_commit(directive[1])
            elif kind == "abort":
                self.apply_global_abort(directive[1], directive[2])
            else:
                raise SimulationError(f"unknown shard directive {directive!r}")

    def drain_outbox(self) -> list[tuple]:
        """The messages queued since the last barrier (clears the outbox)."""
        messages, self._outbox = self._outbox, []
        return messages

    def drain_notes(self) -> list[tuple]:
        """The lifecycle notes queued since the last barrier (clears them)."""
        notes, self._notes = self._notes, []
        return notes

    def pending(self) -> bool:
        """Whether this shard still holds live work or barrier state."""
        return bool(self._frames or self._events or self._waiters or self._held)

    def finalize(self) -> RunResult:
        """Close the shard's run once the driver declares the fleet done."""
        return self._finalise_run()

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------

    def _begin_top_level(self, method_name: str):
        if not self._id_prefix:
            return super()._begin_top_level(method_name)
        # Namespaced ids keep top-level (and hence child) execution ids
        # globally unique across the shard fleet; single-shard runs keep
        # the builder's own ids so they stay bit-identical to plain runs.
        return self._builder.begin_top_level(
            method_name, execution_id=f"{self._id_prefix}T{next(self._txn_counter)}"
        )

    def _start_transaction(self, spec, attempt: int, lineage: int) -> _Frame:
        frame = super()._start_transaction(spec, attempt, lineage)
        if self._classify(spec):
            # Register the attempt for two-phase coordination; each restart
            # is a fresh id, so the coordinator sees attempts, not lineages.
            self._cross.add(frame.execution_id)
        return frame

    def _handle_request(self, frame: _Frame, request: Any) -> None:
        if isinstance(request, InvokeRequest) and not self._owns(request.object_name):
            remote_id = self._send_remote_invoke(frame, request)
            self._set_not_ready(frame, _WAITING)
            frame.waiting_on = {remote_id}
            frame.parallel_order = []
            return
        if isinstance(request, ParallelRequest) and not all(
            self._owns(invocation.object_name) for invocation in request.invocations
        ):
            self._spawn_mixed_parallel(frame, request)
            return
        super()._handle_request(frame, request)

    def _resolve_local(self, frame: _Frame, request):
        step = super()._resolve_local(frame, request)
        if step is not None and self._tracker is not None:
            top_level_id = frame.info.top_level_id
            # Only cross-shard work feeds the inter-shard precedence graph;
            # purely local transactions are the local scheduler's business.
            if top_level_id in self._cross or top_level_id in self._sessions:
                self._tracker.note_step(frame.info, step)
        return step

    def _deliver_to_parent(self, child: _Frame, return_value: Any) -> None:
        remote_id = self._remote_children.pop(child.execution_id, None)
        if remote_id is None:
            super()._deliver_to_parent(child, return_value)
            return
        # A remote-session child: its result travels back to the shard
        # that requested it (open-nesting style, the value is provisional
        # until the global commit); the session root stays open, retaining
        # the subtree's locks, until the coordinator resolves the
        # transaction.
        self._outbox.append(("result", remote_id, child.info.top_level_id, return_value))
        parent = child.parent
        if parent is not None:
            parent.waiting_on.discard(child.execution_id)

    def _complete_top_level(self, frame: _Frame, return_value: Any) -> None:
        if frame.info.top_level_id in self._cross:
            # A cross-shard transaction cannot commit unilaterally: hold the
            # prepared root for the coordinator's two-phase decision.
            self._hold_commit(frame, return_value)
            return
        super()._complete_top_level(frame, return_value)

    def _fault_candidates(self):
        # Foreign sessions are excluded: their home shard owns the lineage.
        return [
            transaction_id
            for transaction_id in self._executions_by_transaction
            if transaction_id not in self._sessions
        ]

    def _abort_transaction(self, top_level_id: str, reason: str) -> None:
        if top_level_id in self._sessions:
            # A locally-detected abort (deadlock, timestamp violation,
            # starvation) of a *foreign* transaction's session: discard the
            # local subtree and notify the coordinator, which relays the
            # abort to the home shard (where restart policy applies).
            self._abort_remote(top_level_id, reason)
            return
        if top_level_id not in self._cross:
            super()._abort_transaction(top_level_id, reason)
            return
        subtree_ids = set(self._executions_by_transaction.get(top_level_id, ()))
        subtree_ids.add(top_level_id)
        super()._abort_transaction(top_level_id, reason)
        # Unregister the attempt and tell the coordinator, so every other
        # participant discards its session for this id.
        self._cross.discard(top_level_id)
        self._held.pop(top_level_id, None)
        self._drop_waiters(subtree_ids)
        self._notes.append(("aborted", top_level_id, reason))

    # ------------------------------------------------------------------
    # home side: remote invocations and held commits
    # ------------------------------------------------------------------

    def _send_remote_invoke(self, frame: _Frame, invocation: InvokeRequest) -> str:
        """Queue a foreign-object invocation for the owning shard."""
        gid = frame.info.top_level_id
        # Safety net for imprecise classifiers: the id is cross-shard from
        # the first remote invoke on, whatever classify() said at submit.
        self._cross.add(gid)
        remote_id = f"{gid}/r{next(self._remote_counter)}"
        self._waiters[remote_id] = frame.execution_id
        self._outbox.append(
            (
                "invoke",
                remote_id,
                gid,
                invocation.object_name,
                invocation.method_name,
                invocation.arguments,
            )
        )
        self.metrics.remote_invocations += 1
        self._record(INVOKE, remote_id, invocation.object_name, invocation.method_name)
        return remote_id

    def _spawn_mixed_parallel(self, frame: _Frame, request: ParallelRequest) -> None:
        """A parallel request whose branches span shards."""
        existing_steps = list(frame.execution.step_ids())
        waiting: set[str] = set()
        order: list[str] = []
        for invocation in request.invocations:
            if self._owns(invocation.object_name):
                child = self._spawn_child(frame, invocation, after=existing_steps)
                waiting.add(child.execution_id)
                order.append(child.execution_id)
            else:
                remote_id = self._send_remote_invoke(frame, invocation)
                waiting.add(remote_id)
                order.append(remote_id)
        self._set_not_ready(frame, _WAITING)
        frame.waiting_on = waiting
        frame.parallel_order = order
        frame.parallel_results = {}

    def deliver_remote_result(self, remote_id: str, value: Any) -> None:
        """A remote invocation's result arrived (stale ids are dropped)."""
        frame_id = self._waiters.pop(remote_id, None)
        if frame_id is None:
            return
        frame = self._frames.get(frame_id)
        if frame is None or frame.status != _WAITING or remote_id not in frame.waiting_on:
            return
        frame.waiting_on.discard(remote_id)
        if frame.parallel_order:
            frame.parallel_results[remote_id] = value
            if not frame.waiting_on:
                frame.inbox = [
                    frame.parallel_results.get(child_id)
                    for child_id in frame.parallel_order
                ]
                frame.parallel_order = []
                frame.parallel_results = {}
                self._set_ready(frame)
        elif not frame.waiting_on:
            frame.inbox = value
            self._set_ready(frame)

    def _hold_commit(self, frame: _Frame, return_value: Any) -> None:
        """Park a prepared cross-shard root until the global decision."""
        self._set_not_ready(frame, _WAITING)
        frame.pending_commit = True
        frame.commit_value = return_value
        self._held[frame.execution_id] = frame
        self._notes.append(("prepared", frame.execution_id))
        self._record(BLOCKED, frame.execution_id, detail="prepared: awaiting global commit")

    def _drop_waiters(self, subtree_ids: set[str]) -> None:
        """Forget the remote results frames of an aborted subtree awaited."""
        for remote_id in [
            remote_id
            for remote_id, frame_id in self._waiters.items()
            if frame_id in subtree_ids
        ]:
            del self._waiters[remote_id]

    # ------------------------------------------------------------------
    # owner side: remote sessions
    # ------------------------------------------------------------------

    def admit_remote(
        self,
        gid: str,
        remote_id: str,
        object_name: str,
        method_name: str,
        arguments: tuple,
    ) -> None:
        """Run a foreign transaction's invocation under a local session root.

        The first invocation for ``gid`` opens the session: an inert
        top-level frame whose execution id *is* the foreign id, so to the
        local scheduler the remote work is an ordinary nested transaction
        (begin, lock inheritance, commit gate and garbage collection all
        key by ``gid`` exactly as on the home shard).  Each invocation is
        spawned as a child of that root; the root itself never becomes
        runnable and is resolved only by the coordinator's global decision.
        """
        if gid in self._aborted_executions:
            return  # raced with a local abort; the coordinator re-relays
        session = self._sessions.get(gid)
        if session is None:
            execution = self._builder.begin_top_level("remote-session", execution_id=gid)
            info = ExecutionInfo(
                execution_id=gid,
                object_name=self.object_base.environment.name,
                method_name="remote-session",
                parent_id=None,
                ancestor_ids=(),
                top_level_id=gid,
            )
            session = _Frame(
                info=info,
                execution=execution,
                generator=_proxy_session_marker,
                status=_WAITING,
                seq=next(self._frame_sequence),
            )
            self._frames[gid] = session
            self._executions_by_transaction[gid] = {gid}
            self._sessions[gid] = session
            self.scheduler.on_transaction_begin(info)
            self._record(BEGIN, gid, detail="remote session")
        child = self._spawn_child(
            session,
            InvokeRequest(object_name, method_name, tuple(arguments)),
            after=None,
        )
        self._remote_children[child.execution_id] = remote_id
        session.waiting_on.add(child.execution_id)

    # ------------------------------------------------------------------
    # the two-phase decision
    # ------------------------------------------------------------------

    def commit_vote(self, gid: str) -> tuple[str, str]:
        """This shard's two-phase vote on ``gid``: commit, defer or abort."""
        frame = self._held.get(gid) or self._sessions.get(gid)
        if frame is None:
            return ("abort", "transaction unknown on this shard")
        response = self.scheduler.on_commit_request(frame.info)
        if response.blocked:
            return ("defer", response.reason or "commit deferred")
        if not response.granted:
            return ("abort", response.reason or "commit vetoed")
        return ("commit", "")

    def apply_global_commit(self, gid: str) -> None:
        """The coordinator decided commit: finalise the local share."""
        frame = self._held.pop(gid, None)
        if frame is not None:
            self._cross.discard(gid)
            self._finalise_commit(frame, frame.commit_value)
            return
        session = self._sessions.pop(gid, None)
        if session is not None:
            self._finalise_session_commit(session)

    def apply_global_abort(self, gid: str, reason: str) -> None:
        """The coordinator decided abort: discard the local share."""
        if gid in self._sessions:
            self._abort_remote(gid, reason)
            return
        self._held.pop(gid, None)
        if gid in self._frames or gid in self._executions_by_transaction:
            # Home shard: the standard abort path applies (restart policy
            # included) and re-notes the abort, which the coordinator
            # ignores for an already-resolved id.
            self._abort_transaction(gid, reason)

    def _finalise_session_commit(self, session: _Frame) -> None:
        """Commit a foreign transaction's local session (owner side).

        Mirrors :meth:`_finalise_commit` minus home-only accounting: the
        commit count, latency and restart-policy bookkeeping belong to the
        home shard; here the session's locks are released, its undo
        segments dropped and its committed executions recorded.
        """
        gid = session.execution_id
        self.scheduler.on_transaction_commit(session.info)
        self._committed.append(gid)
        self._record(COMMITTED, gid, detail="remote session")
        self._set_not_ready(session, _DONE)
        self._frames.pop(gid, None)
        self._undo_log.forget_transaction(gid)
        subtree = self._executions_by_transaction.pop(gid, set())
        self._drain_wakeups({gid, *subtree})
        self._note_finished_attempt()

    def _abort_remote(self, gid: str, reason: str) -> None:
        """Abort a foreign transaction's local session (owner side).

        Mirrors :meth:`_abort_transaction` minus home-only accounting (no
        restart, no give-up, no in-flight or aborted-attempt counts — the
        home shard owns those); wasted local steps are still counted here
        because the work physically ran on this shard.
        """
        session = self._sessions.pop(gid, None)
        if session is None:
            return
        subtree_ids = set(self._executions_by_transaction.get(gid, ()))
        subtree_ids.add(gid)
        frames = self._frames
        subtree_frames = [
            frames[execution_id]
            for execution_id in subtree_ids
            if execution_id in frames
        ]
        self._aborted_executions.update(subtree_ids)
        self._record(ABORTED, gid, detail=reason)
        self.scheduler.on_transaction_abort(session.info, tuple(sorted(subtree_ids)))
        for frame in subtree_frames:
            if frame.status == _PARKED:
                self._clear_parking(frame)
            self._set_not_ready(frame, _DONE)
            self._frames.pop(frame.execution_id, None)
            self._remote_children.pop(frame.execution_id, None)
        self._drop_waiters(subtree_ids)
        self.metrics.wasted_steps += self._undo_states(gid, subtree_ids)
        self._drain_wakeups(subtree_ids)
        self._executions_by_transaction.pop(gid, None)
        self._notes.append(("aborted", gid, reason))
        self._note_finished_attempt()
