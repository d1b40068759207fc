"""Per-layer self time, measured from outside the program.

The tracer wraps the public entry points of each layer (a module of
``repro``) with a span: name (the layer), start, end and the span that
caused it.  Open spans form a stack; when a span closes, its duration
minus the time its child spans covered is the layer's *self time*.  A
span's id is the top-level transaction it works for — taken from the
call's arguments where the entry point names one (scheduler hooks,
streaming-certifier notes) and inherited from the enclosing span
otherwise.

Nothing under ``src/`` is edited: wrappers replace class attributes (and,
for the post-hoc certifier, module-level function bindings) in the
running process only.  Spans are folded into per-layer and per-(layer,
transaction) aggregates in memory; the caller writes them out at the end.

The self times of all layers partition the root spans exactly: every
nanosecond inside a root span belongs to exactly one open span's self
time.  CPython's collector is traced the same way, through
``gc.callbacks``, as the ``pygc`` layer.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from typing import Any, Callable, Iterable

#: Layers in report order.  ``setup`` covers shard-worker construction
#: inside ``ShardedEngine.run``; it is excluded from the traced wall, and
#: every span opened inside it (a collection, say) counts as set-up too.
LAYERS = (
    "engine",
    "scheduler",
    "coordinator",
    "locks",
    "gate",
    "deadlock",
    "history",
    "streaming",
    "posthoc",
    "adts",
    "shard",
    "pygc",
    "setup",
)

_SCHEDULER_HOOKS = (
    "on_transaction_begin",
    "on_invoke",
    "on_operation",
    "on_operation_executed",
    "on_execution_complete",
    "on_commit_request",
    "on_transaction_commit",
    "on_transaction_abort",
    "collect_garbage",
    "drain_wakeups",
    "live_state_size",
)

_HISTORY_STEP_CALLS = frozenset({"invoke", "local", "record_local", "abort"})


def _top_level_of(args: tuple) -> Any:
    """The top-level transaction id a scheduler hook works for, if any."""
    if len(args) < 2:
        return None
    first = args[1]
    top = getattr(first, "top_level_id", None)
    if top is None:
        info = getattr(first, "info", None)
        top = getattr(info, "top_level_id", None)
    return top


def _first_argument(args: tuple) -> Any:
    """The streaming certifier's notes take the top-level id first."""
    return args[1] if len(args) > 1 and isinstance(args[1], str) else None


def _all_subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class Tracer:
    """Span stack plus the per-layer aggregates it folds spans into."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._index = {layer: i for i, layer in enumerate(LAYERS)}
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Zero every aggregate (call with no span open)."""
        if self._stack:
            raise RuntimeError("tracer reset with open spans")
        count = len(LAYERS)
        self.self_s = [0.0] * count
        #: Entries into a layer from a different layer (nested calls inside
        #: one layer are one entry).
        self.calls = [0] * count
        self.by_transaction: dict[tuple[int, Any], float] = {}
        self.root_s = 0.0
        self.grants = 0
        self.operations = 0
        self.commit_requests = 0
        self.commit_blocks = 0
        self.steps_recorded = 0
        self.streaming_live_peak = 0
        self.gen2_collections = 0
        self._gc_open: list | None = None

    # -- spans -------------------------------------------------------------------

    def _close(self, frame: list, start: float, end: float) -> None:
        """Fold a finished span into the aggregates and its parent."""
        duration = end - start
        own = duration - frame[2]
        layer = frame[0]
        self.self_s[layer] += own
        key = (layer, frame[1])
        by_transaction = self.by_transaction
        by_transaction[key] = by_transaction.get(key, 0.0) + own
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[2] += duration
            if parent[0] != layer:
                self.calls[layer] += 1
        else:
            self.root_s += duration
            self.calls[layer] += 1

    def _wrapper(
        self,
        function: Callable,
        layer: str,
        span_id_of: Callable[[tuple], Any] | None,
        observe: Callable[[tuple, Any, bool], None] | None,
    ) -> Callable:
        index = self._index[layer]
        stack = self._stack
        clock = self._clock
        close = self._close
        setup = self._index["setup"]

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = span_id_of(args) if span_id_of is not None else None
            span_layer = index
            if stack:
                parent_layer = stack[-1][0]
                if parent_layer == setup:
                    span_layer = setup
                if span_id is None:
                    span_id = stack[-1][1]
                outermost = parent_layer != span_layer
            else:
                outermost = True
            frame = [span_layer, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, start, end)
            if observe is not None:
                observe(args, result, outermost)
            return result

        return traced

    def wrap_method(
        self,
        cls: type,
        name: str,
        layer: str,
        span_id_of: Callable[[tuple], Any] | None = None,
        observe: Callable[[tuple, Any, bool], None] | None = None,
    ) -> None:
        """Wrap ``cls.name`` if ``cls`` itself defines it."""
        if name not in cls.__dict__:
            return
        setattr(cls, name, self._wrapper(cls.__dict__[name], layer, span_id_of, observe))

    def wrap_methods(
        self, classes: Iterable[type], names: Iterable[str], layer: str, **options
    ) -> None:
        names = tuple(names)
        for cls in classes:
            for name in names:
                self.wrap_method(cls, name, layer, **options)

    def wrap_function(self, function: Callable, layer: str) -> None:
        """Rebind every ``repro`` module-level reference to ``function``."""
        traced = self._wrapper(function, layer, None, None)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, traced)

    # -- observers ------------------------------------------------------------------

    def _observe_operation(self, args: tuple, response: Any, outermost: bool) -> None:
        if outermost:
            self.operations += 1
            if response.granted:
                self.grants += 1

    def _observe_commit_request(self, args: tuple, response: Any, outermost: bool) -> None:
        if outermost:
            self.commit_requests += 1
            if response.blocked:
                self.commit_blocks += 1

    def _observe_step(self, args: tuple, result: Any, outermost: bool) -> None:
        if outermost:
            self.steps_recorded += 1

    def _observe_streaming_size(self, args: tuple, size: int, outermost: bool) -> None:
        if size > self.streaming_live_peak:
            self.streaming_live_peak = size

    # -- the collector ------------------------------------------------------------

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            stack = self._stack
            layer, span_id = self._index["pygc"], None
            if stack:
                span_id = stack[-1][1]
                if stack[-1][0] == self._index["setup"]:
                    layer = stack[-1][0]
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            self._gc_open = [frame, self._clock()]
            return
        if self._gc_open is None:
            return
        end = self._clock()
        frame, start = self._gc_open
        self._gc_open = None
        self._stack.pop()
        self._close(frame, start, end)
        if info.get("generation") == 2:
            self.gen2_collections += 1

    def start_collector_spans(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def stop_collector_spans(self) -> None:
        gc.callbacks.remove(self._gc_callback)

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        import repro.objectbase.adts  # noqa: F401 - defines the ADT classes
        import repro.scheduler  # noqa: F401 - registers every scheduler
        from repro.analysis import certify as certify_module
        from repro.analysis.streaming import StreamingCertifier
        from repro.core.conflicts import ConflictSpec, PerObjectConflicts
        from repro.core.history import HistoryBuilder
        from repro.core.operations import LocalOperation
        from repro.scheduler.base import Scheduler
        from repro.scheduler.deadlock import WaitsForGraph
        from repro.scheduler.locks import LockManager
        from repro.scheduler.modular import InterObjectCoordinator
        from repro.scheduler.recovery import CommitGate
        from repro.shard.coordinator import InterShardCoordinator, ShardStepTracker
        from repro.shard.engine import ShardedEngine, ShardWorker
        from repro.simulation.engine import SimulationEngine

        self.wrap_methods(
            [SimulationEngine],
            ("run", "run_shard_round", "apply_shard_directives", "finalize_shard"),
            "engine",
        )
        schedulers = _all_subclasses(Scheduler)
        for name in _SCHEDULER_HOOKS:
            observe = None
            if name == "on_operation":
                observe = self._observe_operation
            elif name == "on_commit_request":
                observe = self._observe_commit_request
            self.wrap_methods(
                schedulers, (name,), "scheduler", span_id_of=_top_level_of, observe=observe
            )
        self.wrap_methods(
            [InterObjectCoordinator],
            (
                "check_step",
                "record_step",
                "note_begin",
                "note_finished",
                "collect_garbage",
                "forget_transaction",
                "live_state_size",
            ),
            "coordinator",
        )
        self.wrap_methods(
            [LockManager],
            ("request", "conflicting_holders", "release_all", "release_all_of", "transfer"),
            "locks",
        )
        self.wrap_methods(
            [CommitGate],
            (
                "begin",
                "finish",
                "record_step",
                "check_operation",
                "check_commit",
                "live_state_size",
            ),
            "gate",
        )
        self.wrap_methods(
            [WaitsForGraph],
            (
                "park",
                "unpark",
                "set_waits",
                "clear_waits",
                "remove_transaction",
                "find_cycle_from",
                "is_waited_on",
                "has_self_wait",
                "parked_keys",
                "waits_of",
            ),
            "deadlock",
        )
        for name in (
            "begin_top_level",
            "invoke",
            "local",
            "record_local",
            "abort",
            "finish",
            "execution_record",
            "intervals_for",
            "build",
        ):
            observe = self._observe_step if name in _HISTORY_STEP_CALLS else None
            self.wrap_method(HistoryBuilder, name, "history", observe=observe)
        for name in ("note_begin", "note_commit", "note_abort"):
            self.wrap_method(StreamingCertifier, name, "streaming", span_id_of=_first_argument)
        self.wrap_method(StreamingCertifier, "collect_garbage", "streaming")
        self.wrap_method(StreamingCertifier, "finalise", "streaming")
        self.wrap_method(
            StreamingCertifier, "live_state_size", "streaming", observe=self._observe_streaming_size
        )
        self.wrap_function(certify_module.certify_run, "posthoc")
        self.wrap_methods(_all_subclasses(LocalOperation), ("apply",), "adts")
        self.wrap_methods(
            _all_subclasses(ConflictSpec) + [PerObjectConflicts],
            ("operations_conflict", "steps_conflict"),
            "adts",
        )
        self.wrap_methods([ShardedEngine], ("run",), "shard")
        self.wrap_methods([ShardWorker], ("round", "finalize"), "shard")
        self.wrap_methods([ShardWorker], ("__init__",), "setup")
        self.wrap_methods([InterShardCoordinator], ("process_round", "break_stall"), "shard")
        self.wrap_methods([ShardStepTracker], ("note_step", "forget", "drain_edges"), "shard")

    # -- results --------------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return self.self_s[self._index[layer]]

    def layer_calls(self, layer: str) -> int:
        return self.calls[self._index[layer]]

    def transactions_summary(self, limit: int = 20) -> dict[str, Any]:
        """Per-transaction self time: span-id count and the costliest ids."""
        totals: dict[Any, float] = {}
        for (layer, span_id), seconds in self.by_transaction.items():
            if span_id is not None:
                totals[span_id] = totals.get(span_id, 0.0) + seconds
        costliest = sorted(totals.items(), key=lambda item: (-item[1], str(item[0])))[:limit]
        unattributed = sum(
            seconds for (layer, span_id), seconds in self.by_transaction.items() if span_id is None
        )
        return {
            "span_ids": len(totals),
            "unattributed_s": unattributed,
            "costliest": [
                {"id": str(span_id), "self_s": seconds} for span_id, seconds in costliest
            ],
        }
