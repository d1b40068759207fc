"""Sharded execution: partitioned object space, per-shard schedulers.

The paper's modularity theorem applied one level up: each shard runs a
complete scheduler over its slice of the object base, and the
:class:`InterShardCoordinator` arbitrates only the transactions that
cross shards.  See ``DESIGN.md`` ("Sharded execution") for the
tick-barrier determinism argument and the commit protocol.
"""

from .coordinator import InterShardCoordinator, ShardReport, ShardStepTracker
from .engine import (
    DEFAULT_ROUND_TICKS,
    ShardOutcome,
    ShardWorker,
    ShardedEngine,
    ShardedRunResult,
)
from .map import ShardMap
from .participant import ParticipantEngine

__all__ = [
    "DEFAULT_ROUND_TICKS",
    "InterShardCoordinator",
    "ParticipantEngine",
    "ShardMap",
    "ShardOutcome",
    "ShardReport",
    "ShardStepTracker",
    "ShardWorker",
    "ShardedEngine",
    "ShardedRunResult",
]
