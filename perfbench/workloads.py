"""The four benchmark workloads, as scenario specifications built from a seed.

Each workload is a pure function of the seed: the same seed gives the same
transactions, the same arrival schedule and the same engine RNG, so every
scheduling decision (and hence every count and every latency in ticks)
repeats bit for bit.  Only the wall-clock figures vary between runs.

Why each workload exists is documented in ``perfbench/README.md``; the
short version is that each one puts a different layer on the critical
path:

* ``long-stream``    engine, streaming certifier, optimistic scheduler,
                     history retention (open loop, poisson arrivals);
* ``closed-modular`` inter-object coordinator, parking, deadlock
                     detection, abort/undo (closed batch, all at tick 0);
* ``orders-flash``   ADT code and step-level locking under flash-crowd
                     bursts (open loop);
* ``sharded-2pc``    the shard layer (2PC, lock-step rounds) and the
                     post-hoc serialisation-graph builder (open loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

WORKLOAD_NAMES = ("long-stream", "closed-modular", "orders-flash", "sharded-2pc")

#: Stream length of ``long-stream`` (and of ``sharded-2pc``'s input before
#: the split).  Every workload commits at least 1,000 transactions so that
#: at least ten latency samples lie beyond the p99.
LONG_STREAM_ARRIVALS = 4000
CLOSED_MODULAR_TRANSACTIONS = 1000
ORDERS_FLASH_ARRIVALS = 3000
SHARDED_ARRIVALS = 1100

GC_INTERVAL = 64
SHARDS = 2
#: Barrier spacing of ``sharded-2pc`` in ticks (the engine default is 64).
ROUND_TICKS = 4

#: Independent input streams per seed.  Latency in ticks is deterministic
#: per stream, so its spread across seeds shrinks only with more samples:
#: the end-to-end figures pool the first run of every sub-stream.
SUBSTREAMS = {
    "long-stream": 5,
    "closed-modular": 3,
    "orders-flash": 8,
    "sharded-2pc": 4,
}


def substream_seed(seed: int, index: int) -> int:
    """The input seed of sub-stream ``index`` of benchmark seed ``seed``."""
    return seed * 1000 + index


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario spec plus how to run it."""

    name: str
    spec: Any  # repro.sweep.ScenarioSpec
    #: Run through ``repro.shard.ShardedEngine`` over ``SHARDS`` in-process
    #: shards instead of one ``SimulationEngine``.
    sharded: bool = False


def _hotspot_params(transactions: int, cold_objects: int, seed: int) -> dict[str, Any]:
    return {
        "transactions": transactions,
        "hot_objects": 2,
        "cold_objects": cold_objects,
        "operations_per_transaction": 2,
        "hot_probability": 0.05,
        "use_service_layer": False,
        "seed": seed,
    }


def _long_stream_spec(seed: int, scheduler: str, certify: Any, arrivals: int):
    from repro.sweep import ScenarioSpec

    return ScenarioSpec(
        workload="hotspot-stream",
        scheduler=scheduler,
        seed=seed,
        workload_params={
            "inner_params": _hotspot_params(arrivals, 128, seed),
            "arrival": "poisson",
            "arrival_params": {"rate": 0.04},
        },
        scheduler_kwargs={"restart_policy": "backoff"},
        engine_params={"gc_interval": GC_INTERVAL},
        certify=certify,
    )


def make_workload(name: str, seed: int, *, stream_check: bool = False) -> Workload:
    """The named workload for ``seed``.

    ``stream_check`` asks for the untimed certification variant of
    ``closed-modular``: the identical run with ``certify="stream"``, whose
    deterministic metrics must equal the timed (uncertified) runs'.
    """
    from repro.sweep import ScenarioSpec

    if name == "long-stream":
        spec = _long_stream_spec(seed, "certifier", "stream", LONG_STREAM_ARRIVALS)
        return Workload(name, spec)
    if name == "closed-modular":
        spec = ScenarioSpec(
            workload="hotspot",
            scheduler="modular",
            seed=seed,
            workload_params=_hotspot_params(CLOSED_MODULAR_TRANSACTIONS, 1024, seed),
            scheduler_kwargs={"restart_policy": "backoff"},
            engine_params={"gc_interval": GC_INTERVAL},
            certify="stream" if stream_check else False,
        )
        return Workload(name, spec)
    if name == "orders-flash":
        spec = ScenarioSpec(
            workload="order-processing-stream",
            scheduler="n2pl-step",
            seed=seed,
            workload_params={
                "inner_params": {"transactions": ORDERS_FLASH_ARRIVALS, "seed": seed},
                "arrival": "flash-crowd",
                "arrival_params": {
                    "rate": 0.02,
                    "spike_factor": 3.0,
                    "spike_length": 60,
                    "mean_calm": 500,
                },
            },
            scheduler_kwargs={"restart_policy": "backoff"},
            engine_params={"gc_interval": GC_INTERVAL},
            certify="stream",
        )
        return Workload(name, spec)
    if name == "sharded-2pc":
        # certify=True is the sharded default: each shard certifies its
        # committed projection post hoc inside the run.  Timestamp ordering,
        # because locking schedulers can wedge a sharded run (README).
        spec = _long_stream_spec(seed, "nto", True, SHARDED_ARRIVALS)
        return Workload(name, spec, sharded=True)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
