"""Reference implementations the test-suite and benchmarks compare against.

Each oracle is the simple implementation an optimised library path
replaced, wrapped around the library from outside (a subclass or a
function over its public objects), so the library itself carries no
checking modes:

* :mod:`tests.oracles.engine` — the frame-scan chooser and full-replay
  undo (engine subclasses);
* :mod:`tests.oracles.graphs` — the from-scratch order-pair, ``SG(h)``,
  ``SG_local``/``SG_mesg`` and Theorem 5 builders, plus certification on
  top of them;
* :mod:`tests.oracles.certifier` — the optimistic certifier with every
  commit decision re-derived by full step-pair enumeration.

Import it as ``tests.oracles`` from the repository root.
"""

from .certifier import CheckedCertifier
from .engine import CheckedUndoEngine, ReplayUndoEngine, ScanLoopEngine
from .graphs import (
    assert_graphs_match,
    certify_history_legacy,
    order_pairs_legacy,
    precedes_legacy,
    serialisation_graph_legacy,
    sg_local_legacy,
    sg_mesg_legacy,
    theorem_5_conditions_legacy,
)

__all__ = [
    "CheckedCertifier",
    "CheckedUndoEngine",
    "ReplayUndoEngine",
    "ScanLoopEngine",
    "assert_graphs_match",
    "certify_history_legacy",
    "order_pairs_legacy",
    "precedes_legacy",
    "serialisation_graph_legacy",
    "sg_local_legacy",
    "sg_mesg_legacy",
    "theorem_5_conditions_legacy",
]
