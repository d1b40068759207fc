"""Certifier oracle: commit validation cross-checked against full re-enumeration.

:class:`~repro.scheduler.certifier.OptimisticCertifier` classifies each
executed step once and, at commit, merely selects the pre-filed candidate
edges whose other side has resolved.  :class:`CheckedCertifier` re-derives
those edges at every commit the original way — by enumerating every
recorded step pair that involves the candidate — and raises
:class:`~repro.core.errors.VerificationError` on any divergence.
"""

from __future__ import annotations

import itertools

from repro.core.errors import VerificationError
from repro.scheduler.certifier import OptimisticCertifier, disjoint_ancestors


class CheckedCertifier(OptimisticCertifier):
    """The optimistic certifier with every commit decision cross-checked."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reset_oracle()

    def attach(self, object_base) -> None:
        super().attach(object_base)
        self._reset_oracle()

    def _reset_oracle(self) -> None:
        #: Ids whose records garbage collection removed: edges towards them
        #: were filed while the records existed, but the re-enumeration can
        #: no longer see them, so the comparison leaves them out.
        self.pruned_committed: set[str] = set()
        #: Conflict-spec calls the re-enumeration made (the library's own
        #: commit path makes none).
        self.enumeration_conflict_calls = 0

    def collect_garbage(self) -> int:
        retained = set(self._resolve_seq)
        removed = super().collect_garbage()
        self.pruned_committed |= retained - set(self._resolve_seq)
        return removed

    def _active_edges(self, candidate_id: str):
        active = super()._active_edges(candidate_id)
        visible = [
            edge for edge in active if edge.other(candidate_id) not in self.pruned_committed
        ]
        expected_edges, expected_owner_of = self._enumerate_edges(candidate_id)
        incremental_edges = {(edge.source, edge.target) for edge in visible}
        if incremental_edges != expected_edges:
            raise VerificationError(
                f"certifier check: candidate {candidate_id!r} incremental edges "
                f"{sorted(incremental_edges)!r} != legacy {sorted(expected_edges)!r}"
            )
        owner_of = self._owner_map(visible)
        if owner_of != expected_owner_of:
            raise VerificationError(
                f"certifier check: candidate {candidate_id!r} owner map diverges "
                f"({owner_of!r} != {expected_owner_of!r})"
            )
        return active

    def _enumerate_edges(self, candidate_id: str) -> tuple[set[tuple[str, str]], dict[str, str]]:
        """Every precedence edge between the candidate and committed work."""
        relevant = self._committed | {candidate_id}
        edges: set[tuple[str, str]] = set()
        owner_of: dict[str, str] = {}
        for object_name, records in self._steps_by_object.items():
            for first, second in itertools.combinations(records, 2):
                if first.transaction_id not in relevant or second.transaction_id not in relevant:
                    continue
                if candidate_id not in (first.transaction_id, second.transaction_id):
                    continue
                earlier, later = (first, second) if first.sequence < second.sequence else (second, first)
                self.enumeration_conflict_calls += 1
                if not self._conflicting(object_name, earlier.step, later.step):
                    continue
                pair = disjoint_ancestors(earlier.info, later.info)
                if pair is None:
                    continue  # comparable executions: no ordering constraint
                edges.add(pair)
                owner_of[pair[0]] = earlier.transaction_id
                owner_of[pair[1]] = later.transaction_id
        return edges, owner_of
