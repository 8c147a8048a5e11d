"""Saved-work accounting of one online scheduling session.

The service's headline claim — an incremental re-solve recomputes only the
stale slice of the initial score grid — is only auditable if the session
counts what it recomputed and what it reused.  :class:`SessionStats` is that
ledger: every mutation batch records how much of the grid it invalidated, and
every re-solve records how many initial score computations ran versus how
many the warm grid supplied for free.  The snapshot is surfaced through
``session-status`` replies and through
``SchedulerResult.summary()["service"]``.

Like :class:`~repro.core.counters.ComputationCounter`, the fields are bumped
only through the ``record_*`` helpers (the counter-discipline lint rule
enforces this for every module outside this one), so a misattributed bump is
a lint failure instead of a silently wrong benchmark column.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict


@dataclass
class SessionStats:
    """Counters of one :class:`~repro.service.session.SchedulingSession`.

    Attributes
    ----------
    mutations_applied:
        Individual mutations committed (a rejected batch contributes zero).
    mutation_batches:
        Atomic batches committed.
    stale_rows_marked:
        Event rows of the score grid newly invalidated by mutation batches.
    stale_columns_marked:
        Interval columns of the score grid newly invalidated by mutation
        batches (lock/unlock mutations, and interest updates touching a
        locked event).
    resolves_total:
        Calls to :meth:`~repro.service.session.SchedulingSession.resolve`.
    warm_resolves:
        Re-solves that patched a cached grid instead of recomputing it whole.
    scores_recomputed:
        Initial score computations actually performed across all resolves
        (full grids on cold captures, stale rows/columns on warm patches).
    scores_saved:
        Initial score computations a cold solve would have performed that the
        warm grid supplied from cache.
    """

    mutations_applied: int = 0
    mutation_batches: int = 0
    stale_rows_marked: int = 0
    stale_columns_marked: int = 0
    resolves_total: int = 0
    warm_resolves: int = 0
    scores_recomputed: int = 0
    scores_saved: int = 0

    def record_batch(self, mutations: int, rows: int, columns: int) -> None:
        """Record one committed mutation batch and the staleness it added."""
        self.mutations_applied += int(mutations)
        self.mutation_batches += 1
        self.stale_rows_marked += int(rows)
        self.stale_columns_marked += int(columns)

    def record_resolve(self, *, warm: bool, recomputed: int, saved: int) -> None:
        """Record one re-solve and its recomputed-versus-saved score split."""
        self.resolves_total += 1
        if warm:
            self.warm_resolves += 1
        self.scores_recomputed += int(recomputed)
        self.scores_saved += int(saved)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (the ``service`` cell of result summaries)."""
        return asdict(self)


__all__ = ["SessionStats"]
