"""The per-pair Eq. 4 oracle of the scoring engine's bulk path.

:class:`~repro.core.scoring.ScoringEngine` scores whole event blocks per
vectorised pass; :meth:`~repro.core.scoring.ScoringEngine.assignment_score`
is its per-pair reference.  Whole-run comparisons (every scheduler, the
service, the benchmarks) need the per-pair path *inside* a run, so
:func:`per_pair_scoring` patches the engine's private bulk pair
(``_bulk_interval_scores`` / ``_bulk_score_matrix``) with one
``_pair_score`` call per (event, interval) pair.  The patch sits below the
counting of ``interval_scores`` / ``score_matrix``, so counters are recorded
exactly as on the bulk path, and while it is active every engine, however it
was built, scores pair by pair::

    with per_pair_scoring():
        reference = run_scheduler("INC", instance, k)
"""

from __future__ import annotations

import contextlib
from typing import ContextManager, Iterator, Optional
from unittest import mock

import numpy as np

from repro.core.scoring import ScoringEngine

#: Name of the oracle in the variant tables of the equivalence suites.
ORACLE = "oracle"


def _interval_scores(
    engine: ScoringEngine, interval_index: int, selector: Optional[np.ndarray]
) -> np.ndarray:
    if selector is None:
        selector = np.arange(engine.instance.num_events, dtype=np.intp)
    return np.array(
        [engine._pair_score(int(event), interval_index) for event in selector],
        dtype=np.float64,
    )


def _score_matrix(engine: ScoringEngine, selector: Optional[np.ndarray]) -> np.ndarray:
    num_rows = engine.instance.num_events if selector is None else int(selector.size)
    num_intervals = engine.instance.num_intervals
    matrix = np.empty((num_rows, num_intervals), dtype=np.float64)
    for interval_index in range(num_intervals):
        matrix[:, interval_index] = _interval_scores(engine, interval_index, selector)
    return matrix


#: The engine's own bulk pair, captured before any patch.
_BULK_PAIR = (ScoringEngine._bulk_interval_scores, ScoringEngine._bulk_score_matrix)


@contextlib.contextmanager
def _scoring_with(interval_scores, score_matrix) -> Iterator[None]:
    with mock.patch.object(ScoringEngine, "_bulk_interval_scores", interval_scores), \
            mock.patch.object(ScoringEngine, "_bulk_score_matrix", score_matrix):
        yield


def per_pair_scoring() -> ContextManager[None]:
    """Score every engine pair by pair while the context is active."""
    return _scoring_with(_interval_scores, _score_matrix)


def bulk_scoring() -> ContextManager[None]:
    """Score on the engine's bulk path, even inside :func:`per_pair_scoring`."""
    return _scoring_with(*_BULK_PAIR)


#: Both scoring paths by variant name: the engine's bulk path and the oracle.
SCORING_PATHS = {"batch": bulk_scoring, ORACLE: per_pair_scoring}
