"""The attendance model and scoring engine (paper Eq. 1–4).

The probability that user ``u`` attends candidate event ``e`` scheduled at
interval ``t`` follows Luce's choice model (Eq. 1):

.. math::

    ρ_{u,e}^t = σ_u^t · \\frac{µ_{u,e}}
        {\\sum_{c ∈ C_t} µ_{u,c} + \\sum_{p ∈ E_t(S)} µ_{u,p}}

The expected attendance of the event is the sum of these probabilities over
users (Eq. 2), the utility of a schedule is the sum of expected attendances of
its scheduled events (Eq. 3), and the *assignment score* of adding ``α_e^t``
to a schedule is the resulting gain in interval utility (Eq. 4).

:class:`ScoringEngine` maintains, per interval, the per-user sums needed to
evaluate a score in a single vectorised pass over the users, and reports every
evaluation to a :class:`~repro.core.counters.ComputationCounter` so that the
paper's "number of computations" metric (``|U|`` per score) can be reproduced
exactly.

:meth:`ScoringEngine.assignment_score` is the per-pair reference of Eq. 4.
The bulk entry points (:meth:`~ScoringEngine.interval_scores`,
:meth:`~ScoringEngine.score_matrix`, :meth:`~ScoringEngine.refresh_scores`)
score whole candidate blocks per vectorised NumPy pass, cut and traversed as
the :class:`~repro.core.execution.ExecutionConfig` knobs ``chunk_size`` and
``plan`` say.  Both paths perform the same elementary operations in the same
order per (user, event) element, so their scores are bit-identical, and both
report one score computation (``|U|`` user computations) per (event,
interval) pair to the counter.

Two facilities support the incremental schedulers and large instances:

* :meth:`ScoringEngine.refresh_scores` is the bulk *stale-refresh* entry
  point: it recomputes the current scores of a selected set of events at one
  interval (the update-phase counterpart of the generation-phase bulk calls).
  INC and HOR-I use it to resolve whole prefixes of stale assignments in a
  few vectorised passes instead of one ``assignment_score`` call per pair.
* The bulk path *chunks the event axis*: bulk evaluations never
  materialise more than ``chunk_size × |U|`` temporary elements at once
  (``chunk_size`` defaults to :data:`~repro.core.execution.DEFAULT_CHUNK_ELEMENTS`
  divided by ``|U|``), so million-user instances stay within a bounded memory
  envelope.  Chunking splits only the event axis — every row's per-user
  reduction is unchanged — so chunked and unchunked results are bit-identical.

The engine also supports the §2.1 extensions: per-user weights (applied to σ)
and per-event value multipliers / organisation costs (profit-oriented SES).
With the default entity values these reduce exactly to the paper's equations.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.counters import ComputationCounter
from repro.core.errors import ScheduleError
from repro.core.execution import (
    DEFAULT_CHUNK_ELEMENTS,
    ExecutionConfig,
    _guarded_divide,
)
from repro.core.instance import SESInstance
from repro.core.patterns import InterestStructure, mine_structure
from repro.core.schedule import Schedule
from repro.core.storage import (
    DenseEventRows,
    DenseStore,
    EventRowSource,
    InterestStore,
    SparseStore,
    StoreEventRows,
    unit_values,
)


def build_static_arrays(instance: SESInstance):
    """The kernels' static per-instance inputs: ``(comp, sigma, values, costs)``.

    ``comp`` are the per-interval competing-interest sums, ``sigma`` the
    weight-scaled activity probabilities, ``values`` / ``costs`` the per-event
    multipliers.  Factored out of the engine so the structure analysis
    (:mod:`repro.analysis.blocks`) derives bit-identical arrays: both run
    exactly this code on exactly the same inputs.
    """
    comp = instance.competing_sums
    sigma = instance.activity * instance.user_weights[:, np.newaxis]
    values = instance.event_values()
    costs = instance.event_costs()
    return comp, sigma, values, costs


def build_event_rows(store: InterestStore, values: np.ndarray) -> EventRowSource:
    """The event-major row source the bulk path iterates.

    A dense store precomputes the contiguous ``µ.T`` matrix once, with
    ``-0.0`` folded into ``0.0`` in the same copy, plus ``value·µ.T`` unless
    every event value is 1.0 (:func:`~repro.core.storage.unit_values`: then
    µ.T serves as both and the source holds one matrix), served as
    zero-copy views.  Sparse and mmap stores densify one event block at a
    time through
    :class:`~repro.core.storage.StoreEventRows`, computing ``value·µ`` per
    block — elementwise-identical to the dense precompute, so the scores
    stay bit-identical across storages.
    """
    if isinstance(store, DenseStore):
        dense = store.to_dense()
        mu_rows = np.empty((dense.shape[1], dense.shape[0]), dtype=np.float64)
        np.add(dense.T, 0.0, out=mu_rows)
        if unit_values(values):
            return DenseEventRows(mu_rows, mu_rows)
        return DenseEventRows(mu_rows, values[:, np.newaxis] * mu_rows)
    return StoreEventRows(store, values)


def instance_structure(
    instance: SESInstance,
    event_rows: EventRowSource,
    sigma: np.ndarray,
    comp: np.ndarray,
    chunk_size: int,
) -> InterestStructure:
    """The instance's interest structure, mined at most once per instance.

    The first call mines ``event_rows`` / ``sigma`` / ``comp`` (the
    instance's own kernel inputs) with :func:`mine_structure` and keeps the
    result on the instance; later calls — every engine of every scheduler
    run on the same instance — return it unmined.  Labels do not depend on
    ``chunk_size``, so one memo serves every execution config.  Filling the
    memo marks the arrays the structure was mined from, and the structure's
    own arrays, read-only (the contract documented on
    :class:`~repro.core.instance.SESInstance`), so an in-place edit cannot
    leave the memo stale.  A new instance (``dataclasses.replace``,
    ``with_storage``, a service rebuild) starts with an empty memo.
    """
    structure = instance._interest_structure
    if structure is None:
        structure = mine_structure(event_rows, sigma, comp, chunk_size)
        frozen = [
            instance.activity,
            instance.user_weights,
            instance.competing_sums,
            structure.labels,
            structure.representatives,
            structure.counts,
        ]
        store = instance.interest.store
        if isinstance(store, DenseStore):
            frozen.append(store.values)
        elif isinstance(store, SparseStore):
            frozen.extend(store.csr_arrays)
        for array in frozen:
            array.setflags(write=False)
        instance._interest_structure = structure
    return structure


def build_pattern_matrix(
    event_rows: EventRowSource, structure: InterestStructure, chunk_size: int
) -> Optional[np.ndarray]:
    """The ``(|E|, P)`` matrix of representative µ columns, or ``None`` past the budget.

    One streamed pass over ``event_rows`` (blocks of at most ``chunk_size``
    events) gathers each block's representative columns.  The matrix is
    only materialised while ``|E| · P`` fits
    :data:`~repro.core.execution.DEFAULT_CHUNK_ELEMENTS` — the library's one
    memory rule for it, a function of instance shape alone, so whether it
    exists never depends on storage or plan.
    """
    num_events = event_rows.num_rows
    if structure.num_classes * num_events > DEFAULT_CHUNK_ELEMENTS:
        return None
    pattern_mu = np.empty((num_events, structure.num_classes), dtype=np.float64)
    step = max(1, chunk_size)
    for start in range(0, num_events, step):
        stop = min(start + step, num_events)
        mu_rows, _ = event_rows.block(start, stop)
        pattern_mu[start:stop] = mu_rows[:, structure.representatives]
    return pattern_mu


class ScoringEngine:
    """Incremental evaluator of interval utilities and assignment scores.

    The engine holds, for every interval ``t``:

    * ``comp[:, t]`` — the per-user competing-interest sums (static),
    * ``A[t]`` — the per-user sums of interest over events currently scheduled
      at ``t`` (updated by :meth:`apply`),
    * ``V[t]`` — the value-weighted variant of ``A[t]``; when every event
      value is 1.0 it is bit for bit ``A[t]``, so the engine holds one array
      for both (``_scheduled_value_interest is _scheduled_interest``),
    * the number of events applied at ``t`` (an empty interval takes the
      kernel's ``scheduled=None`` path),
    * the interval's current utility.

    Every call to :meth:`assignment_score` costs one pass over the users and
    is counted as one score computation (``|U|`` user computations), matching
    the paper's metric.  :meth:`interval_scores` and :meth:`score_matrix`
    evaluate many assignments at once, in event blocks of at most
    ``chunk_size`` rows, and count one score computation per evaluated pair,
    so counter totals are identical to per-pair evaluation.

    Parameters
    ----------
    execution:
        The :class:`~repro.core.execution.ExecutionConfig` holding the bulk
        path's knobs (``None`` selects the library defaults).  Only affects
        how :meth:`interval_scores` / :meth:`score_matrix` compute their
        results — never the values.
    """

    def __init__(
        self,
        instance: SESInstance,
        counter: Optional[ComputationCounter] = None,
        *,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        self._instance = instance
        self._counter = counter if counter is not None else ComputationCounter()
        if self._counter.num_users == 0:
            self._counter.num_users = instance.num_users
        self._execution = (execution or ExecutionConfig()).resolve(instance.num_users)

        self._store = instance.interest.store
        self._comp, self._sigma, self._values, self._costs = build_static_arrays(instance)

        # Event-major rows of µ and value·µ: each row is one event's per-user
        # column, contiguous so that the per-row reductions of the bulk path
        # use the same pairwise summation as the per-pair path's 1-D sums
        # (keeping the two bit-identical).  Dense stores precompute both
        # matrices once; sparse/mmap stores densify per block so memory stays
        # bounded by the chunk size.
        self._event_rows: EventRowSource = build_event_rows(self._store, self._values)

        # Per-interval upper bound on the floating-point noise of one
        # assignment score (see score_noise_tolerance): every per-user
        # attendance term is within [0, σ_u · max value], utilities are sums
        # of |U| such terms, and a score is a difference of two utilities.
        value_scale = float(np.max(self._values, initial=1.0))
        self._score_noise_tol = (
            1024.0
            * np.finfo(np.float64).eps
            * (1.0 + self._sigma.sum(axis=0) * max(1.0, value_scale))
        )
        if np.unique(self._values).size > 1:
            # Unequal values break Proposition 1 (see score_noise_tolerance).
            self._score_noise_tol[:] = np.inf

        num_intervals = instance.num_intervals
        num_users = instance.num_users
        self._scheduled_interest = np.zeros((num_intervals, num_users), dtype=np.float64)
        if unit_values(self._values):
            # V[t] = Σ 1.0·µ is A[t] bit for bit: one array serves both.
            self._scheduled_value_interest = self._scheduled_interest
        else:
            self._scheduled_value_interest = np.zeros(
                (num_intervals, num_users), dtype=np.float64
            )
        self._interval_events = [0] * num_intervals
        self._interval_utility = np.zeros(num_intervals, dtype=np.float64)
        self._applied_cost = 0.0
        self._events_applied: Dict[int, int] = {}

        # Statics of the per-interval fresh-score upper bound (computed once,
        # lazily, by _ensure_bound_statics) and the per-interval bound cache
        # (invalidated by apply()/reset() for the touched interval).
        self._bound_ready = False
        self._bound_max_value: Optional[np.ndarray] = None
        self._bound_max_value_mu: Optional[np.ndarray] = None
        self._bound_class_comp: Optional[np.ndarray] = None
        self._bound_class_weights: Optional[np.ndarray] = None
        self._bound_class_max_value: Optional[np.ndarray] = None
        self._bound_class_peak_mu: Optional[np.ndarray] = None
        self._bound_structure: Optional[InterestStructure] = None
        self._bound_pattern_mu: Optional[np.ndarray] = None
        self._bound_cache: Dict[int, float] = {}

        # The scoring plan decides how the bulk kernel traverses
        # one event block (see ScoringPlan); bound last so its prepare() hook
        # can mine structure from the fully-initialised engine.
        self._plan_impl = self._execution.create_plan().bind(self)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> SESInstance:
        """The instance the engine evaluates."""
        return self._instance

    @property
    def counter(self) -> ComputationCounter:
        """The counter receiving score-computation events."""
        return self._counter

    @property
    def execution(self) -> ExecutionConfig:
        """The fully-resolved execution configuration of this engine."""
        return self._execution

    @property
    def plan(self) -> str:
        """Name of the active scoring plan (``"direct"`` unless selected otherwise)."""
        return self._execution.plan

    @property
    def scoring_plan(self):
        """The live :class:`~repro.core.execution.ScoringPlan` instance."""
        return self._plan_impl

    @property
    def chunk_size(self) -> int:
        """Events evaluated per vectorised pass (the bulk memory guard)."""
        return self._execution.chunk_size

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget every applied assignment (counters are *not* reset)."""
        self._scheduled_interest.fill(0.0)
        self._scheduled_value_interest.fill(0.0)
        self._interval_events = [0] * self._instance.num_intervals
        self._interval_utility.fill(0.0)
        self._applied_cost = 0.0
        self._events_applied.clear()
        self._bound_cache.clear()

    def apply(self, event_index: int, interval_index: int, score: Optional[float] = None) -> float:
        """Add event ``event_index`` to interval ``interval_index``.

        Parameters
        ----------
        score:
            The previously computed assignment score for this pair.  When
            given, the interval utility is advanced by it without recomputing
            (this mirrors how the paper's algorithms reuse the score of the
            selected assignment); otherwise the score is computed (and
            counted) first.

        Returns
        -------
        float
            The gain in total utility caused by the assignment.
        """
        if event_index in self._events_applied:
            raise ScheduleError(
                f"event {event_index} was already applied to interval "
                f"{self._events_applied[event_index]}"
            )
        if score is None:
            score = self.assignment_score(event_index, interval_index)
        column = self._mu_column(event_index)
        self._scheduled_interest[interval_index] += column
        if self._scheduled_value_interest is not self._scheduled_interest:
            self._scheduled_value_interest[interval_index] += self._values[event_index] * column
        self._interval_events[interval_index] += 1
        self._interval_utility[interval_index] += score
        self._applied_cost += self._costs[event_index]
        self._events_applied[event_index] = interval_index
        self._bound_cache.pop(interval_index, None)
        return score

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def _interval_utility_of(
        self,
        interval_index: int,
        scheduled_interest: np.ndarray,
        scheduled_value_interest: np.ndarray,
    ) -> float:
        """Utility of one interval for given per-user scheduled-interest sums."""
        denominator = self._comp[:, interval_index] + scheduled_interest
        numerator = self._sigma[:, interval_index] * scheduled_value_interest
        contributions = _guarded_divide(numerator, denominator)
        return float(contributions.sum())

    def assignment_score(
        self,
        event_index: int,
        interval_index: int,
        *,
        initial: bool = False,
        count: bool = True,
    ) -> float:
        """Assignment score (Eq. 4): utility gain of adding ``α_e^t`` now.

        Parameters
        ----------
        initial:
            Whether the computation belongs to the initial assignment
            generation phase (kept separate in the counters).
        count:
            Set to ``False`` for evaluations that should not affect the
            paper's computation metric (e.g. reporting).
        """
        if count:
            self._counter.count_score(initial=initial)
        return self._pair_score(event_index, interval_index)

    def _mu_column(self, event_index: int) -> np.ndarray:
        """Dense per-user interest column of one event.

        A view for the ``"dense"`` storage (exactly the old ``µ[:, e]``);
        sparse and mmap stores densify the single ``|U|`` column, holding the
        same float values, so every consumer stays bit-identical.
        """
        return self._store.column(event_index)

    def _pair_score(self, event_index: int, interval_index: int) -> float:
        """The per-pair (reference) score computation of one (event, interval) pair."""
        column = self._mu_column(event_index)
        new_interest = self._scheduled_interest[interval_index] + column
        new_value_interest = (
            self._scheduled_value_interest[interval_index] + self._values[event_index] * column
        )
        new_utility = self._interval_utility_of(interval_index, new_interest, new_value_interest)
        return new_utility - self._interval_utility[interval_index]

    def interval_scores(
        self,
        interval_index: int,
        event_indices: Optional[Sequence[int]] = None,
        *,
        initial: bool = False,
        count: bool = True,
    ) -> np.ndarray:
        """Assignment scores of many candidate events for one interval (Eq. 4, batched).

        Parameters
        ----------
        event_indices:
            Events to evaluate (defaults to every candidate event), in the
            order the returned vector follows.
        initial, count:
            As in :meth:`assignment_score`; when counting, one score
            computation is recorded per evaluated event, so the paper's
            metric is identical to per-pair evaluation.

        Returns
        -------
        numpy.ndarray
            ``scores[i]`` is the assignment score of
            ``(event_indices[i], interval_index)`` against the current state.
        """
        if event_indices is None:
            # Passing None lets the bulk path score its precomputed full
            # event set without materialising an index copy.
            selector = None
            num_selected = self._instance.num_events
        else:
            selector = np.asarray(event_indices, dtype=np.intp)
            num_selected = int(selector.size)
        if count and num_selected:
            self._counter.count_scores(num_selected, initial=initial)
        return self._bulk_interval_scores(interval_index, selector)

    def refresh_scores(
        self,
        interval_index: int,
        event_indices: Sequence[int],
        *,
        count: bool = True,
    ) -> np.ndarray:
        """Bulk stale refresh: recompute current scores of selected events at one interval.

        This is the update-phase counterpart of the generation-phase bulk
        calls — semantically identical to one :meth:`assignment_score` per
        (event, interval) pair against the current state, evaluated
        vectorised and chunked like :meth:`interval_scores`.

        Parameters
        ----------
        count:
            When ``True`` each refreshed pair is recorded as one *update*
            computation.  The incremental schedulers (INC, HOR-I) pass
            ``False`` because they fetch stale rows in blocks cut at their
            walk's current Φ: they count one update computation per score
            the walk actually consumes, so the paper's metric stays
            bit-identical to the per-pair reference even when a rising Φ
            leaves part of a block unused.
        """
        return self.interval_scores(interval_index, event_indices, initial=False, count=count)

    def _select_event_rows(self, events: Optional[np.ndarray]) -> EventRowSource:
        """The event-major row source for a selection (``None`` = all events).

        The active plan's source when it supplies one (the ``blocked`` plan's
        pattern-space rows), otherwise the engine's full rows.
        """
        source = self._plan_impl.event_rows()
        if source is None:
            source = self._event_rows
        if events is None:
            return source
        return source.select(events)

    def _batch_block(
        self, interval_index: int, mu_rows: np.ndarray, value_mu_rows: np.ndarray
    ) -> np.ndarray:
        """One vectorised pass over a block of event rows.

        Rows are events, columns users.  Delegates to the active scoring plan
        (:class:`~repro.core.execution.ScoringPlan`): the ``direct`` reference
        runs the library's single bit-identity-critical kernel
        (:func:`~repro.core.execution.score_block_kernel`) over every user
        column, whose per-element
        operation order matches :meth:`_pair_score` exactly; the ``blocked``
        plan of :mod:`repro.core.blocked` computes each distinct interest
        pattern once and expands by multiplicity before the same per-row
        reduction, so each element — and the reduction order — stays
        bit-identical to the per-pair path under every plan.
        """
        return self._plan_impl.batch_block(interval_index, mu_rows, value_mu_rows)

    def score_matrix(
        self,
        event_indices: Optional[Sequence[int]] = None,
        *,
        initial: bool = False,
        count: bool = True,
    ) -> np.ndarray:
        """The full score matrix of the candidate bipartite space.

        Returns an ``(len(event_indices), |T|)`` array whose ``[i, t]`` entry
        is the assignment score of ``(event_indices[i], t)`` against the
        current engine state (``event_indices`` defaults to all events).
        Counts one score computation per (event, interval) pair.
        """
        if event_indices is None:
            selector = None
            num_selected = self._instance.num_events
        else:
            selector = np.asarray(event_indices, dtype=np.intp)
            num_selected = int(selector.size)
        num_intervals = self._instance.num_intervals
        if count and num_selected and num_intervals:
            self._counter.count_scores(num_selected * num_intervals, initial=initial)
        return self._bulk_score_matrix(selector)

    # The bulk pair below runs under the counting of interval_scores /
    # score_matrix: it computes the scores, never counts them.
    def _bulk_interval_scores(
        self, interval_index: int, selector: Optional[np.ndarray]
    ) -> np.ndarray:
        """Scores of the selected events (``None`` = all) at one interval."""
        return self._chunked_scores(interval_index, self._select_event_rows(selector))

    def _bulk_score_matrix(self, selector: Optional[np.ndarray]) -> np.ndarray:
        """The ``(|selection|, |T|)`` score matrix against the current state.

        The event-row selection is state-independent, so it is hoisted out of
        the per-interval loop: one row source serves every column (a dense
        source materialises the selection once; sparse and mmap sources
        re-densify per block, keeping memory bounded).
        """
        source = self._select_event_rows(selector)
        num_intervals = self._instance.num_intervals
        matrix = np.empty((source.num_rows, num_intervals), dtype=np.float64)
        for interval_index in range(num_intervals):
            matrix[:, interval_index] = self._chunked_scores(interval_index, source)
        return matrix

    def _chunked_scores(self, interval_index: int, source: EventRowSource) -> np.ndarray:
        """One interval's scores over ``source``, computed block by block.

        The event axis is processed in blocks of at most ``chunk_size`` rows,
        so the temporaries stay bounded on huge instances — for sparse and
        memory-mapped storages each block is densified on demand and dropped
        after its pass.  Each row's reduction is independent of the others,
        so any block decomposition, whatever the split or storage, produces
        bit-identical scores.
        """
        num_rows = source.num_rows
        step = self._execution.chunk_size
        if num_rows <= step:
            return self._batch_block(interval_index, *source.block(0, num_rows))
        scores = np.empty(num_rows, dtype=np.float64)
        for start in range(0, num_rows, step):
            stop = min(start + step, num_rows)
            scores[start:stop] = self._batch_block(interval_index, *source.block(start, stop))
        return scores

    def score_noise_tolerance(self, interval_index: int) -> float:
        """Floating-point noise bound of one assignment score at this interval.

        Proposition 1 (stale scores are upper bounds of fresh scores) holds in
        exact arithmetic, but a score is a difference of two |U|-term utility
        sums, so two mathematically equal scores can differ by rounding noise
        — enough to flip the incremental schedulers' Φ-bound pruning on
        exact-tie instances.  The bound returned here (``1024·ε`` times the
        interval's largest possible utility magnitude, ``Σ_u σ_u ·
        max value``) safely exceeds that noise while staying far below any
        meaningful score difference; INC, HOR-I and INC-U prune stale
        entries only when they are at least this far below Φ.

        Proposition 1 needs equal event values: a gain is then, per user,
        ``v·σ·µ·C / ((C + S)(C + S + µ))``, which falls as the scheduled sum
        ``S`` grows.  A low-value event can raise another's gain, so with
        unequal values the tolerance is ``+inf`` and every prune refreshes.
        """
        return float(self._score_noise_tol[interval_index])

    def _ensure_bound_statics(self) -> None:
        """Static inputs of :meth:`interval_score_bound` (at most one streamed pass, lazy).

        Structural statics (the pattern-matrix tier): the instance's
        interest-pattern equivalence classes (:func:`instance_structure`,
        mined at most once per instance) and the ``(|E|, P)`` pattern matrix
        ``M`` of representative µ columns (:func:`build_pattern_matrix`),
        reused from the active plan when it already has one.  Beside it sit
        ``(|T|, P)`` interval-major copies of the representatives' competing
        sums and of the class weights ``n·σ``, and two length-``P`` class
        vectors: ``class_peak_mu[p] = max_e M[e, p]``, which tells an
        evaluation the few classes whose gain cap some event can reach, and
        ``class_max_value[p] = max {value_e : M[e, p] > 0}``, the largest
        value any event can give class ``p``'s users.
        Equivalent users share their µ, σ and competing rows, so nothing
        here — or in an evaluation — touches a per-user array.

        Per-user statics (the fallback tier, when ``M`` is over its memory
        budget), streamed over the store: ``max_value[u] = max {value_e :
        µ_{u,e} > 0}`` and ``max_value_mu[u] = max_e value_e · µ_{u,e}``,
        the value-weighted interest any single candidate event can add for
        user ``u``.

        Every static is an exact maximum (max is rounding free), so it is
        identical across storages and chunkings, and the tier rule depends
        only on instance shape: bound values never depend on storage, plan
        or chunk size.
        """
        if self._bound_ready:
            return
        chunk_size = self._execution.chunk_size
        source = self._event_rows
        structure = instance_structure(
            self._instance, source, self._sigma, self._comp, chunk_size
        )
        pattern_mu = self._plan_impl.pattern_matrix()
        if pattern_mu is None:
            pattern_mu = build_pattern_matrix(source, structure, chunk_size)
        if pattern_mu is not None:
            representatives = structure.representatives
            # (|T|, P), interval-major: one contiguous row per evaluation.
            self._bound_class_comp = np.ascontiguousarray(self._comp[representatives].T)
            self._bound_class_weights = np.ascontiguousarray(
                (structure.counts[:, np.newaxis] * self._sigma[representatives]).T
            )
            self._bound_class_peak_mu = pattern_mu.max(axis=0, initial=0.0)
            pattern_values = np.where(pattern_mu > 0.0, self._values[:, np.newaxis], 0.0)
            self._bound_class_max_value = pattern_values.max(axis=0, initial=0.0)
        else:
            num_users = self._instance.num_users
            num_events = self._instance.num_events
            max_value_mu = np.zeros(num_users, dtype=np.float64)
            max_value = np.zeros(num_users, dtype=np.float64)
            step = max(1, chunk_size)
            for start in range(0, num_events, step):
                stop = min(start + step, num_events)
                mu_rows, value_mu_rows = source.block(start, stop)
                np.maximum(max_value_mu, value_mu_rows.max(axis=0), out=max_value_mu)
                block_values = np.where(
                    mu_rows > 0.0, self._values[start:stop, np.newaxis], 0.0
                )
                np.maximum(max_value, block_values.max(axis=0), out=max_value)
            self._bound_max_value_mu = max_value_mu
            self._bound_max_value = max_value
        self._bound_structure = structure
        self._bound_pattern_mu = pattern_mu
        self._bound_ready = True

    def interval_score_bound(self, interval_index: int) -> float:
        """Sound upper bound on any *fresh* assignment score at one interval.

        For every candidate event ``e`` and user ``u`` the fresh per-user
        attendance term is ``σ·(SV + v_e·µ)/(C + S + µ)`` with ``C`` the
        competing sum, ``S``/``SV`` the interval's scheduled sums and ``d =
        C + S``.  Its gain over the current term ``σ·SV/d`` rewrites (in
        exact arithmetic) to ``σ·(µ/(d+µ))·(v_e − SV/d)``:

        * **Structural bound** (the pattern-matrix tier, used while the
          ``(|E|, P)`` pattern matrix ``M`` fits the memory budget): each
          user's gain is at most ``σ·min(µ/d, 1)·max(0, v_max − SV/d)``,
          with ``v_max`` the largest event value, and users of one pattern
          class ``p`` (representative ``r``, multiplicity ``n``) share it.
          The bound works in class space only: with ``d_p``, the headroom
          ``h_p = max(0, v_max − SV[r]/d_p)``, the cap ``c_p = n·σ[r]·h_p``
          and the slope ``g_p = c_p/d_p``, an event's gain is ``Σ_p
          min(M[e, p]·g_p, c_p)``.  Only the few classes ``K`` whose largest
          µ exceeds ``d_p`` (``class_peak_mu``) can reach their cap; they
          add ``g_p·min(M[e, p], d_p)`` through one ``(|E|, |K|)``
          temporary, and every other class adds ``M[e, p]·g_p`` through one
          gemv.  The bound is the largest gain over the not-yet-scheduled
          events.
          Tight: the only slack is ``(d+µ)/d`` per user, so on
          lightly-interested users the bound hugs the best event's true
          gain, and saturated classes (``SV/d ≥ v_max``) contribute nothing.
          With equal event values ``v_max`` is every event's value; with
          unequal ones the ``v_max`` headroom is looser but still sound (and
          INC never asks then: its score tolerance is ``+inf``).
        * **Per-user fallback** (pattern matrix over budget):
          ``σ·min(max_value, max_value_mu/d)`` per user, which replaces the
          event maximum of a sum by a sum of per-user maxima (looser, but
          |U|-cheap and memory free), plus ``Σ_u σ·SV/d`` minus the interval
          utility.

        That last difference is 0 in exact arithmetic — the interval utility
        is the telescoped sum of the applied scores, ``Σ_u σ·SV/d`` — so the
        structural tier leaves it out and never touches a per-user array.
        Users with ``d = 0`` have zero scheduled sums and contribute at most
        ``σ·max_value`` under either tier (summed per class in the
        structural one).  The result bounds every fresh score at this
        interval, however the schedule got here.

        Unlike the stale scores the incremental schedulers prune against
        (frozen at computation time), this bound *tightens* as the interval's
        schedule grows — INC uses it to skip entire interval walks whose
        ceiling is already below Φ.  The bound depends only on engine
        state and the deterministic mined structure, so skip decisions — and
        therefore counter totals — are identical across storages, plans and
        chunk sizes.  Callers must leave a floating-point margin (a few
        :meth:`score_noise_tolerance`) between the bound and Φ.  Cached per
        interval until :meth:`apply` touches the interval; each fresh
        evaluation is recorded under the ``phi_bound_evaluations`` extra
        counter.
        """
        cached = self._bound_cache.get(interval_index)
        if cached is not None:
            return cached
        self._ensure_bound_statics()
        self._counter.bump("phi_bound_evaluations")
        pattern_mu = self._bound_pattern_mu
        if pattern_mu is not None:
            representatives = self._bound_structure.representatives
            denominator = (
                self._bound_class_comp[interval_index]
                + self._scheduled_interest[interval_index][representatives]
            )
            inverse = _guarded_divide(np.ones_like(denominator), denominator)
            scheduled_value = self._scheduled_value_interest[interval_index][representatives]
            headroom = np.maximum(self._values.max(initial=0.0) - scheduled_value * inverse, 0.0)
            weights = self._bound_class_weights[interval_index]
            # Slope g = c/d with cap c = n·σ·h; zero-denominator classes drop out.
            slope = weights * headroom * inverse
            # min(µ·g, c) = g·min(µ, d).  The few classes some event's µ
            # pushes past d clip µ in one (|E|, |K|) temporary; the rest share
            # one gemv.  Nothing is subtracted, so a tiny d cannot cancel.
            capped = np.flatnonzero(self._bound_class_peak_mu * inverse > 1.0)
            clipped = pattern_mu[:, capped]
            np.minimum(clipped, denominator[capped], out=clipped)
            per_event = clipped @ slope[capped]
            slope[capped] = 0.0
            per_event += pattern_mu @ slope
            if self._events_applied:
                per_event[list(self._events_applied)] = -np.inf
            bound = float(per_event.max()) if per_event.size else float("-inf")
            zero_denominator = denominator <= 0.0
            if zero_denominator.any():
                bound += float((weights * self._bound_class_max_value)[zero_denominator].sum())
        else:
            sigma = self._sigma[:, interval_index]
            denominator = self._comp[:, interval_index] + self._scheduled_interest[interval_index]
            scheduled_term = _guarded_divide(
                sigma * self._scheduled_value_interest[interval_index], denominator
            )
            gain_cap = _guarded_divide(self._bound_max_value_mu, denominator)
            gain = np.where(
                denominator > 0.0,
                np.minimum(self._bound_max_value, gain_cap),
                self._bound_max_value,
            )
            gain_total = float((sigma * gain).sum())
            bound = float(
                scheduled_term.sum() + gain_total - self._interval_utility[interval_index]
            )
        self._bound_cache[interval_index] = bound
        return bound

    def applied_assignments(self) -> Dict[int, int]:
        """``{event_index: interval_index}`` of every applied assignment (a copy).

        Lets warm-state callers (the online service's cached score grids)
        verify the engine state they captured a grid against still matches.
        """
        return dict(self._events_applied)

    def interval_utility(self, interval_index: int) -> float:
        """Current utility of one interval."""
        return float(self._interval_utility[interval_index])

    def total_utility(self, *, include_costs: bool = False) -> float:
        """Current total utility Ω (optionally net of organisation costs)."""
        total = float(self._interval_utility.sum())
        if include_costs:
            total -= self._applied_cost
        return total

    def expected_attendance(self, event_index: int, *, count: bool = False) -> float:
        """Expected attendance ω of an already-applied event under the current state."""
        if event_index not in self._events_applied:
            raise ScheduleError(f"event {event_index} has not been applied")
        interval_index = self._events_applied[event_index]
        denominator = self._comp[:, interval_index] + self._scheduled_interest[interval_index]
        numerator = self._sigma[:, interval_index] * self._mu_column(event_index)
        if count:
            self._counter.count_score()
        probabilities = _guarded_divide(numerator, denominator)
        return float(probabilities.sum()) * float(self._values[event_index])

    def attendance_probabilities(self, event_index: int) -> np.ndarray:
        """Per-user attendance probabilities ρ of an already-applied event (Eq. 1)."""
        if event_index not in self._events_applied:
            raise ScheduleError(f"event {event_index} has not been applied")
        interval_index = self._events_applied[event_index]
        denominator = self._comp[:, interval_index] + self._scheduled_interest[interval_index]
        numerator = self._sigma[:, interval_index] * self._mu_column(event_index)
        return _guarded_divide(numerator, denominator)

    # ------------------------------------------------------------------ #
    # Stateless schedule evaluation
    # ------------------------------------------------------------------ #
    def evaluate_schedule(
        self, schedule: Schedule, *, include_costs: bool = False, count: bool = False
    ) -> float:
        """Utility Ω(S) of an arbitrary schedule, independent of the engine state.

        This is used by the exact solver, the RAND baseline and the tests to
        evaluate schedules without mutating the incremental state.
        """
        total = 0.0
        for interval_index in schedule.used_intervals():
            events_here = sorted(schedule.events_at(interval_index))
            interest_sum = np.zeros(self._instance.num_users, dtype=np.float64)
            value_sum = np.zeros(self._instance.num_users, dtype=np.float64)
            for event_index in events_here:
                column = self._mu_column(event_index)
                interest_sum += column
                value_sum += self._values[event_index] * column
                if count:
                    self._counter.count_score()
            total += self._interval_utility_of(interval_index, interest_sum, value_sum)
        if include_costs:
            total -= self.schedule_cost(schedule)
        return total

    def schedule_cost(self, schedule: Schedule) -> float:
        """Organisation cost of a schedule's events, summed in :meth:`evaluate_schedule`'s order.

        ``evaluate_schedule(schedule, include_costs=True)`` equals
        ``evaluate_schedule(schedule) - schedule_cost(schedule)`` bit for bit.
        """
        cost = 0.0
        for interval_index in schedule.used_intervals():
            for event_index in sorted(schedule.events_at(interval_index)):
                cost += self._costs[event_index]
        return cost

    def per_event_attendance(self, schedule: Schedule) -> Dict[int, float]:
        """Expected attendance ω of every scheduled event of an arbitrary schedule."""
        attendance: Dict[int, float] = {}
        for interval_index in schedule.used_intervals():
            events_here = sorted(schedule.events_at(interval_index))
            interest_sum = np.zeros(self._instance.num_users, dtype=np.float64)
            for event_index in events_here:
                interest_sum += self._mu_column(event_index)
            denominator = self._comp[:, interval_index] + interest_sum
            sigma = self._sigma[:, interval_index]
            for event_index in events_here:
                numerator = sigma * self._mu_column(event_index)
                probabilities = _guarded_divide(numerator, denominator)
                attendance[event_index] = float(probabilities.sum()) * float(
                    self._values[event_index]
                )
        return attendance


def utility_of_schedule(
    instance: SESInstance, schedule: Schedule, *, include_costs: bool = False
) -> float:
    """Convenience wrapper: evaluate Ω(S) for a schedule on a fresh engine."""
    engine = ScoringEngine(instance)
    return engine.evaluate_schedule(schedule, include_costs=include_costs)
