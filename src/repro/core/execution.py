"""The execution-backend layer of the scoring engine.

Every bulk evaluation of the scoring engine — :meth:`ScoringEngine.interval_scores`,
:meth:`ScoringEngine.score_matrix`, :meth:`ScoringEngine.refresh_scores` — runs
through an :class:`ExecutionBackend` strategy selected by an
:class:`ExecutionConfig`.  The layer owns every knob that decides *how* scores
are computed (never *what* they are):

* ``backend`` — the strategy name.  Built in:

  - ``"scalar"`` (:class:`ScalarBackend`) — the reference implementation, one
    pass over the users per (event, interval) pair;
  - ``"batch"`` (:class:`BatchBackend`, the default) — whole candidate blocks
    per vectorised NumPy pass, chunked along the event axis.

* ``chunk_size`` — events per vectorised pass (the ~64 MB memory guard);
* ``plan`` — how the bulk kernel traverses one event block
  (:class:`ScoringPlan`).

The backends and the scoring plans are fixed name tables built at the bottom
of this module; adding one is an edit to its table.  Everything else —
engine, schedulers, harness, figures, CLI — talks to the layer only through
:class:`ExecutionConfig` and the strategy interface.

**The invariant every backend must keep:** chunking splits only the event
axis, and every event row's per-user reduction is independent of the others,
so schedules, utilities, scores and counter totals are bit-identical across
backends, whatever the split.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.core.errors import SolverError
from repro.core.storage import EventRowSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scoring imports us)
    from repro.core.scoring import ScoringEngine

#: Backend used when none is requested explicitly.
DEFAULT_BACKEND: str = "batch"

#: Memory budget of one bulk evaluation, in matrix *elements* (events × users).
#: The default chunk size is this budget divided by ``|U|``: it bounds the
#: store blocks a sparse or mmap source densifies at once (~64 MB of float64
#: each) and the subset selections of a score-matrix call.  The kernel's own
#: temporaries are far smaller, see :data:`KERNEL_TILE_ELEMENTS`.
DEFAULT_CHUNK_ELEMENTS: int = 8_000_000

#: Row-tile budget of :func:`score_block_kernel`, in matrix elements.  Each
#: tile of ``max(1, budget // |U|)`` event rows runs through two scratch
#: buffers of at most this size (512 KiB of float64 each), which stay in L2
#: cache between the kernel's passes.  On a 2-vCPU x86 VM, budgets from 2¹⁴
#: to 2¹⁶ scored a 180 × 3,000 block equally fast; the largest of them cuts
#: a block into the fewest tiles.
KERNEL_TILE_ELEMENTS: int = 1 << 16

#: Scoring plan used when none is requested explicitly (see :class:`ScoringPlan`).
DEFAULT_PLAN: str = "direct"


def score_block_kernel(
    mu_rows: np.ndarray,
    value_mu_rows: Optional[np.ndarray],
    comp_column: np.ndarray,
    sigma_column: np.ndarray,
    scheduled: Optional[np.ndarray],
    scheduled_value: Optional[np.ndarray],
    utility: float,
) -> np.ndarray:
    """Assignment scores of one block of event rows at one interval (Eq. 4).

    This is the **single** bit-identity-critical kernel of the library: every
    bulk plan reaches it, so the scoring arithmetic cannot diverge between
    them.  The per-element operation order matches the scalar reference
    exactly (µ added to the scheduled sums first, competing sums last; value·µ
    added to the value sums before the σ product), and each row's per-user
    reduction is independent of every other row's.

    Two structural facts, passed as ``None`` rather than inspected per call,
    let the kernel skip arithmetic whose result it already has, bit for bit:

    * ``value_mu_rows is None`` — every event value is 1.0 (the paper's own
      model).  Then ``value·µ`` is ``µ`` and the value sums ``V`` are the
      scheduled sums ``S`` (``1.0·x == x`` for every float), so one
      ``S + µ`` feeds both the numerator and the denominator and
      ``scheduled_value`` is ignored.
    * ``scheduled is None`` — nothing is scheduled at the interval, so
      ``S`` and ``V`` are all ``0.0`` and ``0.0 + µ`` is ``µ``: exact for
      every float but ``-0.0``, which the row sources fold into ``0.0``
      before µ reaches this kernel (see
      :class:`~repro.core.storage.EventRowSource`).  ``value·µ`` can still
      be ``-0.0`` (a ``-0.0`` event value), so the valued path keeps its
      ``value·µ + 0.0``.  ``scheduled_value`` is ignored.

    Elementwise passes per tile (plus the row sum):

    ============  ==========================  ==========================
    values        interval has events         empty interval
    ============  ==========================  ==========================
    valued        5: S+µ, C+·, V+vµ, σ·, ÷    4: C+µ, vµ+0, σ·, ÷
    unit (1.0)    4: S+µ, σ·, C+·, ÷          3: C+µ, σ·µ, ÷
    ============  ==========================  ==========================

    The block is walked in row tiles of :data:`KERNEL_TILE_ELEMENTS` elements.
    Every tile is computed in place in two C-contiguous scratch buffers
    allocated once per call, so the temporaries stay cache-sized whatever the
    block size, and each row still reduces one contiguous row with NumPy's
    pairwise sum.  The divide is unguarded when it can be: µ ≥ 0 and IEEE
    rounding is monotone, so ``fl(C + fl(S + µ)) ≥ fl(C + S)`` for every
    element; if ``C + S > 0`` for every user, no denominator of the interval
    can be zero.  Otherwise non-positive (or NaN) denominators are zeroed
    after the divide, which is :func:`_guarded_divide`'s result.
    """
    num_rows, num_users = mu_rows.shape
    step = max(1, KERNEL_TILE_ELEMENTS // max(1, num_users))
    comp_column = np.ascontiguousarray(comp_column)
    sigma_column = np.ascontiguousarray(sigma_column)
    if scheduled is None:
        guard = not np.all(comp_column > 0.0)
    else:
        guard = not np.all(comp_column + scheduled > 0.0)
    tile_rows = min(step, num_rows)
    denominator = np.empty((tile_rows, num_users), dtype=np.float64)
    contributions = np.empty((tile_rows, num_users), dtype=np.float64)
    scores = np.empty(num_rows, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, num_rows, step):
            stop = min(start + step, num_rows)
            den = denominator[: stop - start]
            out = contributions[: stop - start]
            mu = mu_rows[start:stop]
            if scheduled is None:
                np.add(comp_column, mu, out=den)
                if value_mu_rows is None:
                    np.multiply(sigma_column, mu, out=out)
                else:
                    np.add(value_mu_rows[start:stop], 0.0, out=out)
                    np.multiply(sigma_column, out, out=out)
            else:
                np.add(scheduled, mu, out=den)
                if value_mu_rows is None:
                    np.multiply(sigma_column, den, out=out)
                else:
                    np.add(scheduled_value, value_mu_rows[start:stop], out=out)
                    np.multiply(sigma_column, out, out=out)
                np.add(comp_column, den, out=den)
            np.divide(out, den, out=out)
            if guard:
                out[~(den > 0.0)] = 0.0
            out.sum(axis=1, out=scores[start:stop])
    scores -= utility
    return scores


def direct_block_scores(
    engine: "ScoringEngine",
    interval_index: int,
    mu_rows: np.ndarray,
    value_mu_rows: np.ndarray,
) -> np.ndarray:
    """:func:`score_block_kernel` over every user column against the engine's state.

    Both structural facts come from state the callers already hold, never
    from the arrays' contents: a row source with unit event values serves
    ``mu_rows`` itself as ``value_mu_rows`` (passed on as ``None``), and an
    interval the engine has applied nothing to (its per-interval applied
    count) is passed as ``scheduled=None``.
    """
    if engine._interval_events[interval_index]:
        scheduled = engine._scheduled_interest[interval_index]
        scheduled_value = engine._scheduled_value_interest[interval_index]
    else:
        scheduled = scheduled_value = None
    return score_block_kernel(
        mu_rows,
        None if value_mu_rows is mu_rows else value_mu_rows,
        engine._comp[:, interval_index],
        engine._sigma[:, interval_index],
        scheduled,
        scheduled_value,
        engine._interval_utility[interval_index],
    )


def _guarded_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise ``numerator / denominator`` with zeros where the denominator is not positive.

    This is the division guard of every per-user attendance term outside
    :func:`score_block_kernel` (which zeroes the same elements in place), so
    a user whose competing + scheduled interest sums to zero contributes
    exactly 0.0 on every code path.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(
            numerator,
            denominator,
            out=np.zeros_like(numerator),
            where=denominator > 0.0,
        )


# --------------------------------------------------------------------------- #
# Knob resolution
# --------------------------------------------------------------------------- #
def resolve_backend(backend: Optional[str]) -> str:
    """Validate a backend name (``None`` means :data:`DEFAULT_BACKEND`)."""
    if backend is None:
        return DEFAULT_BACKEND
    if backend not in _BACKEND_REGISTRY:
        raise SolverError(
            f"unknown scoring backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        )
    return backend


def resolve_chunk_size(chunk_size: Optional[int], num_users: int) -> int:
    """Validate the event-axis chunk size (``None`` derives it from the memory budget).

    The automatic default keeps one event block at
    :data:`DEFAULT_CHUNK_ELEMENTS` elements: ``max(1, budget // |U|)`` events
    per chunk.  An explicit value is the number of events evaluated per
    vectorised pass and must be a positive integer.
    """
    if chunk_size is None:
        return max(1, DEFAULT_CHUNK_ELEMENTS // max(1, num_users))
    if not isinstance(chunk_size, int) or isinstance(chunk_size, bool) or chunk_size < 1:
        raise SolverError(f"chunk_size must be a positive integer or None, got {chunk_size!r}")
    return chunk_size


def resolve_plan(plan: Optional[str], backend: Optional[str] = None) -> str:
    """Validate a scoring-plan name (``None`` means :data:`DEFAULT_PLAN`).

    A plan decides how the bulk kernel traverses one event block
    (see :class:`ScoringPlan`) — never what the scores are: every exact
    plan is bit-identical to the ``direct`` reference.  Backends whose
    evaluations never run the block kernel
    (:attr:`ExecutionBackend.is_bulk` is false) pin the plan to ``"direct"``
    — the knob does not apply to them.
    """
    if plan is None:
        plan = DEFAULT_PLAN
    if plan not in _PLAN_REGISTRY:
        raise SolverError(
            f"unknown scoring plan {plan!r}; available: {', '.join(available_plans())}"
        )
    if backend is not None and not get_backend(resolve_backend(backend)).is_bulk:
        return "direct"
    return plan


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExecutionConfig:
    """Every knob of one scoring-engine execution strategy, in one object.

    The config travels as a single value through schedulers, the registry, the
    experiment harness, the figures and the CLI — a new knob is a field here
    plus the code that consumes it, not a seven-file plumbing diff.

    Fields left at ``None`` mean "resolve the library default":

    Parameters
    ----------
    backend:
        Strategy name (see :func:`available_backends`); ``None`` selects
        :data:`DEFAULT_BACKEND`.  Never changes a result bit — only the speed.
    chunk_size:
        Events per vectorised pass of the bulk backends (the memory guard);
        ``None`` derives ``max(1, DEFAULT_CHUNK_ELEMENTS // |U|)``.
    plan:
        Scoring-plan name (see :func:`available_plans`); ``None`` selects
        :data:`DEFAULT_PLAN`.  A plan decides how the bulk kernel
        traverses one event block — e.g. the ``blocked`` plan of
        :mod:`repro.core.blocked` computes each distinct interest pattern
        once and expands by multiplicity.  Exact plans never change a result
        bit — only the arithmetic's traversal.  Pinned to ``"direct"`` for
        non-bulk backends.
    """

    backend: Optional[str] = None
    chunk_size: Optional[int] = None
    plan: Optional[str] = None

    def resolve(self, num_users: int) -> "ExecutionConfig":
        """Return a copy with every ``None`` replaced by its concrete default.

        Resolution is idempotent: resolving an already-resolved config returns
        an equal config.
        """
        backend = resolve_backend(self.backend)
        return ExecutionConfig(
            backend=backend,
            chunk_size=resolve_chunk_size(self.chunk_size, num_users),
            plan=resolve_plan(self.plan, backend),
        )

    @property
    def is_bulk(self) -> bool:
        """Whether the selected strategy evaluates whole event blocks at once."""
        return get_backend(resolve_backend(self.backend)).is_bulk

    def create_backend(self) -> "ExecutionBackend":
        """Instantiate the selected strategy (expects a resolved config)."""
        return get_backend(resolve_backend(self.backend))(self)

    def create_plan(self) -> "ScoringPlan":
        """Instantiate the selected scoring plan (expects a resolved config)."""
        return get_plan(resolve_plan(self.plan, self.backend))()


# --------------------------------------------------------------------------- #
# Strategy hierarchy
# --------------------------------------------------------------------------- #
class ExecutionBackend:
    """One scoring-execution strategy, bound to a :class:`ScoringEngine`.

    Subclasses implement :meth:`interval_scores` and :meth:`score_matrix` in
    terms of the engine's kernels (:meth:`ScoringEngine._pair_score`,
    :meth:`ScoringEngine._batch_block`) and state.  They decide in *what
    blocks* scores are computed — never the values: every strategy must be
    bit-identical to the reference (see the module docstring).

    Class attributes
    ----------------
    name:
        Table name (``"scalar"``, ``"batch"``, …).
    is_bulk:
        Whether the strategy's bulk entry points evaluate whole event blocks
        at once (the engine uses it to decide whether to precompute
        event-major rows).
    """

    name: str = "abstract"
    is_bulk: bool = False

    def __init__(self, config: ExecutionConfig) -> None:
        self._config = config
        self._engine_ref: Optional["weakref.ref[ScoringEngine]"] = None

    def bind(self, engine: "ScoringEngine") -> "ExecutionBackend":
        """Attach the engine whose state this strategy evaluates against.

        The reference is weak — the engine owns the backend, not the other
        way round — so dropping the last engine reference frees it promptly
        instead of waiting for the cycle collector.
        """
        self._engine_ref = weakref.ref(engine)
        return self

    @property
    def engine(self) -> "ScoringEngine":
        """The bound scoring engine."""
        engine = self._engine_ref() if self._engine_ref is not None else None
        if engine is None:  # pragma: no cover - defensive
            raise SolverError(f"backend {self.name!r} is not bound to a live engine")
        return engine

    # -- evaluation ------------------------------------------------------- #
    def interval_scores(self, interval_index: int, selector: Optional[np.ndarray]) -> np.ndarray:
        """Scores of the selected events (``None`` = all) at one interval."""
        raise NotImplementedError

    def score_matrix(self, selector: Optional[np.ndarray]) -> np.ndarray:
        """The ``(|selection|, |T|)`` score matrix against the current state."""
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        """One-line description used by the CLI's backend listing."""
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else cls.name


class ScalarBackend(ExecutionBackend):
    """Reference strategy: one pass over the users per (event, interval) pair."""

    name = "scalar"
    is_bulk = False

    def interval_scores(self, interval_index: int, selector: Optional[np.ndarray]) -> np.ndarray:
        engine = self.engine
        if selector is None:
            selector = np.arange(engine.instance.num_events, dtype=np.intp)
        return np.array(
            [engine._pair_score(int(event), interval_index) for event in selector],
            dtype=np.float64,
        )

    def score_matrix(self, selector: Optional[np.ndarray]) -> np.ndarray:
        engine = self.engine
        num_rows = engine.instance.num_events if selector is None else int(selector.size)
        num_intervals = engine.instance.num_intervals
        matrix = np.empty((num_rows, num_intervals), dtype=np.float64)
        for interval_index in range(num_intervals):
            matrix[:, interval_index] = self.interval_scores(interval_index, selector)
        return matrix


class BatchBackend(ExecutionBackend):
    """Vectorised strategy: whole event blocks per NumPy pass, chunked along the event axis."""

    name = "batch"
    is_bulk = True

    def interval_scores(self, interval_index: int, selector: Optional[np.ndarray]) -> np.ndarray:
        source = self.engine._select_event_rows(selector)
        return self._sharded_scores(interval_index, source)

    def score_matrix(self, selector: Optional[np.ndarray]) -> np.ndarray:
        # Hoist the event-row selection out of the per-interval loop: the
        # selection is state-independent, so one row source serves every
        # column (a dense source materialises the selection once; sparse and
        # mmap sources re-densify per block, keeping memory bounded).
        engine = self.engine
        source = engine._select_event_rows(selector)
        num_intervals = engine.instance.num_intervals
        matrix = np.empty((source.num_rows, num_intervals), dtype=np.float64)
        for interval_index in range(num_intervals):
            matrix[:, interval_index] = self._sharded_scores(interval_index, source)
        return matrix

    def _sharded_scores(self, interval_index: int, source: EventRowSource) -> np.ndarray:
        """One interval's scores, computed block by block.

        The event axis is processed in blocks of at most ``chunk_size`` rows,
        so the temporaries stay bounded on huge instances — for sparse and
        memory-mapped storages each block is densified on demand and dropped
        after its pass.  Each row's reduction is independent of the others,
        so any block decomposition, whatever the split or storage, produces
        bit-identical scores.
        """
        engine = self.engine
        num_rows = source.num_rows
        step = self._config.chunk_size
        if num_rows <= step:
            return engine._batch_block(interval_index, *source.block(0, num_rows))
        scores = np.empty(num_rows, dtype=np.float64)
        for start in range(0, num_rows, step):
            stop = min(start + step, num_rows)
            scores[start:stop] = engine._batch_block(interval_index, *source.block(start, stop))
        return scores


# --------------------------------------------------------------------------- #
# Backend table (``_BACKEND_REGISTRY`` is built at the bottom of the module)
# --------------------------------------------------------------------------- #
def available_backends() -> Tuple[str, ...]:
    """Names of every backend, in table order."""
    return tuple(_BACKEND_REGISTRY)


def get_backend(name: str) -> Type[ExecutionBackend]:
    """Return the strategy class named ``name``."""
    try:
        return _BACKEND_REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown scoring backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def backend_catalog() -> List[Dict[str, object]]:
    """One row per backend with its resolved defaults.

    Used by the CLI's ``backends`` sub-command.
    """
    rows: List[Dict[str, object]] = []
    for name, cls in _BACKEND_REGISTRY.items():
        rows.append(
            {
                "backend": name + (" (default)" if name == DEFAULT_BACKEND else ""),
                "bulk": "yes" if cls.is_bulk else "no",
                "chunk_size": f"auto ({DEFAULT_CHUNK_ELEMENTS:,} elements / |U|)"
                if cls.is_bulk
                else "-",
                "description": cls.describe(),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Scoring plans
# --------------------------------------------------------------------------- #
class ScoringPlan:
    """One traversal strategy of the block kernel, bound to an engine.

    Where an :class:`ExecutionBackend` decides *in what blocks* scores are
    evaluated (per pair or per event block), a plan decides *how* the
    kernel traverses one block — e.g. the ``blocked`` plan of
    :mod:`repro.core.blocked` computes each distinct user interest pattern
    once and expands the per-pattern contributions by multiplicity.  Every
    exact plan must produce scores bit-identical to the ``direct`` reference:
    the per-user contributions and their reduction order may not change.

    Subclasses implement :meth:`batch_block` against the engine's static and
    scheduled state; :meth:`prepare` runs once at bind time for per-engine
    precomputation (the ``blocked`` plan's pattern matrix).  A plan may also
    supply the event-row source the bulk path iterates
    (:meth:`event_rows`), in which case :meth:`batch_block` receives that
    source's blocks.  Engines reach
    the plan through :meth:`ScoringEngine._select_event_rows` and
    :meth:`ScoringEngine._batch_block`, so the backends need no plan
    awareness at all.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self._engine_ref: Optional["weakref.ref[ScoringEngine]"] = None

    def bind(self, engine: "ScoringEngine") -> "ScoringPlan":
        """Attach the engine and run :meth:`prepare` (weak ref, like backends)."""
        self._engine_ref = weakref.ref(engine)
        self.prepare(engine)
        return self

    @property
    def engine(self) -> "ScoringEngine":
        """The bound scoring engine."""
        engine = self._engine_ref() if self._engine_ref is not None else None
        if engine is None:  # pragma: no cover - defensive
            raise SolverError(f"plan {self.name!r} is not bound to a live engine")
        return engine

    def prepare(self, engine: "ScoringEngine") -> None:
        """Per-instance precomputation hook (default: nothing)."""

    def batch_block(
        self, interval_index: int, mu_rows: np.ndarray, value_mu_rows: np.ndarray
    ) -> np.ndarray:
        """Scores of one block of event rows at one interval (Eq. 4).

        ``value_mu_rows`` is ``mu_rows`` itself under unit event values (see
        :class:`~repro.core.storage.EventRowSource`).
        """
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """Structure counters of this plan (empty for the direct reference)."""
        return {}

    def pattern_matrix(self) -> Optional[np.ndarray]:
        """The plan's cached ``(|E|, P)`` representative µ matrix, if any.

        Shared with the engine's structural Φ bound
        (:meth:`~repro.core.scoring.ScoringEngine.interval_score_bound`):
        the engine takes it instead of gathering its own copy in a store
        pass.  ``None`` (the default) makes the engine build it lazily under
        the same memory rule.
        """
        return None

    def event_rows(self) -> Optional[EventRowSource]:
        """The event-row source of the bulk path (``None``: the engine's).

        Block evaluations — which run :meth:`batch_block` — iterate the
        source returned here.
        """
        return None

    @classmethod
    def describe(cls) -> str:
        """One-line description used by catalogue listings."""
        doc = (cls.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else cls.name


class DirectPlan(ScoringPlan):
    """Reference plan: the block kernel over every user column, unchanged."""

    name = "direct"

    def batch_block(
        self, interval_index: int, mu_rows: np.ndarray, value_mu_rows: np.ndarray
    ) -> np.ndarray:
        return direct_block_scores(self.engine, interval_index, mu_rows, value_mu_rows)


def available_plans() -> Tuple[str, ...]:
    """Names of every scoring plan, in table order."""
    return tuple(_PLAN_REGISTRY)


def get_plan(name: str) -> Type[ScoringPlan]:
    """Return the plan class named ``name``."""
    try:
        return _PLAN_REGISTRY[name]
    except KeyError:
        raise SolverError(
            f"unknown scoring plan {name!r}; available: {', '.join(available_plans())}"
        ) from None


def plan_catalog() -> List[Dict[str, object]]:
    """One row per scoring plan (CLI / docs listings)."""
    return [
        {
            "plan": name + (" (default)" if name == DEFAULT_PLAN else ""),
            "description": cls.describe(),
        }
        for name, cls in _PLAN_REGISTRY.items()
    ]


# The blocked plan lives in its own module but is listed here with the other
# built-ins.  The import is deferred to the bottom of this module: the
# blocked plan imports repro.core.scoring, which imports names from here.
from repro.core.blocked import BlockedPlan  # noqa: E402

_BACKEND_REGISTRY: Dict[str, Type[ExecutionBackend]] = {
    ScalarBackend.name: ScalarBackend,
    BatchBackend.name: BatchBackend,
}

_PLAN_REGISTRY: Dict[str, Type[ScoringPlan]] = {
    DirectPlan.name: DirectPlan,
    BlockedPlan.name: BlockedPlan,
}


__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_CHUNK_ELEMENTS",
    "KERNEL_TILE_ELEMENTS",
    "DEFAULT_PLAN",
    "ExecutionBackend",
    "ExecutionConfig",
    "ScalarBackend",
    "BatchBackend",
    "ScoringPlan",
    "DirectPlan",
    "BlockedPlan",
    "available_backends",
    "available_plans",
    "backend_catalog",
    "get_backend",
    "get_plan",
    "plan_catalog",
    "resolve_backend",
    "resolve_chunk_size",
    "resolve_plan",
    "direct_block_scores",
    "score_block_kernel",
]
