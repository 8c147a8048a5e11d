"""Million-user instance solved end-to-end through the mmap storage.

The deliverable of the pluggable-storage work: a ``10^6 users x 10^3 events``
instance whose dense interest matrix (8 GB as float64) is **above the dense
capacity limit** — ``instance.with_storage("dense")`` raises a clear
:class:`~repro.core.errors.StorageCapacityError` — yet the same instance,
held as an event-major CSR memory-mapped from an uncompressed NPZ, is solved
end-to-end by a registered scheduler with bounded peak RSS: the scoring
kernels densify one event block at a time, so peak memory follows the chunk
size, not the matrix size.

The benchmark

* builds the interest matrices directly as sparse COO triples (the dense
  array never exists at any point),
* spills the instance to an uncompressed NPZ and memory-maps it back
  (``with_storage("mmap")`` — the file is then the only full copy of the
  matrix data),
* proves the dense representation cannot load at the active capacity limit,
* solves the instance with TOP (one full score-matrix sweep plus a top-k
  selection — pure streaming-scoring throughput) and reports wall-clock,
  backing-file size and peak RSS next to the dense memory that was never
  allocated.

Scales (``REPRO_BENCH_SCALE``):

* ``tiny``    — 4 000 users x 60 events x 3 intervals (CI quick mode);
* ``small``   — 100 000 users x 300 events x 6 intervals (default);
* ``default`` — 1 000 000 users x 1 000 events x 8 intervals, the paper-scale
  deliverable: peak RSS is additionally asserted to stay under half of the
  8 GB the dense matrix would need.

At the ``tiny`` and ``small`` scales the dense matrix would actually fit in
RAM, so the dense capacity limit (``REPRO_DENSE_CAPACITY``) is lowered below
the instance's element count for the duration of the run — the *same* loud
failure large instances hit at the default limit, and a guarantee that no
step of the solve secretly materialises the matrix.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np
import pytest

from repro.algorithms.registry import run_scheduler
from repro.core.entities import CompetingEvent, Event, Organizer, TimeInterval, User
from repro.core.errors import StorageCapacityError
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.core.storage import DENSE_CAPACITY_ENV, SparseStore, dense_capacity_limit

from benchmarks._common import write_result
from benchmarks.conftest import BENCH_SCALE, persist_rows, run_once

#: (num_users, num_events, num_intervals, interest entries per user, k).
MILLION_SCALES = {
    "tiny": (4_000, 60, 3, 4, 3),
    "small": (100_000, 300, 6, 6, 5),
    "default": (1_000_000, 1_000, 8, 5, 4),
}

#: Competing events (fixed and tiny: they exercise the sparse
#: competing-interest path without becoming the benchmark's subject).
NUM_COMPETING = 4

#: Elements a densified event block may hold (bounds every kernel temporary):
#: ``chunk_size = max(1, BLOCK_ELEMENT_BUDGET // num_users)``.
BLOCK_ELEMENT_BUDGET = 8_000_000


def sparse_interest(
    rng: np.random.Generator, num_users: int, num_items: int, per_user: int
) -> InterestMatrix:
    """A random sparse interest matrix built without a dense intermediate."""
    total = num_users * per_user
    users = np.repeat(np.arange(num_users, dtype=np.int64), per_user)
    items = rng.integers(0, num_items, total, dtype=np.int64)
    values = rng.random(total)
    store = SparseStore.from_coo(
        num_users, num_items, users, items, values, deduplicated=False
    )
    return InterestMatrix.from_store(store)


def build_sparse_instance(
    num_users: int, num_events: int, num_intervals: int, per_user: int
) -> SESInstance:
    """The benchmark instance, interest matrices sparse from the start."""
    rng = np.random.default_rng(1_000_003)
    return SESInstance(
        events=[
            Event(id=f"e{idx}", location=f"loc{idx}") for idx in range(num_events)
        ],
        intervals=[
            TimeInterval(id=f"t{idx}", label=f"interval-{idx}")
            for idx in range(num_intervals)
        ],
        competing_events=[
            CompetingEvent(id=f"c{idx}", interval_id=f"t{idx % num_intervals}")
            for idx in range(NUM_COMPETING)
        ],
        users=[User(id=f"u{idx}") for idx in range(num_users)],
        interest=sparse_interest(rng, num_users, num_events, per_user),
        competing_interest=sparse_interest(rng, num_users, NUM_COMPETING, 2),
        activity=rng.random((num_users, num_intervals)),
        organizer=Organizer(name="million", available_resources=float("inf")),
        name=f"million-{num_users}x{num_events}",
    )


def peak_rss_bytes() -> int:
    """This process's lifetime peak RSS (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def test_million_users_mmap_end_to_end(benchmark, results_dir, tmp_path):
    num_users, num_events, num_intervals, per_user, k = MILLION_SCALES[BENCH_SCALE]
    dense_elements = num_users * num_events
    previous_capacity = os.environ.get(DENSE_CAPACITY_ENV)
    if dense_elements <= dense_capacity_limit():
        os.environ[DENSE_CAPACITY_ENV] = str(dense_elements // 2)
    try:
        assert dense_elements > dense_capacity_limit()
        build_started = time.perf_counter()
        instance = build_sparse_instance(
            num_users, num_events, num_intervals, per_user
        ).with_storage("mmap", directory=tmp_path)
        build_seconds = time.perf_counter() - build_started
        assert instance.storage == "mmap"
        assert instance.backing_file is not None
        file_bytes = os.path.getsize(instance.backing_file)

        # The dense representation cannot load at the active capacity limit.
        with pytest.raises(StorageCapacityError, match="'sparse' or 'mmap'"):
            instance.with_storage("dense")

        chunk_size = max(1, BLOCK_ELEMENT_BUDGET // num_users)
        execution = ExecutionConfig(chunk_size=chunk_size)

        def solve():
            started = time.perf_counter()
            result = run_scheduler("TOP", instance, k, execution=execution)
            return result, time.perf_counter() - started

        result, solve_seconds = run_once(benchmark, solve)
        assert result.storage == "mmap"
        assert len(result.schedule.assignments()) == k
        assert result.utility > 0.0

        dense_bytes = dense_elements * 8
        peak_bytes = peak_rss_bytes()
        if dense_bytes >= 4 * 1024**3:
            # The headline claim at the million-user scale: the whole solve
            # fits in a fraction of what the dense matrix alone would need.
            assert peak_bytes < dense_bytes / 2

        rows = [
            {
                "scale": BENCH_SCALE,
                "num_users": num_users,
                "num_events": num_events,
                "num_intervals": num_intervals,
                "interest_nnz": instance.interest.store.nnz,
                "k": k,
                "scheduler": "TOP",
                "storage": result.storage,
                "chunk_size": chunk_size,
                "build_seconds": round(build_seconds, 3),
                "solve_seconds": round(solve_seconds, 3),
                "utility": round(result.utility, 6),
                "backing_file_mib": round(file_bytes / 2**20, 1),
                "peak_rss_mib": round(peak_bytes / 2**20, 1),
                "dense_would_need_mib": round(dense_bytes / 2**20, 1),
            }
        ]
        print()
        print(persist_rows("bench_million_users", rows, results_dir))
        write_result(
            "bench_million_users",
            results_dir,
            scale=BENCH_SCALE,
            instance={
                "num_users": num_users,
                "num_events": num_events,
                "num_intervals": num_intervals,
                "interest_per_user": per_user,
                "interest_nnz": instance.interest.store.nnz,
                "k": k,
                "storage": result.storage,
                "chunk_size": chunk_size,
            },
            timings={
                "build_seconds": build_seconds,
                "solve_seconds": solve_seconds,
            },
            counters=dict(result.counters),
            rows=rows,
            extra={
                "peak_rss_mib": round(peak_bytes / 2**20, 1),
                "backing_file_mib": round(file_bytes / 2**20, 1),
            },
        )
    finally:
        if previous_capacity is None:
            os.environ.pop(DENSE_CAPACITY_ENV, None)
        else:
            os.environ[DENSE_CAPACITY_ENV] = previous_capacity
