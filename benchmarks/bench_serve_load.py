"""Load benchmark for the online scheduling service (``repro serve``).

A load generator drives sustained mutation + query traffic against an
in-process :class:`~repro.service.server.ServiceServer` over the real wire
protocol — interest refreshes (the dominant traffic of a deployed event
scheduler), lock/unlock churn, capacity changes and event announcements —
re-solving every few batches and measuring each operation's round-trip
latency with ``time.perf_counter``.

Two numbers make "heavy traffic" concrete:

* **p50/p99 re-solve latency** (via :func:`benchmarks._common.latency_summary`)
  — what a client waits for a fresh schedule mid-traffic; mutate latency is
  reported in aggregate and per :data:`MUTATION_KINDS` kind, since the kinds
  cost differently (an interest refresh journals a few cells, an add
  decodes and checks a |U|-long column);
* **saved-work ratio** — the session's cumulative ``scores_saved`` over
  ``scores_recomputed``.  A ratio above 1 means the warm path reused more of
  the cached score grid than it recomputed, i.e. incremental re-solves beat
  cold solves on aggregate score work (the benchmark asserts it);
* **structure mines per resolve** — how many of the main session's
  resolves mined the interest structure afresh (calls of
  ``repro.core.scoring.mine_structure``) instead of carrying it through the
  journal: one for the first resolve plus one per resolve after an
  accepted remove (reported, not asserted);
* **wall-clock ratio** — the same comparison in seconds.  At every
  :data:`COLD_EVERY`-th resolve (the first included) a *cold twin* session
  loads the starting instance, receives every mutation the main session
  accepted so far in one batch and resolves once, cold; the ratio is the
  median over those pairs of cold resolve seconds over warm resolve
  seconds (above 1: the warm path is faster).  The twin must return the
  warm resolve's schedule (asserted).

Scales (``REPRO_BENCH_SCALE``):

* ``tiny``    — 24 events × 6 intervals × 60 users, 80-mutation trace (CI);
* ``small``   — 60 events × 10 intervals × 150 users, 250-mutation trace;
* ``default`` — 120 events × 12 intervals × 300 users, 620-mutation trace
  (the acceptance-criteria ≥500-mutation run).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import scoring
from repro.core.errors import SolverError
from repro.core.instance import SESInstance
from repro.service import ServiceClient, start_local_service
from repro.service.session import (
    AddEvent,
    LockAssignment,
    RemoveEvent,
    SetIntervalCapacity,
    UnlockAssignment,
    UpdateInterest,
)
from repro.core.entities import Event

from benchmarks._common import latency_summary, write_result
from benchmarks.conftest import persist_rows, run_once

#: scale -> (num_events, num_intervals, num_users, trace length, resolve period,
#:           minimum applied mutations the trace must reach).
SERVE_SCALES = {
    "tiny": (24, 6, 60, 80, 5, 50),
    "small": (60, 10, 150, 250, 5, 180),
    "default": (120, 12, 300, 620, 5, 500),
}

#: A cold twin resolve is timed at every this-many-th warm resolve.
COLD_EVERY = 5

#: Mutation mix of the generator (weights sum to 1): interest refreshes
#: dominate, with lock/unlock churn and occasional structural edits.
MUTATION_MIX = (
    ("interest", 0.70),
    ("lock", 0.08),
    ("unlock", 0.07),
    ("capacity", 0.05),
    ("add", 0.05),
    ("remove", 0.05),
)

#: Row label of each mutation type in the per-kind mutate latency rows.
MUTATION_KINDS = {
    UpdateInterest: "interest",
    LockAssignment: "lock/unlock",
    UnlockAssignment: "lock/unlock",
    SetIntervalCapacity: "capacity",
    AddEvent: "add",
    RemoveEvent: "remove",
}


def build_instance(num_events: int, num_intervals: int, num_users: int) -> SESInstance:
    rng = np.random.default_rng(17)
    return SESInstance.from_arrays(
        interest=rng.random((num_users, num_events)),
        activity=rng.random((num_users, num_intervals)),
        name=f"serve-load-{num_events}x{num_intervals}",
    )


class TraceGenerator:
    """Draws the mutation trace against a local mirror of the session state."""

    def __init__(self, rng, num_events, num_intervals, num_users):
        self.rng = rng
        self.events = [f"e{index}" for index in range(num_events)]
        self.intervals = [f"t{index}" for index in range(num_intervals)]
        self.num_users = num_users
        self.locks = {}
        self.fresh = 0
        # Re-solves run with k = |T|, which must cover every locked
        # assignment — keep the lock churn safely below that bound.
        self.max_locks = max(1, num_intervals - 2)

    def next_mutation(self):
        kinds, weights = zip(*MUTATION_MIX)
        kind = self.rng.choice(kinds, p=weights)
        if kind == "interest":
            user_id = f"u{int(self.rng.integers(self.num_users))}"
            chosen = self.rng.choice(self.events, size=2, replace=False)
            values = {str(event): float(self.rng.random()) for event in chosen}
            return UpdateInterest(user_id=user_id, values=values)
        if kind == "lock" and len(self.locks) < self.max_locks:
            return LockAssignment(
                event_id=str(self.rng.choice(self.events)),
                interval_id=str(self.rng.choice(self.intervals)),
            )
        if kind in ("lock", "unlock"):
            if self.locks:
                return UnlockAssignment(event_id=str(self.rng.choice(sorted(self.locks))))
            return SetIntervalCapacity(
                interval_id=str(self.rng.choice(self.intervals)), capacity=None
            )
        if kind == "capacity":
            return SetIntervalCapacity(
                interval_id=str(self.rng.choice(self.intervals)),
                capacity=int(self.rng.integers(4, 12)),
            )
        if kind == "add":
            self.fresh += 1
            event_id = f"x{self.fresh}"
            interest = tuple(float(value) for value in self.rng.random(self.num_users))
            mutation = AddEvent(
                event=Event(id=event_id, location=f"xloc{self.fresh}"),
                interest=interest,
            )
            self.events.append(event_id)
            return mutation
        victim = str(self.rng.choice(self.events))
        return RemoveEvent(event_id=victim)

    def record(self, mutation):
        """Keep the mirror consistent after a batch the server accepted."""
        if isinstance(mutation, LockAssignment):
            self.locks[mutation.event_id] = mutation.interval_id
        elif isinstance(mutation, UnlockAssignment):
            self.locks.pop(mutation.event_id, None)
        elif isinstance(mutation, RemoveEvent) and mutation.event_id in self.events:
            self.events.remove(mutation.event_id)

    def forget(self, mutation):
        """Roll the mirror back after a batch the server rejected."""
        if isinstance(mutation, AddEvent) and mutation.event.id in self.events:
            self.events.remove(mutation.event.id)


def run_load(scale: str):
    num_events, num_intervals, num_users, steps, period, min_applied = SERVE_SCALES[scale]
    instance = build_instance(num_events, num_intervals, num_users)
    rng = np.random.default_rng(23)
    trace = TraceGenerator(rng, num_events, num_intervals, num_users)
    resolve_latencies, mutate_latencies, query_latencies = [], [], []
    mutate_by_kind = {kind: [] for kind in MUTATION_KINDS.values()}
    accepted, cold_ratios, twin_mismatches, twin_seconds = [], [], 0, 0.0
    rejected = 0
    # The in-process server mines through scoring.mine_structure; count the
    # calls the main session's resolves make.
    mines, session_mines = [], 0
    original_mine = scoring.mine_structure

    def counting_mine(*args, **kwargs):
        mines.append(1)
        return original_mine(*args, **kwargs)

    def resolve_main(client, session_id):
        nonlocal session_mines
        before = len(mines)
        reply = client.resolve(session_id, num_intervals)
        session_mines += len(mines) - before
        return reply

    scoring.mine_structure = counting_mine
    handle = start_local_service("127.0.0.1", 0)
    started = time.perf_counter()
    try:
        with ServiceClient(handle.address) as client:
            session_id = client.load_instance(instance, algorithm="INC", seed=17)
            resolve_main(client, session_id)  # cold anchor for the warm path
            for step in range(steps):
                mutation = trace.next_mutation()
                begin = time.perf_counter()
                try:
                    client.mutate(session_id, [mutation])
                except SolverError:
                    # Random locks/removals may violate constraints; a reject
                    # is part of realistic traffic and must cost nothing.
                    rejected += 1
                    trace.forget(mutation)
                else:
                    trace.record(mutation)
                    accepted.append(mutation)
                mutate_latencies.append(time.perf_counter() - begin)
                mutate_by_kind[MUTATION_KINDS[type(mutation)]].append(mutate_latencies[-1])
                if (step + 1) % period == 0:
                    begin = time.perf_counter()
                    warm = resolve_main(client, session_id)
                    resolve_latencies.append(time.perf_counter() - begin)
                    begin = time.perf_counter()
                    client.get_schedule(session_id)
                    query_latencies.append(time.perf_counter() - begin)
                    if len(resolve_latencies) % COLD_EVERY == 1:
                        twin_started = time.perf_counter()
                        twin = client.load_instance(instance, algorithm="INC", seed=17)
                        if accepted:
                            client.mutate(twin, accepted)
                        begin = time.perf_counter()
                        cold = client.resolve(twin, num_intervals)
                        cold_ratios.append(
                            (time.perf_counter() - begin) / resolve_latencies[-1]
                        )
                        twin_mismatches += cold["schedule"] != warm["schedule"]
                        twin_seconds += time.perf_counter() - twin_started
            status = client.session_status(session_id)
    finally:
        handle.stop()
        scoring.mine_structure = original_mine
    elapsed = time.perf_counter() - started - twin_seconds
    stats = status["stats"]
    saved_ratio = stats["scores_saved"] / max(stats["scores_recomputed"], 1)
    removes = sum(isinstance(mutation, RemoveEvent) for mutation in accepted)
    return {
        "scale": scale,
        "steps": steps,
        "rejected": rejected,
        "elapsed": elapsed,
        "stats": stats,
        "saved_ratio": saved_ratio,
        "mines_per_resolve": session_mines / max(stats["resolves_total"], 1),
        "accepted_removes": removes,
        "wall_clock_ratio": float(np.median(cold_ratios)),
        "cold_samples": len(cold_ratios),
        "twin_mismatches": twin_mismatches,
        "resolve": latency_summary(resolve_latencies),
        "mutate": latency_summary(mutate_latencies),
        "mutate_by_kind": {
            kind: latency_summary(samples) for kind, samples in mutate_by_kind.items() if samples
        },
        "query": latency_summary(query_latencies),
        "instance": {
            "num_events": num_events,
            "num_intervals": num_intervals,
            "num_users": num_users,
        },
    }


def test_serve_load(benchmark, bench_scale, results_dir):
    scale = bench_scale if bench_scale in SERVE_SCALES else "small"
    outcome = run_once(benchmark, run_load, scale)
    stats = outcome["stats"]
    min_applied = SERVE_SCALES[scale][5]

    summaries = [
        ("resolve", outcome["resolve"]),
        ("mutate", outcome["mutate"]),
        *((f"mutate:{kind}", summary) for kind, summary in outcome["mutate_by_kind"].items()),
        ("query", outcome["query"]),
    ]
    rows = [
        {
            "scale": scale,
            "operation": operation,
            "count": int(summary["count"]),
            "p50_ms": round(summary["p50"] * 1000, 3),
            "p99_ms": round(summary["p99"] * 1000, 3),
            "max_ms": round(summary["max"] * 1000, 3),
        }
        for operation, summary in summaries
    ]
    text = persist_rows("serve_load", rows, results_dir)
    print("\n" + text)
    print(
        f"applied {stats['mutations_applied']} mutations "
        f"({outcome['rejected']} rejected), {stats['resolves_total']} resolves "
        f"({stats['warm_resolves']} warm), saved-work ratio {outcome['saved_ratio']:.2f}, "
        f"structure mines per resolve {outcome['mines_per_resolve']:.3f} "
        f"({outcome['accepted_removes']} accepted removes), "
        f"cold/warm resolve wall-clock ratio {outcome['wall_clock_ratio']:.2f} "
        f"(median of {outcome['cold_samples']} pairs)"
    )
    write_result(
        "serve_load",
        results_dir,
        scale=scale,
        instance=outcome["instance"],
        timings={
            "trace_seconds": outcome["elapsed"],
            "resolve_p50_sec": outcome["resolve"]["p50"],
            "resolve_p99_sec": outcome["resolve"]["p99"],
        },
        counters=stats,
        rows=rows,
        extra={
            "saved_work_ratio": outcome["saved_ratio"],
            "structure_mines_per_resolve": outcome["mines_per_resolve"],
            "wall_clock_ratio": outcome["wall_clock_ratio"],
            "cold_samples": outcome["cold_samples"],
            "rejected": outcome["rejected"],
        },
    )

    # The trace must be real traffic, mostly served warm, and the warm path
    # must save more score work than it spends — the incremental dividend.
    assert stats["mutations_applied"] >= min_applied
    assert stats["warm_resolves"] >= stats["resolves_total"] - 1
    assert outcome["saved_ratio"] > 1.0
    # A cold resolve of the same state returns the warm resolve's schedule.
    assert outcome["twin_mismatches"] == 0
