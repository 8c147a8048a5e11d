"""Self-tests of the benchmark: layers are traced, gates hold, inputs are honest.

Each workload runs at a fraction of its size in traced mode.  A later rename
of a wrapped library function would leave its layer with no spans; these
tests fail instead of letting the layer read zero silently.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, Workload, percentile, run_workload, tail_rank

#: Fraction of each workload's size the tests run at.
SCALE = 0.2

#: The benchmark definition at the repository root.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def listed(kind: str):
    """``{metric name: unit}`` of one metric list of ``BENCHMARK.json``."""
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def scaled(workload: Workload, factor: float) -> Workload:
    """A smaller copy of a workload: sizes, ``k`` and trace length scaled."""

    def shrink(shape):
        return dataclasses.replace(
            shape,
            events=max(8, int(shape.events * factor)),
            intervals=max(4, int(shape.intervals * factor)),
            users=max(40, int(shape.users * factor * factor)),
            cohorts=max(4, int(shape.cohorts * factor)) if shape.cohorts else 0,
        )

    return dataclasses.replace(
        workload,
        solve_shape=shrink(workload.solve_shape),
        serve_shape=shrink(workload.serve_shape),
        k=max(1, int(workload.k * factor)),
        mutations=max(2 * workload.resolve_every, int(workload.mutations * factor)),
    )


#: Layers each workload exists to exercise; each must record spans there.
EXERCISED = {
    "unf-dense": (
        "instance.build",
        "engine.build",
        "patterns.mine",
        "kernel.grid",
        "kernel.column",
        "refresh",
        "bound.eval",
        "constraints.check",
        "session.apply",
        "session.resolve",
        "session.warm_grid",
        "wire.mutate",
        "wire.resolve",
        "wire.query",
    ),
    "cohort-mmap": (
        "io.spill",
        "io.load",
        "storage.block",
        "plan.block",
        "patterns.mine",
        "bound.eval",
    ),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """``{workload: (outcome, span counts by name)}`` of one small traced run each."""
    out_dir = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for name, workload in WORKLOADS.items():
        outcome = run_workload(scaled(workload, SCALE), seed=1, seconds=0, trace=True, out_dir=out_dir)
        dump = json.loads((out_dir / f"trace-{name}-seed1.json").read_text(encoding="utf-8"))
        names = Counter()
        for part in dump.values():
            names.update(span[3] for span in part["spans"])
            for _, _, leaf, calls, _ in part["leaves"]:
                names[leaf] += calls
        runs[name] = (outcome, names)
    return runs


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_each_layer_records_spans_where_exercised(traced, workload):
    _, names = traced[workload]
    silent = [layer for layer in EXERCISED[workload] if names[layer] == 0]
    assert not silent, f"{workload}: no spans recorded for {silent}"


def test_dense_direct_workload_bypasses_storage_and_plan(traced):
    outcome, names = traced["unf-dense"]
    assert names["storage.block"] == 0 and names["plan.block"] == 0
    assert outcome.metrics["storage.block_s"][0] == 0.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_pass_every_gate(traced, workload):
    outcome, _ = traced[workload]
    # The gates include the self-time closure: layer self times plus the
    # algorithm's residual add up to every traced call's wall-clock.
    assert outcome.correct, outcome.ledger.failures
    assert outcome.ledger.attempted > 0


def test_second_seed_builds_a_different_instance_that_passes(traced, tmp_path):
    first, _ = traced["unf-dense"]
    second = run_workload(
        scaled(WORKLOADS["unf-dense"], SCALE), seed=2, seconds=0, trace=False, out_dir=tmp_path
    )
    assert second.correct, second.ledger.failures
    assert second.digest != first.digest
    assert all(value > 0 for value, _ in second.metrics.values())
    assert {name: unit for name, (_, unit) in second.metrics.items()} == listed("end_to_end")


def test_benchmark_json_lists_what_the_runs_print(traced):
    assert sorted(workload["name"] for workload in SPEC["workloads"]) == sorted(WORKLOADS)
    for outcome, _ in traced.values():
        assert {name: unit for name, (_, unit) in outcome.metrics.items()} == listed("per_layer")


def test_tracer_restores_every_binding():
    from repro.core import scoring

    original = scoring.ScoringEngine.__dict__["score_matrix"]
    with Tracer().installed():
        assert scoring.ScoringEngine.__dict__["score_matrix"] is not original
    assert scoring.ScoringEngine.__dict__["score_matrix"] is original
    assert scoring.mine_structure.__module__ == "repro.core.patterns"


def test_percentile_is_numpy_linear_interpolation():
    samples = np.random.default_rng(3).random(37).tolist()
    for rank in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
        assert percentile(samples, rank) == pytest.approx(np.percentile(samples, rank), abs=1e-15)


def test_tail_rank_leaves_ten_samples_beyond():
    assert tail_rank(100) == 90.0
    assert tail_rank(500) == 98.0
    assert tail_rank(50) == 80.0
    assert tail_rank(5) == 50.0


def test_benchmark_fails_without_the_library(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark's own files.
    package = Path(__file__).resolve().parent
    shutil.copytree(package, tmp_path / package.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(package.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{package.name}/run.py", "--workload", "unf-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
