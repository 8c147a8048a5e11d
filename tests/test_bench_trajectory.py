"""``BENCH_perfbench.json``, the committed perf trajectory, must match ``BENCHMARK.json``.

Each entry records one change's alternating parent/change perfbench pairs on
one workload: the parent commit, run seconds, pair count and seeds, whether
every run was correct with none failed, and per end-to-end metric the parent
and change medians, IQRs and the pairs the change won.  A workload or metric
name that ``BENCHMARK.json`` does not declare (a typo, or a metric since
renamed) would make the trajectory unreadable, so every name is checked
against the declaration.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = json.loads((REPO_ROOT / "BENCH_perfbench.json").read_text())
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
ENTRIES = TRAJECTORY["entries"]


def test_schema_version():
    assert TRAJECTORY["schema"] == 1
    assert ENTRIES


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: f"{entry['change']}-{entry['workload']}")
class TestEntry:
    def test_workload_is_declared(self, entry):
        assert entry["workload"] in WORKLOADS

    def test_metrics_are_the_declared_end_to_end_set(self, entry):
        assert set(entry["metrics"]) == END_TO_END

    def test_run_shape(self, entry):
        assert len(entry["parent"]) == 40
        assert entry["seconds"] > 0
        assert len(entry["seeds"]) == entry["pairs"] > 0
        assert entry["correct"] is True

    def test_metric_summaries(self, entry):
        for name, summary in entry["metrics"].items():
            for side in ("parent", "change"):
                assert set(summary[side]) == {"median", "iqr"}, name
                assert summary[side]["iqr"] >= 0.0, name
            assert 0 <= summary["pairs_won"] <= entry["pairs"], name
