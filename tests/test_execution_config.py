"""The execution layer itself: config resolution, the backend table, the catalogue.

The backend strategies' numerical behaviour is locked down by the equivalence
suites; these tests cover the layer's *surface* — ``ExecutionConfig``
resolution rules, the fixed name→class backend table, the CLI-facing
catalogue, and the single ``execution=`` entry path every public runner
takes.
"""

from __future__ import annotations

import inspect

import pytest

from repro.algorithms.registry import get_scheduler, run_scheduler
from repro.cli import main
from repro.core.errors import SolverError
from repro.core.execution import (
    DEFAULT_BACKEND,
    ExecutionConfig,
    available_backends,
    backend_catalog,
    get_backend,
    resolve_workers,
)
from repro.core.scoring import ScoringEngine
from repro.experiments import figures
from repro.experiments.harness import run_algorithms, run_experiment_point
from repro.experiments.sweeps import summary_sweep

from tests.conftest import make_random_instance


#: Every public entry point that builds a scoring engine, with a call that
#: reaches argument binding.  ``execution`` is their only execution knob.
ENTRY_POINTS = {
    "ScoringEngine": (ScoringEngine, lambda f, inst, **kw: f(inst, **kw)),
    "BaseScheduler": (get_scheduler("ALG"), lambda f, inst, **kw: f(inst, **kw)),
    "run_scheduler": (run_scheduler, lambda f, inst, **kw: f("ALG", inst, 2, **kw)),
    "run_algorithms": (run_algorithms, lambda f, inst, **kw: f(inst, 2, **kw)),
    "run_experiment_point": (
        run_experiment_point,
        lambda f, inst, **kw: f("unf", k=2, experiment_id="x", **kw),
    ),
    "summary_sweep": (summary_sweep, lambda f, inst, **kw: f("tiny", **kw)),
    **{
        name: (getattr(figures, name), lambda f, inst, **kw: f("tiny", **kw))
        for name in (
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b",
            "ext_competing", "ext_resources",
        )
    },
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_takes_execution_config_only(name):
    target, call = ENTRY_POINTS[name]
    param = inspect.signature(target).parameters["execution"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY
    assert param.default is None
    instance = make_random_instance(num_users=10, num_events=3, num_intervals=2, seed=0)
    for knob, value in (("backend", "batch"), ("chunk_size", 8), ("workers", 2)):
        with pytest.raises(TypeError, match=knob):
            call(target, instance, **{knob: value})


class TestConfigResolution:
    def test_defaults_resolve(self):
        resolved = ExecutionConfig().resolve(num_users=100)
        assert resolved.backend == DEFAULT_BACKEND
        assert resolved.chunk_size >= 1
        assert resolved.workers == 1  # batch never fans out

    def test_resolution_is_idempotent(self):
        config = ExecutionConfig(
            backend="cluster", chunk_size=7, workers=3, workers_addr=("h:1", "h:2")
        )
        once = config.resolve(num_users=50)
        assert once.resolve(num_users=50) == once

    def test_unknown_backend_lists_names(self):
        with pytest.raises(SolverError) as excinfo:
            ExecutionConfig(backend="gpu").resolve(num_users=10)
        message = str(excinfo.value)
        for name in available_backends():
            assert name in message

    def test_is_bulk(self):
        assert not ExecutionConfig(backend="scalar").is_bulk
        assert ExecutionConfig(backend="batch").is_bulk
        assert ExecutionConfig(backend="cluster").is_bulk
        assert ExecutionConfig().is_bulk  # the default is a bulk backend

    def test_invalid_knobs_rejected(self):
        with pytest.raises(SolverError):
            ExecutionConfig(chunk_size=0).resolve(num_users=10)
        with pytest.raises(SolverError):
            ExecutionConfig(workers=-1).resolve(num_users=10)

    def test_engine_exposes_resolved_config(self):
        instance = make_random_instance(seed=130, num_users=10, num_events=6, num_intervals=2)
        engine = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=3))
        assert engine.execution.backend == "batch"
        assert engine.execution.chunk_size == 3
        assert engine.backend == "batch"
        assert engine.chunk_size == 3
        assert engine.workers == 1


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert available_backends() == ("scalar", "batch", "cluster")
        bulk = tuple(name for name in available_backends() if get_backend(name).is_bulk)
        assert bulk == ("batch", "cluster")

    def test_get_backend_unknown_is_friendly(self):
        with pytest.raises(SolverError) as excinfo:
            get_backend("nope")
        assert "batch" in str(excinfo.value)

    def test_retired_thread_backend_is_unknown(self):
        with pytest.raises(SolverError) as excinfo:
            ExecutionConfig(backend="parallel").resolve(num_users=10)
        assert "available: scalar, batch, cluster" in str(excinfo.value)


class TestWorkersKnob:
    """``workers`` caps the cluster's dispatch lanes; every serial run records 1."""

    def test_serial_runs_record_one_worker(self):
        """Serial runs record workers=1 whatever was asked, so identical runs
        look identical in the harness tables."""
        assert resolve_workers(None) == 1
        assert resolve_workers(8) == 1  # no worker addresses: nothing fans out
        assert resolve_workers(None, "batch") == 1
        assert resolve_workers(8, "scalar") == 1
        assert resolve_workers(8, "batch", ("h:1", "h:2")) == 1
        with pytest.raises(SolverError):
            resolve_workers(0, "batch")  # validation still applies when pinned
        instance = make_random_instance(seed=101, num_users=8, num_events=4, num_intervals=2)
        for backend in available_backends():
            result = run_scheduler(
                "TOP", instance, 2, execution=ExecutionConfig(backend=backend, workers=8)
            )
            assert result.workers == 1, backend
            assert result.summary()["workers"] == 1, backend

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5, "four"])
    def test_resolve_rejects_non_positive(self, bad):
        with pytest.raises(SolverError):
            resolve_workers(bad)
        for backend in available_backends():
            with pytest.raises(SolverError, match="workers"):
                ExecutionConfig(backend=backend, workers=bad).resolve(num_users=10)

    def test_invalid_workers_rejected_by_scheduler(self):
        instance = make_random_instance(seed=94, num_users=8, num_events=4, num_intervals=2)
        with pytest.raises(SolverError, match="workers"):
            run_scheduler("TOP", instance, 2, execution=ExecutionConfig(workers=0))

    def test_cli_reports_invalid_workers(self, capsys):
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "2",
                "--users", "10", "--events", "5", "--intervals", "2",
                "--algorithms", "TOP", "--workers", "0",
            ]
        )
        assert code == 2
        assert "workers" in capsys.readouterr().err

class TestCatalogue:
    def test_catalog_covers_every_backend(self):
        rows = backend_catalog()
        names = [str(row["backend"]).split(" ")[0] for row in rows]
        assert names == list(available_backends())
        default_rows = [row for row in rows if "(default)" in str(row["backend"])]
        assert len(default_rows) == 1 and DEFAULT_BACKEND in str(default_rows[0]["backend"])
        for row in rows:
            assert row["description"]

    def test_cli_backends_subcommand(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out

    def test_cli_list_includes_backends_line(self, capsys):
        assert main(["list"]) == 0
        assert "backends:" in capsys.readouterr().out
