"""The execution layer itself: config resolution, the registry, the catalogue.

The backend strategies' numerical behaviour is locked down by the equivalence
suites; these tests cover the layer's *surface* — ``ExecutionConfig``
resolution rules, the name→class registry and its ``register_backend()``
extension hook (a new backend must be selectable everywhere by name with no
further plumbing), the CLI-facing catalogue, and the single ``execution=``
entry path every public runner takes.
"""

from __future__ import annotations

import inspect

import pytest

from repro.algorithms.registry import get_scheduler, run_scheduler
from repro.cli import main
from repro.core.errors import SolverError
from repro.core.execution import (
    DEFAULT_BACKEND,
    BatchBackend,
    ExecutionConfig,
    available_backends,
    backend_catalog,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
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
        config = ExecutionConfig(backend="parallel", chunk_size=7, workers=3)
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
        assert ExecutionConfig(backend="parallel").is_bulk
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
        assert available_backends() == ("scalar", "batch", "parallel", "cluster")
        bulk = tuple(name for name in available_backends() if get_backend(name).is_bulk)
        assert bulk == ("batch", "parallel", "cluster")

    def test_get_backend_unknown_is_friendly(self):
        with pytest.raises(SolverError) as excinfo:
            get_backend("nope")
        assert "batch" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SolverError):
            register_backend(BatchBackend)

    def test_builtin_cannot_be_unregistered(self):
        with pytest.raises(SolverError):
            unregister_backend("batch")

    def test_custom_backend_is_selectable_everywhere_by_name(self):
        """register_backend() is the whole integration — no other plumbing."""

        class EveryOtherRowBackend(BatchBackend):
            """A silly custom split: odd rows first, then even rows."""

            name = "custom-split"

            def _run_blocks(self, interval_index, source, bounds, scores):
                for start, stop in list(bounds[1::2]) + list(bounds[::2]):
                    scores[start:stop] = self.engine._batch_block(
                        interval_index, *source.block(start, stop)
                    )

        register_backend(EveryOtherRowBackend)
        try:
            assert "custom-split" in available_backends()
            assert resolve_backend("custom-split") == "custom-split"
            assert get_backend("custom-split").is_bulk

            instance = make_random_instance(
                seed=131, num_users=20, num_events=12, num_intervals=3
            )
            reference = run_scheduler(
                "INC", instance, 5, execution=ExecutionConfig(backend="batch", chunk_size=2)
            )
            custom = run_scheduler(
                "INC", instance, 5, execution=ExecutionConfig(backend="custom-split", chunk_size=2)
            )
            assert custom.schedule.as_dict() == reference.schedule.as_dict()
            assert custom.utility == reference.utility
            assert custom.counters == reference.counters
            assert custom.backend == "custom-split"
        finally:
            unregister_backend("custom-split")
        assert "custom-split" not in available_backends()


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

    def test_cli_list_backends_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--list-backends"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out

    def test_cli_list_includes_backends_line(self, capsys):
        assert main(["list"]) == 0
        assert "backends:" in capsys.readouterr().out
