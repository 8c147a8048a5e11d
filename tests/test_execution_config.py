"""The execution layer itself: config resolution and the retired surface.

The bulk path's numerical behaviour is locked down by the equivalence suites;
these tests cover the layer's *surface* — ``ExecutionConfig`` resolution
rules, the single ``execution=`` entry path every public runner takes, and
the knobs, flags and commands that are gone.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.algorithms.registry import get_scheduler, run_scheduler
from repro.cli import main
from repro.core import execution
from repro.core.errors import SolverError
from repro.core.execution import DEFAULT_PLAN, ExecutionConfig, available_plans
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
        assert resolved.plan == DEFAULT_PLAN
        assert resolved.chunk_size >= 1

    def test_fields_are_chunk_size_and_plan(self):
        names = [field.name for field in dataclasses.fields(ExecutionConfig)]
        assert names == ["chunk_size", "plan"]

    def test_resolution_is_idempotent(self):
        config = ExecutionConfig(chunk_size=7, plan="blocked")
        once = config.resolve(num_users=50)
        assert once.resolve(num_users=50) == once

    def test_unknown_plan_lists_names(self):
        with pytest.raises(SolverError) as excinfo:
            ExecutionConfig(plan="gpu").resolve(num_users=10)
        message = str(excinfo.value)
        for name in available_plans():
            assert name in message

    def test_invalid_knobs_rejected(self):
        with pytest.raises(SolverError):
            ExecutionConfig(chunk_size=0).resolve(num_users=10)

    def test_engine_exposes_resolved_config(self):
        instance = make_random_instance(seed=130, num_users=10, num_events=6, num_intervals=2)
        engine = ScoringEngine(instance, execution=ExecutionConfig(chunk_size=3))
        assert engine.execution.chunk_size == 3
        assert engine.execution.plan == DEFAULT_PLAN
        assert engine.chunk_size == 3


#: Commands that run as given, to which each retired flag is appended.
VALID_COMMANDS = {
    "solve": [
        "solve", "--dataset", "Unf", "-k", "2", "--users", "10", "--events", "5",
        "--intervals", "2", "--algorithms", "TOP",
    ],
    "experiment": ["experiment", "fig5", "--scale", "tiny"],
    "serve": ["serve", "--port", "0"],
}

#: The cluster's and the backend axis's flags, each with a value it once
#: accepted.
RETIRED_FLAGS = [
    ("--workers", "2"),
    ("--cluster", "127.0.0.1:7077"),
    ("--cluster-key", "secret"),
    ("--backend", "scalar"),
]


class TestRetiredClusterSurface:
    """Every solve runs in one process on the one bulk scoring path: the
    cluster's and the backend axis's knobs, result fields and commands are
    gone rather than silently ignored."""

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("workers", 2),
            ("workers_addr", ("127.0.0.1:7077",)),
            ("cluster_key", "secret"),
            ("backend", "batch"),
        ],
        ids=["workers", "workers_addr", "cluster_key", "backend"],
    )
    def test_execution_config_rejects_retired_knob(self, knob, value):
        with pytest.raises(TypeError, match=knob):
            ExecutionConfig(**{knob: value})

    @pytest.mark.parametrize("field", ["workers", "cluster", "cluster_stats", "backend"])
    def test_results_and_records_carry_no_cluster_fields(self, field):
        instance = make_random_instance(seed=101, num_users=8, num_events=4, num_intervals=2)
        result = run_scheduler("TOP", instance, 2)
        assert not hasattr(result, field)
        assert field not in result.summary()
        (record,) = run_algorithms(instance, 2, algorithms=["TOP"])
        assert field not in record.params

    @pytest.mark.parametrize("flag, value", RETIRED_FLAGS, ids=[flag for flag, _ in RETIRED_FLAGS])
    @pytest.mark.parametrize("command", sorted(VALID_COMMANDS))
    def test_cli_rejects_retired_flags(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*VALID_COMMANDS[command], flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["worker", "serve"], ["cluster", "health"], ["backends"]], ids=" ".join
    )
    def test_cli_rejects_retired_commands(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err


    def test_execution_module_defines_no_backend(self):
        names = [name for name in vars(execution) if "backend" in name.lower()]
        assert names == []

    def test_cli_list_has_no_backends_line(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "backends:" not in out
        assert "plans:" in out


#: What only the scheduling service may load: the stdlib's socket
#: transport and the service package (with its wire layer).
NETWORKING_MODULES = ("multiprocessing.connection", "repro.service")


def _non_service_modules():
    """Every ``repro`` module outside the service package, sorted.

    ``repro.__main__`` is left out: importing it runs the CLI.
    """
    return sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
        and info.name != "repro.service"
        and not info.name.startswith("repro.service.")
    )


#: Imports each module named on the command line in turn and prints, as JSON,
#: which of the networking modules were loaded after each import.
_IMPORT_PROBE = """
import importlib, json, sys
forbidden = json.loads(sys.argv[1])
loaded = {}
for name in sys.argv[2:]:
    importlib.import_module(name)
    loaded[name] = [module for module in forbidden if module in sys.modules]
print(json.dumps(loaded))
"""


def _probe_imports(modules):
    """Run :data:`_IMPORT_PROBE` over ``modules`` in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(NETWORKING_MODULES), *modules],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def cumulative_imports():
    """The probe over every non-service module, imported one after another."""
    return _probe_imports(_non_service_modules())


class TestLayering:
    def test_solving_imports_no_networking(self):
        """The solver stack never loads the service's wire layer."""
        probe = (
            "import sys\n"
            "import repro.algorithms.registry, repro.core.scoring\n"
            "loaded = [name for name in ('multiprocessing.connection', 'repro.service')\n"
            "          if name in sys.modules]\n"
            "print(','.join(loaded))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert completed.stdout.strip() == ""

    def test_probe_sees_the_service_load_networking(self):
        """The probe detects a module that does load the wire layer."""
        assert _probe_imports(["repro.service"]) == {"repro.service": list(NETWORKING_MODULES)}

    @pytest.mark.parametrize("module", _non_service_modules())
    def test_module_imports_no_networking(self, module, cumulative_imports):
        """Importing ``module`` loads neither the socket transport nor the service.

        One interpreter imports every module in turn, so a clean entry clears
        that module; a dirty one is re-probed alone, in a fresh interpreter,
        to tell the culprit from the modules imported after it.
        """
        if cumulative_imports[module]:
            assert _probe_imports([module]) == {module: []}
