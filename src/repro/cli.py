"""Command-line interface of the reproduction (``ses-repro`` / ``python -m repro``).

Sub-commands
------------

``generate``
    Build one of the named datasets and save it to ``.json`` / ``.npz``.
``solve``
    Run one or more schedulers on a saved or freshly generated instance and
    print the resulting metrics (and optionally the schedule itself).
``experiment``
    Regenerate one of the paper's figures at a chosen scale and print its
    tables.
``backends``
    List the execution backends with their resolved defaults on this
    machine, then the scoring plans.
``serve``
    Run the online scheduling service: long-lived mutable sessions with
    incremental re-solves over TCP (connect with
    :class:`repro.service.ServiceClient`).
``lint``
    Statically check the project invariants (AST-based rules from
    ``repro.analysis.staticcheck``); exits non-zero on findings, ``--json``
    emits the stable machine-readable report the CI gate archives.
``list``
    List the available datasets, algorithms and experiments.
``info``
    Print summary statistics of a saved instance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import List, Optional, Sequence

from repro._version import __version__
from repro.algorithms.base import SchedulerResult
from repro.algorithms.registry import PAPER_METHODS, available_schedulers
from repro.core.errors import DatasetError, ReproError
from repro.core.instance import SESInstance
from repro.core.execution import (
    ExecutionConfig,
    available_backends,
    available_plans,
    backend_catalog,
    get_plan,
    plan_catalog,
    resolve_backend,
)
from repro.core.storage import available_stores, get_store
from repro.core.validation import instance_report
from repro.datasets.builders import build_dataset, dataset_names
from repro.datasets.loaders import load_instance, save_instance
from repro.experiments.figures import SCALES, available_experiments, run_experiment
from repro.experiments.report import format_figure_result, format_records, format_table
from repro.experiments.harness import apply_storage, run_algorithms
from repro.experiments.sweeps import summary_sweep


def _add_backend_arguments(subparser: argparse.ArgumentParser) -> None:
    """Attach the execution-backend flags shared by ``solve`` and ``experiment``.

    ``--backend`` deliberately has no argparse ``choices``: validation happens
    in the execution layer, so an unknown backend fails with the same
    message, naming the available backends, from the CLI as from the library.
    """
    subparser.add_argument(
        "--backend",
        default=None,
        help="execution backend: 'batch' (the default) evaluates whole "
        "intervals in vectorised NumPy passes, 'scalar' scores one "
        "(event, interval) pair at a time (identical "
        "results, different speed); recorded in the output rows.  "
        f"Registered backends: {', '.join(available_backends())} "
        "(see the 'backends' sub-command)",
    )
    subparser.add_argument(
        "--storage",
        default=None,
        help="interest-matrix storage the instance is converted to before "
        "scheduling: 'dense' keeps full user×event arrays (the builders' "
        "default), 'sparse' keeps an event-major CSR of the non-zero "
        "entries, 'mmap' streams an uncompressed instance NPZ from disk "
        "(an .npz --instance is memory-mapped in place when possible; "
        "anything else is spilled to a temporary directory first); "
        "identical results, different memory footprint; recorded in the "
        f"output rows.  Registered stores: {', '.join(available_stores())}",
    )
    subparser.add_argument(
        "--plan",
        default=None,
        help="scoring plan of the bulk backends: 'direct' (the default) runs "
        "the reference kernel over every user row, 'blocked' mines the "
        "instance's interest-pattern equivalence classes once and scores "
        "one representative per class (identical results, faster on "
        "duplicate-heavy instances); non-bulk backends pin to 'direct'; "
        "recorded in the output rows.  Registered plans: "
        f"{', '.join(available_plans())}",
    )
    subparser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="events per vectorised pass of the bulk backends (memory guard; "
        "default bounds one block at ~64 MB regardless of instance size)",
    )


def _execution_from_args(args: argparse.Namespace) -> ExecutionConfig:
    """One ExecutionConfig from the shared backend flags.

    The backend name is validated here so a typo fails fast (with the
    available-names list) before any dataset is generated or loaded; the
    chunk size is validated on resolution downstream.
    """
    backend = resolve_backend(args.backend)
    plan = getattr(args, "plan", None)
    if plan is not None:
        get_plan(plan)  # fail fast on a typo, with the available names
    return ExecutionConfig(backend=backend, plan=plan, chunk_size=args.chunk_size)


def _storage_from_args(args: argparse.Namespace) -> Optional[str]:
    """The validated ``--storage`` name (``None`` keeps each instance's own).

    Like ``--backend``, the name is checked against the store table here so a
    typo fails fast — before any dataset is generated or loaded —
    with the currently-available names in the message.
    """
    storage = getattr(args, "storage", None)
    if storage is not None:
        get_store(storage)
    return storage


def _solve_instance(
    args: argparse.Namespace, storage: Optional[str], stack: contextlib.ExitStack
) -> SESInstance:
    """Load or generate the ``solve`` instance under the requested storage.

    An ``.npz`` instance requested as ``mmap`` is memory-mapped straight from
    its file when possible — the dense matrices are never materialised, which
    is what lets ``solve`` handle instances larger than RAM.  A compressed
    NPZ or JSON source falls back to a normal load followed by a spill to a
    temporary directory (removed when ``stack`` closes).
    """
    if args.instance:
        if storage == "mmap" and args.instance.endswith(".npz"):
            try:
                return load_instance(args.instance, mmap=True)
            except DatasetError:
                pass  # compressed / legacy NPZ: load it eagerly, spill below
        instance = load_instance(args.instance)
    else:
        instance = build_dataset(args.dataset, **_generate_overrides(args))
    return apply_storage(instance, storage, stack)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="ses-repro",
        description="Social Event Scheduling (SES) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a dataset instance")
    generate.add_argument("dataset", choices=dataset_names(), help="dataset family to generate")
    generate.add_argument("output", help="output path (.json or .npz)")
    generate.add_argument("--users", type=int, default=None, help="number of users")
    generate.add_argument("--events", type=int, default=None, help="number of candidate events")
    generate.add_argument("--intervals", type=int, default=None, help="number of time intervals")
    generate.add_argument("--locations", type=int, default=None, help="number of event locations")
    generate.add_argument("--seed", type=int, default=7, help="random seed")

    solve = subparsers.add_parser("solve", help="run schedulers on an instance")
    source = solve.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", help="path of a saved instance (.json/.npz)")
    source.add_argument("--dataset", choices=dataset_names(), help="generate this dataset on the fly")
    solve.add_argument("-k", type=int, required=True, help="number of events to schedule")
    solve.add_argument(
        "--algorithms",
        nargs="+",
        default=list(PAPER_METHODS),
        help=f"schedulers to run (available: {', '.join(available_schedulers())})",
    )
    solve.add_argument("--users", type=int, default=None, help="users when generating on the fly")
    solve.add_argument("--events", type=int, default=None, help="events when generating on the fly")
    solve.add_argument("--intervals", type=int, default=None, help="intervals when generating on the fly")
    solve.add_argument("--seed", type=int, default=0, help="seed for randomised schedulers")
    _add_backend_arguments(solve)
    solve.add_argument("--show-schedule", action="store_true", help="print the assignments")

    experiment = subparsers.add_parser("experiment", help="regenerate a paper figure")
    experiment.add_argument(
        "experiment_id",
        choices=available_experiments() + ["summary"],
        help="figure id (fig5 … fig10b, ext_*, or 'summary' for the §4.2.8 sweep)",
    )
    experiment.add_argument(
        "--scale", choices=sorted(SCALES), default="small", help="experiment scale preset"
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--json", action="store_true", help="emit JSON rows instead of tables")
    _add_backend_arguments(experiment)

    subparsers.add_parser(
        "backends",
        help="list the registered execution backends and their resolved defaults",
    )

    service = subparsers.add_parser(
        "serve",
        help="run the online scheduling service until shut down: sessions "
        "accept mutation batches and re-solve incrementally (prints the "
        "bound 'host:port' first — connect with repro.service.ServiceClient)",
    )
    service.add_argument(
        "--host", default="127.0.0.1",
        help="address to bind (default: loopback; bind a LAN address to "
        "serve remote clients)",
    )
    service.add_argument(
        "--port", type=int, default=0,
        help="port to bind (default: 0 = an ephemeral port, printed on start)",
    )
    service.add_argument(
        "--authkey", default=None,
        help="shared authentication secret clients must present "
        "(default: the library key, refused on a non-loopback --host)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="statically check the project invariants (exit 1 on findings)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tools", "benchmarks", "perfbench", "examples"],
        help="files/directories to scan (default: src tools benchmarks perfbench "
        "examples, resolved from the current directory)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the stable JSON report (schema_version, files_scanned, "
        "per-rule counts, waivers, findings) instead of text",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="comma-separated rule ids to run (default: every registered "
        "rule; see --list-rules)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule catalogue (id, scope, severity, "
        "summary) and exit",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="project root for rule path scoping (default: auto-detected "
        "from the nearest setup.py/pyproject.toml/.git ancestor)",
    )

    subparsers.add_parser("list", help="list datasets, algorithms and experiments")

    info = subparsers.add_parser("info", help="summarise a saved instance")
    info.add_argument("instance", help="path of a saved instance (.json/.npz)")

    return parser


def _generate_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {"seed": args.seed}
    if args.users is not None:
        overrides["num_users"] = args.users
    if args.events is not None:
        overrides["num_events"] = args.events
    if args.intervals is not None:
        overrides["num_intervals"] = args.intervals
    if getattr(args, "locations", None) is not None:
        overrides["num_locations"] = args.locations
    return overrides


def _command_generate(args: argparse.Namespace) -> int:
    instance = build_dataset(args.dataset, **_generate_overrides(args))
    path = save_instance(instance, args.output)
    print(f"wrote {instance.name} instance to {path}")
    print(format_table([instance.describe()]))
    return 0


def _command_solve(args: argparse.Namespace) -> int:
    # Validate the backend and storage names before the (possibly expensive)
    # instance is generated or loaded, so a typo fails fast.
    execution = _execution_from_args(args)
    storage = _storage_from_args(args)
    with contextlib.ExitStack() as stack:
        instance = _solve_instance(args, storage, stack)
        # The results sink captures each scheduler's run so --show-schedule
        # can print the assignments without running everything a second time.
        results: List[SchedulerResult] = []
        records = run_algorithms(
            instance,
            args.k,
            algorithms=args.algorithms,
            experiment_id="cli",
            seed=args.seed,
            execution=execution,
            results=results,
        )
        print(format_records(records))
        if args.show_schedule:
            for name, result in zip(args.algorithms, results):
                assignments = ", ".join(
                    f"{instance.events[a.event_index].id}@{instance.intervals[a.interval_index].id}"
                    for a in result.schedule.assignments()
                )
                print(f"{name}: {assignments}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    if args.experiment_id == "summary":
        stats = summary_sweep(
            scale=args.scale,
            seed=args.seed,
            execution=_execution_from_args(args),
            storage=_storage_from_args(args),
        )
        if args.json:
            print(json.dumps(stats.as_rows(), indent=2))
        else:
            print(format_table(stats.as_rows()))
        return 0
    figure = run_experiment(
        args.experiment_id,
        scale=args.scale,
        seed=args.seed,
        execution=_execution_from_args(args),
        storage=_storage_from_args(args),
    )
    if args.json:
        print(json.dumps([record.to_row() for record in figure.records], indent=2))
    else:
        print(format_figure_result(figure))
    return 0


def _command_backends(_: argparse.Namespace) -> int:
    print(format_table(backend_catalog()))
    print()
    print(format_table(plan_catalog()))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service package (and its networking) is only
    # needed by this long-running command.
    from repro.service import ServiceServer

    ServiceServer(args.host, args.port, authkey=args.authkey).run(
        announce=lambda address: print(
            f"ses-repro scheduling service listening on {address}", flush=True
        )
    )
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    # Imported lazily (like the service): the lint framework pulls
    # in the rule registry, which ordinary CLI commands never need.
    from repro.analysis.staticcheck import (
        format_report,
        format_rule_table,
        run_lint,
    )

    if args.list_rules:
        print(format_rule_table())
        return 0
    rule_ids = (
        [rule_id.strip() for rule_id in args.rules.split(",") if rule_id.strip()]
        if args.rules is not None
        else None
    )
    report = run_lint(args.paths, root=args.root, rule_ids=rule_ids)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(format_report(report))
    return 0 if report.clean else 1


def _command_list(_: argparse.Namespace) -> int:
    print("datasets:    " + ", ".join(dataset_names()))
    print("algorithms:  " + ", ".join(available_schedulers()))
    print("backends:    " + ", ".join(available_backends()))
    print("plans:       " + ", ".join(available_plans()))
    print("storages:    " + ", ".join(available_stores()))
    print("experiments: " + ", ".join(available_experiments() + ["summary"]))
    print("scales:      " + ", ".join(sorted(SCALES)))
    return 0


def _command_info(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    print(format_table([instance_report(instance)]))
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "solve": _command_solve,
    "experiment": _command_experiment,
    "backends": _command_backends,
    "serve": _command_serve,
    "lint": _command_lint,
    "list": _command_list,
    "info": _command_info,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
