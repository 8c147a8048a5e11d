"""Docs-drift guard: README and docs/ must match the live code.

The docs subsystem promises the same reproducibility discipline as the
equivalence suites: what the documentation *lists* is checked against what
the code *defines*.  Concretely:

* no doc names a retired backend surface (the ``--backend`` flag, the
  ``backends`` command, the backend table);
* the instance-storage table in ``docs/ARCHITECTURE.md`` must name exactly
  the stores of ``available_stores()``, in table order;
* the scoring-plan tables in ``README.md`` and ``docs/ARCHITECTURE.md`` must
  name exactly the plans of ``available_plans()``, in table order;
* every CLI sub-command built by :func:`repro.cli.build_parser` must appear
  in the README's command reference (and vice versa), and the shared
  execution flags named there must all exist on the parser (and vice versa);
* the wire-protocol op table in ``docs/ARCHITECTURE.md`` must list exactly
  the ``OP_*`` constants of ``repro.service.wire``;
* the rule table in ``docs/STATIC_ANALYSIS.md`` must name exactly the rules
  in the live ``repro.analysis.staticcheck`` registry, in registration order;
* every test-suite path cited in ``docs/PAPER_MAPPING.md`` must exist.

If one of these tests fails you either added code without documenting it or
documented something that does not exist — fix the side that is wrong.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"
PAPER_MAPPING = REPO_ROOT / "docs" / "PAPER_MAPPING.md"
STATIC_ANALYSIS = REPO_ROOT / "docs" / "STATIC_ANALYSIS.md"

#: First-column code span of a markdown table row: ``| `name` … | …``.
_TABLE_NAME = re.compile(r"^\|\s*`([^`]+)`")


def _section(text: str, heading: str) -> str:
    """The markdown section following ``heading``, up to the next heading."""
    start = text.index(heading) + len(heading)
    match = re.search(r"^#{1,6} ", text[start:], flags=re.MULTILINE)
    return text[start : start + match.start()] if match else text[start:]


def _table_names(section: str) -> list:
    """First-column backticked names of every table row in a section."""
    names = []
    for line in section.splitlines():
        match = _TABLE_NAME.match(line.strip())
        if match:
            names.append(match.group(1))
    return names


def _cli_subcommands() -> list:
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return list(action.choices)


#: Spellings of the retired backend axis that no doc may carry.
RETIRED_BACKEND_SURFACE = (
    "--backend",
    "repro backends",
    "available_backends",
    "ExecutionConfig(backend",
    "## Execution backends",
    "## Backend decision table",
)


class TestRetiredBackendSurface:
    @pytest.mark.parametrize(
        "path", [README, ARCHITECTURE, PAPER_MAPPING, STATIC_ANALYSIS], ids=lambda p: p.name
    )
    def test_docs_name_no_retired_backend_surface(self, path):
        text = path.read_text(encoding="utf-8")
        found = [spelling for spelling in RETIRED_BACKEND_SURFACE if spelling in text]
        assert not found, f"{path.name} still documents {found}"


class TestStorageTable:
    def test_architecture_storage_table_matches_registry(self):
        """docs/ARCHITECTURE.md lists exactly the registered interest stores."""
        from repro.core.storage import available_stores

        section = _section(
            ARCHITECTURE.read_text(encoding="utf-8"), "## Instance storage"
        )
        names = _table_names(section)
        assert names, "docs/ARCHITECTURE.md lost its instance-storage table"
        assert names == list(available_stores()), (
            "docs/ARCHITECTURE.md storage table drifted from the "
            f"store table: documented={names}, "
            f"actual={list(available_stores())}"
        )


class TestPlanTables:
    def test_plan_tables_match_registry(self):
        """README and ARCHITECTURE list exactly the registered scoring plans,
        in registration order."""
        from repro.core.execution import available_plans

        expected = list(available_plans())
        for path, heading in (
            (README, "### Scoring plans: exploiting interest structure"),
            (ARCHITECTURE, "## Scoring plans: interest-pattern block decomposition"),
        ):
            names = _table_names(_section(path.read_text(encoding="utf-8"), heading))
            assert names, f"{path.name} lost its scoring-plan table"
            assert names == expected, (
                f"{path.name} plan table drifted from available_plans(): "
                f"documented={names}, actual={expected}"
            )


def _execution_flags() -> list:
    """The long option strings of the ``solve`` sub-command."""
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    solve = action.choices["solve"]
    flags = []
    for option in solve._actions:
        for string in option.option_strings:
            if string.startswith("--") and string not in ("--help",):
                flags.append(string)
    return flags


class TestCliReference:
    def test_every_subcommand_is_documented(self):
        section = _section(README.read_text(encoding="utf-8"), "## CLI command reference")
        documented = _table_names(section)
        assert sorted(documented) == sorted(_cli_subcommands()), (
            "README's CLI command reference drifted from build_parser(): "
            f"documented={sorted(documented)}, actual={sorted(_cli_subcommands())}"
        )

    def test_every_execution_flag_is_documented(self):
        """The shared execution flags named below the command table are real
        parser options, and every ``_add_execution_arguments`` flag is named."""
        section = _section(README.read_text(encoding="utf-8"), "## CLI command reference")
        documented = set(re.findall(r"`(--[\w-]+)`", section))
        execution_flags = {"--plan", "--storage", "--chunk-size"}
        parser_flags = set(_execution_flags())
        missing_from_parser = execution_flags - parser_flags
        assert not missing_from_parser, (
            f"README documents execution flags the parser lost: {sorted(missing_from_parser)}"
        )
        missing_from_readme = execution_flags - documented
        assert not missing_from_readme, (
            f"README's command reference omits execution flags: {sorted(missing_from_readme)}"
        )


class TestWireProtocolTable:
    def test_architecture_op_table_matches_protocol_module(self):
        """The op table documents exactly the OP_* constants of service/wire.py."""
        from repro.service import wire

        section = _section(
            ARCHITECTURE.read_text(encoding="utf-8"),
            "## Data flow: the service wire protocol",
        )
        documented = _table_names(section)
        assert documented, "docs/ARCHITECTURE.md lost its wire-protocol op table"
        ops = sorted(
            value
            for name, value in vars(wire).items()
            if name.startswith("OP_")
        )
        assert sorted(documented) == ops, (
            "docs/ARCHITECTURE.md op table drifted from service/wire.py's OP_* "
            f"constants: documented={sorted(documented)}, actual={ops}"
        )


class TestStaticAnalysisDoc:
    def test_rule_table_matches_registry(self):
        """docs/STATIC_ANALYSIS.md lists exactly the registered lint rules."""
        from repro.analysis.staticcheck import available_rules

        section = _section(STATIC_ANALYSIS.read_text(encoding="utf-8"), "## Rules")
        documented = _table_names(section)
        assert documented, "docs/STATIC_ANALYSIS.md lost its rule table"
        assert documented == list(available_rules()), (
            "docs/STATIC_ANALYSIS.md rule table drifted from the staticcheck "
            f"registry: documented={documented}, actual={list(available_rules())}"
        )

    def test_waiver_example_matches_the_live_syntax(self):
        """The documented waiver example actually parses as a waiver."""
        from repro.analysis.staticcheck import collect_waivers

        text = STATIC_ANALYSIS.read_text(encoding="utf-8")
        example = next(
            line for line in text.splitlines() if "# staticcheck: allow(" in line
        )
        (waiver,) = collect_waivers(example + "\n")
        assert waiver.rules == ("broad-except",)
        assert waiver.justification


class TestPaperMapping:
    @pytest.mark.parametrize("kind", ["tests", "benchmarks", "examples"])
    def test_cited_paths_exist(self, kind):
        text = (
            PAPER_MAPPING.read_text(encoding="utf-8")
            + README.read_text(encoding="utf-8")
            + ARCHITECTURE.read_text(encoding="utf-8")
            + STATIC_ANALYSIS.read_text(encoding="utf-8")
        )
        cited = set(re.findall(rf"`({kind}/[\w./]+\.py)`", text))
        assert cited or kind == "examples", f"no {kind} paths cited at all?"
        missing = sorted(path for path in cited if not (REPO_ROOT / path).exists())
        assert not missing, f"docs cite nonexistent files: {missing}"

    def test_mapping_covers_every_scheduler(self):
        """Each registered scheduler name appears in the mapping tables."""
        from repro.algorithms.registry import available_schedulers

        text = PAPER_MAPPING.read_text(encoding="utf-8")
        missing = [name for name in available_schedulers() if name not in text]
        assert not missing, f"docs/PAPER_MAPPING.md does not mention: {missing}"
