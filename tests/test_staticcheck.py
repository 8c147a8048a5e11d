"""Tests of ``repro.analysis.staticcheck`` — the project-invariant linter.

Every rule is exercised through paired good/bad fixture snippets under
``tests/fixtures/staticcheck/<rule-id>/``: each fixture's first line is a
``# lintpath: <relative path>`` header naming where the snippet virtually
lives, so the path-scoped rules see realistic project layouts without the
fixtures polluting the real tree.  The meta-test at the bottom holds the
repository itself to its own standard: ``repro lint src tools benchmarks
perfbench examples`` must be clean, with at most 10 justified waivers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.staticcheck import (
    Finding,
    LINT_SCHEMA_VERSION,
    LintError,
    Rule,
    SYNTAX_ERROR_RULE,
    available_rules,
    collect_waivers,
    format_report,
    format_rule_table,
    register_rule,
    rule_catalog,
    run_lint,
)
from repro.analysis.staticcheck import registry as staticcheck_registry
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "staticcheck"
REPO_LINT_PATHS = [
    REPO_ROOT / name for name in ("src", "tools", "benchmarks", "perfbench", "examples")
]

EXPECTED_RULES = (
    "no-nondeterminism",
    "imports-policy",
    "broad-except",
    "lock-discipline",
    "counter-discipline",
    "no-mutable-default",
    "docstring-backend-sync",
    "docstring-storage-sync",
    "docstring-plan-sync",
    "waiver-discipline",
)


def _lintpath(fixture: Path) -> str:
    header = fixture.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("# lintpath: "), f"{fixture} lacks a lintpath header"
    return header.removeprefix("# lintpath: ").strip()


def materialise(tmp_path: Path, fixture: Path, lintpath: str | None = None) -> Path:
    """Copy a fixture into a synthetic project tree at its declared lintpath."""
    target = tmp_path / (lintpath or _lintpath(fixture))
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(fixture.read_text(encoding="utf-8"), encoding="utf-8")
    return target


def lint_fixture(tmp_path: Path, fixture: Path, lintpath: str | None = None):
    materialise(tmp_path, fixture, lintpath)
    return run_lint([tmp_path], root=tmp_path)


def _fixture_cases(kind: str):
    cases = []
    for rule_dir in sorted(FIXTURES.iterdir()):
        for fixture in sorted(rule_dir.glob(f"{kind}*.py")):
            cases.append(pytest.param(rule_dir.name, fixture, id=f"{rule_dir.name}-{fixture.stem}"))
    return cases


class TestFixtures:
    """Each rule fires on its bad snippets and stays quiet on the good ones."""

    @pytest.mark.parametrize("rule_id, fixture", _fixture_cases("bad"))
    def test_bad_fixture_is_flagged_with_the_right_rule(
        self, tmp_path, rule_id, fixture
    ):
        report = lint_fixture(tmp_path, fixture)
        fired = {finding.rule for finding in report.findings}
        assert fired == {rule_id}, (
            f"{fixture} expected only {rule_id!r} findings, got: "
            + "\n".join(finding.format() for finding in report.findings)
        )

    @pytest.mark.parametrize("rule_id, fixture", _fixture_cases("good"))
    def test_good_fixture_is_clean(self, tmp_path, rule_id, fixture):
        report = lint_fixture(tmp_path, fixture)
        assert report.clean, (
            f"{fixture} expected clean, got: "
            + "\n".join(finding.format() for finding in report.findings)
        )

    def test_every_registered_rule_has_fixture_coverage(self):
        covered = {path.name for path in FIXTURES.iterdir() if path.is_dir()}
        missing = set(EXPECTED_RULES) - covered
        assert not missing, f"rules without fixtures: {sorted(missing)}"

    def test_bad_fixture_counts(self, tmp_path):
        """Spot-check multiplicity: one finding per mutable default, not per function."""
        report = lint_fixture(tmp_path, FIXTURES / "no-mutable-default" / "bad.py")
        assert len(report.findings) == 4

    def test_out_of_scope_placement_is_ignored(self, tmp_path):
        """The same hazard outside the rule's path scope is not flagged."""
        fixture = FIXTURES / "no-nondeterminism" / "bad.py"
        report = lint_fixture(tmp_path, fixture, lintpath="tools/fixture_bad.py")
        assert "no-nondeterminism" not in {f.rule for f in report.findings}

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        report = lint_fixture(tmp_path, FIXTURES / "syntax-error" / "bad.py")
        assert {f.rule for f in report.findings} == {SYNTAX_ERROR_RULE}

    def test_non_utf8_file_is_reported_not_raised(self, tmp_path):
        (tmp_path / "latin1.py").write_bytes(b"# caf\xe9\nx = 1\n")
        report = run_lint([tmp_path], root=tmp_path)
        (finding,) = report.findings
        assert finding.rule == SYNTAX_ERROR_RULE
        assert "not valid UTF-8" in finding.message


class TestWaivers:
    def test_waiver_requires_tokenized_comment_not_string(self):
        source = 'MESSAGE = "# staticcheck: allow(broad-except) -- in a string"\n'
        assert collect_waivers(source) == []

    def test_waiver_parses_rules_and_justification(self):
        source = "x = 1  # staticcheck: allow(broad-except, no-mutable-default) -- because tested\n"
        (waiver,) = collect_waivers(source)
        assert waiver.line == 1
        assert set(waiver.rules) == {"broad-except", "no-mutable-default"}
        assert waiver.justification == "because tested"

    def test_waiver_suppresses_only_its_line_and_rule(self, tmp_path):
        target = tmp_path / "tools" / "module.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "try:\n"
            "    pass\n"
            "except Exception:  # staticcheck: allow(broad-except) -- covered elsewhere\n"
            "    pass\n"
            "try:\n"
            "    pass\n"
            "except Exception:\n"
            "    pass\n",
            encoding="utf-8",
        )
        report = run_lint([tmp_path], root=tmp_path)
        assert [f.rule for f in report.findings] == ["broad-except"]
        assert report.findings[0].line == 7
        assert report.waived_findings == 1
        assert report.waivers == 1


class TestRegistry:
    def test_expected_rules_are_registered_in_order(self):
        assert tuple(available_rules()) == EXPECTED_RULES

    def test_duplicate_registration_raises(self):
        class Duplicate(Rule):
            id = "broad-except"

        with pytest.raises(LintError, match="already registered"):
            register_rule(Duplicate)

    def test_custom_rule_registers_and_runs(self, tmp_path):
        class NoTodoRule(Rule):
            id = "fixture-no-todo"
            summary = "fixture rule: no TODO names"

            def check(self, context):
                import ast

                for node in ast.walk(context.tree):
                    if isinstance(node, ast.Name) and node.id == "TODO":
                        yield self.finding(context, node, "TODO found")

        register_rule(NoTodoRule)
        try:
            target = tmp_path / "module.py"
            target.write_text("TODO = 1\n", encoding="utf-8")
            report = run_lint([tmp_path], root=tmp_path, rule_ids=["fixture-no-todo"])
            assert [f.rule for f in report.findings] == ["fixture-no-todo"]
        finally:
            staticcheck_registry._RULE_REGISTRY.pop("fixture-no-todo")

    def test_unknown_rule_id_raises_with_the_catalogue(self, tmp_path):
        with pytest.raises(LintError, match="unknown lint rule"):
            run_lint([tmp_path], root=tmp_path, rule_ids=["nope"])

    def test_catalog_rows_have_the_documented_shape(self):
        rows = rule_catalog()
        assert [row["rule"] for row in rows] == list(EXPECTED_RULES)
        for row in rows:
            assert set(row) == {"rule", "scope", "severity", "summary"}
            assert row["summary"], f"rule {row['rule']} lacks a summary"
        assert "lint rule" not in format_rule_table(rows)  # renders without error


class TestReportSchema:
    """The ``--json`` schema is stable: future PRs trend it in BENCH_*.json."""

    def test_schema_keys_and_zero_filled_rules(self, tmp_path):
        (tmp_path / "empty.py").write_text("x = 1\n", encoding="utf-8")
        payload = run_lint([tmp_path], root=tmp_path).to_json()
        assert set(payload) == {
            "schema_version",
            "clean",
            "files_scanned",
            "waivers",
            "waived_findings",
            "rules",
            "findings",
        }
        assert payload["schema_version"] == LINT_SCHEMA_VERSION
        assert payload["clean"] is True
        assert payload["files_scanned"] == 1
        assert set(payload["rules"]) == set(EXPECTED_RULES) | {SYNTAX_ERROR_RULE}
        assert all(count == 0 for count in payload["rules"].values())

    def test_findings_serialise_with_stable_keys(self, tmp_path):
        report = lint_fixture(tmp_path, FIXTURES / "broad-except" / "bad.py")
        payload = report.to_json()
        assert payload["clean"] is False
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "rule", "message", "severity"}
        assert payload["rules"]["broad-except"] == len(payload["findings"])

    def test_findings_sort_deterministically(self):
        findings = [
            Finding(path="b.py", line=1, rule="z", message="m"),
            Finding(path="a.py", line=9, rule="a", message="m"),
            Finding(path="a.py", line=2, rule="b", message="m"),
        ]
        assert [f.path for f in sorted(findings)] == ["a.py", "a.py", "b.py"]
        assert sorted(findings)[0].line == 2

    def test_missing_path_is_an_error_not_a_clean_run(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            run_lint([tmp_path / "no-such-dir"], root=tmp_path)

    def test_unmarked_tree_roots_at_cwd_not_the_scanned_dir(
        self, tmp_path, monkeypatch
    ):
        """Without a setup.py/.git marker, ``repro lint src`` from the tree's
        top still scopes rules against ``src/...`` rel-paths — rooting at the
        scanned directory itself would strip the prefix and silence every
        path-scoped rule."""
        materialise(tmp_path, FIXTURES / "no-nondeterminism" / "bad.py")
        monkeypatch.chdir(tmp_path)
        report = run_lint([Path("src")])
        assert "no-nondeterminism" in {f.rule for f in report.findings}


class TestCli:
    def _tree_with(self, tmp_path, fixture):
        (tmp_path / "setup.py").write_text("", encoding="utf-8")
        materialise(tmp_path, fixture)
        return tmp_path

    def test_lint_exits_nonzero_with_the_rule_in_json(self, tmp_path, capsys, monkeypatch):
        tree = self._tree_with(tmp_path, FIXTURES / "counter-discipline" / "bad.py")
        monkeypatch.chdir(tree)
        exit_code = main(["lint", "src", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["rules"]["counter-discipline"] > 0
        assert payload["findings"][0]["rule"] == "counter-discipline"

    def test_lint_text_output_names_path_line_rule(self, tmp_path, capsys, monkeypatch):
        tree = self._tree_with(tmp_path, FIXTURES / "no-mutable-default" / "bad.py")
        monkeypatch.chdir(tree)
        exit_code = main(["lint", "benchmarks"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "benchmarks/fixture_bad.py:" in out
        assert "[no-mutable-default]" in out
        assert "repro lint:" in out.splitlines()[-1]

    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        tree = self._tree_with(tmp_path, FIXTURES / "no-mutable-default" / "good.py")
        monkeypatch.chdir(tree)
        assert main(["lint", "benchmarks"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_RULES:
            assert rule_id in out

    def test_lint_rules_filter_and_unknown_rule(self, tmp_path, capsys, monkeypatch):
        tree = self._tree_with(tmp_path, FIXTURES / "broad-except" / "bad.py")
        monkeypatch.chdir(tree)
        assert main(["lint", "tools", "--rules", "no-mutable-default"]) == 0
        capsys.readouterr()
        assert main(["lint", "tools", "--rules", "no-such-rule"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err


class TestRepoIsClean:
    """The meta-test: the repository passes its own static analysis."""

    def test_repo_lints_clean(self):
        report = run_lint(REPO_LINT_PATHS, root=REPO_ROOT)
        assert report.clean, "repo lint regressed:\n" + format_report(report)
        assert report.files_scanned > 50

    def test_repo_waiver_budget(self):
        """Waivers are an escape hatch, not a lifestyle: at most 10, all justified."""
        report = run_lint(REPO_LINT_PATHS, root=REPO_ROOT)
        assert report.waivers <= 10, f"{report.waivers} waivers exceed the budget of 10"

    def test_repo_lint_via_cli_default_paths(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out
