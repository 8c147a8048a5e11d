"""The file/package walker: collect sources, run rules, apply waivers.

:func:`run_lint` is the single entry point the CLI, the CI job and the tests
share.  It walks the given files/directories, parses each ``.py`` file once
(`ast` for the rules, `tokenize` for the waivers), runs every applicable
registered rule, filters the findings through the per-line waivers, and
returns a :class:`LintReport` whose :meth:`~LintReport.to_json` emits the
stable schema the CI artifact and future benchmark trending rely on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.staticcheck.findings import SEVERITY_ERROR, Finding
from repro.analysis.staticcheck.registry import LintError, Rule, available_rules
from repro.analysis.staticcheck.waivers import Waiver, collect_waivers

#: Schema version of :meth:`LintReport.to_json` — bump on breaking changes so
#: trend consumers (BENCH_*.json style) can tell payloads apart.
LINT_SCHEMA_VERSION = 1

#: Rule id of the synthesised finding for files that do not parse (or do not
#: decode as UTF-8 in the first place).
SYNTAX_ERROR_RULE = "syntax-error"

#: Directory names never descended into.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})

#: Files that mark a directory as the project root (for rel-path scoping).
_ROOT_MARKERS = ("setup.py", "pyproject.toml", ".git")


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one parsed source file."""

    path: Path
    #: Project-root-relative POSIX path (what rule scoping matches against).
    rel_path: str
    source: str
    tree: ast.AST
    waivers: Tuple[Waiver, ...]


@dataclass
class LintReport:
    """The outcome of one lint run (findings already waiver-filtered)."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Waiver comments present in the scanned files.
    waivers: int = 0
    #: Findings suppressed by a waiver.
    waived_findings: int = 0
    #: Ids of the rules that ran (the counts in :attr:`rule_counts` cover
    #: exactly these plus :data:`SYNTAX_ERROR_RULE`).
    rules_run: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        """Whether the run produced no findings."""
        return not self.findings

    @property
    def rule_counts(self) -> Dict[str, int]:
        """Surviving findings per rule id, zero-filled for every rule run.

        Zero-filling keeps the JSON schema stable across runs: a rule that
        found nothing still appears, so trend lines never lose columns.
        """
        counts = {rule_id: 0 for rule_id in self.rules_run}
        counts.setdefault(SYNTAX_ERROR_RULE, 0)
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> Dict[str, object]:
        """The stable ``repro lint --json`` payload."""
        return {
            "schema_version": LINT_SCHEMA_VERSION,
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "waivers": self.waivers,
            "waived_findings": self.waived_findings,
            "rules": self.rule_counts,
            "findings": [finding.to_json() for finding in self.findings],
        }


def detect_root(paths: Sequence[Path]) -> Path:
    """The nearest ancestor of ``paths`` carrying a project-root marker.

    When no marker is found, falls back to the working directory if the
    first path lives under it (so ``repro lint src`` in an unmarked checkout
    still scopes rules against ``src/...`` rel-paths), else to the first
    path's (parent) directory — linting a loose file outside any project
    works, with scoped rules simply not applying.
    """
    for start in paths:
        candidate = start.resolve()
        if candidate.is_file():
            candidate = candidate.parent
        while True:
            if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
                return candidate
            if candidate.parent == candidate:
                break
            candidate = candidate.parent
    first = paths[0].resolve()
    cwd = Path.cwd().resolve()
    if first != cwd and first.is_relative_to(cwd):
        return cwd
    return first.parent if first.is_file() else first


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files kept as-is), sorted, deduped.

    Raises
    ------
    LintError
        When a named path does not exist — a misspelled directory silently
        scanning nothing would report a deceptive "clean".
    """
    collected: List[Path] = []
    for path in paths:
        if not path.exists():
            raise LintError(f"lint path does not exist: {path}")
        if path.is_file():
            collected.append(path.resolve())
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part in _SKIPPED_DIRS for part in candidate.parts):
                continue
            collected.append(candidate.resolve())
    unique: Dict[Path, None] = {}
    for path in collected:
        unique.setdefault(path, None)
    return sorted(unique)


def _relative_path(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(
    path: Path, root: Path, rules: Sequence[Rule]
) -> Tuple[List[Finding], int, int]:
    """Lint one file; returns ``(findings, waiver_count, waived_count)``."""
    rel_path = _relative_path(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        return (
            [
                Finding(
                    path=rel_path,
                    line=0,
                    rule=SYNTAX_ERROR_RULE,
                    message=f"file is not valid UTF-8: {error}",
                    severity=SEVERITY_ERROR,
                )
            ],
            0,
            0,
        )
    waivers = tuple(collect_waivers(source))
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return (
            [
                Finding(
                    path=rel_path,
                    line=error.lineno or 0,
                    rule=SYNTAX_ERROR_RULE,
                    message=f"file does not parse: {error.msg}",
                    severity=SEVERITY_ERROR,
                )
            ],
            len(waivers),
            0,
        )
    context = FileContext(
        path=path, rel_path=rel_path, source=source, tree=tree, waivers=waivers
    )
    raw: List[Finding] = []
    for rule in rules:
        if rule.applies_to(context):
            raw.extend(rule.check(context))
    findings: List[Finding] = []
    waived = 0
    for finding in raw:
        if any(waiver.allows(finding.rule, finding.line) for waiver in waivers):
            waived += 1
        else:
            findings.append(finding)
    return findings, len(waivers), waived


def run_lint(
    paths: Iterable[object],
    *,
    root: Optional[object] = None,
    rule_ids: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint ``paths`` (files and/or directories) with the registered rules.

    Parameters
    ----------
    paths:
        Files or directories to scan (strings or :class:`~pathlib.Path`).
    root:
        Project root for rel-path rule scoping; auto-detected from the paths
        (nearest ``setup.py`` / ``pyproject.toml`` / ``.git`` ancestor) when
        omitted.
    rule_ids:
        Rule ids to run (default: the whole registry, in registration order).
    """
    # Importing the rules module populates the registry.
    from repro.analysis.staticcheck import rules as _rules  # noqa: F401
    from repro.analysis.staticcheck.registry import resolve_rules

    path_objects = [Path(path) for path in paths]
    if not path_objects:
        raise LintError("no lint paths given")
    selected = resolve_rules(rule_ids)
    root_path = Path(root).resolve() if root is not None else detect_root(path_objects)
    report = LintReport(
        rules_run=tuple(rule.id for rule in selected)
        if rule_ids is not None
        else available_rules()
    )
    for file_path in iter_python_files(path_objects):
        findings, waivers, waived = lint_file(file_path, root_path, selected)
        report.findings.extend(findings)
        report.files_scanned += 1
        report.waivers += waivers
        report.waived_findings += waived
    report.findings.sort()
    return report


__all__ = [
    "FileContext",
    "LINT_SCHEMA_VERSION",
    "LintReport",
    "SYNTAX_ERROR_RULE",
    "detect_root",
    "iter_python_files",
    "lint_file",
    "run_lint",
]
