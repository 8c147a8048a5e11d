"""``repro.analysis.staticcheck`` — the project-invariant lint framework.

A stdlib-only (``ast`` + ``tokenize``) static-analysis pass that proves the
ROADMAP's source-level invariants *before* any test runs: determinism of the
core layers, the stdlib+NumPy dependency policy, lock discipline in the
scheduling service, counter discipline, and docstring/registry sync.  The
design follows the execution layer:

* :class:`~repro.analysis.staticcheck.registry.Rule` +
  :func:`~repro.analysis.staticcheck.registry.register_rule` — a name
  registry of rule strategies;
* :func:`~repro.analysis.staticcheck.walker.run_lint` — the file/package
  walker shared by the ``repro lint`` CLI, the CI gate and the tests;
* per-line ``# staticcheck: allow(<rule>) -- justification`` waivers
  (:mod:`~repro.analysis.staticcheck.waivers`), themselves checked by the
  ``waiver-discipline`` rule;
* structured :class:`~repro.analysis.staticcheck.findings.Finding` records
  rendered as text (:mod:`~repro.analysis.staticcheck.report`) or as the
  stable ``--json`` schema
  (:meth:`~repro.analysis.staticcheck.walker.LintReport.to_json`).

``docs/STATIC_ANALYSIS.md`` documents every rule; its table is drift-checked
against :func:`available_rules` by ``tests/test_docs_sync.py``.
"""

from repro.analysis.staticcheck.findings import (
    Finding,
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
)
from repro.analysis.staticcheck.registry import (
    LintError,
    Rule,
    available_rules,
    get_rule,
    register_rule,
    resolve_rules,
    rule_catalog,
)
from repro.analysis.staticcheck.waivers import Waiver, collect_waivers
from repro.analysis.staticcheck.walker import (
    FileContext,
    LINT_SCHEMA_VERSION,
    LintReport,
    SYNTAX_ERROR_RULE,
    run_lint,
)
from repro.analysis.staticcheck import rules as _rules  # noqa: F401  (registers the rules)
from repro.analysis.staticcheck.report import (
    format_report,
    format_rule_table,
    format_summary,
)

__all__ = [
    "FileContext",
    "Finding",
    "LINT_SCHEMA_VERSION",
    "LintError",
    "LintReport",
    "Rule",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SYNTAX_ERROR_RULE",
    "Waiver",
    "available_rules",
    "collect_waivers",
    "format_report",
    "format_rule_table",
    "format_summary",
    "get_rule",
    "register_rule",
    "resolve_rules",
    "rule_catalog",
    "run_lint",
]
