"""The rule registry.

Rules are classes registered by id through the :func:`register_rule`
decorator, with a duplicate-name guard: adding a rule is a one-module
change.
``repro lint`` runs whatever the registry holds, the ``--rules`` flag selects
by id, and ``docs/STATIC_ANALYSIS.md``'s rule table is drift-checked against
:func:`available_rules` by ``tests/test_docs_sync.py``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple, Type

from repro.core.errors import ReproError

from repro.analysis.staticcheck.findings import SEVERITY_ERROR, Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.staticcheck.walker import FileContext


class LintError(ReproError):
    """Raised on lint configuration errors (unknown rule id, bad paths, …)."""


class Rule:
    """One project invariant, checked against a parsed file.

    Subclasses set the class attributes and implement :meth:`check`; path
    scoping is declarative (``path_prefixes`` / ``path_excludes`` against the
    project-root-relative POSIX path) so the scope shows up verbatim in the
    rule catalogue and the docs table.

    Class attributes
    ----------------
    id:
        Registry id (kebab-case; what waivers and ``--rules`` name).
    summary:
        One-line description of the invariant (shown by ``--list-rules`` and
        drift-checked against the docs).
    path_prefixes:
        Rel-path prefixes the rule applies to (empty = every scanned file).
    path_excludes:
        Rel-path prefixes exempt from the rule (e.g. the seeded
        ``rand.py`` under the no-nondeterminism rule).
    severity:
        Severity stamped on the rule's findings.
    """

    id: str = "abstract"
    summary: str = ""
    path_prefixes: Tuple[str, ...] = ()
    path_excludes: Tuple[str, ...] = ()
    severity: str = SEVERITY_ERROR

    def applies_to(self, context: "FileContext") -> bool:
        """Whether this rule runs against ``context``'s file (path scoping)."""
        path = context.rel_path
        if any(path.startswith(prefix) for prefix in self.path_excludes):
            return False
        if not self.path_prefixes:
            return True
        return any(path.startswith(prefix) for prefix in self.path_prefixes)

    def check(self, context: "FileContext") -> Iterator[Finding]:
        """Yield every violation of this rule in ``context``'s file."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #
    def finding(self, context: "FileContext", node: object, message: str) -> Finding:
        """A :class:`Finding` of this rule at ``node`` (an AST node or line)."""
        if isinstance(node, int):
            line = node
        else:
            line = getattr(node, "lineno", 0)
        return Finding(
            path=context.rel_path,
            line=line,
            rule=self.id,
            message=message,
            severity=self.severity,
        )

    @property
    def scope(self) -> str:
        """Human-readable scope string (derived from the path attributes)."""
        if not self.path_prefixes:
            scope = "everything scanned"
        else:
            scope = ", ".join(f"`{prefix}`" for prefix in self.path_prefixes)
        if self.path_excludes:
            scope += " except " + ", ".join(f"`{p}`" for p in self.path_excludes)
        return scope


_RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule], *, replace_existing: bool = False) -> Type[Rule]:
    """Register a lint rule class (usable as a decorator).

    After registration the rule runs on every ``repro lint`` invocation and
    is selectable by id through ``--rules``; adding a rule is a one-module
    change.

    Raises
    ------
    LintError
        If a rule with the same id exists and ``replace_existing`` is False.
    """
    if not replace_existing and cls.id in _RULE_REGISTRY:
        raise LintError(f"a lint rule with id {cls.id!r} is already registered")
    _RULE_REGISTRY[cls.id] = cls
    return cls


def available_rules() -> Tuple[str, ...]:
    """Ids of every registered rule, in registration order."""
    return tuple(_RULE_REGISTRY)


def get_rule(rule_id: str) -> Type[Rule]:
    """The rule class registered under ``rule_id``.

    Raises
    ------
    LintError
        With the currently-available ids when ``rule_id`` is unknown.
    """
    try:
        return _RULE_REGISTRY[rule_id]
    except KeyError:
        raise LintError(
            f"unknown lint rule {rule_id!r}; registered rules: "
            f"{', '.join(available_rules())}"
        ) from None


def resolve_rules(rule_ids: Iterable[str] | None = None) -> List[Rule]:
    """Instances of the selected rules (``None`` = the whole registry)."""
    if rule_ids is None:
        return [cls() for cls in _RULE_REGISTRY.values()]
    return [get_rule(rule_id)() for rule_id in rule_ids]


def rule_catalog() -> List[Dict[str, str]]:
    """One row per registered rule: id, scope, severity, summary.

    The CLI renders it with the shared table formatter, and the docs table
    is checked against it.
    """
    rows = []
    for cls in _RULE_REGISTRY.values():
        rule = cls()
        rows.append(
            {
                "rule": rule.id,
                "scope": rule.scope,
                "severity": rule.severity,
                "summary": rule.summary,
            }
        )
    return rows


def dotted_name(node: ast.AST) -> str | None:
    """The dotted source form of a Name/Attribute chain (``None`` otherwise).

    ``ast.Attribute(value=Name("time"), attr="time")`` → ``"time.time"``.
    Chains hanging off calls or subscripts resolve their known tail
    (``x().y.z`` → ``?.y.z``) so suffix matching still works.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")
    else:
        return None
    return ".".join(reversed(parts))


__all__ = [
    "LintError",
    "Rule",
    "available_rules",
    "dotted_name",
    "get_rule",
    "register_rule",
    "resolve_rules",
    "rule_catalog",
]
