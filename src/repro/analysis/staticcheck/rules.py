"""The project-invariant rules (registered into the rule registry at import).

Each rule encodes one invariant the ROADMAP promises and the dynamic test
suites can only catch *after* it breaks something:

* ``no-nondeterminism`` — the deterministic layers must stay deterministic;
* ``imports-policy`` — the stack is stdlib+NumPy only, layered bottom-up;
* ``broad-except`` — no silent error swallowing without a documented reason;
* ``lock-discipline`` — shared state in the scheduling service is mutated
  under its lock, everywhere;
* ``counter-discipline`` — the paper's computation counters advance only
  through the canonical ``count_*`` helpers, so totals stay backend-exact;
* ``no-mutable-default`` — the classic shared-default-object trap;
* ``docstring-backend-sync`` / ``docstring-storage-sync`` /
  ``docstring-plan-sync`` — names quoted in docstrings must exist in the
  matching fixed name table (``available_backends()`` /
  ``available_stores()`` / ``available_plans()``), all three
  parameterisations of one :class:`RegistrySyncRule` scan;
* ``waiver-discipline`` — every waiver names a registered rule and carries a
  justification.

Rules are pure functions of a parsed file (plus, for the registry-synced
rules, the live in-process registries); adding one is a subclass + one
:func:`~repro.analysis.staticcheck.registry.register_rule` call.
"""

from __future__ import annotations

import ast
import re
import sys
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.staticcheck.findings import Finding
from repro.analysis.staticcheck.registry import Rule, dotted_name, register_rule
from repro.analysis.staticcheck.walker import FileContext

#: Packages under ``repro`` ordered bottom-up; a module may import repro
#: packages at its own layer or below, never strictly above.  Top-level
#: modules (``cli``, ``__main__``, ``__init__``) sit at the top; unknown
#: *import targets* (leaf modules like ``_version``) default to the bottom so
#: they are importable from anywhere, while unknown *files* default to the
#: top so they may import anything.
IMPORT_LAYERS: Dict[str, int] = {
    "core": 0,
    "algorithms": 1,
    "ebsn": 1,
    "hardness": 1,
    "datasets": 2,
    "analysis": 2,
    "service": 2,
    "experiments": 3,
    "cli": 4,
    "__main__": 4,
    "__init__": 4,
}


def _module_component(rel_path: str) -> str:
    """The repro sub-package (or top-level module stem) of a source file."""
    parts = rel_path.split("/")
    try:
        index = parts.index("repro")
    except ValueError:
        return parts[-1].removesuffix(".py")
    remainder = parts[index + 1 :]
    if not remainder:
        return "__init__"
    if len(remainder) == 1:
        return remainder[0].removesuffix(".py")
    return remainder[0]


@register_rule
class NoNondeterminismRule(Rule):
    """Determinism hazards in the deterministic layers.

    ``core/`` and ``algorithms/`` promise bit-identical results across
    backends and runs; wall-clock reads, unseeded randomness and
    set-iteration order all break that silently.  The seeded RAND baseline
    (``algorithms/rand.py``) is the one sanctioned randomness site.
    """

    id = "no-nondeterminism"
    summary = (
        "no random/time.time/datetime.now/np.random or set-iteration-order "
        "dependence in the deterministic layers"
    )
    path_prefixes = ("src/repro/core/", "src/repro/algorithms/")
    path_excludes = ("src/repro/algorithms/rand.py",)

    #: Call chains that read wall-clock time or entropy.  Matched against the
    #: dotted call name by suffix, so both ``datetime.now()`` and
    #: ``datetime.datetime.now()`` are caught.  ``time.monotonic`` and
    #: ``time.perf_counter`` stay legal: they feed elapsed-time metrics, never
    #: results.
    BANNED_CALLS: Tuple[str, ...] = (
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    )
    #: Modules whose import alone is a hazard in this scope.
    BANNED_MODULES: Tuple[str, ...] = ("random", "secrets")

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in self.BANNED_MODULES:
                        yield self.finding(
                            context,
                            node,
                            f"import of {alias.name!r} in a deterministic layer; "
                            "randomness belongs in the seeded algorithms/rand.py",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                top = module.split(".")[0]
                if top in self.BANNED_MODULES:
                    yield self.finding(
                        context,
                        node,
                        f"import from {module!r} in a deterministic layer; "
                        "randomness belongs in the seeded algorithms/rand.py",
                    )
                elif module.startswith(("numpy.random", "np.random")):
                    yield self.finding(
                        context,
                        node,
                        "numpy.random import in a deterministic layer; results "
                        "must not depend on global RNG state",
                    )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                for banned in self.BANNED_CALLS:
                    if dotted == banned or dotted.endswith("." + banned):
                        yield self.finding(
                            context,
                            node,
                            f"call of {dotted}() in a deterministic layer; "
                            "wall-clock and entropy reads make results "
                            "run-dependent (time.monotonic/perf_counter are "
                            "fine for elapsed-time metrics)",
                        )
                        break
                else:
                    if dotted.startswith(("np.random.", "numpy.random.")):
                        yield self.finding(
                            context,
                            node,
                            f"call of {dotted}() in a deterministic layer; "
                            "results must not depend on global RNG state",
                        )
            for iterator in self._order_dependent_iterations(node):
                yield self.finding(
                    context,
                    iterator,
                    "iteration over a set has nondeterministic order across "
                    "interpreter runs; sort it (or iterate a list/dict) before "
                    "the order can reach a schedule or counter",
                )

    @staticmethod
    def _is_set_expression(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _order_dependent_iterations(self, node: ast.AST) -> Iterator[ast.AST]:
        """Places where a set's arbitrary order escapes into a sequence."""
        if isinstance(node, ast.For) and self._is_set_expression(node.iter):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if self._is_set_expression(generator.iter):
                    yield generator.iter
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and self._is_set_expression(node.args[0])
        ):
            yield node


@register_rule
class ImportsPolicyRule(Rule):
    """The stdlib+NumPy dependency policy and the bottom-up layer order.

    Third-party imports other than ``numpy`` are allowed only behind a
    ``try/except ImportError`` optional-dependency guard (the pattern
    ``ebsn/network.py`` uses for its networkx extra).  Intra-``repro``
    imports must respect :data:`IMPORT_LAYERS`: ``core`` never imports
    ``experiments``, and so on up the stack.
    """

    id = "imports-policy"
    summary = (
        "stdlib+NumPy only (other third-party imports need an ImportError "
        "guard) and no upward imports across the repro layer order"
    )
    path_prefixes = ("src/repro/",)

    ALLOWED_THIRD_PARTY: Tuple[str, ...] = ("numpy",)

    def check(self, context: FileContext) -> Iterator[Finding]:
        guarded = self._importerror_guarded_nodes(context.tree)
        file_layer = IMPORT_LAYERS.get(_module_component(context.rel_path), 4)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: same package, same layer
                    continue
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top == "repro":
                    components = module.split(".")
                    target = components[1] if len(components) > 1 else "__init__"
                    target_layer = IMPORT_LAYERS.get(target, 0)
                    if target_layer > file_layer:
                        yield self.finding(
                            context,
                            node,
                            f"upward import: this module sits in layer "
                            f"{file_layer} but imports {module!r} from layer "
                            f"{target_layer}; invert the dependency or move "
                            "the shared code down",
                        )
                elif top in sys.stdlib_module_names or top in self.ALLOWED_THIRD_PARTY:
                    continue
                elif id(node) not in guarded:
                    yield self.finding(
                        context,
                        node,
                        f"third-party import {module!r}: the stack is "
                        "stdlib+NumPy only; gate optional dependencies behind "
                        "try/except ImportError with a clear error message",
                    )

    @staticmethod
    def _importerror_guarded_nodes(tree: ast.AST) -> Set[int]:
        """ids of import nodes inside a try whose handlers catch ImportError."""
        guarded: Set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            catches_import_error = False
            for handler in node.handlers:
                names = []
                if isinstance(handler.type, ast.Tuple):
                    names = [dotted_name(element) for element in handler.type.elts]
                elif handler.type is not None:
                    names = [dotted_name(handler.type)]
                if any(
                    name in ("ImportError", "ModuleNotFoundError") for name in names
                ):
                    catches_import_error = True
            if not catches_import_error:
                continue
            for child in node.body:
                for descendant in ast.walk(child):
                    if isinstance(descendant, (ast.Import, ast.ImportFrom)):
                        guarded.add(id(descendant))
        return guarded


@register_rule
class BroadExceptRule(Rule):
    """Bare ``except:`` / ``except Exception`` without a surfacing story.

    A handler that re-raises (any ``raise`` directly in its body) is fine —
    the error still surfaces.  Anything else needs a waiver whose
    justification says where the error is reported instead.
    """

    id = "broad-except"
    summary = (
        "no bare except / except Exception unless the handler re-raises or a "
        "waiver explains where the error is reported"
    )

    BROAD_NAMES = ("Exception", "BaseException")

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if self._reraises(node):
                continue  # the error is re-raised (possibly wrapped): it surfaces
            label = "bare except:" if broad == "" else f"except {broad}:"
            yield self.finding(
                context,
                node,
                f"{label} swallows errors silently; catch the exceptions the "
                "block can actually raise, re-raise after cleanup, or waive "
                "with a justification naming where the error is reported",
            )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        """Whether the handler body contains a ``raise`` on some path.

        Conditional re-raises (``raise`` nested in if/try/with/loops) count;
        a ``raise`` inside a nested function/class definition does not — it
        runs on that function's call, not on this handler's path.
        """
        stack: List[ast.AST] = list(handler.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Raise):
                return True
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return False

    def _broad_name(self, type_node: Optional[ast.AST]) -> Optional[str]:
        """The broad exception name caught by ``type_node`` (None = narrow)."""
        if type_node is None:
            return ""
        candidates = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for candidate in candidates:
            dotted = dotted_name(candidate)
            if dotted in self.BROAD_NAMES:
                return dotted
        return None


#: Methods that mutate their receiver in place (list/dict/set/deque API).
_MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "extendleft", "insert", "move_to_end", "pop", "popitem", "popleft",
        "remove", "reverse", "setdefault", "sort", "update",
    }
)


@register_rule
class LockDisciplineRule(Rule):
    """Lock discipline of the scheduling service's shared mutable state.

    Within a class, any ``self.<attr>`` that is mutated under a
    ``with self.lock:`` / ``with self._lock:`` block is *lock-guarded*:
    every other mutation of it (assignment, augmented assignment, item
    assignment or an in-place mutator call) must also hold the lock.
    ``__init__`` is exempt — no other thread can hold a reference yet.
    This is exactly the race class PR 6's abort-flag fix patched by hand.
    """

    id = "lock-discipline"
    summary = (
        "in service/, attributes mutated under "
        "`with self.lock` / `self._lock` are mutated nowhere else without "
        "the lock"
    )
    path_prefixes = ("src/repro/service/",)

    LOCK_ATTRS = ("lock", "_lock")

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(context, node)

    def _check_class(
        self, context: FileContext, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        mutations: List[Tuple[str, ast.AST, bool, str]] = []
        for item in class_def.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect(item, item.name, False, mutations)
        guarded = {attr for attr, _, under_lock, _ in mutations if under_lock}
        for attr, node, under_lock, method in mutations:
            if under_lock or method in ("__init__", "__new__"):
                continue
            if attr in guarded:
                yield self.finding(
                    context,
                    node,
                    f"self.{attr} is mutated under `with self.lock`/`self._lock` "
                    f"elsewhere in {class_def.name} but is mutated here without "
                    "it; take the lock (or waive with the synchronisation "
                    "argument)",
                )

    def _is_self_lock(self, expression: ast.AST) -> bool:
        return (
            isinstance(expression, ast.Attribute)
            and isinstance(expression.value, ast.Name)
            and expression.value.id == "self"
            and expression.attr in self.LOCK_ATTRS
        )

    @staticmethod
    def _self_attr(expression: ast.AST) -> Optional[str]:
        """``attr`` when ``expression`` is ``self.attr`` (possibly subscripted)."""
        if isinstance(expression, ast.Subscript):
            expression = expression.value
        if (
            isinstance(expression, ast.Attribute)
            and isinstance(expression.value, ast.Name)
            and expression.value.id == "self"
        ):
            return expression.attr
        return None

    def _collect(
        self,
        node: ast.AST,
        method: str,
        under_lock: bool,
        mutations: List[Tuple[str, ast.AST, bool, str]],
    ) -> None:
        """Record every ``self.<attr>`` mutation below ``node`` (lock-aware)."""
        if isinstance(node, ast.With):
            holds = under_lock or any(
                self._is_self_lock(item.context_expr) for item in node.items
            )
            for child in ast.iter_child_nodes(node):
                self._collect(child, method, holds, mutations)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            # A bare annotation (`self.x: int` with no value) declares, never
            # mutates — only value-carrying assignments count.
            if not (isinstance(node, ast.AnnAssign) and node.value is None):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = self._self_attr(target)
                    if attr is not None:
                        mutations.append((attr, node, under_lock, method))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                attr = self._self_attr(node.func.value)
                if attr is not None:
                    mutations.append((attr, node, under_lock, method))
        for child in ast.iter_child_nodes(node):
            self._collect(child, method, under_lock, mutations)


@register_rule
class CounterDisciplineRule(Rule):
    """Counter totals advance only through the canonical helpers.

    The paper's computation counters must be bit-identical across backends;
    a raw ``counter.score_computations += n`` bypasses the user-weighting
    and initial/update bookkeeping of
    :meth:`~repro.core.counters.ComputationCounter.count_scores` and breaks
    the equivalence suites in ways that only show at aggregation time.
    ``num_users`` stays assignable — it is configuration, not a total.
    """

    id = "counter-discipline"
    summary = (
        "outside core/counters.py, counter totals are never assigned raw — "
        "use the count_*/bump helpers"
    )
    path_prefixes = ("src/repro/",)
    path_excludes = (
        "src/repro/core/counters.py",
        "src/repro/service/stats.py",
    )

    COUNTER_FIELDS = frozenset(
        {
            "score_computations",
            "user_computations",
            "initial_computations",
            "update_computations",
            "assignments_examined",
            "assignments_generated",
            "selections",
            # Saved-work ledger of the online scheduling service
            # (repro.service.stats.SessionStats).
            "mutations_applied",
            "mutation_batches",
            "stale_rows_marked",
            "stale_columns_marked",
            "resolves_total",
            "warm_resolves",
            "scores_recomputed",
            "scores_saved",
        }
    )

    #: Canonical helper for each field, named in the finding message.
    HELPERS = {
        "score_computations": "ComputationCounter.count_score/count_scores",
        "user_computations": "ComputationCounter.count_score/count_scores",
        "initial_computations": "ComputationCounter.count_score(initial=True)",
        "update_computations": "ComputationCounter.count_score(initial=False)",
        "assignments_examined": "ComputationCounter.count_examined",
        "assignments_generated": "ComputationCounter.count_generated",
        "selections": "ComputationCounter.count_selection",
        "mutations_applied": "SessionStats.record_batch",
        "mutation_batches": "SessionStats.record_batch",
        "stale_rows_marked": "SessionStats.record_batch",
        "stale_columns_marked": "SessionStats.record_batch",
        "resolves_total": "SessionStats.record_resolve",
        "warm_resolves": "SessionStats.record_resolve",
        "scores_recomputed": "SessionStats.record_resolve",
        "scores_saved": "SessionStats.record_resolve",
    }

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if isinstance(node, ast.AnnAssign) and node.value is None:
                    continue  # bare annotation: declares a field, mutates nothing
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in self.COUNTER_FIELDS
                    ):
                        helper = self.HELPERS[target.attr]
                        yield self.finding(
                            context,
                            node,
                            f"raw mutation of the {target.attr!r} counter field; "
                            f"use {helper} so totals stay backend-exact",
                        )
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "extra"
                        and (dotted_name(target.value) or "").split(".")[-2:-1]
                        in (["counter"], ["_counter"], ["counters"])
                    ):
                        yield self.finding(
                            context,
                            node,
                            "raw item assignment into a counter's extra dict; "
                            "use ComputationCounter.bump",
                        )


@register_rule
class NoMutableDefaultRule(Rule):
    """Mutable default argument values (shared across calls)."""

    id = "no-mutable-default"
    summary = "no list/dict/set (literal or constructor) default argument values"

    MUTABLE_CONSTRUCTORS = frozenset(
        {"list", "dict", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        context,
                        default,
                        "mutable default argument value is shared across "
                        "calls; default to None and create the object inside "
                        "the function",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self.MUTABLE_CONSTRUCTORS
        )


class RegistrySyncRule(Rule):
    """Shared scan of the docstring↔registry sync rules (not itself registered).

    One parameterised invariant: a name quoted next to an axis noun in a
    docstring (``\\`\\`batch\\`\\` backend``, ``storage="sparse"``,
    ``plan 'blocked'``) must exist in that axis's live in-process registry —
    a renamed entry would otherwise linger in prose forever.  A subclass
    names the axis (:attr:`entity` / :attr:`registry_entity`), gives the
    prose-adjacency regex fragment (:attr:`noun_pattern`) and keyword
    spelling (:attr:`keyword`), and reads the registry in
    :meth:`registered_names`; the scan itself is inherited.  Adding a sync
    rule for a new registry axis is one small subclass.
    """

    path_prefixes = ("src/repro/",)

    #: Noun of the axis as it appears before/around a quoted name in prose
    #: ("backend"), used in finding messages.
    entity: str = ""
    #: Noun of the registry entry ("backend", "store", "plan") — may differ
    #: from :attr:`entity` ("storage" vs the store table's "store").
    registry_entity: str = ""
    #: Regex fragment matching the axis noun *after* a quoted name
    #: (``\`\`name\`\` backend``); defaults to :attr:`keyword`.
    noun_pattern: str = ""
    #: Keyword spelling of the axis (``backend="batch"`` / ``backend 'batch'``).
    keyword: str = ""

    def registered_names(self) -> Set[str]:
        """The axis's live registry (read at check time, never cached)."""
        raise NotImplementedError

    @property
    def mention_patterns(self) -> Tuple[re.Pattern, ...]:
        """The three docstring idioms a name mention can take: ``name``
        <noun> / <keyword>="name" / <keyword> 'name'."""
        noun = self.noun_pattern or self.keyword
        return (
            re.compile(r"[`'\"]([a-z][a-z0-9_]*)[`'\"]+\s+" + noun),
            re.compile(self.keyword + r"\s*=\s*[`'\"]+([a-z][a-z0-9_]*)[`'\"]"),
            re.compile(self.keyword + r"\s+[`'\"]+([a-z][a-z0-9_]*)[`'\"]"),
        )

    def check(self, context: FileContext) -> Iterator[Finding]:
        registered = set(self.registered_names())
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            docstring = ast.get_docstring(node, clean=False)
            if not docstring or not node.body:
                continue
            constant = node.body[0].value  # type: ignore[union-attr]
            base_line = getattr(constant, "lineno", 1)
            for pattern in self.mention_patterns:
                for match in pattern.finditer(docstring):
                    name = match.group(1)
                    if name in registered:
                        continue
                    line = base_line + docstring[: match.start()].count("\n")
                    yield self.finding(
                        context,
                        line,
                        f"docstring mentions a {name!r} {self.entity} but the "
                        f"{self.registry_entity} table has no such entry "
                        f"(available: {', '.join(sorted(registered))}); fix "
                        f"the docstring or add the {self.registry_entity} to "
                        f"its table",
                    )


@register_rule
class DocstringBackendSyncRule(RegistrySyncRule):
    """Backend names quoted in docstrings must exist in the live registry.

    The docs subsystem drift-checks the README/ARCHITECTURE backend tables;
    this closes the same loop for the docstrings, where a renamed backend
    would otherwise linger forever (exactly the stale-docstring class PR 4
    fixed by hand in ``ScoringEngine.backend``).
    """

    id = "docstring-backend-sync"
    summary = (
        "backend names mentioned in docstrings exist in the "
        "available_backends() table"
    )
    entity = "backend"
    registry_entity = "backend"
    keyword = "backend"

    def registered_names(self) -> Set[str]:
        from repro.core.execution import available_backends

        return set(available_backends())


@register_rule
class DocstringStorageSyncRule(RegistrySyncRule):
    """Storage names quoted in docstrings must exist in the live registry.

    The sibling of :class:`DocstringBackendSyncRule` for the instance-storage
    axis: the docs subsystem drift-checks the ARCHITECTURE storage table, and
    this rule closes the same loop for docstrings that name a store-table
    entry — a renamed store would otherwise linger in prose forever.
    """

    id = "docstring-storage-sync"
    summary = (
        "storage names mentioned in docstrings exist in the "
        "available_stores() table"
    )
    entity = "storage"
    registry_entity = "store"
    noun_pattern = r"stor(?:e|age)\b"
    keyword = "storage"

    def registered_names(self) -> Set[str]:
        from repro.core.storage import available_stores

        return set(available_stores())


@register_rule
class DocstringPlanSyncRule(RegistrySyncRule):
    """Scoring-plan names quoted in docstrings must exist in the live registry.

    The third axis of the same invariant: docstrings naming a
    plan-table entry (``\\`\\`blocked\\`\\` plan``, ``plan="direct"``)
    must track the live plan registry, mirroring the backend and storage
    sync rules above.
    """

    id = "docstring-plan-sync"
    summary = (
        "scoring-plan names mentioned in docstrings exist in the "
        "available_plans() table"
    )
    entity = "plan"
    registry_entity = "plan"
    noun_pattern = r"plan\b"
    keyword = "plan"

    def registered_names(self) -> Set[str]:
        from repro.core.execution import available_plans

        return set(available_plans())


@register_rule
class WaiverDisciplineRule(Rule):
    """Waivers must name registered rules and carry a justification."""

    id = "waiver-discipline"
    summary = (
        "every `# staticcheck: allow(...)` waiver names registered rules and "
        "carries a justification after `--`"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        from repro.analysis.staticcheck.registry import available_rules

        registered = set(available_rules())
        for waiver in context.waivers:
            if not waiver.rules:
                yield self.finding(
                    context,
                    waiver.line,
                    "waiver names no rule; spell it "
                    "`# staticcheck: allow(<rule-id>) -- <justification>`",
                )
                continue
            for rule_id in waiver.rules:
                if rule_id not in registered:
                    yield self.finding(
                        context,
                        waiver.line,
                        f"waiver names unknown rule {rule_id!r}; registered "
                        f"rules: {', '.join(sorted(registered))}",
                    )
            if not waiver.justification:
                yield self.finding(
                    context,
                    waiver.line,
                    "waiver carries no justification; append "
                    "`-- <why this invariant does not apply here>`",
                )


__all__ = [
    "BroadExceptRule",
    "CounterDisciplineRule",
    "DocstringBackendSyncRule",
    "DocstringPlanSyncRule",
    "DocstringStorageSyncRule",
    "RegistrySyncRule",
    "IMPORT_LAYERS",
    "ImportsPolicyRule",
    "LockDisciplineRule",
    "NoMutableDefaultRule",
    "NoNondeterminismRule",
    "WaiverDisciplineRule",
]
