"""Span recording around the library's public layer boundaries.

The benchmark measures layers from the outside: :class:`Tracer` replaces the
public callables of each layer with thin wrappers (and puts the originals
back afterwards), so no library source changes.  Every wrapped call records
one span ``(id, parent, root, name, start, end)`` in memory; ``root`` is the
per-call id shared by every span of one top-level call (a ``run_scheduler``
solve, or one client request of the service trace).  Spans opened on the
service's connection thread take the in-flight client request as their
parent, so one request's server-side work nests under its wire round trip.

The one layer called about a million times per solve (the constraint
checker's ``is_feasible``) is recorded as an aggregate leaf: one
``[calls, seconds]`` cell per parent span instead of one span per call.  A
leaf never has children, so self times stay exact.

A span's *self time* is its duration minus the durations of its direct
children (spans of one thread never overlap, and the single client waits
for every server-side span it caused), so the self times of all spans of one
call add up to that call's wall-clock exactly.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: One span: ``(span id, parent id, root id, name, start, end)``; parent 0 is none.
Span = Tuple[int, int, int, str, float, float]

#: Hook run after a wrapped call: ``(tracer, args, kwargs, result)``.
CountHook = Callable[["Tracer", tuple, dict, object], None]


def _count_pairs(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> None:
    """Kernel work: (event, interval) pairs and per-user elements scored."""
    engine = args[0]
    pairs = int(result.size)
    tracer.counts["kernel.pairs"] += pairs
    tracer.counts["kernel.elements"] += pairs * engine.instance.num_users


def _count_fetched(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> None:
    """Stale refresh: scores fetched speculatively, per calling algorithm."""
    tracer.counts[f"refresh.fetched.{tracer.current_root_name()}"] += int(result.size)


def _count_block(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> None:
    """Storage: bytes of the dense ``(µ, value·µ)`` block pair a store materialised."""
    mu_rows, value_mu_rows = result
    tracer.counts["storage.bytes_densified"] += int(mu_rows.nbytes + value_mu_rows.nbytes)


def _count_mine(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> None:
    """Pattern mining: classes found on the largest instance mined."""
    if result.num_users >= tracer.counts["patterns.users"]:
        tracer.counts["patterns.users"] = result.num_users
        tracer.counts["patterns.classes"] = result.num_classes


def layer_patch_points() -> List[Tuple[object, str, str, Optional[CountHook], str]]:
    """``(owner, attribute, span name, count hook, kind)`` for every wrapped binding.

    ``kind`` is ``"span"``, ``"leaf"`` (aggregated per parent) or ``"client"``
    (a wire request: spans on the server thread nest under it).
    ``mine_structure`` is wrapped at every module that imported it by name —
    wrapping only :mod:`repro.core.patterns` would record nothing, because
    the scoring engine and the blocked plan call their own bindings.
    """
    from repro.analysis import blocks
    from repro.core import constraints, instance, instance_io, patterns, scoring, storage
    from repro.service import client, session

    return [
        (instance.SESInstance, "__init__", "instance.build", None, "span"),
        (instance_io, "load_npz", "io.load", None, "span"),
        (instance_io, "spill_instance", "io.spill", None, "span"),
        (storage.StoreEventRows, "block", "storage.block", _count_block, "span"),
        (scoring.ScoringEngine, "__init__", "engine.build", None, "span"),
        (patterns, "mine_structure", "patterns.mine", _count_mine, "span"),
        (scoring, "mine_structure", "patterns.mine", _count_mine, "span"),
        (blocks, "mine_structure", "patterns.mine", _count_mine, "span"),
        (scoring.ScoringEngine, "score_matrix", "kernel.grid", _count_pairs, "span"),
        (scoring.ScoringEngine, "interval_scores", "kernel.column", _count_pairs, "span"),
        (scoring.ScoringEngine, "refresh_scores", "refresh", _count_fetched, "span"),
        (scoring.ScoringEngine, "interval_score_bound", "bound.eval", None, "span"),
        (blocks.BlockedPlan, "batch_block", "plan.block", None, "span"),
        (constraints.ConstraintChecker, "is_feasible", "constraints.check", None, "leaf"),
        (session.SchedulingSession, "apply", "session.apply", None, "span"),
        (session.SchedulingSession, "resolve", "session.resolve", None, "span"),
        (session._WarmGridProvider, "grid", "session.warm_grid", None, "span"),
        (client.ServiceClient, "mutate", "wire.mutate", None, "client"),
        (client.ServiceClient, "resolve", "wire.resolve", None, "client"),
        (client.ServiceClient, "get_schedule", "wire.query", None, "client"),
    ]


class Tracer:
    """In-memory span recorder; wrappers are live only inside :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(parent id, root id, name) -> [calls, seconds]`` of aggregated leaves.
        self.leaves: Dict[Tuple[int, int, str], List[float]] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_names: Dict[int, str] = {}
        #: ``(span id, root id)`` of the client request in flight, if any.
        self._remote: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> Tuple[int, int]:
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._remote or (0, 0)

    def current_root_name(self) -> str:
        """Name of the top-level call the current thread is inside ('' if none)."""
        return self._root_names.get(self._parent()[1], "")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (a wrapped call or a benchmark solve)."""
        parent_id, root_id = self._parent()
        span_id = next(self._ids)
        root_id = root_id or span_id
        if root_id == span_id:
            self._root_names[span_id] = name
        stack = self._stack()
        stack.append((span_id, root_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent_id, root_id, name, start, end))

    def _wrap(self, fn: Callable, name: str, hook: Optional[CountHook], kind: str) -> Callable:
        tracer = self

        if kind == "leaf":

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                parent_id, root_id = tracer._parent()
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    cell = tracer.leaves.get((parent_id, root_id, name))
                    if cell is None:
                        cell = tracer.leaves[(parent_id, root_id, name)] = [0, 0.0]
                    cell[0] += 1
                    cell[1] += elapsed

            return leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                if kind == "client":
                    tracer._remote = tracer._stack()[-1]
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if kind == "client":
                        tracer._remote = None
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer binding for the duration of the block."""
        originals = []
        try:
            for owner, attribute, name, hook, kind in layer_patch_points():
                original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
                    owner, attribute
                )
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, name, hook, kind))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def _child_time(self) -> Dict[int, float]:
        """Summed duration of every span's direct children, by parent id."""
        children: Dict[int, float] = defaultdict(float)
        for _, parent_id, _, _, start, end in self.spans:
            children[parent_id] += end - start
        for (parent_id, _, _), (_, seconds) in self.leaves.items():
            children[parent_id] += seconds
        return children

    def self_times(self) -> Tuple[Dict[Tuple[str, str], float], Dict[str, int], Dict[int, float]]:
        """Self time per ``(root name, span name)``, call counts per span name,
        and the per-root residual ``duration - sum of self times`` (≈ 0)."""
        children = self._child_time()
        by_root: Dict[Tuple[str, str], float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        closure: Dict[int, float] = {}
        for span_id, _, root_id, name, start, end in self.spans:
            own = (end - start) - children[span_id]
            by_root[(self._root_names[root_id], name)] += own
            calls[name] += 1
            closure[root_id] = closure.get(root_id, 0.0) + own
            if span_id == root_id:
                closure[root_id] -= end - start
        for (_, root_id, name), (count, seconds) in self.leaves.items():
            by_root[(self._root_names.get(root_id, name), name)] += seconds
            calls[name] += int(count)
            if root_id:
                closure[root_id] = closure.get(root_id, 0.0) + seconds
        return dict(by_root), dict(calls), closure

    def durations(self, name: str) -> List[float]:
        """Wall-clock of every recorded span called ``name``."""
        return [end - start for _, _, _, span_name, start, end in self.spans if span_name == name]

    def self_durations(self, name: str) -> List[float]:
        """Self time of every recorded span called ``name``, in call order."""
        children = self._child_time()
        return [
            (end - start) - children[span_id]
            for span_id, _, _, span_name, start, end in self.spans
            if span_name == name
        ]

    def dump(self) -> Dict[str, object]:
        """JSON-ready copy of every span, leaf aggregate and count."""
        return {
            "span_fields": ["id", "parent", "root", "name", "start", "end"],
            "spans": [list(span) for span in self.spans],
            "leaf_fields": ["parent", "root", "name", "calls", "seconds"],
            "leaves": [
                [parent_id, root_id, name, int(cell[0]), cell[1]]
                for (parent_id, root_id, name), cell in self.leaves.items()
            ],
            "roots": {str(span_id): name for span_id, name in self._root_names.items()},
            "counts": dict(self.counts),
        }
