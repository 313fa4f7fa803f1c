"""In-memory spans recorded around calls into a package, from outside it.

`Tracer.install` replaces a function with a recording wrapper on every
module attribute that holds it, so a call is seen whichever namespace the
caller looks the name up in (`from .ratlin import solve` binds a second
name for the same function). `Tracer.restore` puts every original back.

A span is a tuple (name, start, end, parent, run): start and end are
`time.perf_counter()` readings, parent is the index of the enclosing span in
`Tracer.spans` (-1 for none) and run is the id of the pass that made it.
Self time is a span's duration minus the part of it that its child spans
cover; see `self_times`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional, Sequence

Span = tuple  # (name, start, end, parent, run)

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Spans and named counters for one process; single-threaded."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(int)
        self.run = ""
        self._open = -1
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers ----------------------------------------------------------

    def span_wrapper(self, name: str, fn: Callable,
                     hook: Optional[Callable] = None) -> Callable:
        """fn recording one span per call; hook(counters, args, kwargs,
        result) runs after each call that returns."""
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._open
            sid = len(spans)
            spans.append(None)
            tracer._open = sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent, tracer.run)
                tracer._open = parent
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        """fn counting its calls under `name`, with no span."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching ----------------------------------------------------------

    def install(self, package: str, layers: Iterable["Layer"]):
        """Wrap each layer's function wherever a module of `package` holds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for layer in layers:
            owner = sys.modules[f"{package}.{layer.module}"]
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if layer.count_only:
                wrapped = self.count_wrapper(layer.name, original)
            else:
                wrapped = self.span_wrapper(layer.name, original, layer.hook)
            if path:  # a method: one owner, the class
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, wrapped):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def restore(self):
        """Put back every attribute `install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Layer:
    """One function to wrap: `attr` is a module attribute or Class.method."""

    def __init__(self, module: str, attr: str, hook: Optional[Callable] = None,
                 count_only: bool = False, name: Optional[str] = None):
        self.module = module
        self.attr = attr
        self.hook = hook
        self.count_only = count_only
        self.name = name or f"{module}.{attr}"


# --- span arithmetic --------------------------------------------------------


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals
    (clipped to the span), so overlapping or stray children count once."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]].append((sp[START], sp[END]))
    out = []
    for i, sp in enumerate(spans):
        start, end = sp[START], sp[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def nearest_ancestor(spans: Sequence[Span], i: int,
                     names: Iterable[str]) -> Optional[str]:
    """Name of the closest enclosing span of span i whose name is in names."""
    names = set(names)
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return spans[p][NAME]
        p = spans[p][PARENT]
    return None


def outermost_seconds(spans: Sequence[Span], names: Iterable[str],
                      blockers: Iterable[str] = ()) -> float:
    """Summed duration of spans named in `names` that have no ancestor named
    in `names` or `blockers` (nested calls are not counted twice)."""
    names = set(names)
    stop = names | set(blockers)
    total = 0.0
    for i, sp in enumerate(spans):
        if sp[NAME] in names and nearest_ancestor(spans, i, stop) is None:
            total += sp[END] - sp[START]
    return total


def layer_totals(spans: Sequence[Span], selfs: Sequence[float] = None
                 ) -> dict[str, dict[str, float]]:
    """name → {calls, s, self_s}; s counts a span only when no ancestor has
    the same name, so recursion does not double it. `selfs` may pass in
    self_times(spans) when the caller has it already."""
    if selfs is None:
        selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, sp in enumerate(spans):
        row = out.setdefault(sp[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if nearest_ancestor(spans, i, (sp[NAME],)) is None:
            row["s"] += sp[END] - sp[START]
    return out
