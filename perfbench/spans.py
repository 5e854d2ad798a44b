"""In-memory spans and call counters for the benchmark's traced run.

The traced run wraps calls into each layer's public functions from the
benchmark's own code: nothing under ``src/`` changes. A wrapper either
records a span (name, start, end, parent) or only bumps a counter, for
functions called too often to time one by one (``applicable``).

Parents come from a :class:`contextvars.ContextVar`, so nesting is
right both on plain threads and across asyncio tasks. Spans stay in a
list until :meth:`Tracer.write` dumps them as JSON lines at the end.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: One span: (span id, parent span id or 0, name, start, end), in seconds
#: of ``time.perf_counter``.
Span = tuple[int, int, str, float, float]


class Tracer:
    """Spans and counters recorded around patched layer functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._ids = itertools.count(1)
        self._undo: list[Callable[[], None]] = []
        self._guards: dict[str, contextvars.ContextVar[bool]] = {}

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around a block of the benchmark's own code."""
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append((span_id, parent, name, start, end))

    def _wrap(
        self,
        name: str,
        fn: Callable,
        kind: str,
        weight: Callable[..., int] | None,
        group: str | None,
        observe: Callable[[Any], None] | None = None,
    ) -> Callable:
        """One wrapper: count the call (``weight`` per call, else 1), and
        for ``kind="span"`` record a span. Calls made while another call
        of the same ``group`` is open pass straight through, so a layer
        that calls itself (remote ``probe`` → ``probe_many``) counts once.
        ``observe`` sees each return value (plan sizes, for example)."""
        current, ids, spans, counts = self._current, self._ids, self.spans, self.counts
        clock = time.perf_counter
        guard = (
            self._guards.setdefault(group, contextvars.ContextVar(group, default=False))
            if group
            else None
        )
        timed = kind == "span"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if guard is not None:
                if guard.get():
                    return fn(*args, **kwargs)
                guard_token = guard.set(True)
            counts[name] += 1 if weight is None else weight(*args, **kwargs)
            try:
                if not timed:
                    result = fn(*args, **kwargs)
                    if observe is not None:
                        observe(result)
                    return result
                span_id = next(ids)
                parent = current.get()
                token = current.set(span_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if observe is not None:
                        observe(result)
                    return result
                finally:
                    end = clock()
                    current.reset(token)
                    spans.append((span_id, parent, name, start, end))
            finally:
                if guard is not None:
                    guard.reset(guard_token)

        return wrapper

    def _wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Time each item a generator function yields as its own span
        (the step that finds the generator exhausted is not recorded)."""
        current, ids, spans, counts = self._current, self._ids, self.spans, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                span_id = next(ids)
                parent = current.get()
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                spans.append((span_id, parent, name, start, clock()))
                counts[name] += 1
                yield item

        return wrapper

    # -- patching ------------------------------------------------------------

    def instrument(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        kind: str = "span",
        weight: Callable[..., int] | None = None,
        group: str | None = None,
        observe: Callable[[Any], None] | None = None,
    ) -> None:
        """Wrap ``owner.attr`` until :meth:`restore`.

        ``kind`` is ``"span"`` (time and count each call), ``"iter"``
        (time each step of a generator) or ``"count"`` (count only).
        ``counts[name]`` grows by ``weight(*args, **kwargs)`` per call,
        or by 1. ``group`` is described in :meth:`_wrap`. A module-level function
        is replaced in every loaded ``repro`` module that imported it by
        name, so ``from x import f`` call sites see the wrapper too.
        """
        original = getattr(owner, attr)
        if kind == "iter":
            wrapper = self._wrap_iter(name, original)
        elif kind in ("span", "count"):
            wrapper = self._wrap(name, original, kind, weight, group, observe)
        else:
            raise ValueError(f"unknown instrument kind {kind!r}")
        if isinstance(owner, type):
            had_own = attr in owner.__dict__
            setattr(owner, attr, wrapper)
            self._undo.append(
                (lambda: setattr(owner, attr, original))
                if had_own
                else (lambda: delattr(owner, attr))
            )
            return
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if module is owner or module_name.startswith("repro"):
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(functools.partial(setattr, module, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------------

    def write(self, path: str | Path) -> None:
        """Dump every span as one JSON line (written when the run ends)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for span_id, parent, name, start, end in self.spans:
                f.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


# -- analysis ------------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_length(children.get(span_id, ()), start, end)
        for span_id, _, _, start, end in spans
    }


def layer_totals(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    A span directly inside a span of the same name (a remote ``probe``
    that calls ``probe_many``) counts once: its time is already inside
    the outer span's inclusive total.
    """
    spans = list(spans)
    names = {span_id: name for span_id, _, name, _, _ in spans}
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
    )
    for span_id, parent, name, start, end in spans:
        entry = out[name]
        entry["self_seconds"] += own[span_id]
        if names.get(parent) == name:
            continue
        entry["calls"] += 1
        entry["seconds"] += end - start
    return dict(out)


def subtree(spans: Iterable[Span], root_id: int) -> list[Span]:
    """Span ``root_id`` and every span below it."""
    spans = list(spans)
    kids: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        kids[span[1]].append(span)
    out = [s for s in spans if s[0] == root_id]
    frontier = [root_id]
    while frontier:
        below = kids.get(frontier.pop(), ())
        out.extend(below)
        frontier.extend(s[0] for s in below)
    return out


def coverage(spans: Iterable[Span], root_id: int) -> float:
    """Share of span ``root_id``'s wall time covered by its child spans."""
    spans = list(spans)
    root = next(s for s in spans if s[0] == root_id)
    inside = [(s[3], s[4]) for s in spans if s[1] == root_id]
    wall = root[4] - root[3]
    return covered_length(inside, root[3], root[4]) / wall if wall > 0 else 0.0
