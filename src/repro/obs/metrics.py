"""Metrics registries: counters, gauges, latency histograms.

One process-wide registry (:func:`get_registry`) with namespaced names
(``cerfix.<surface>.<metric>``), lock-striped so hot paths (the chase,
remote round trips) pay one short critical section per update. Counts
that must not mix with a sibling's live in a private
:class:`MetricsRegistry` — each entry service keeps one.

Subsystems that keep their own structured stats (an entry service's
registry, the remote store's per-shard stats, a shard server's request
counters, the audit log) register themselves as **sources**: named
zero-argument callables re-exported verbatim under
``dump()["sources"]``. Sources are held weakly (a registered engine or
service must not be kept alive by telemetry) and keyed by name with
last-wins semantics, so re-creating an engine in the same process
simply repoints the source.

The dump schema (``cerfix.metrics.v1``)::

    {"schema": "cerfix.metrics.v1",
     "counters":   {name: int},
     "gauges":     {name: float},
     "histograms": {name: {count, mean_ms, max_ms, p50_ms, p95_ms,
                           p99_ms, buckets: {"<=ms": n}}},
     "sources":    {name: <whatever the source returns>}}

Gauges come in two flavours: last-write-wins levels (:meth:`set_gauge`)
and *callable* gauges (:meth:`register_gauge`) evaluated at dump time —
what per-process self-stats (``cerfix.proc.rss_bytes``, ``open_fds``)
use, since their value is only meaningful when somebody scrapes it.

The registry also keeps a bounded **snapshot history ring**
(:meth:`record_snapshot` / :meth:`rates`): timestamped slim snapshots
of every counter and histogram, from which delta rates (probes/s,
requests/s) and windowed latency percentiles are derived. The scrape
endpoints record a snapshot per scrape, so two scrapes apart are
enough for rates-over-time — no background thread involved.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Dict

# Exponential bucket upper bounds in milliseconds: 0.05ms doubling to
# ~52s, 21 buckets + overflow. Percentiles report the matching upper
# bound (or the observed max for the overflow bucket) — coarse but
# fixed-cost, which is what a chase-hot-path histogram must be.
BUCKET_BOUNDS_MS: tuple[float, ...] = tuple(0.05 * 2**i for i in range(21))


def bucket_percentile(
    counts: list[int] | tuple[int, ...],
    count: int,
    max_ms: float,
    q: float,
) -> float:
    """The q-quantile estimate of a fixed-bucket distribution, in ms.

    ``counts`` is one occupancy per :data:`BUCKET_BOUNDS_MS` bound plus
    the overflow bucket. Nearest-rank over bucket upper bounds, clamped
    to the observed max — so the zero-observation distribution answers
    0.0 (not an arbitrary bound), a single observation answers the same
    well-defined value for every quantile, and no estimate ever exceeds
    a value actually seen. Shared by :meth:`Histogram.to_json` and the
    cluster monitor's windowed (delta-histogram) percentiles.
    """
    if count <= 0:
        return 0.0
    target = max(1, math.ceil(q * count))
    seen = 0
    for idx, n in enumerate(counts):
        if not n:
            continue
        seen += n
        if seen >= target:
            if idx >= len(BUCKET_BOUNDS_MS):
                return max_ms
            return min(BUCKET_BOUNDS_MS[idx], max_ms)
    return max_ms


def percentiles_ms(counts: list[int], count: int, max_ms: float) -> dict[str, float]:
    """``{p50_ms, p95_ms, p99_ms}`` of a bucket distribution, rounded as
    every JSON view reports them."""
    return {
        key: round(bucket_percentile(counts, count, max_ms, q), 4)
        for key, q in (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99))
    }


def delta_percentiles(
    new_counts: list[int], old_counts: list[int], count: int, max_ms: float
) -> dict[str, float]:
    """:func:`percentiles_ms` of the ``count`` observations one histogram
    took between two snapshots."""
    return percentiles_ms([a - b for a, b in zip(new_counts, old_counts)], count, max_ms)


def rate_window(snaps: list[dict], window_s: float | None) -> tuple[dict, dict, float] | None:
    """``(old, new, dt)`` for the newest snapshot and the oldest one inside
    ``window_s`` (the oldest retained if ``None``); ``None`` when no rate
    can be taken (under two snapshots, or no time between them)."""
    if len(snaps) < 2:
        return None
    new, old = snaps[-1], snaps[0]
    if window_s is not None:
        cutoff = new["ts"] - window_s
        old = next((snap for snap in snaps[:-1] if snap["ts"] >= cutoff), old)
    dt = new["ts"] - old["ts"]
    return (old, new, dt) if dt > 0 else None


class Counter:
    """A monotonically increasing integer, guarded by a striped lock."""

    __slots__ = ("name", "_lock", "value")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A last-write-wins numeric level."""

    __slots__ = ("name", "_lock", "value")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.value: float | None = None

    def set(self, value: float | None) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Fixed-bucket latency histogram (observations in **seconds**).

    ``observe`` is the hot path: one ``bisect`` over the precomputed
    bounds plus one short lock. Percentile estimates are bucket upper
    bounds — monotone and stable, never interpolated.
    """

    __slots__ = ("name", "_lock", "counts", "count", "total_ms", "max_ms")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)
        self.count = 0
        self.total_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1000.0
        idx = bisect_left(BUCKET_BOUNDS_MS, ms)
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.total_ms += ms
            if ms > self.max_ms:
                self.max_ms = ms

    def snapshot(self) -> tuple[list[int], int, float, float]:
        """One consistent ``(counts, count, total_ms, max_ms)`` read."""
        with self._lock:
            return list(self.counts), self.count, self.total_ms, self.max_ms

    def to_json(self) -> dict[str, Any]:
        counts, count, total_ms, max_ms = self.snapshot()
        buckets = {
            f"<={BUCKET_BOUNDS_MS[i]:g}": n
            for i, n in enumerate(counts[:-1])
            if n
        }
        if counts[-1]:
            buckets["+inf"] = counts[-1]
        return {
            "count": count,
            "mean_ms": round(total_ms / count, 4) if count else 0.0,
            "max_ms": round(max_ms, 4),
            **percentiles_ms(counts, count, max_ms),
            "buckets": buckets,
        }


class MetricsRegistry:
    """Get-or-create named instruments plus weakly-held stat sources."""

    def __init__(self, stripes: int = 16, history: int = 120):
        self._stripes = tuple(threading.Lock() for _ in range(stripes))
        self._meta = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, Callable[[], Any]] = {}
        self._gauge_fns: Dict[str, Callable[[], float | None]] = {}
        self._history: deque[dict[str, Any]] = deque(maxlen=history)

    def _lock_for(self, name: str) -> threading.Lock:
        return self._stripes[hash(name) % len(self._stripes)]

    # -- instruments (get-or-create; dict reads are GIL-atomic) ----------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._meta:
                c = self._counters.setdefault(name, Counter(name, self._lock_for(name)))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._meta:
                g = self._gauges.setdefault(name, Gauge(name, self._lock_for(name)))
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._meta:
                h = self._histograms.setdefault(
                    name, Histogram(name, self._lock_for(name))
                )
        return h

    # -- conveniences ----------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float | None) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, seconds: float) -> None:
        self.histogram(name).observe(seconds)

    def counter_value(self, name: str) -> int:
        c = self._counters.get(name)
        return c.value if c is not None else 0

    def gauge_value(self, name: str, default: float | None = None) -> float | None:
        g = self._gauges.get(name)
        return g.value if g is not None and g.value is not None else default

    def register_gauge(self, name: str, fn: Callable[[], float | None]) -> None:
        """Register a zero-argument callable evaluated at ``dump()`` time.

        Callable gauges are what per-process self-stats use: the value
        (RSS, open fds, thread count) is only meaningful at scrape time.
        Held strongly — they close over module state, not an engine —
        and keyed by name with last-wins semantics. A callable that
        raises or returns ``None`` is simply omitted from that dump.
        """
        with self._meta:
            self._gauge_fns[name] = fn

    # -- sources ---------------------------------------------------------

    def register_source(self, name: str, fn: Callable[[], Any]) -> None:
        """Register ``fn`` to be re-exported under ``dump()["sources"]``.

        Bound methods are held via :class:`weakref.WeakMethod` so the
        registry never pins a dead engine/service; plain functions are
        held strongly. Registering the same name again replaces the
        previous source (last wins).
        """
        ref: Callable[[], Any]
        try:
            ref = weakref.WeakMethod(fn)  # type: ignore[arg-type]
        except TypeError:
            ref = lambda fn=fn: fn  # noqa: E731 — uniform deref shape
        with self._meta:
            self._sources[name] = ref

    def dump(self) -> dict[str, Any]:
        """One JSON-able snapshot of everything — the registry schema."""
        with self._meta:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            sources = dict(self._sources)
            gauge_fns = dict(self._gauge_fns)
        out: dict[str, Any] = {
            "schema": "cerfix.metrics.v1",
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges if g.value is not None},
            "histograms": {h.name: h.to_json() for h in histograms},
            "sources": {},
        }
        for name, gfn in gauge_fns.items():
            try:
                value = gfn()
            except Exception:  # a broken self-gauge must not kill /metrics
                continue
            if value is not None:
                out["gauges"][name] = value
        dead = []
        for name, ref in sources.items():
            fn = ref()
            if fn is None:
                dead.append(name)
                continue
            try:
                out["sources"][name] = fn()
            except Exception as exc:  # a broken source must not kill /metrics
                out["sources"][name] = {"error": f"{type(exc).__name__}: {exc}"}
        if dead:
            with self._meta:
                for name in dead:
                    if self._sources.get(name) is sources[name]:
                        del self._sources[name]
        return out

    # -- snapshot history / rates ----------------------------------------

    def record_snapshot(self, ts: float | None = None) -> dict[str, Any]:
        """Append a slim timestamped snapshot to the history ring.

        Snapshots hold raw counter values and raw histogram state (not
        the derived :meth:`Histogram.to_json` view) so :meth:`rates`
        can subtract two of them to get windowed delta-distributions.
        Sources are deliberately excluded — a snapshot must stay cheap
        enough to take on every scrape.
        """
        with self._meta:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
        snap: dict[str, Any] = {
            "ts": time.time() if ts is None else ts,
            "counters": {c.name: c.value for c in counters},
            "histograms": {},
        }
        for h in histograms:
            counts, count, total_ms, max_ms = h.snapshot()
            snap["histograms"][h.name] = {
                "counts": counts,
                "count": count,
                "total_ms": total_ms,
                "max_ms": max_ms,
            }
        self._history.append(snap)
        return snap

    def history(self) -> list[dict[str, Any]]:
        """The retained snapshots, oldest first."""
        return list(self._history)

    def rates(self, window_s: float | None = None) -> dict[str, Any]:
        """Delta rates between the newest snapshot and the oldest one
        inside ``window_s`` (or the oldest retained, if ``None``).

        Returns ``{"window_s", "counters_per_s": {name: rate},
        "histograms": {name: {count_per_s, mean_ms, p50_ms, p95_ms,
        p99_ms}}}`` computed from the *delta* distribution, i.e. only
        observations made inside the window. Needs two snapshots spaced
        in time; answers an empty window otherwise.
        """
        window = rate_window(self.history(), window_s)
        if window is None:
            return {"window_s": 0.0, "counters_per_s": {}, "histograms": {}}
        old, new, dt = window
        out: dict[str, Any] = {
            "window_s": round(dt, 3),
            "counters_per_s": {},
            "histograms": {},
        }
        for name, value in new["counters"].items():
            delta = value - old["counters"].get(name, 0)
            out["counters_per_s"][name] = round(delta / dt, 4)
        for name, h_new in new["histograms"].items():
            h_old = old["histograms"].get(name)
            if h_old is None:
                h_old = {"counts": [0] * len(h_new["counts"]), "count": 0, "total_ms": 0.0}
            d_count = h_new["count"] - h_old["count"]
            d_total = h_new["total_ms"] - h_old["total_ms"]
            out["histograms"][name] = {
                "count_per_s": round(d_count / dt, 4),
                "mean_ms": round(d_total / d_count, 4) if d_count > 0 else 0.0,
                **delta_percentiles(h_new["counts"], h_old["counts"], d_count, h_new["max_ms"]),
            }
        return out


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem shares."""
    return _GLOBAL
