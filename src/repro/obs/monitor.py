"""Cluster monitoring plane: fleet scraper, health rollup, `top` view.

PR 7 gave every process a ``/metrics`` endpoint and PR 8 made the
fleet survive replica loss — but each process is still an island: an
opened circuit is invisible unless you curl the right replica. This
module is the fleet-wide view:

* :func:`install_process_gauges` registers per-process self-gauges
  (``cerfix.proc.rss_bytes``, ``open_fds``, ``threads``,
  ``uptime_seconds``) on the process-wide registry — called by shard
  servers and the async entry service at startup, so every
  scrape answers who is eating memory and leaking descriptors.
* :class:`ClusterMonitor` polls every shard replica's ``/metrics`` +
  ``/healthz`` and (optionally) the entry service, merging the dumps
  into one namespaced cluster snapshot (``cerfix.cluster.v1``) with a
  health **rollup**: per-replica up/down, open circuits (both
  monitor-observed and the client-side breakers reported by the
  service's ``remote_store`` source), per-shard digest agreement, and
  scrape staleness.
* :meth:`ClusterMonitor.rates` derives fleet-wide rates-over-time
  (probes/s, requests/s, error rate, failovers/min) and per-shard
  windowed latency percentiles from consecutive snapshots — delta
  histograms, not lifetime aggregates.
* :func:`render_top` / :func:`describe_rollup` turn a snapshot into
  the curses-free ``cerfix top`` dashboard and the ``cerfix health``
  report lines.

The monitor is a pure HTTP client over the existing wire surfaces —
it needs no new endpoint on the servers and works against in-process
and spawned clusters alike.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ScrapeError

from .metrics import BUCKET_BOUNDS_MS, MetricsRegistry, delta_percentiles, get_registry, rate_window

_PROC_START = time.monotonic()


# -- per-process self-gauges -------------------------------------------------


def _rss_bytes() -> float | None:
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0
    except Exception:
        return None


def _open_fds() -> float | None:
    try:
        return float(len(os.listdir("/proc/self/fd")))
    except OSError:
        return None


def install_process_gauges(registry: MetricsRegistry | None = None) -> None:
    """Register the per-process self-gauges on ``registry``.

    Evaluated lazily at dump time (see
    :meth:`MetricsRegistry.register_gauge`), so an idle process pays
    nothing. Safe to call repeatedly — registration is last-wins.
    """
    reg = registry if registry is not None else get_registry()
    reg.register_gauge("cerfix.proc.rss_bytes", _rss_bytes)
    reg.register_gauge("cerfix.proc.open_fds", _open_fds)
    reg.register_gauge(
        "cerfix.proc.threads", lambda: float(threading.active_count())
    )
    reg.register_gauge(
        "cerfix.proc.uptime_seconds",
        lambda: round(time.monotonic() - _PROC_START, 3),
    )


# -- scraping ----------------------------------------------------------------


def _get_json(url: str, path: str, timeout: float) -> dict:
    """One unretried ``GET`` returning parsed JSON, or :class:`ScrapeError`."""
    from repro.master.remote import _split_url

    try:
        host, port = _split_url(url)
    except Exception as exc:
        raise ScrapeError(f"bad endpoint url {url!r}: {exc}") from None
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise ScrapeError(f"{url}{path} answered {response.status}")
        return json.loads(data)
    except ScrapeError:
        raise
    except Exception as exc:
        raise ScrapeError(f"{url}{path}: {type(exc).__name__}: {exc}") from None
    finally:
        conn.close()


def _hist_counts(hist: Dict[str, Any]) -> list[int]:
    """Reconstruct the raw occupancy array from a dump histogram."""
    counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)
    for key, n in hist.get("buckets", {}).items():
        if key == "+inf":
            counts[-1] = int(n)
            continue
        try:
            bound = float(key[2:])
        except ValueError:
            continue
        for idx, b in enumerate(BUCKET_BOUNDS_MS):
            if b == bound:
                counts[idx] = int(n)
                break
    return counts


class ClusterMonitor:
    """Scrape a whole CerFix fleet into one snapshot with a rollup.

    ``shard_urls`` takes the same topology the remote store accepts —
    flat (one url per shard) or nested (one replica list per shard).
    ``fail_threshold`` consecutive failed scrapes of a replica open a
    *monitor-side* circuit for it (``source: "monitor"``); client-side
    breakers are additionally merged out of the service's
    ``remote_store`` source (``source: "client"``). A replica whose
    last successful scrape is older than ``stale_after`` seconds is
    reported stale even if the latest round did not probe it.
    """

    def __init__(
        self,
        shard_urls: Sequence[Any],
        *,
        service_url: str | None = None,
        timeout: float = 2.0,
        fail_threshold: int = 2,
        stale_after: float = 10.0,
        history: int = 120,
    ):
        from repro.master.remote import _normalize_topology

        self.topology: Tuple[Tuple[str, ...], ...] = _normalize_topology(shard_urls)
        self.service_url = service_url
        self.timeout = timeout
        self.fail_threshold = max(1, int(fail_threshold))
        self.stale_after = stale_after
        self._failures: Dict[str, int] = {}
        self._last_ok: Dict[str, float] = {}
        self._history: deque[dict[str, Any]] = deque(maxlen=history)

    # -- one scrape round ---------------------------------------------------

    def _scrape_member(self, shard: int, replica: int, url: str, now: float) -> dict:
        member: dict[str, Any] = {
            "shard": shard,
            "replica": replica,
            "url": url,
            "up": False,
            "error": None,
            "healthz": None,
            "metrics": None,
        }
        try:
            member["healthz"] = _get_json(url, "/healthz", self.timeout)
            member["metrics"] = _get_json(url, "/metrics", self.timeout)
            member["up"] = True
            self._failures[url] = 0
            self._last_ok[url] = now
        except ScrapeError as exc:
            member["error"] = str(exc)
            self._failures[url] = self._failures.get(url, 0) + 1
        member["consecutive_failures"] = self._failures.get(url, 0)
        last_ok = self._last_ok.get(url)
        member["staleness_s"] = round(now - last_ok, 3) if last_ok else None
        return member

    def scrape_once(self) -> dict[str, Any]:
        """One scrape round → one ``cerfix.cluster.v1`` snapshot.

        The snapshot is appended to the monitor's own history ring so
        :meth:`rates` can difference consecutive rounds.
        """
        now = time.time()
        members: List[dict] = []
        for shard, group in enumerate(self.topology):
            for replica, url in enumerate(group):
                members.append(self._scrape_member(shard, replica, url, now))
        service: dict[str, Any] | None = None
        if self.service_url:
            service = {"url": self.service_url, "up": False, "error": None, "metrics": None}
            try:
                service["metrics"] = _get_json(self.service_url, "/api/metrics", self.timeout)
                service["up"] = True
            except ScrapeError as exc:
                service["error"] = str(exc)
        snapshot = {
            "schema": "cerfix.cluster.v1",
            "ts": now,
            "shards": len(self.topology),
            "members": members,
            "service": service,
            "rollup": self._rollup(members, service, now),
        }
        self._history.append(snapshot)
        return snapshot

    # -- rollup -------------------------------------------------------------

    def _client_circuits(self, service: dict | None) -> List[dict]:
        """Open client-side breakers from the service's remote_store source."""
        if not service or not service.get("up"):
            return []
        registry = (service.get("metrics") or {}).get("registry") or {}
        store = registry.get("sources", {}).get("remote_store") or {}
        out = []
        for group in store.get("per_shard", []):
            for idx, rep in enumerate(group.get("replicas", [])):
                state = rep.get("circuit", "closed")
                if state != "closed":
                    out.append(
                        {
                            "shard": rep.get("shard_id"),
                            "replica": idx,
                            "url": rep.get("url"),
                            "source": "client",
                            "state": state,
                        }
                    )
        return out

    def _rollup(
        self, members: List[dict], service: dict | None, now: float
    ) -> dict[str, Any]:
        down = [
            {"shard": m["shard"], "replica": m["replica"], "url": m["url"], "error": m["error"]}
            for m in members
            if not m["up"]
        ]
        open_circuits = [
            {
                "shard": m["shard"],
                "replica": m["replica"],
                "url": m["url"],
                "source": "monitor",
                "state": "open",
            }
            for m in members
            if m["consecutive_failures"] >= self.fail_threshold
        ]
        open_circuits.extend(self._client_circuits(service))
        shards_down = []
        digests: Dict[str, List[str | None]] = {}
        digest_agreement = True
        for shard in range(len(self.topology)):
            group = [m for m in members if m["shard"] == shard]
            up = [m for m in group if m["up"]]
            if not up:
                shards_down.append(shard)
            seen = [
                (m["healthz"] or {}).get("digest") if m["up"] else None for m in group
            ]
            digests[str(shard)] = seen
            live = {d for d in seen if d is not None}
            if len(live) > 1:
                digest_agreement = False
        stale = [
            m["url"]
            for m in members
            if m["staleness_s"] is not None and m["staleness_s"] > self.stale_after
        ]
        service_ok = service is None or service.get("up", False)
        if shards_down:
            status = "down"
        elif down or open_circuits or not digest_agreement or stale or not service_ok:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "replicas_total": len(members),
            "replicas_up": len(members) - len(down),
            "shards_down": shards_down,
            "down": down,
            "open_circuits": open_circuits,
            "digest_agreement": digest_agreement,
            "digests": digests,
            "stale": stale,
            "service": (
                None
                if service is None
                else {"url": service["url"], "up": service["up"], "error": service["error"]}
            ),
        }

    # -- rates over time ----------------------------------------------------

    def history(self) -> list[dict[str, Any]]:
        return list(self._history)

    @staticmethod
    def _fleet_counters(snapshot: dict) -> Dict[str, float]:
        """Sum registry counters across every up member + the service."""
        totals: Dict[str, float] = {}
        dumps = [m["metrics"] for m in snapshot["members"] if m["up"] and m["metrics"]]
        service = snapshot.get("service")
        if service and service.get("up"):
            dumps.append((service.get("metrics") or {}).get("registry") or {})
        for dump in dumps:
            for name, value in (dump.get("counters") or {}).items():
                totals[name] = totals.get(name, 0) + value
        return totals

    @staticmethod
    def _shard_hist(snapshot: dict, name: str) -> Dict[int, tuple[list[int], int, float]]:
        """Per-shard (counts, count, max) for one histogram name."""
        out: Dict[int, tuple[list[int], int, float]] = {}
        for m in snapshot["members"]:
            if not (m["up"] and m["metrics"]):
                continue
            hist = (m["metrics"].get("histograms") or {}).get(name)
            if not hist:
                continue
            counts = _hist_counts(hist)
            count = int(hist.get("count", 0))
            max_ms = float(hist.get("max_ms", 0.0))
            prev = out.get(m["shard"])
            if prev is None:
                out[m["shard"]] = (counts, count, max_ms)
            else:
                merged = [a + b for a, b in zip(prev[0], counts)]
                out[m["shard"]] = (
                    merged,
                    prev[1] + count,
                    max(prev[2], max_ms),
                )
        return out

    def rates(self, window_s: float | None = None) -> dict[str, Any]:
        """Fleet-wide delta rates between the two ends of the window.

        ``{"window_s", "counters_per_s", "probes_per_s",
        "requests_per_s", "errors_per_s", "failovers_per_min",
        "per_shard": {shard: {count_per_s, p50_ms, p95_ms, p99_ms}}}``
        — all derived by differencing scraped snapshots, so a freshly
        started monitor answers zeros until its second scrape.
        """
        empty = {
            "window_s": 0.0,
            "counters_per_s": {},
            "probes_per_s": 0.0,
            "requests_per_s": 0.0,
            "errors_per_s": 0.0,
            "failovers_per_min": 0.0,
            "per_shard": {},
        }
        window = rate_window(self.history(), window_s)
        if window is None:
            return empty
        old, new, dt = window
        new_totals = self._fleet_counters(new)
        old_totals = self._fleet_counters(old)
        per_s = {
            name: round((value - old_totals.get(name, 0)) / dt, 4)
            for name, value in new_totals.items()
        }
        per_shard: dict[str, Any] = {}
        new_h = self._shard_hist(new, "cerfix.shard.request_seconds")
        old_h = self._shard_hist(old, "cerfix.shard.request_seconds")
        for shard, (counts, count, max_ms) in sorted(new_h.items()):
            o_counts, o_count, _ = old_h.get(shard, ([0] * len(counts), 0, 0.0))
            d_count = count - o_count
            per_shard[str(shard)] = {
                "count_per_s": round(d_count / dt, 4),
                **delta_percentiles(counts, o_counts, d_count, max_ms),
            }
        return {
            "window_s": round(dt, 3),
            "counters_per_s": per_s,
            "probes_per_s": per_s.get("cerfix.shard.probes", 0.0),
            "requests_per_s": per_s.get("cerfix.shard.requests", 0.0),
            "errors_per_s": per_s.get("cerfix.shard.misroutes", 0.0),
            "failovers_per_min": round(per_s.get("cerfix.remote.failovers", 0.0) * 60, 4),
            "per_shard": per_shard,
        }


# -- rendering ---------------------------------------------------------------


def describe_rollup(rollup: dict[str, Any]) -> list[str]:
    """Human report lines for ``cerfix health`` — one finding per line."""
    lines = [
        "cluster status: {status} ({up}/{total} replicas up)".format(
            status=rollup["status"],
            up=rollup["replicas_up"],
            total=rollup["replicas_total"],
        )
    ]
    for member in rollup["down"]:
        lines.append(
            "DOWN  shard {shard} replica {replica} at {url}: {error}".format(**member)
        )
    for shard in rollup["shards_down"]:
        lines.append(f"SHARD DOWN  shard {shard} has no healthy replica")
    for circuit in rollup["open_circuits"]:
        lines.append(
            "CIRCUIT {state}  shard {shard} replica {replica} at {url} "
            "(seen by {source})".format(**circuit)
        )
    if not rollup["digest_agreement"]:
        lines.append(f"DIGEST MISMATCH  per-shard digests: {rollup['digests']}")
    for url in rollup["stale"]:
        lines.append(f"STALE  {url} last answered too long ago")
    service = rollup.get("service")
    if service is not None and not service["up"]:
        lines.append(
            "SERVICE DOWN  {url}: {error}".format(
                url=service["url"], error=service["error"]
            )
        )
    return lines


def _fmt(value: float, width: int = 8) -> str:
    return f"{value:>{width}.1f}"


def render_top(snapshot: dict[str, Any], rates: dict[str, Any]) -> str:
    """The ``cerfix top`` dashboard: one plain-text frame, no curses."""
    rollup = snapshot["rollup"]
    lines = [
        "cerfix top — {shards} shard(s), {total} replica(s) — status: {status}".format(
            shards=snapshot["shards"],
            total=rollup["replicas_total"],
            status=rollup["status"].upper(),
        ),
        (
            "window {w}s   requests/s {req}   probes/s {pr}   "
            "errors/s {err}   failovers/min {fo}".format(
                w=rates["window_s"],
                req=rates["requests_per_s"],
                pr=rates["probes_per_s"],
                err=rates["errors_per_s"],
                fo=rates["failovers_per_min"],
            )
        ),
        "",
        f"{'shard':>5} {'rep':>3} {'url':<28} {'up':<4} {'circ':<6} "
        f"{'req/s':>8} {'p50ms':>8} {'p95ms':>8} {'p99ms':>8} {'fails':>5}",
    ]
    open_urls = {c["url"]: c["state"] for c in rollup["open_circuits"]}
    for member in snapshot["members"]:
        shard_rates = rates["per_shard"].get(str(member["shard"]), {})
        lines.append(
            "{shard:>5} {rep:>3} {url:<28} {up:<4} {circ:<6} "
            "{rps} {p50} {p95} {p99} {fails:>5}".format(
                shard=member["shard"],
                rep=member["replica"],
                url=member["url"][:28],
                up="yes" if member["up"] else "NO",
                circ=open_urls.get(member["url"], "-"),
                rps=_fmt(shard_rates.get("count_per_s", 0.0)),
                p50=_fmt(shard_rates.get("p50_ms", 0.0)),
                p95=_fmt(shard_rates.get("p95_ms", 0.0)),
                p99=_fmt(shard_rates.get("p99_ms", 0.0)),
                fails=member["consecutive_failures"],
            )
        )
    service = snapshot.get("service")
    if service is not None:
        lines.append("")
        lines.append(
            "service {url}: {state}".format(
                url=service["url"],
                state="up" if service["up"] else f"DOWN ({service['error']})",
            )
        )
    proc_lines = []
    for member in snapshot["members"]:
        if not (member["up"] and member["metrics"]):
            continue
        gauges = member["metrics"].get("gauges") or {}
        rss = gauges.get("cerfix.proc.rss_bytes")
        if rss is None:
            continue
        proc_lines.append(
            "  shard {shard} rep {rep}: rss {rss:.1f} MiB, "
            "{fds:.0f} fds, {thr:.0f} threads, up {upt:.0f}s".format(
                shard=member["shard"],
                rep=member["replica"],
                rss=rss / (1024 * 1024),
                fds=gauges.get("cerfix.proc.open_fds", 0.0) or 0.0,
                thr=gauges.get("cerfix.proc.threads", 0.0) or 0.0,
                upt=gauges.get("cerfix.proc.uptime_seconds", 0.0) or 0.0,
            )
        )
    if proc_lines:
        lines.append("")
        lines.append("processes:")
        lines.extend(proc_lines)
    return "\n".join(lines) + "\n"
