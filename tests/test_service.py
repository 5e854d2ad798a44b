"""Tests for the async entry service (repro.service).

Covers the ISSUE 4 satellite checklist: concurrent-session correctness
(bit-identical to the serial monitor), probe coalescing under
contention, the 429 backpressure path, the metrics-endpoint schema —
plus the shared routing table, the suggestion memo, the instance
document's ``service`` section and the CLI flags.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.master.conformance import (
    generate_case,
    normalize_audit,
    normalize_outcome,
    run_monitor_path,
    run_service_path,
    store_factories,
)
from repro import CerFix
from repro.config import InstanceConfig
from repro.errors import ValidationError
from repro.explorer.cli import build_parser
from repro.obs.metrics import MetricsRegistry
from repro.master.store import SingleRelationStore
from repro.relational.relation import Relation
from repro.scenarios import uk_customers as uk
from repro.service.app import RoutingCore, classify_route
from repro.service.batcher import CoalescingMasterDataManager, ProbeBatcher, ProbeKeyer
from repro.service.cache import LRUMemo, MemoView, SharedProbeCache
from repro.service.limits import AdmissionController
from repro.service.loadgen import run_load


def _request(url: str, method: str = "GET", body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture()
def uk_workload():
    master = uk.generate_master(25, seed=11)
    wl = uk.generate_workload(master, 48, rate=0.2, seed=12)
    return master, wl


@pytest.fixture()
def server(uk_workload):
    master, _ = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    srv = engine.serve_async(port=0)
    yield srv
    srv.close()


# ---------------------------------------------------------------------------
# Concurrent-session correctness: same fixes as the serial monitor
# ---------------------------------------------------------------------------


def test_concurrent_sessions_match_serial_monitor(uk_workload):
    """48 sessions at concurrency 16 produce, per tuple, the exact fixed
    values and audit events of the serial stream path."""
    master, wl = uk_workload
    serial_engine = CerFix(uk.paper_ruleset(), master)
    serial_engine.stream(wl.dirty, wl.clean)
    serial_audit = normalize_audit([e.to_json() for e in serial_engine.audit])

    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(port=0)
    try:
        rows = [r.to_dict() for r in wl.dirty.rows()]
        truth = [r.to_dict() for r in wl.clean.rows()]
        report = run_load(server.url, rows, truth, concurrency=16)
    finally:
        server.close()

    assert report.dropped == 0 and not report.errors
    names = wl.dirty.schema.names
    serial_rows = []
    for i, row in enumerate(wl.dirty.rows()):
        values = row.to_dict()
        for e in serial_engine.audit.by_tuple(f"t{i}"):
            values[e.attr] = e.new
        serial_rows.append(tuple(str(values[n]) for n in names))
    assert report.values_in_order(names) == serial_rows
    assert normalize_audit([e.to_json() for e in engine.audit]) == serial_audit


@pytest.mark.parametrize("backend", ["single", "sharded", "sqlite"])
def test_service_parity_across_backends(backend, tmp_path):
    """The ISSUE 4 differential guarantee, per store backend: concurrent
    service output is bit-identical to the serial monitor path."""
    case = generate_case(1001, scenario="uk", n=20)
    factories = store_factories(case, tmp_path)
    serial = normalize_outcome(run_monitor_path(case, factories[backend]()))
    service = run_service_path(case, factories[backend](), concurrency=8)
    assert service.fixed_rows == serial.fixed_rows
    assert service.audit_events == serial.audit_events
    assert service.regions == serial.regions
    assert service.report["completed"] == serial.report["completed"]


def test_duplicate_session_id_conflicts_under_concurrency(server):
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    s1, _, _ = _request(f"{server.url}/api/sessions", "POST",
                        {"tuple_id": "dup", "values": values})
    s2, body, _ = _request(f"{server.url}/api/sessions", "POST",
                           {"tuple_id": "dup", "values": values})
    assert (s1, s2) == (201, 409)
    assert "already exists" in body["error"]
    status, body, _ = _request(f"{server.url}/api/sessions/dup", "DELETE")
    assert status == 200 and body["deleted"] == "dup"
    status, _, _ = _request(f"{server.url}/api/sessions/dup", "GET")
    assert status == 404


# ---------------------------------------------------------------------------
# Probe coalescing under contention
# ---------------------------------------------------------------------------


class _SlowCountingStore(SingleRelationStore):
    """A store whose probes are slow enough that concurrent misses pile
    up inside one batch window."""

    def __init__(self, relation, delay=0.005):
        super().__init__(relation)
        self.delay = delay
        self.probe_calls = 0
        self.batch_calls = 0

    def probe(self, rule, values, *, use_index=True):
        self.probe_calls += 1
        time.sleep(self.delay)
        return super().probe(rule, values, use_index=use_index)

    def probe_many(self, requests, *, use_index=True):
        self.batch_calls += 1
        return super().probe_many(requests, use_index=use_index)


def _loop_in_thread():
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    return loop, thread


def test_probe_coalescing_collapses_identical_keys():
    """8 threads missing on the same key cost exactly one store probe;
    the other 7 attach to the in-flight future."""
    ruleset = uk.paper_ruleset()
    master = uk.paper_master()
    store = _SlowCountingStore(Relation(master.schema, master.tuples()))
    store.prebuild(ruleset)
    cache = SharedProbeCache(128)
    metrics = MetricsRegistry()
    batcher = ProbeBatcher(store, cache, window=0.02, max_batch=64, metrics=metrics)
    keyer = ProbeKeyer()
    manager = CoalescingMasterDataManager(store, cache, batcher, keyer)

    loop, _thread = _loop_in_thread()
    batcher.bind_loop(loop)
    try:
        rule = next(r for r in ruleset if not r.is_constant)
        values = uk.fig3_truth()
        barrier = threading.Barrier(8)
        results = []

        def probe_once():
            barrier.wait()
            results.append(manager.match(rule, values))

        threads = [threading.Thread(target=probe_once) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        loop.call_soon_threadsafe(loop.stop)

    assert len(results) == 8
    assert all(r == results[0] for r in results)
    assert store.probe_calls == 1  # one store hit served all eight
    assert metrics.counter_value("probes.coalesced") == 7
    assert metrics.counter_value("probes.store_probes") == 1
    # ... and the next call is a pure cache hit
    assert manager.match(rule, values) == results[0]
    assert cache.stats.hits >= 1


def test_coalescing_happens_under_real_service_contention(uk_workload):
    """Duplicate-heavy concurrent traffic exercises coalescing/batching
    through the full HTTP path."""
    master, wl = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    # executor dispatch (sessions off-loop) is what makes misses
    # concurrent; a wide batch window makes them pile up deterministically
    server = engine.serve_async(port=0, batch_window_ms=5.0, dispatch="executor")
    try:
        rows = [r.to_dict() for r in wl.dirty.rows()] * 2  # duplicates
        truth = [r.to_dict() for r in wl.clean.rows()] * 2
        report = run_load(server.url, rows, truth, concurrency=24)
        service = server.service
        assert report.dropped == 0 and not report.errors
        stats = service.cache.stats
        assert stats.hits > 0 and stats.hit_rate > 0.3
        value = service.metrics.counter_value
        assert value("probes.batches") > 0
        assert value("probes.batched_misses") == value("probes.store_probes")
    finally:
        server.close()


def test_metrics_read_order_keeps_derived_counts_non_negative(server, monkeypatch):
    """The service reads its counters one at a time, with no snapshot
    lock. Even with a whole request, session and probe batch completing
    between every two reads, in-flight and active never read negative
    and batches <= batched misses <= store probes still holds."""
    metrics = server.service.metrics
    read = metrics.counter_value
    lifecycle = (
        ("requests.started", 1),
        ("sessions.opened", 1),
        ("probes.store_probes", 2),
        ("probes.batched_misses", 2),
        ("probes.batches", 1),
        ("sessions.completed", 1),
        ("requests.finished", 1),
    )

    def racing_read(name):
        value = read(name)
        for counter, n in lifecycle:
            metrics.inc(counter, n)
        return value

    monkeypatch.setattr(metrics, "counter_value", racing_read)
    for _ in range(3):
        data = server.service.counts_json()
        probes = data["probes"]
        assert data["requests"]["in_flight"] >= 0
        assert data["sessions"]["active"] >= 0
        assert probes["batches"] <= probes["batched_misses"] <= probes["store_probes"]


# ---------------------------------------------------------------------------
# Backpressure: the 429 path
# ---------------------------------------------------------------------------


def test_session_capacity_429_with_retry_after(uk_workload):
    master, _ = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(port=0, max_sessions=2)
    try:
        values = {k: str(v) for k, v in uk.fig3_tuple().items()}
        for i in range(2):
            status, _, _ = _request(f"{server.url}/api/sessions", "POST",
                                    {"tuple_id": f"cap{i}", "values": values})
            assert status == 201
        status, body, headers = _request(f"{server.url}/api/sessions", "POST",
                                         {"tuple_id": "cap2", "values": values})
        assert status == 429
        assert "capacity" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        assert body["retry_after"] == int(headers["Retry-After"])
        # deleting an active session frees a slot
        _request(f"{server.url}/api/sessions/cap0", "DELETE")
        status, _, _ = _request(f"{server.url}/api/sessions", "POST",
                                {"tuple_id": "cap2", "values": values})
        assert status == 201
        assert server.service.counts_json()["requests"]["rejected_429"] == 1
    finally:
        server.close()


def test_backpressure_retries_drop_nothing(uk_workload):
    """An overloaded service (tiny limits, aggressive concurrency) sheds
    load with 429s, yet every session completes after retries."""
    master, wl = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(port=0, max_sessions=4, max_session_pending=2)
    try:
        rows = [r.to_dict() for r in wl.dirty.rows()]
        truth = [r.to_dict() for r in wl.clean.rows()]
        report = run_load(server.url, rows, truth, concurrency=24)
        assert report.dropped == 0 and not report.errors
        assert report.retries_429 > 0  # backpressure actually fired
        metrics = server.service.counts_json()
        assert metrics["requests"]["rejected_429"] == report.retries_429
        assert metrics["sessions"]["completed"] == len(rows)
    finally:
        server.close()


def test_admission_controller_bounds():
    ctl = AdmissionController(max_sessions=2, max_inflight=2, max_session_pending=1)
    assert ctl.enter_request().admitted and ctl.enter_request().admitted
    rejected = ctl.enter_request()
    assert not rejected.admitted and rejected.retry_after >= 1
    ctl.exit_request()
    assert ctl.enter_request().admitted
    assert ctl.enter_session_op("s").admitted
    assert not ctl.enter_session_op("s").admitted
    ctl.exit_session_op("s")
    assert ctl.enter_session_op("s").admitted
    # session slots are reservations: check-and-claim is atomic
    assert ctl.reserve_session().admitted and ctl.reserve_session().admitted
    third = ctl.reserve_session()
    assert not third.admitted and "capacity" in third.reason
    ctl.release_session()
    assert ctl.reserve_session().admitted
    assert ctl.active_sessions == 2
    with pytest.raises(ValueError):
        AdmissionController(max_sessions=0)


# ---------------------------------------------------------------------------
# Metrics endpoint schema
# ---------------------------------------------------------------------------


def test_metrics_endpoint_schema(server, uk_workload):
    _, wl = uk_workload
    rows = [r.to_dict() for r in wl.dirty.rows()][:8]
    truth = [r.to_dict() for r in wl.clean.rows()][:8]
    report = run_load(server.url, rows, truth, concurrency=4)
    assert report.dropped == 0
    status, metrics, _ = _request(f"{server.url}/api/metrics")
    assert status == 200
    assert set(metrics) >= {
        "requests", "sessions", "probes", "latency_ms",
        "probe_cache", "suggestion_memo", "limits",
    }
    assert metrics["requests"]["total"] >= report.requests
    assert metrics["requests"]["in_flight"] == 1  # the metrics request itself
    assert metrics["sessions"]["opened"] == 8
    assert metrics["sessions"]["completed"] == 8
    assert metrics["sessions"]["active"] == 0
    for key in ("hits", "misses", "hit_rate", "evictions", "size", "maxsize"):
        assert key in metrics["probe_cache"]
    for key in ("hits", "misses", "hit_rate", "size", "maxsize"):
        assert key in metrics["suggestion_memo"]
    for cls in ("open", "validate", "read", "other"):
        window = metrics["latency_ms"][cls]
        assert set(window) == {"count", "p50_ms", "p95_ms", "p99_ms", "mean_ms"}
    opened = metrics["latency_ms"]["open"]["count"]
    assert opened == 8
    assert metrics["limits"]["max_sessions"] == 256


def test_service_shares_routing_table(server):
    """The async service answers from the one RoutingCore: engine
    routes and session routes flow through the same table."""
    engine = server.service.engine
    status, rules, _ = _request(f"{server.url}/api/rules")
    assert status == 200 and len(rules) == len(engine.ruleset)
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    status, state, _ = _request(
        f"{server.url}/api/sessions", "POST", {"tuple_id": "x", "values": values}
    )
    assert status == 201 and server.service.core.sessions["x"].tuple_id == "x"
    status, payload, _ = _request(f"{server.url}/api/sessions/x", "DELETE")
    assert status == 200 and "x" not in server.service.core.sessions


def test_service_metrics_schema(server):
    """/api/metrics after one opened-then-dropped session: request and
    session counters and latency windows are live, and every section a
    dashboard reads is present."""
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    status, _, _ = _request(
        f"{server.url}/api/sessions", "POST", {"tuple_id": "m", "values": values}
    )
    assert status == 201
    status, _, _ = _request(f"{server.url}/api/sessions/m", "DELETE")
    assert status == 200
    status, metrics, _ = _request(f"{server.url}/api/metrics")
    assert status == 200
    assert set(metrics) >= {
        "requests", "sessions", "probes", "latency_ms",
        "probe_cache", "suggestion_memo", "limits", "dispatch",
    }
    assert metrics["requests"]["total"] == 3  # open, delete, metrics
    assert metrics["sessions"]["opened"] == 1
    # dropping an unfinished session counts as an eviction
    assert metrics["sessions"]["evicted"] + metrics["sessions"]["completed"] == 1
    assert metrics["sessions"]["active"] == 0
    for key in ("hits", "misses", "hit_rate", "evictions", "size", "maxsize"):
        assert key in metrics["probe_cache"]
    for key in ("hits", "misses", "hit_rate", "size", "maxsize"):
        assert key in metrics["suggestion_memo"]
    for cls in ("open", "validate", "read", "other"):
        assert set(metrics["latency_ms"][cls]) == {
            "count", "p50_ms", "p95_ms", "p99_ms", "mean_ms",
        }
    assert metrics["latency_ms"]["open"]["count"] == 1
    assert metrics["limits"]["max_sessions"] == 256


# ---------------------------------------------------------------------------
# Shared caches and the suggestion memo
# ---------------------------------------------------------------------------


def test_shared_probe_cache_stats_are_race_free():
    """8 threads over 320 keys against 64 slots: hits, misses and
    evictions stay exact under contention, and ``peek`` counts nothing."""
    cache = SharedProbeCache(64)
    sentinel = object()
    barrier = threading.Barrier(8)
    span = 40  # keys per thread; 8 x 40 > maxsize, so entries churn
    inserted = [0] * 8

    def hammer(t):
        barrier.wait()
        for i in range(500):
            cache.peek(("k", (t + 1) % 8, i % span))  # a neighbour's key, uncounted
            key = ("k", t, i % span)
            if cache.get(key) is None:
                # Only thread t writes its own keys, so a miss always
                # inserts a new entry.
                cache.put(key, sentinel)
                inserted[t] += 1

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    stats = cache.stats
    assert stats.hits + stats.misses == 8 * 500  # no lost increments
    assert len(cache) <= cache.maxsize
    assert stats.evictions == sum(inserted) - len(cache) > 0
    for t in range(8):
        for i in range(span):
            cache.peek(("k", t, i))
    assert cache.stats == stats


def test_suggestion_memo_preserves_suggestions():
    """A memoised session suggests exactly what an unmemoised one does,
    and the second identical session hits the memo."""
    ruleset = uk.paper_ruleset()
    master = uk.paper_master()
    memo = LRUMemo(64)
    truth = uk.fig3_truth()

    def drive(suggestion_memo):
        engine = CerFix(ruleset, master)
        session = engine.session(uk.fig3_tuple(), "t", suggestion_memo=suggestion_memo)
        seen = []
        while not session.is_complete:
            suggestion = session.suggestion()
            if suggestion is None:
                break
            seen.append(tuple(suggestion.attrs))
            session.validate({a: truth[a] for a in suggestion.attrs})
        return seen, session.current_values()

    plain = drive(None)
    first = drive(memo)
    assert memo.stats.misses > 0
    second = drive(memo)
    assert plain == first == second
    assert memo.stats.hits >= len(second[0])


def test_memo_view_scopes_epochs():
    memo = LRUMemo(16)
    old, new = MemoView(memo, 0), MemoView(memo, 1)
    old.put("k", "old-value")
    assert old.get("k") == "old-value"
    assert new.get("k") is None  # epoch bump retires the entry
    new.put("k", "new-value")
    assert old.get("k") == "old-value"  # sessions on the old epoch unaffected


def test_regions_recompute_scopes_new_sessions(server):
    """Sessions opened after a regions recompute capture the new regions
    AND memoise under them — the memo token IS the captured tuple, so
    the two can never disagree (old sessions keep their own key space)."""
    service = server.service
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    _request(f"{server.url}/api/sessions", "POST", {"tuple_id": "r1", "values": values})
    first = service.core.sessions["r1"]
    status, _, _ = _request(f"{server.url}/api/regions?k=1")
    assert status == 200
    _request(f"{server.url}/api/sessions", "POST", {"tuple_id": "r2", "values": values})
    second = service.core.sessions["r2"]
    assert second.regions == tuple(service.engine.regions)
    assert first.regions != second.regions  # r1 predates the recompute
    assert second._suggestion_memo._token == second.regions


# ---------------------------------------------------------------------------
# Config + CLI surface
# ---------------------------------------------------------------------------


def test_instance_service_section_validates():
    base = {
        "name": "x",
        "input_schema": {"name": "i", "attributes": [{"name": "a"}]},
        "master_schema": {"name": "m", "attributes": [{"name": "a"}]},
    }
    config = InstanceConfig.from_json(
        {**base, "service": {"max_sessions": 8, "batch_window_ms": 0.5}}
    )
    assert config.service == {"max_sessions": 8, "batch_window_ms": 0.5}
    assert config.to_json()["service"] == config.service
    with pytest.raises(ValidationError, match="unknown service option"):
        InstanceConfig.from_json({**base, "service": {"bogus": 1}})
    with pytest.raises(ValidationError, match="must be >= 1"):
        InstanceConfig.from_json({**base, "service": {"max_sessions": 0}})
    with pytest.raises(ValidationError, match="must be int"):
        InstanceConfig.from_json({**base, "service": {"cache_size": "lots"}})


def test_cli_serve_async_flags_parse():
    args = build_parser().parse_args(
        ["serve", "--async", "--max-sessions", "32", "--cache-size", "1024"]
    )
    assert args.use_async and args.max_sessions == 32 and args.cache_size == 1024
    args = build_parser().parse_args(["serve"])
    assert not args.use_async and args.max_sessions is None


def test_classify_route():
    assert classify_route("POST", ["api", "sessions"]) == ("open", None)
    assert classify_route("POST", ["api", "sessions", "s1", "validate"]) == ("validate", "s1")
    assert classify_route("GET", ["api", "sessions", "s1"]) == ("read", "s1")
    assert classify_route("DELETE", ["api", "sessions", "s1"]) == ("read", "s1")
    assert classify_route("GET", ["api", "rules"]) == ("other", None)
    assert classify_route("GET", []) == ("other", None)


def test_default_session_ids_survive_deletes(uk_workload):
    """RoutingCore's auto ids must not collide after DELETE shrinks the
    sessions dict (len()-based ids would repeat forever)."""
    master, _ = uk_workload
    core = RoutingCore(CerFix(uk.paper_ruleset(), master))
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    open_body = {"values": values}
    assert core.handle("POST", "/api/sessions", open_body)[1]["tuple_id"] == "s0"
    assert core.handle("POST", "/api/sessions", open_body)[1]["tuple_id"] == "s1"
    assert core.handle("DELETE", "/api/sessions/s0", None)[0] == 200
    status, state = core.handle("POST", "/api/sessions", open_body)
    assert status == 201 and state["tuple_id"] == "s2"
    assert set(core.sessions) == {"s1", "s2"}


def test_completed_sessions_are_retained_boundedly(uk_workload):
    """Completed sessions stay readable up to completed_retention, then
    the oldest are evicted — memory stays bounded under sustained
    traffic, and the evicted fix survives in the audit log."""
    master, wl = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(port=0, completed_retention=4)
    try:
        rows = [r.to_dict() for r in wl.dirty.rows()][:12]
        truth = [r.to_dict() for r in wl.clean.rows()][:12]
        report = run_load(server.url, rows, truth, concurrency=2)
        assert report.dropped == 0
        sessions = server.service.core.sessions
        assert len(sessions) <= 4
        # the oldest finished sessions are gone from the read surface...
        status, _, _ = _request(f"{server.url}/api/sessions/t0", "GET")
        assert status == 404
        # ...but their provenance is still in the audit log
        status, events, _ = _request(f"{server.url}/api/audit/t0", "GET")
        assert status == 200 and events
        assert len(server.service._session_locks) <= 4
    finally:
        server.close()


def test_unknown_session_ids_leave_no_lock_behind(server):
    for i in range(5):
        status, _, _ = _request(f"{server.url}/api/sessions/ghost{i}", "GET")
        assert status == 404
    assert not any(k.startswith("ghost") for k in server.service._session_locks)


def test_http_bad_requests(server):
    import http.client

    conn = http.client.HTTPConnection(server.host, server.port)
    conn.request("POST", "/api/sessions", body=b"{not json", headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    assert resp.status == 400
    assert b"not valid JSON" in resp.read()
    # keep-alive survives the bad body: the same connection still works
    conn.request("GET", "/api/rules")
    resp = conn.getresponse()
    assert resp.status == 200
    conn.close()
    # a malformed Content-Length answers 400, not a dropped socket
    conn = http.client.HTTPConnection(server.host, server.port)
    conn.request("GET", "/api/rules", headers={"Content-Length": "abc"})
    resp = conn.getresponse()
    assert resp.status == 400
    assert b"Content-Length" in resp.read()
    conn.close()
    status, payload, _ = _request(f"{server.url}/api/nope")
    assert status == 404 and "no route" in payload["error"]
