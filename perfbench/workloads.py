"""The benchmark's three workloads: inputs, runs, checks and metrics.

All use the ``uk`` scenario at a 15% error rate under
``CertaintyMode.ANCHORED``. The generator, seeds and sizes live here;
the program under test only receives the generated rows, master CSVs
and instance directories.

A run sets the system up :data:`SETUP_REPS` times (``setup_s`` is the
median), then repeats the workload's unit of work until ``seconds``
have passed and reports medians. The traced run instead does one
untraced unit (the baseline for ``obs.trace_overhead``), then sets up
and runs one unit again with every layer wrapped (see
:mod:`perfbench.spans`).
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench import checks, procs
from perfbench.calib import Calibrated
from perfbench.spans import Tracer, coverage, layer_totals, subtree

#: Error rate of the generated dirty rows.
RATE = 0.15
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Input sizes per workload (master rows, dirty rows, ...).
SIZES: dict[str, dict[str, Any]] = {
    "batch-dup": {"master_rows": 40, "rows": 20_000, "precompute_k": 2},
    "db-clean": {"master_rows": 40, "rows": 20_000, "validated": ("zip",)},
    "entry": {"master_rows": 10, "rows": 2_000, "shards": 2, "connections": 2,
              "precompute_k": 2},
}
WORKLOADS = tuple(SIZES)

END_TO_END_UNITS = {
    "setup_s": "s",
    "tuples_per_s": "rows/s",
    "row_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "auto_share": "ratio",
}

PER_LAYER_UNITS = {
    "core.precompute_s": "s",
    "core.precompute_chases": "count",
    "core.chase_calls": "count",
    "core.chase_runs": "count",
    "core.rule_tests": "count",
    "core.rule_tests_per_chase": "ratio",
    "monitor.suggest_calls": "count",
    "monitor.suggest_s": "s",
    "batch.plan_s": "s",
    "batch.groups": "count",
    "batch.dedup_ratio": "ratio",
    "batch.resolve_s": "s",
    "batch.assemble_s": "s",
    "batch.probe_cache_hit_rate": "ratio",
    "batch.probe_cache_evictions": "count",
    "batch.suggestion_memo_hit_rate": "ratio",
    "batch.journal_write_s": "s",
    "audit.records": "count",
    "audit.record_s": "s",
    "master.probe_keys": "count",
    "master.probe_s": "s",
    "master.round_trips": "count",
    "master.keys_per_round_trip": "ratio",
    "master.rpc_s": "s",
    "master.retries": "count",
    "master.errors": "count",
    "master.setup_round_trips": "count",
    "master.server_requests": "count",
    "dirty.pages": "count",
    "dirty.page_read_s": "s",
    "dirty.cell_write_s": "s",
    "dirty.archive_write_s": "s",
    "dirty.archive_rows": "count",
    "dirty.digest_s": "s",
    "dirty.undo_s": "s",
    "dirty.undo_tuples_per_s": "rows/s",
    "dirty.db_bytes_per_archive_row": "B",
    "service.open_p50_ms": "ms",
    "service.validate_p50_ms": "ms",
    "service.session_p99_ms": "ms",
    "service.requests_per_session": "ratio",
    "service.probe_cache_hit_rate": "ratio",
    "service.memo_hit_rate": "ratio",
    "service.coalesced": "count",
    "service.batches": "count",
    "service.rejected_429": "count",
    "obs.trace_overhead": "ratio",
    "obs.span_coverage": "ratio",
}


@dataclass
class Checkout:
    """Where the run reads the program and writes its scratch files."""

    src: Path
    work: Path
    reaper: procs.Reaper


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON result.
    notes: list[str] = field(default_factory=list)


# -- inputs --------------------------------------------------------------------


def make_inputs(workload: str, seed: int):
    """(master relation, dirty relation, truth relation) for ``seed``."""
    from repro.scenarios import uk_customers as uk

    size = SIZES[workload]
    master = uk.generate_master(size["master_rows"], seed=seed)
    injected = uk.generate_workload(master, size["rows"], rate=RATE, seed=seed + 7919)
    return master, injected.dirty, injected.clean


def write_instance(directory: Path, master, **options) -> Path:
    """An instance directory (instance.json, master CSV, rules)."""
    from repro.config import InstanceConfig, save_instance
    from repro.core.certainty import CertaintyMode
    from repro.scenarios import uk_customers as uk

    config = InstanceConfig(
        "uk-customers", uk.INPUT_SCHEMA, uk.MASTER_SCHEMA,
        mode=CertaintyMode.ANCHORED, **options,
    )
    save_instance(directory, config, master, uk.paper_ruleset())
    return directory


# -- shared helpers --------------------------------------------------------------


def freeze_inputs() -> None:
    """Move everything alive now (the generated inputs, the expected
    outputs) out of the collector's sight, so the benchmark's own data
    does not slow the garbage collections of the program it measures."""
    gc.collect()
    gc.freeze()


def timed_repeat(seconds: float, once: Callable[[], Any]) -> list[Any]:
    """Call ``once`` until ``seconds`` have passed (at least once)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(once())
    return results


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of ``samples``."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def tail_quantile(samples: int, min_tail: int = 10) -> float:
    """The highest of p99.9/p99/p95/p90/p50 that has ``min_tail`` of
    ``samples`` beyond it."""
    # Rounded: 100 * (1 - 0.9) is 9.999999999999998 in floating point.
    return next(
        (q for q in (0.999, 0.99, 0.95, 0.9) if round(samples * (1 - q), 6) >= min_tail), 0.5
    )


def measured(fn: Callable[[], Any], calibrate: bool = True) -> tuple[float, float, Any]:
    """(raw wall seconds, speed factor, result) of ``fn()``. The factor
    comes from calibration loops around the call (see
    :mod:`perfbench.calib`); it is 1 when ``calibrate`` is false."""
    if not calibrate:
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, 1.0, result
    with Calibrated() as cal:
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
    return raw, cal.factor, result


def scaled_metrics(
    result: RunResult,
    setups: list[tuple[float, float]],
    units: list[tuple[float, float, list[float], int]],
    what: str,
) -> None:
    """The timing metrics of an untraced run, at reference speed.

    ``setups`` holds (raw seconds, factor) per set-up. ``units`` holds
    (raw seconds, factor, per-row latencies in raw seconds, rows) per
    unit of work: a clean call, whose rows all wait for the whole call,
    or an entry pass, one latency per session. Throughput is the median
    over units of rows per scaled second. A latency percentile is taken
    over each unit's rows and the median over units is reported; the
    tail percentile is printed but is not a metric (see NOTES.md).
    """
    m = result.metrics
    m["setup_s"] = statistics.median(raw * f for raw, f in setups)
    m["tuples_per_s"] = statistics.median(rows / (raw * f) for raw, f, _, rows in units)
    samples = min(len(lat) for _, _, lat, _ in units)
    q = tail_quantile(samples)
    m["row_p50_ms"], tail = (
        statistics.median(1000 * f * percentile(lat, quantile) for _, f, lat, _ in units)
        for quantile in (0.5, q)
    )
    factors = [f for _, f in setups] + [f for _, f, _, _ in units]
    result.notes.append(
        f"{what}: {len(units)} units of at least {samples} rows each; p{100 * q:g} "
        f"(the highest percentile with 10 samples beyond it) {tail:.3f} ms; raw median unit "
        f"{statistics.median(raw for raw, _, _, _ in units):.3f} s, raw median "
        f"set-up {statistics.median(raw for raw, _ in setups):.3f} s; speed factors "
        f"{min(factors):.3f}-{max(factors):.3f} (timings above are scaled by them)"
    )


def self_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def registry_counters() -> dict[str, float]:
    from repro.obs.metrics import get_registry

    return dict(get_registry().dump()["counters"])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_seconds(totals: dict, name: str, key: str = "seconds") -> float:
    return totals.get(name, {}).get(key, 0.0)


def layer_calls(totals: dict, name: str) -> int:
    return int(totals.get(name, {}).get("calls", 0))


def remote_totals(per_shard: list[dict]) -> dict[str, float]:
    """Sum a remote store's per-shard stats; ``rpc_s`` = trips × mean."""
    out = {"probes": 0, "round_trips": 0, "retries": 0, "errors": 0, "rpc_s": 0.0}
    for shard in per_shard:
        for key in ("probes", "round_trips", "retries", "errors"):
            out[key] += shard[key]
        out["rpc_s"] += shard["round_trips"] * shard["latency_mean_ms"] / 1000
    return out


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def instrument_in_process(tracer: Tracer, store_type: type) -> None:
    """Wrap every in-process layer boundary the per-layer metrics use."""
    from repro.audit.log import AuditLog
    from repro.batch.executor import ShardExecutor
    from repro.engine import CerFix

    # Packages re-export some functions under their module's name
    # (``repro.core.chase``), so the modules are looked up directly.
    chase_mod, suggest, pipeline, journal, archive, cleaner, table = (
        importlib.import_module(f"repro.{name}")
        for name in ("core.chase", "monitor.suggest", "batch.pipeline", "batch.journal",
                     "dirty.archive", "dirty.cleaner", "dirty.table")
    )
    counts = tracer.counts

    def on_plan(plan) -> None:
        counts["batch.plan_rows"] += plan.total_tuples
        counts["batch.groups"] += plan.n_groups

    # A memoised chase that misses runs ``chase`` inside: the group
    # counts each requested chase once, ``core.chase_run`` the bodies run.
    tracer.instrument(chase_mod, "chase", "core.chase_run", kind="count")
    for fn in ("chase", "chase_memoized"):
        tracer.instrument(chase_mod, fn, "core.chase", kind="count", group="core.chase")
    tracer.instrument(chase_mod, "applicable", "core.applicable", kind="count")
    tracer.instrument(CerFix, "precompute_regions", "core.precompute")
    tracer.instrument(suggest, "compute_suggestion", "monitor.suggest")
    tracer.instrument(pipeline.BatchCleaner, "clean", "batch.clean")
    tracer.instrument(pipeline, "build_plan", "batch.plan", observe=on_plan)
    tracer.instrument(ShardExecutor, "run", "batch.resolve")
    tracer.instrument(journal.CheckpointJournal, "record", "batch.journal_write")
    tracer.instrument(AuditLog, "record", "audit.record")
    tracer.instrument(store_type, "probe", "master.probe", group="master.probe")
    tracer.instrument(
        store_type, "probe_many", "master.probe", group="master.probe",
        weight=lambda self, requests, **kw: len(requests),
    )
    tracer.instrument(table.DirtyTable, "pages", "dirty.page_read", kind="iter")
    tracer.instrument(table.DirtyTable, "apply_cell_writes", "dirty.cell_write")
    tracer.instrument(table.DirtyTable, "digest", "dirty.digest")
    tracer.instrument(archive.ChangeArchive, "record_page", "dirty.archive_write")
    tracer.instrument(cleaner, "undo_run", "dirty.undo")


def in_process_layers(tracer: Tracer, measure_id: int, setup_id: int | None) -> dict[str, float]:
    """Per-layer metrics from the spans under the measured unit (and
    the precompute under the traced set-up)."""
    checking = {
        s[0] for c in tracer.spans if c[2] == "bench.check" for s in subtree(tracer.spans, c[0])
    }
    spans = [s for s in subtree(tracer.spans, measure_id) if s[0] not in checking]
    totals = layer_totals(spans)
    names = {s[0]: s[2] for s in tracer.spans}
    # Pages the cleaner read, not the ones ``digest`` scans.
    pages = [s for s in spans if s[2] == "dirty.page_read" and names.get(s[1]) != "dirty.digest"]
    out = {
        "monitor.suggest_calls": layer_calls(totals, "monitor.suggest"),
        "monitor.suggest_s": layer_seconds(totals, "monitor.suggest"),
        "batch.plan_s": layer_seconds(totals, "batch.plan"),
        "batch.resolve_s": layer_seconds(totals, "batch.resolve"),
        "batch.assemble_s": layer_seconds(totals, "batch.clean", "self_seconds"),
        "batch.journal_write_s": layer_seconds(totals, "batch.journal_write"),
        "audit.records": layer_calls(totals, "audit.record"),
        "audit.record_s": layer_seconds(totals, "audit.record"),
        "master.probe_s": layer_seconds(totals, "master.probe"),
        "dirty.pages": sum(1 for s in pages),
        "dirty.page_read_s": sum(s[4] - s[3] for s in pages),
        "dirty.cell_write_s": sum(
            s[4] - s[3] for s in spans
            if s[2] == "dirty.cell_write" and names.get(s[1]) != "dirty.undo"
        ),
        "dirty.archive_write_s": layer_seconds(totals, "dirty.archive_write"),
        "dirty.digest_s": layer_seconds(totals, "dirty.digest"),
        "dirty.undo_s": layer_seconds(totals, "dirty.undo"),
        "obs.span_coverage": coverage(tracer.spans, measure_id),
    }
    if setup_id is not None:
        setup_totals = layer_totals(subtree(tracer.spans, setup_id))
        out["core.precompute_s"] = layer_seconds(setup_totals, "core.precompute")
    return out


def finish_layers(result: RunResult, counts_setup: dict, counts_measure: dict) -> None:
    """Fold call counts into the per-layer metrics."""
    m = result.metrics
    m["core.precompute_chases"] = counts_setup.get("core.chase", 0)
    m["core.chase_calls"] = counts_measure.get("core.chase", 0)
    m["core.chase_runs"] = counts_measure.get("core.chase_run", 0)
    m["core.rule_tests"] = counts_measure.get("core.applicable", 0)
    m["core.rule_tests_per_chase"] = ratio(m["core.rule_tests"], m["core.chase_runs"])
    m["master.probe_keys"] = counts_measure.get("master.probe", 0)
    if counts_measure.get("batch.plan_rows"):
        m["batch.groups"] = counts_measure["batch.groups"]
        m["batch.dedup_ratio"] = ratio(counts_measure["batch.plan_rows"], m["batch.groups"])


def count_delta(tracer: Tracer, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in tracer.counts.items()}


# -- batch-dup --------------------------------------------------------------------


def _batch_checks(result: RunResult, runs: list[tuple[float, float, Any]], truth) -> None:
    """Every call's repaired rows must equal the truth rows."""
    want = truth.raw_tuples()
    for _, _, cleaned in runs:
        result.attempted += len(want)
        result.failed += cleaned.report.incomplete + cleaned.report.conflicts
        result.problems += checks.row_mismatches(cleaned.relation.raw_tuples(), want)[:5]


def _batch_metrics(result: RunResult, setups, runs, rows: int) -> None:
    scaled_metrics(
        result,
        [(raw, f) for raw, f, _ in setups],
        [(raw, f, [raw] * rows, rows) for raw, f, _ in runs],
        "clean calls (every row waits for its call)",
    )
    result.metrics["auto_share"] = runs[-1][2].report.auto_share
    result.metrics["peak_rss_mb"] = self_rss_mb()


def _batch_layers(result: RunResult, report) -> None:
    m = result.metrics
    m["batch.groups"] = report.groups
    m["batch.dedup_ratio"] = report.dedup_ratio
    hits, misses = report.cache.hits, report.cache.misses
    m["batch.probe_cache_hit_rate"] = ratio(hits, hits + misses)
    m["batch.probe_cache_evictions"] = report.cache.evictions


def _memo_hit_rate(before: dict, after: dict) -> float:
    hits, misses = (
        after.get(f"cerfix.suggestion_memo.{k}", 0) - before.get(f"cerfix.suggestion_memo.{k}", 0)
        for k in ("hits", "misses")
    )
    return ratio(hits, hits + misses)


def run_batch_dup(co: Checkout, seed: int, seconds: float, trace: bool) -> RunResult:
    from repro import CerFix
    from repro.audit.log import AuditLog
    from repro.core.certainty import CertaintyMode
    from repro.scenarios import uk_customers as uk

    size = SIZES["batch-dup"]
    master, dirty, truth = make_inputs("batch-dup", seed)
    result = RunResult()
    freeze_inputs()

    def setup():
        engine = CerFix(uk.paper_ruleset(), master, mode=CertaintyMode.ANCHORED)
        engine.precompute_regions(k=size["precompute_k"])
        return engine

    def clean(engine):
        engine.audit = AuditLog()  # a fresh log per call, as a new run would have
        return engine.clean_relation(dirty, truth, workers=1)

    if not trace:
        setups = [measured(setup) for _ in range(SETUP_REPS)]
        engine = setups[-1][2]
        runs = timed_repeat(seconds, lambda: measured(lambda: clean(engine)))
        _batch_checks(result, runs, truth)
        _batch_metrics(result, setups, runs, len(dirty))
        return result

    engine = setup()
    baseline = measured(lambda: clean(engine), calibrate=False)
    tracer = Tracer()
    instrument_in_process(tracer, type(engine.master.store))
    try:
        with tracer.span("setup") as setup_id:
            engine = setup()
        counts_setup = dict(tracer.counts)
        registry_before = registry_counters()
        with tracer.span("measure") as measure_id:
            traced = measured(lambda: clean(engine), calibrate=False)
        counts_measure = count_delta(tracer, counts_setup)
        registry_after = registry_counters()
    finally:
        tracer.restore()
    _batch_checks(result, [baseline, traced], truth)
    result.metrics = in_process_layers(tracer, measure_id, setup_id)
    finish_layers(result, counts_setup, counts_measure)
    _batch_layers(result, traced[2].report)
    result.metrics["batch.suggestion_memo_hit_rate"] = _memo_hit_rate(
        registry_before, registry_after
    )
    result.metrics["obs.trace_overhead"] = traced[0] / baseline[0] - 1
    tracer.write(co.work / f"trace-batch-dup-{seed}.jsonl")
    return result


# -- db-clean ---------------------------------------------------------------------


def run_db_clean(co: Checkout, seed: int, seconds: float, trace: bool) -> RunResult:
    from repro import CerFix
    from repro.core.certainty import CertaintyMode
    from repro.dirty import ChangeArchive, DirtyTable
    from repro.scenarios import uk_customers as uk

    size = SIZES["db-clean"]
    validated = size["validated"]
    master, dirty, _ = make_inputs("db-clean", seed)
    result = RunResult()
    rows = len(dirty)

    # The reference: the in-memory batch path on the same rows, untimed.
    reference_engine = CerFix(uk.paper_ruleset(), master, mode=CertaintyMode.ANCHORED)
    reference = reference_engine.clean_relation(dirty, validated=validated)
    expected_rows = reference.relation.raw_tuples()
    expected_changed = reference.report.changed_cells
    db = co.work / "dirty.db"
    #: Digest of the freshly written table (the same rows every cycle).
    fresh_digest: list[str] = []
    freeze_inputs()

    def setup():
        """A freshly written table and a new engine: what a cycle needs
        before its clean can start."""
        for leftover in co.work.glob("dirty.db*"):
            if leftover.is_dir():
                shutil.rmtree(leftover)
            else:
                leftover.unlink()
        start = time.perf_counter()
        DirtyTable.create(db, dirty)
        engine = CerFix(uk.paper_ruleset(), master, mode=CertaintyMode.ANCHORED)
        return engine, time.perf_counter() - start

    def cycle(span=None):
        """Set up, clean and undo once. Returns the raw (setup, clean,
        undo) seconds, file bytes per archive row, archive rows and the
        auto share, and records any correctness problem. With ``span``
        (traced), the set-up and the checks run under ``bench.check``
        spans, which the per-layer totals leave out."""
        span = span or (lambda name: contextlib.nullcontext())
        with span("bench.check"):
            engine, setup_s = setup()
        table = DirtyTable(db)
        if not fresh_digest:
            with span("bench.check"):
                fresh_digest.append(_read(table, table.digest))
        size_before = os.path.getsize(db)
        with span("db.clean"):
            start = time.perf_counter()
            cleaned = engine.clean_table(db, validated=validated)
            clean_s = time.perf_counter() - start
        with span("bench.check"):
            table_rows = _read(table, lambda conn: table.read_relation(conn).raw_tuples())
            changes = _read(table, lambda conn: ChangeArchive(table).changes(conn, cleaned.run_id))
        grown = os.path.getsize(db) - size_before
        with span("db.undo"):
            start = time.perf_counter()
            engine.undo(db, cleaned.run_id)
            undo_s = time.perf_counter() - start
        with span("bench.check"):
            undone_digest = _read(table, table.digest)
        result.attempted += rows
        result.problems += checks.db_clean_problems(
            table_rows=table_rows,
            expected_rows=expected_rows,
            archive_rows=len(changes),
            changed_cells=cleaned.changed_cells,
            expected_changed=expected_changed,
            pre_digest=fresh_digest[0],
            undone_digest=undone_digest,
        )[:5]
        auto = ratio(sum(1 for c in changes if c.source != "user"), len(changes))
        return setup_s, clean_s, undo_s, ratio(grown, len(changes)), len(changes), auto

    if not trace:
        # Every cycle sets up afresh, so every cycle is a set-up sample;
        # the measured time is the clean and undo calls.
        cycles: list[tuple] = []
        while len(cycles) < SETUP_REPS or sum(c[2] + c[3] for c in cycles) < seconds:
            with Calibrated() as cal:
                timings = cycle()
            cycles.append((cal.factor, *timings))
        scaled_metrics(
            result,
            [(c[1], c[0]) for c in cycles],
            [(c[2], c[0], [c[2]] * rows, rows) for c in cycles],
            "clean calls (every row waits for its call)",
        )
        result.metrics["auto_share"] = cycles[-1][6]
        result.metrics["peak_rss_mb"] = self_rss_mb()
        result.notes.append(
            "undo: {:.0f} rows/s at reference speed (median of {} calls); sqlite flush "
            "policy: rollback journal, synchronous=FULL (defaults)".format(
                statistics.median(rows / (c[3] * c[0]) for c in cycles), len(cycles)
            )
        )
        return result

    baseline = cycle()
    tracer = Tracer()
    instrument_in_process(tracer, type(reference_engine.master.store))
    try:
        with tracer.span("measure") as measure_id:
            traced = cycle(tracer.span)
        counts_measure = dict(tracer.counts)
    finally:
        tracer.restore()
    result.metrics = in_process_layers(tracer, measure_id, None)
    finish_layers(result, {}, counts_measure)
    m = result.metrics
    m["dirty.archive_rows"] = traced[4]
    m["dirty.db_bytes_per_archive_row"] = traced[3]
    m["dirty.undo_tuples_per_s"] = ratio(rows, traced[2])
    m["obs.trace_overhead"] = (traced[1] + traced[2]) / (baseline[1] + baseline[2]) - 1
    tracer.write(co.work / f"trace-db-clean-{seed}.jsonl")
    return result


def _read(table, fn):
    """``fn(conn)`` over a read-only connection to ``table``'s database."""
    conn = table.backend.connect(readonly=True)
    try:
        return fn(conn)
    finally:
        conn.close()


# -- entry ------------------------------------------------------------------------


def run_entry(co: Checkout, seed: int, seconds: float, trace: bool) -> RunResult:
    from repro.master.shardserver import ShardCluster

    size = SIZES["entry"]
    master, dirty, truth = make_inputs("entry", seed)
    rows = [r.to_dict() for r in dirty.rows()]
    truth_rows = [{k: str(v) for k, v in r.to_dict().items()} for r in truth.rows()]
    shard_dir = write_instance(co.work / "shards", master)
    cluster = co.reaper.adopt(ShardCluster.spawn(shard_dir, size["shards"]))
    service_dir = write_instance(
        co.work / "service", master,
        precompute_regions=size["precompute_k"],
        store={"backend": "remote", "urls": list(cluster.urls)},
    )
    result = RunResult()
    freeze_inputs()

    reps = SETUP_REPS if not trace else 1
    setups = []
    for rep in range(reps):
        server_before = procs.shard_counters(cluster.urls)
        with Calibrated() as cal:
            process, url, took = procs.spawn_service(co.reaper, co.src, service_dir)
        setups.append((took, cal.factor))
        if rep < reps - 1:
            co.reaper.release(process)
    setup_server = delta(procs.shard_counters(cluster.urls), server_before)
    at_ready = procs.get_json(url + "/api/metrics")
    setup_trips = remote_totals(at_ready["registry"]["sources"]["remote_store"]["per_shard"])
    load = _SessionLoad(url, rows, truth_rows, size["connections"])

    if not trace:
        # One untimed pass fills the service's probe cache and suggestion
        # memo first: a long-running service pays that once, not per
        # session. Its memory grows with the sessions it has served, so
        # its RSS is read after a fixed amount of work (two timed passes).
        warm = load.run_pass()
        passes = [measured(load.run_pass) for _ in range(2)]
        rss = procs.get_json(url + "/api/metrics")["registry"]["gauges"]["cerfix.proc.rss_bytes"]
        start = time.perf_counter()
        while time.perf_counter() - start < seconds - sum(p[0] for p in passes):
            passes.append(measured(load.run_pass))
        after = procs.get_json(url + "/api/metrics")
        _entry_checks(result, load, [warm] + [p[2] for p in passes], at_ready, after)
        scaled_metrics(
            result,
            setups,
            [(raw, f, [o.latency_seconds for o in report.outcomes], report.completed)
             for raw, f, report in passes],
            "session passes (one latency per session)",
        )
        validated = sum(load.validated_cells.values())
        result.metrics["auto_share"] = 1 - ratio(load.user_cells, validated)
        result.metrics["peak_rss_mb"] = rss / 2**20
        return result

    # Service-side deltas cover every pass since the service came up
    # (the cold first pass too, as in an untraced run); client spans and
    # the overhead compare the traced pass with the warm untraced one.
    server_before = procs.shard_counters(cluster.urls)
    cold = load.run_pass()
    baseline = load.run_pass()
    tracer = Tracer()
    load.tracer = tracer
    with tracer.span("measure") as measure_id:
        traced = load.run_pass()
    after = procs.get_json(url + "/api/metrics")
    server = delta(procs.shard_counters(cluster.urls), server_before)
    _entry_checks(result, load, [cold, baseline, traced], at_ready, after)
    result.metrics = _entry_layers(at_ready, after, tracer, measure_id, traced)
    result.metrics["service.session_p99_ms"] = 1000 * percentile(
        [o.latency_seconds for o in baseline.outcomes], 0.99
    )
    result.metrics["master.setup_round_trips"] = setup_trips["round_trips"]
    result.metrics["master.server_requests"] = server.get("cerfix.shard.requests", 0)
    result.metrics["obs.trace_overhead"] = traced.elapsed_seconds / baseline.elapsed_seconds - 1
    result.notes.append(
        f"setup: {setup_trips['round_trips']:.0f} round trips from the service, "
        f"{setup_server.get('cerfix.shard.requests', 0):.0f} requests at the shard servers"
    )
    tracer.write(co.work / f"trace-entry-{seed}.jsonl")
    return result


class _SessionLoad:
    """Closed-loop oracle sessions over ``drive_load``, one pass per call.

    Each pass opens one session per row under fresh tuple ids. The
    client connection is subclassed to count the cells the oracle
    asserts (for ``auto_share``) and, when traced, to time each request
    as a span named after its route.
    """

    def __init__(self, url: str, rows, truth_rows, connections: int):
        self.url = url
        self.rows = rows
        self.truth_rows = truth_rows
        self.connections = connections
        self.tracer: Tracer | None = None
        self.passes = 0
        self.user_cells = 0
        self.validated_cells: dict[str, int] = {}

    def run_pass(self):
        from repro.service import loadgen

        load = self
        prefix = f"p{self.passes}-"
        self.passes += 1

        class Connection(loadgen._Connection):
            async def request(self, method, path, body=None):
                if body and "assignments" in body:
                    load.user_cells += len(body["assignments"])
                tracer = load.tracer
                if tracer is None:
                    status, payload, headers = await super().request(method, path, body)
                else:
                    route = "service.validate" if path.endswith("/validate") else "service.open"
                    with tracer.span(route):
                        status, payload, headers = await super().request(method, path, body)
                if isinstance(payload, dict) and "validated" in payload:
                    load.validated_cells[payload["tuple_id"]] = len(payload["validated"])
                return status, payload, headers

        tuple_ids = [f"{prefix}{i}" for i in range(len(self.rows))]
        original = loadgen._Connection
        loadgen._Connection = Connection
        try:
            report = loadgen.run_load(
                self.url, self.rows, self.truth_rows,
                concurrency=self.connections, tuple_ids=tuple_ids,
            )
        finally:
            loadgen._Connection = original
        report.truth = dict(zip(tuple_ids, self.truth_rows))
        return report


def _entry_checks(result: RunResult, load: _SessionLoad, reports, before, after) -> None:
    """Correctness and failures over every pass, plus the service's 5xx."""
    status_5xx = sum(
        count - before["requests"]["by_status"].get(code, 0)
        for code, count in after["requests"]["by_status"].items()
        if code.startswith("5")
    )
    for report in reports:
        result.attempted += len(load.rows)
        failed, problems = checks.session_failures(report.outcomes, report.errors, report.truth)
        result.failed += failed
        result.problems += problems[:5]
    result.failed += status_5xx
    result.notes.append(
        f"service dispatch={after['dispatch']}; {len(reports)} passes of {len(load.rows)} "
        f"sessions over {load.connections} connections"
    )


def _entry_layers(before, after, tracer: Tracer, measure_id: int, report) -> dict:
    spans = subtree(tracer.spans, measure_id)
    opens = [1000 * (s[4] - s[3]) for s in spans if s[2] == "service.open"]
    validates = [1000 * (s[4] - s[3]) for s in spans if s[2] == "service.validate"]

    def moved(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    cache_hits, cache_misses = moved("probe_cache", "hits"), moved("probe_cache", "misses")
    memo_hits, memo_misses = moved("suggestion_memo", "hits"), moved("suggestion_memo", "misses")
    chases = [
        side["registry"]["histograms"].get("cerfix.chase.seconds", {}).get("count", 0)
        for side in (before, after)
    ]
    out = {
        "core.chase_calls": chases[1] - chases[0],
        "service.open_p50_ms": percentile(opens, 0.5) if opens else 0.0,
        "service.validate_p50_ms": percentile(validates, 0.5) if validates else 0.0,
        "service.requests_per_session": ratio(report.requests, report.sessions),
        "service.probe_cache_hit_rate": ratio(cache_hits, cache_hits + cache_misses),
        "service.memo_hit_rate": ratio(memo_hits, memo_hits + memo_misses),
        "service.coalesced": moved("probes", "coalesced"),
        "service.batches": moved("probes", "batches"),
        "service.rejected_429": moved("requests", "rejected_429"),
        "obs.span_coverage": coverage(tracer.spans, measure_id),
    }
    _master_layers(out, delta(
        remote_totals(after["registry"]["sources"]["remote_store"]["per_shard"]),
        remote_totals(before["registry"]["sources"]["remote_store"]["per_shard"]),
    ))
    return out


def _master_layers(m: dict, trips: dict) -> None:
    m["master.round_trips"] = trips["round_trips"]
    m["master.keys_per_round_trip"] = ratio(trips["probes"], trips["round_trips"])
    m["master.rpc_s"] = trips["rpc_s"]
    m["master.retries"] = trips["retries"]
    m["master.errors"] = trips["errors"]


RUNNERS: dict[str, Callable[[Checkout, int, float, bool], RunResult]] = {
    "batch-dup": run_batch_dup,
    "db-clean": run_db_clean,
    "entry": run_entry,
}


def complete_metrics(result: RunResult, trace: bool) -> dict[str, dict[str, Any]]:
    """The metrics block of the result line: every end-to-end metric
    (untraced) or every per-layer metric (traced, 0 where the workload
    does not reach that layer), each with its unit."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = [name for name in units if name not in result.metrics and not trace]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
