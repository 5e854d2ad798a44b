"""The store-conformance kit: prove master-store backends byte-equivalent.

Every :mod:`repro.master.store` backend must produce bit-identical
fixes, certain regions and audit events through every cleaning path —
the interactive monitor/stream path, the batch pipeline (serial,
threaded, multi-process), randomly interleaved monitor sessions, and
the async entry service. This module is that contract as *reusable
machinery*: a new backend (the remote shard cluster was the first
customer) registers a factory and runs the same suite the built-in
backends pass, instead of growing its own ad-hoc parity tests.

The pieces:

* :func:`generate_case` builds randomized workloads — master relation,
  rule set (randomly thinned), dirty tuples and ground truth — through
  :mod:`repro.datagen`'s error injector (via the scenario generators),
  so every seed is a different mix of typos, case mangling, blanks and
  digit noise;
* :func:`store_factories` instantiates every backend over identical
  master content (fresh relation copies, so no probe structure is
  accidentally shared); pass ``remote_urls`` to register the ``remote``
  backend against a running shard cluster;
* :func:`write_case_instance` / :func:`case_cluster` turn a case into
  an instance directory and a running shard-server cluster (in-process
  threads, or real subprocesses — what the CI ``remote-store`` leg
  boots);
* :func:`run_monitor_path` / :func:`run_batch_path` /
  :func:`run_interleaved_monitor_path` / :func:`run_service_path` drive
  one backend through one cleaning path and capture a
  :class:`PathOutcome` — the repaired rows, the *full* serialized audit
  trail, the rendered certain regions, and the scheduling-independent
  report scalars;
* :func:`assert_parity` compares outcomes field by field with readable
  failure diffs;
* :func:`run_conformance` is the whole kit in one call: every
  registered backend through every requested path, asserted against
  the reference backend.

Timing and cache-locality numbers are deliberately excluded from the
comparison (:func:`normalize_report`): scheduling may move cache hits
between shards, but it must never move a value in a repaired cell.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro import CerFix, CertaintyMode
from repro.cache import LRUCache
from repro.core.ruleset import RuleSet
from repro.master.store import (
    MasterStore,
    ShardedMasterStore,
    SingleRelationStore,
    SqliteMasterStore,
)
from repro.monitor.user import CautiousUser, OracleUser, SelectiveUser
from repro.relational.relation import Relation
from repro.scenarios import hospital, uk_customers as uk


@dataclass(frozen=True)
class DifferentialCase:
    """One randomized workload every backend is driven through."""

    name: str
    ruleset: RuleSet
    master: Relation
    dirty: Relation
    truth: Relation | None
    validated: tuple[str, ...] = ()


def generate_case(
    seed: int,
    *,
    scenario: str = "uk",
    master_size: int = 20,
    n: int = 40,
    rate: float = 0.25,
    with_truth: bool = True,
    max_dropped_rules: int = 2,
) -> DifferentialCase:
    """A randomized differential case.

    ``seed`` drives everything: the master population, the injected
    errors (datagen's noise operators) and which rules are randomly
    dropped from the scenario rule set — so two backends disagreeing on
    a seed is a reproducible counterexample.
    """
    rng = random.Random(seed)
    mod = uk if scenario == "uk" else hospital
    master = mod.generate_master(master_size, seed=seed)
    wl = mod.generate_workload(master, n, rate=rate, seed=seed + 1)
    if scenario == "uk":
        ruleset = uk.paper_ruleset(extended=rng.random() < 0.5)
    else:
        ruleset = hospital.hospital_ruleset()
    drop = rng.sample(
        [r.rule_id for r in ruleset], k=rng.randint(0, max_dropped_rules)
    )
    if drop and len(drop) < len(ruleset):
        ruleset = ruleset.remove(*drop)
    validated: tuple[str, ...] = ()
    if not with_truth:
        # rule-only repair: trust the attributes most rules read
        candidates = sorted({a for r in ruleset for a in r.lhs_attrs})
        if candidates:
            validated = (rng.choice(candidates),)
    return DifferentialCase(
        name=f"{scenario}-s{seed}{'' if with_truth else '-ruleonly'}",
        ruleset=ruleset,
        master=master,
        dirty=wl.dirty,
        truth=wl.clean if with_truth else None,
        validated=validated,
    )


def store_factories(
    case: DifferentialCase,
    tmp_path: Path,
    *,
    shards: int = 3,
    remote_urls: Sequence[Any] | None = None,
) -> dict[str, Callable[[], MasterStore]]:
    """One factory per backend, each over a fresh copy of the master.

    Fresh :class:`Relation` copies guarantee no index or partition is
    shared between backends — each backend builds its own probe
    structures from the same content. ``remote_urls`` (a running shard
    cluster over the *same* master content — see :func:`case_cluster`)
    additionally registers the ``remote`` backend; its factory verifies
    the cluster's content digest against the case's master, so a kit
    run can never silently compare against the wrong remote data.
    """

    def copy() -> Relation:
        return Relation(case.master.schema, case.master.tuples())

    factories: dict[str, Callable[[], MasterStore]] = {
        "single": lambda: SingleRelationStore(copy()),
        "sharded": lambda: ShardedMasterStore(copy(), shards=shards),
        "sqlite": lambda: SqliteMasterStore(tmp_path / f"{case.name}.db", copy()),
    }
    if remote_urls is not None:
        from repro.master.store import make_store

        urls = list(remote_urls)
        factories["remote"] = lambda: make_store(copy(), "remote", urls=urls)
    return factories


def write_case_instance(case: DifferentialCase, directory: Path) -> Path:
    """Materialise a case as an instance directory shard servers can load.

    Returns the ``instance.json`` path. The round trip (CSV master +
    rendered rules) is lossless for scenario-generated cases — the
    parity assertions would catch any drift.
    """
    from repro.config import InstanceConfig, save_instance

    config = InstanceConfig(
        case.name,
        case.ruleset.input_schema,
        case.ruleset.master_schema,
        mode=CertaintyMode.ANCHORED,
    )
    return save_instance(directory, config, case.master, case.ruleset)


@contextlib.contextmanager
def case_cluster(
    case: DifferentialCase,
    tmp_path: Path,
    *,
    shards: int = 3,
    replicas: int = 1,
    processes: bool = False,
) -> Iterator[Any]:
    """A running shard cluster serving ``case``'s master content.

    ``processes=False`` boots in-process thread servers (fast — the
    default for unit tests); ``processes=True`` writes the case to an
    instance directory and spawns real ``cerfix shard-server``
    subprocesses (what the CI ``remote-store`` leg runs).
    ``replicas > 1`` boots that many members per shard — the cluster's
    ``urls`` become one replica list per shard, ready to hand to
    :class:`~repro.master.remote.RemoteMasterStore`. Either way the
    cluster is torn down on exit, so no server outlives the test that
    booted it.
    """
    from repro.master.shardserver import ShardCluster

    if processes:
        instance_dir = Path(tmp_path) / f"{case.name}-instance"
        write_case_instance(case, instance_dir)
        cluster = ShardCluster.spawn(instance_dir, shards, replicas=replicas)
    else:
        cluster = ShardCluster.in_process(
            case.ruleset, case.master, shards, replicas=replicas, name=case.name
        )
    try:
        yield cluster
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# Failure injection: disrupt a cluster while a clean runs against it
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def disruption(action: Callable[[], Any], delay: float = 0.05) -> Iterator[threading.Thread]:
    """Fire ``action`` on a background thread ``delay`` seconds after
    entry — a replica kill or a rolling restart landing *mid-run*.

    The thread is joined on exit; if ``action`` itself raised (the
    disruption failed to disrupt), that error propagates — a chaos case
    that silently skipped its chaos would assert nothing.
    """
    failure: list[BaseException] = []

    def fire() -> None:
        time.sleep(delay)
        try:
            action()
        except BaseException as exc:  # surfaced after join, never swallowed
            failure.append(exc)

    thread = threading.Thread(target=fire, daemon=True, name="cerfix-disruption")
    thread.start()
    try:
        yield thread
    finally:
        thread.join(timeout=60)
    if failure:
        raise failure[0]


def run_failover_conformance(
    case: DifferentialCase,
    cluster: Any,
    *,
    disrupt: Callable[[Any], Any],
    batch_workers: int = 2,
    delay: float = 0.05,
    timeout: float = 10.0,
    retries: int = 3,
    backoff: float = 0.02,
    circuit_reset: float = 0.2,
) -> PathOutcome:
    """Batch-clean through a remote store while ``disrupt(cluster)``
    fires mid-run, and assert the disrupted outcome bit-identical to
    the ``single`` backend's undisrupted run.

    This is the certainty guarantee under failover as an executable
    assertion: a replica dying (or a whole rolling restart) may change
    *routes* — retries, failovers, circuit opens all show up in the
    store's stats — but never a repaired cell, an audit event or a
    report scalar. The handshake runs before the disruption is armed,
    so the clean starts against a verified healthy cluster and the
    failure lands mid-probing, which is the scenario that matters.
    """
    from repro.master.remote import RemoteMasterStore

    reference = run_batch_path(
        case,
        SingleRelationStore(Relation(case.master.schema, case.master.tuples())),
        workers=batch_workers,
        backend="thread",
    )
    store = RemoteMasterStore(
        cluster.urls,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        circuit_reset=circuit_reset,
    )
    try:
        with disruption(lambda: disrupt(cluster), delay):
            disrupted = run_batch_path(
                case, store, workers=batch_workers, backend="thread"
            )
    finally:
        store.close()
    assert_parity({"single": reference, "remote-disrupted": disrupted})
    return disrupted


@dataclass
class PathOutcome:
    """Everything parity is asserted over, for one (backend, path) run."""

    fixed_rows: list[tuple]
    audit_events: list[dict]
    regions: list[tuple[str, float]]
    report: dict[str, Any]


#: Report keys that scheduling/backends/resume may legitimately change:
#: wall-clock, throughput, cache locality, executor backend label, and
#: how many shards came back from a journal rather than being executed.
_UNSTABLE_REPORT_KEYS = frozenset(
    {
        "elapsed_seconds",
        "throughput",
        "cache",
        "shards",
        "workers",
        "backend",
        "notes",
        "resumed_shards",
    }
)


def normalize_report(report_json: Mapping[str, Any]) -> dict[str, Any]:
    """The scheduling-independent slice of a report's JSON form.

    Work accounting (cells fixed by user vs rule, completions,
    conflicts, dedup) must be identical across backends; timings and
    cache-locality counters need not be.
    """
    out = {k: v for k, v in report_json.items() if k not in _UNSTABLE_REPORT_KEYS}
    shards = report_json.get("shards")
    if shards is not None:
        out["shard_workload"] = [
            {"shard_id": s["shard_id"], "groups": s["groups"], "tuples": s["tuples"]}
            for s in shards
        ]
    return out


def _audit_fixed_rows(engine: CerFix, dirty: Relation) -> list[tuple]:
    """Replay the audit trail onto the dirty rows (the stream path has
    no assembled output relation; this mirrors ``cerfix fix --out``)."""
    names = dirty.schema.names
    rows = []
    for i, row in enumerate(dirty.rows()):
        values = row.to_dict()
        for e in engine.audit.by_tuple(f"t{i}"):
            values[e.attr] = e.new
        rows.append(tuple(values[n] for n in names))
    return rows


def run_monitor_path(
    case: DifferentialCase,
    store: MasterStore,
    *,
    regions_k: int = 2,
    max_combos: int = 50_000,
) -> PathOutcome:
    """Drive the interactive path: region precompute, then one
    oracle-driven monitor session per tuple (the stream processor).

    ANCHORED certainty keeps region enumeration bounded on generated
    masters (STRICT's full domain product can blow the combo budget).
    """
    engine = CerFix(
        case.ruleset, store, mode=CertaintyMode.ANCHORED, max_combos=max_combos
    )
    ranked = engine.precompute_regions(k=regions_k)
    report = engine.stream(case.dirty, case.truth)
    return PathOutcome(
        fixed_rows=_audit_fixed_rows(engine, case.dirty),
        audit_events=[e.to_json() for e in engine.audit],
        regions=[(r.region.render(), round(r.coverage, 9)) for r in ranked],
        report={
            "tuples": report.tuples,
            "completed": report.completed,
            "user_cells": report.user_cells,
            "rule_cells": report.rule_cells,
        },
    )


def run_batch_path(
    case: DifferentialCase,
    store: MasterStore,
    *,
    workers: int = 1,
    backend: str = "thread",
    shards: int | None = None,
    journal_path: Path | None = None,
    cache_size: int = 4096,
) -> PathOutcome:
    """Drive the batch pipeline under one executor configuration."""
    engine = CerFix(case.ruleset, store)
    result = engine.clean_relation(
        case.dirty,
        case.truth,
        workers=workers,
        backend=backend,
        shards=shards,
        validated=case.validated,
        journal_path=journal_path,
    )
    return PathOutcome(
        fixed_rows=result.relation.tuples(),
        audit_events=[e.to_json() for e in engine.audit],
        regions=[],
        report=normalize_report(result.report.to_json()),
    )


def normalize_audit(events: list[dict]) -> list[tuple[str, list[dict]]]:
    """Per-tuple audit views, interleaving-independent.

    Concurrent (or randomly interleaved) sessions share one log, so
    *global* sequence order legitimately varies run to run; what the
    certain-fix semantics guarantee is each tuple's own event sequence.
    Returns ``[(tuple_id, [event sans seq, ...]), ...]`` sorted by id.
    """
    by_tuple: dict[str, list[dict]] = {}
    for event in events:
        event = {k: v for k, v in event.items() if k != "seq"}
        by_tuple.setdefault(event["tuple_id"], []).append(event)
    return sorted(by_tuple.items())


def normalize_outcome(outcome: PathOutcome) -> PathOutcome:
    """An interleaving-comparable view of a serial-path outcome:
    stringified rows (what a JSON surface returns) and per-tuple audit."""
    return PathOutcome(
        fixed_rows=[tuple(str(v) for v in row) for row in outcome.fixed_rows],
        audit_events=normalize_audit(outcome.audit_events),
        regions=outcome.regions,
        report=outcome.report,
    )


def _interleaving_user(kind: str, truth: Mapping[str, Any], names, rng: random.Random):
    if kind == "cautious":
        return CautiousUser(truth, max_per_round=1)
    if kind == "selective":
        known = set(rng.sample(list(names), k=max(2, (2 * len(names)) // 3)))
        return SelectiveUser(truth, known)
    return OracleUser(truth)


def run_interleaved_monitor_path(
    case: DifferentialCase,
    store: MasterStore,
    *,
    order_seed: int,
    user_seed: int = 0,
    regions_k: int = 2,
    region_max_size: int | None = None,
    max_combos: int = 50_000,
) -> PathOutcome:
    """Drive every tuple's monitor session with its rounds *interleaved*
    across sessions in a seeded random order, with non-oracle users.

    ``user_seed`` fixes each tuple's user model (oracle / cautious /
    selective mix) independently of ``order_seed``, so two runs with
    different interleavings but the same user seed must produce
    bit-identical per-tuple outcomes — sessions are independent, and
    the parity suite asserts the same across every store backend.
    Selective users may stall their session; the stall point is part of
    the compared outcome.
    """
    if case.truth is None:
        raise ValueError("interleaving fuzz needs ground truth")
    engine = CerFix(
        case.ruleset, store, mode=CertaintyMode.ANCHORED, max_combos=max_combos
    )
    ranked = engine.precompute_regions(k=regions_k, max_size=region_max_size)
    names = case.dirty.schema.names
    user_rng = random.Random(user_seed)
    # One memo per run (never shared across runs, so runs stay fully
    # independent): duplicate-heavy cases re-derive identical
    # suggestions constantly, and memoisation is deterministic.
    memo = LRUCache(4096)
    sessions, users = [], []
    for i, row in enumerate(case.dirty.rows()):
        truth = case.truth.row(i).to_dict()
        kind = user_rng.choice(("oracle", "oracle", "cautious", "selective"))
        users.append(_interleaving_user(kind, truth, names, user_rng))
        sessions.append(engine.session(row.to_dict(), f"t{i}", suggestion_memo=memo))

    order_rng = random.Random(order_seed)
    active = list(range(len(sessions)))
    guard = (len(names) + 2) * max(1, len(sessions)) * 4
    while active and guard > 0:
        guard -= 1
        i = order_rng.choice(active)
        session = sessions[i]
        if session.is_complete:
            active.remove(i)
            continue
        suggestion = session.suggestion()
        if suggestion is None:
            active.remove(i)
            continue
        assignments = users[i].respond(suggestion, session)
        if not assignments:
            active.remove(i)
            continue
        session.validate(assignments)
    assert guard > 0, "interleaving fuzz failed to converge"

    return PathOutcome(
        fixed_rows=[
            tuple(str(v) for v in (s.current_values()[n] for n in names)) for s in sessions
        ],
        audit_events=normalize_audit([e.to_json() for e in engine.audit]),
        regions=[(r.region.render(), round(r.coverage, 9)) for r in ranked],
        report={
            "tuples": len(sessions),
            "completed": sum(1 for s in sessions if s.is_complete),
            "rounds": [s.round_no for s in sessions],
        },
    )


def run_service_path(
    case: DifferentialCase,
    store: MasterStore,
    *,
    concurrency: int = 8,
    regions_k: int = 2,
    max_combos: int = 50_000,
    **service_options,
) -> PathOutcome:
    """Drive the async entry service over real HTTP with ``concurrency``
    sessions in flight, and capture the serial-comparable outcome.

    The acceptance gate of ISSUE 4: for any interleaving of sessions,
    the per-tuple (fix, region, audit-event) outputs are bit-identical
    to the serial monitor path — compare against
    ``normalize_outcome(run_monitor_path(...))`` on the same backend.
    """
    if case.truth is None:
        raise ValueError("the service load driver needs ground truth")
    from repro.service.loadgen import run_load

    engine = CerFix(
        case.ruleset, store, mode=CertaintyMode.ANCHORED, max_combos=max_combos
    )
    ranked = engine.precompute_regions(k=regions_k)
    server = engine.serve_async(port=0, **service_options)
    try:
        rows = [r.to_dict() for r in case.dirty.rows()]
        truth = [r.to_dict() for r in case.truth.rows()]
        load = run_load(server.url, rows, truth, concurrency=concurrency)
    finally:
        server.close()
    assert not load.errors, f"load errors: {load.errors[:3]}"
    return PathOutcome(
        fixed_rows=load.values_in_order(case.dirty.schema.names),
        audit_events=normalize_audit([e.to_json() for e in engine.audit]),
        regions=[(r.region.render(), round(r.coverage, 9)) for r in ranked],
        report={"tuples": load.sessions, "completed": load.completed},
    )


def assert_parity(outcomes: Mapping[str, PathOutcome]) -> None:
    """Assert every outcome is bit-identical to the first (reference)
    backend; failures name the backend, the field and the first diff."""
    items = list(outcomes.items())
    ref_name, ref = items[0]
    for name, got in items[1:]:
        assert got.fixed_rows == ref.fixed_rows, _first_diff(
            ref_name, name, "fixed row", ref.fixed_rows, got.fixed_rows
        )
        assert got.audit_events == ref.audit_events, _first_diff(
            ref_name, name, "audit event", ref.audit_events, got.audit_events
        )
        assert got.regions == ref.regions, (
            f"{name} regions diverge from {ref_name}: {got.regions!r} != {ref.regions!r}"
        )
        assert got.report == ref.report, (
            f"{name} report diverges from {ref_name}: {got.report!r} != {ref.report!r}"
        )


def _first_diff(ref_name: str, name: str, what: str, ref: list, got: list) -> str:
    if len(ref) != len(got):
        return (
            f"{name} produced {len(got)} {what}s, {ref_name} produced {len(ref)}"
        )
    for i, (a, b) in enumerate(zip(ref, got)):
        if a != b:
            return f"{name} {what} {i} diverges from {ref_name}: {b!r} != {a!r}"
    return f"{name} diverges from {ref_name} (unlocated)"


# ---------------------------------------------------------------------------
# The kit: every backend, every path, one call
# ---------------------------------------------------------------------------

#: Paths :func:`run_conformance` knows how to drive. ``service`` needs
#: ground truth (the load generator plays the oracle), ``interleaved``
#: too; cases without truth are limited to ``monitor`` and ``batch``.
CONFORMANCE_PATHS = ("monitor", "batch", "interleaved", "service")


def run_conformance(
    case: DifferentialCase,
    factories: Mapping[str, Callable[[], MasterStore]],
    *,
    paths: Sequence[str] = ("monitor", "batch", "service"),
    reference: str = "single",
    batch_workers: int = 2,
    batch_backend: str = "thread",
    order_seeds: Sequence[int] = (1, 7),
    concurrency: int = 8,
) -> dict[str, dict[str, PathOutcome]]:
    """Drive every registered backend through every requested path and
    assert bit-identical outcomes against the ``reference`` backend.

    * ``monitor`` — region precompute + one oracle session per tuple;
    * ``batch`` — the batch pipeline (serial when ``batch_workers=1``);
    * ``interleaved`` — seeded random interleavings of non-oracle user
      sessions, parity across backends *and* orders;
    * ``service`` — the async entry service over real HTTP, compared
      against the reference backend's *serial monitor* outcome (the
      strongest cross-path guarantee the system makes).

    Returns ``{path: {backend: PathOutcome}}`` so callers can bolt on
    extra assertions (round-trip counts, stats shape, ...).
    """
    unknown = [p for p in paths if p not in CONFORMANCE_PATHS]
    if unknown:
        raise ValueError(f"unknown conformance paths {unknown} (know {CONFORMANCE_PATHS})")
    if reference not in factories:
        raise ValueError(f"reference backend {reference!r} is not registered")
    ordered = [reference] + [name for name in factories if name != reference]
    results: dict[str, dict[str, PathOutcome]] = {}

    def drive(name: str, runner: Callable[[MasterStore], PathOutcome]) -> PathOutcome:
        """One backend through one path, with the store released after —
        remote stores hold sockets and a thread pool per instance, and a
        kit sweep builds one store per (backend, path)."""
        store = factories[name]()
        try:
            return runner(store)
        finally:
            close = getattr(store, "close", None)
            if close is not None:
                close()

    if "monitor" in paths or "service" in paths:
        outcomes = {
            name: drive(name, lambda store: run_monitor_path(case, store))
            for name in ordered
        }
        assert_parity(outcomes)
        results["monitor"] = outcomes

    if "batch" in paths:
        outcomes = {
            name: drive(
                name,
                lambda store: run_batch_path(
                    case, store, workers=batch_workers, backend=batch_backend
                ),
            )
            for name in ordered
        }
        assert_parity(outcomes)
        results["batch"] = outcomes

    if "interleaved" in paths:
        interleaved: dict[str, PathOutcome] = {}
        for name in ordered:
            for order_seed in order_seeds:
                seed = order_seed
                interleaved[f"{name}/order{order_seed}"] = drive(
                    name,
                    lambda store: run_interleaved_monitor_path(
                        case, store, order_seed=seed, user_seed=7
                    ),
                )
        assert_parity(interleaved)
        results["interleaved"] = interleaved

    if "service" in paths:
        serial = normalize_outcome(results["monitor"][reference])
        outcomes = {}
        for name in ordered:
            got = drive(
                name, lambda store: run_service_path(case, store, concurrency=concurrency)
            )
            assert got.fixed_rows == serial.fixed_rows, _first_diff(
                f"{reference} (serial monitor)", name, "service fixed row",
                serial.fixed_rows, got.fixed_rows,
            )
            assert got.audit_events == serial.audit_events, _first_diff(
                f"{reference} (serial monitor)", name, "service audit event",
                serial.audit_events, got.audit_events,
            )
            assert got.regions == serial.regions
            outcomes[name] = got
        results["service"] = outcomes

    return results
