"""The probe plane and the wave-driven region precompute.

The wave harvest must be the sequential harvest with the probes
batched: same safe combos, same universe order, same totals, same
regions on every backend. Round trips are pinned by counting calls,
never by the wall clock.
"""

import json
import sys
import threading
from collections import Counter

import pytest

from repro.batch.cache import CachingMasterDataManager, ProbeCache
from repro.core import region_finder
from repro.core.certainty import (
    CertaintyMode,
    FreshValue,
    candidate_combos,
    fresh,
    value_partition,
)
from repro.core.chase import chase
from repro.core.pattern import EMPTY_PATTERN
from repro.core.region_finder import find_certain_regions, harvest_safe_combos
from repro.engine import CerFix
from repro.errors import BudgetExceededError
from repro.master.conformance import generate_case, store_factories
from repro.master.manager import MasterDataManager
from repro.master.plane import ProbeKeyer, ProbePlane
from repro.master.remote import RemoteMasterStore
from repro.master.shardserver import ShardCluster
from repro.master.store import MasterStore, SingleRelationStore
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.relational.index import HashIndex
from repro.scenarios import uk_customers as uk
from repro.service import batcher


def reference_harvest(attrs, ruleset, master, *, mode=CertaintyMode.STRICT,
                      scenario=None, max_combos=200_000):
    """The sequential harvest: one chase per combo, in enumeration order."""
    attrs = tuple(attrs)
    names = ruleset.input_schema.names
    safe, universe, total = [], {a: [] for a in attrs}, 0
    partition = value_partition(ruleset, master)
    for combo in candidate_combos(attrs, EMPTY_PATTERN, ruleset, master, mode=mode,
                                  scenario=scenario, partition=partition,
                                  max_combos=max_combos):
        total += 1
        for a in attrs:
            if combo[a] not in universe[a]:
                universe[a].append(combo[a])
        values = {n: combo.get(n, fresh(n)) for n in names}
        if chase(values, attrs, ruleset, master).is_complete:
            safe.append(dict(combo))
    return safe, universe, total


class CountingStore(MasterStore):
    """Wraps a store and counts the calls and keys that reach it.

    Declared ``io_bound`` so the plane drives its chases in waves over
    an in-process backend, exactly as it does over the network.
    """

    backend = "counting"
    io_bound = True

    def __init__(self, inner: MasterStore):
        self.inner = inner
        self.relation = inner.relation
        self.calls = 0
        self.sent: Counter = Counter()
        self._keyer = ProbeKeyer()

    def probe(self, rule, values, *, use_index=True):
        return self.probe_many([(rule, values)], use_index=use_index)[0]

    def probe_many(self, requests, *, use_index=True):
        self.calls += 1
        self.sent.update(self._keyer.key(rule, values) for rule, values in requests)
        return self.inner.probe_many(requests, use_index=use_index)

    def prebuild(self, ruleset):
        self.inner.prebuild(ruleset)


@pytest.fixture()
def entry_master():
    """The ``entry`` benchmark workload's master: 10 generated rows."""
    return uk.generate_master(10, seed=1)


def _round_trips(store: RemoteMasterStore) -> int:
    return sum(s["round_trips"] for s in store.stats()["per_shard"])


# -- the plane ---------------------------------------------------------------


class TestProbePlane:
    def test_fresh_keys_never_reach_the_store(self, entry_master):
        store = CountingStore(SingleRelationStore(entry_master))
        plane = ProbePlane(store)
        rule = uk.paper_ruleset().get("phi1")
        match = plane.match(rule, {"zip": fresh("zip")})
        assert match.positions == () and match.values == ()
        assert plane.prefetch([(rule, {"zip": fresh("zip")})]) == 0
        assert store.calls == 0

    def test_prefetch_dedups_on_the_normalised_key(self, entry_master):
        store = CountingStore(SingleRelationStore(entry_master))
        plane = ProbePlane(store)
        rule = uk.paper_ruleset().get("phi1")
        sent = plane.prefetch([(rule, {"zip": "EH8 4AH"}), (rule, {"zip": "eh8 4ah"})])
        assert sent == 1 and store.calls == 1
        assert plane.prefetch([(rule, {"zip": "EH84AH"})]) == 0  # memo hit
        assert plane.match(rule, {"zip": "eh84ah"}).values == ("EH8 4AH",)
        assert store.calls == 1

    def test_match_outside_waves_answers_inline(self, entry_master):
        store = CountingStore(SingleRelationStore(entry_master))
        plane = ProbePlane(MasterDataManager(store))
        rule = uk.paper_ruleset().get("phi2")
        assert plane.match(rule, {"zip": "EH8 4AH"}) == SingleRelationStore(
            entry_master
        ).probe(rule, {"zip": "EH8 4AH"})
        assert store.calls == 1

    @pytest.mark.parametrize("io_bound", [False, True])
    def test_chase_all_yields_sequential_results_in_order(self, entry_master, io_bound):
        ruleset = uk.paper_ruleset()
        store = CountingStore(SingleRelationStore(entry_master))
        store.io_bound = io_bound
        names = ruleset.input_schema.names
        jobs = [
            ({n: row.get(n, fresh(n)) for n in names}, ("zip", "type", "AC", "phn"))
            for row in (dict(r.to_dict(), type="2", AC="131", phn=r["Mphn"])
                        for r in entry_master.rows())
        ]
        expected = [chase(v, z, ruleset, MasterDataManager(entry_master)) for v, z in jobs]
        got = list(ProbePlane(store).chase_all(jobs, ruleset))
        assert [(r.values, r.validated, r.steps) for r in got] == [
            (r.values, r.validated, r.steps) for r in expected
        ]

    def test_chase_all_is_lazy_inline(self, entry_master):
        ruleset = uk.paper_ruleset()
        names = ruleset.input_schema.names
        pulled = []

        def jobs():
            for i in range(5):
                pulled.append(i)
                yield {n: fresh(n) for n in names}, ("zip",)

        results = ProbePlane(entry_master).chase_all(jobs(), ruleset)
        next(results)
        assert pulled == [0]


# -- the shared probe key ------------------------------------------------------


class TestProbeKeyer:
    def test_one_keyer_for_every_cache(self):
        assert batcher.ProbeKeyer is ProbeKeyer

    def test_cache_keys_unchanged(self, entry_master):
        ruleset = uk.paper_ruleset(extended=True)
        phi1 = ruleset.get("phi1")
        values = {"zip": "EH8 4AH", "AC": "131", "phn": "079172485", "type": "2"}
        assert ProbeKeyer().key(phi1, values) == ("phi1", ("eh84ah",))
        cached = CachingMasterDataManager(entry_master, ProbeCache())
        keyers = (ProbeKeyer(), cached.keyer, ProbePlane(entry_master).keyer)
        for rule in ruleset:
            if rule.is_constant:
                continue
            raw = tuple(values.get(a, "x") for a in rule.lhs_attrs)
            row = dict(values, **dict(zip(rule.lhs_attrs, raw)))
            expected = (rule.rule_id, HashIndex(rule.m_attrs, rule.ops).key_of(raw))
            assert {k.key(rule, row) for k in keyers} == {expected}
            cached.match(rule, row)
            assert expected in dict(cached.cache.snapshot())


    def test_shared_keyer_under_threads(self, monkeypatch):
        """The entry service shares one keyer between its session
        threads; a small memo forces flushes mid-race."""
        monkeypatch.setattr(ProbeKeyer, "MEMO_MAX", 8)
        ruleset = uk.paper_ruleset()
        rules = [r for r in ruleset if not r.is_constant]
        zips = [f"Eh{i} {i % 7}Ab" for i in range(64)]
        rows = [{a: z for a in ruleset.input_schema.names} for z in zips]
        expected = [
            (r.rule_id, HashIndex(r.m_attrs, r.ops).key_of(tuple(row[a] for a in r.lhs_attrs)))
            for row in rows
            for r in rules
        ]
        keyer = ProbeKeyer()
        failures = []

        def worker():
            for _ in range(20):
                got = [keyer.key(r, row) for row in rows for r in rules]
                if got != expected:
                    failures.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures


# -- round trips ---------------------------------------------------------------


def test_each_key_is_fetched_at_most_once_per_precompute(entry_master):
    ruleset = uk.paper_ruleset()
    store = CountingStore(SingleRelationStore(entry_master))
    regions = find_certain_regions(
        ruleset, MasterDataManager(store), k=2, mode=CertaintyMode.ANCHORED
    )
    assert regions == find_certain_regions(
        ruleset, MasterDataManager(entry_master), k=2, mode=CertaintyMode.ANCHORED
    )
    assert store.sent and max(store.sent.values()) == 1
    assert not any(isinstance(v, FreshValue) for _, key in store.sent for v in key)
    assert store.calls <= 40


def test_remote_precompute_round_trips_are_batched(entry_master):
    ruleset = uk.paper_ruleset()
    cluster = ShardCluster.in_process(ruleset, entry_master, 2)
    try:
        store = RemoteMasterStore(cluster.urls)
        engine = CerFix(ruleset, store, mode=CertaintyMode.ANCHORED)
        before = _round_trips(store)  # the handshake
        remote = engine.precompute_regions(k=2)
        assert _round_trips(store) - before <= 40
    finally:
        cluster.close()
    assert remote == CerFix(
        ruleset, entry_master, mode=CertaintyMode.ANCHORED
    ).precompute_regions(k=2)


def test_strict_precompute_over_remote_matches_single():
    ruleset = uk.paper_ruleset()
    master = uk.generate_master(3, seed=4)
    single = CerFix(ruleset, master, mode=CertaintyMode.STRICT)
    cluster = ShardCluster.in_process(ruleset, master, 2)
    try:
        remote = CerFix(ruleset, RemoteMasterStore(cluster.urls), mode=CertaintyMode.STRICT)
        regions = remote.precompute_regions(k=2)
        assert regions and regions == single.precompute_regions(k=2)
        assert remote.certify_region(regions[0].region) == single.certify_region(
            regions[0].region
        )
        assert remote.check_consistency(samples=5) == single.check_consistency(samples=5)
    finally:
        cluster.close()


# -- parity with the sequential harvest ------------------------------------------


@pytest.mark.parametrize(
    "case",
    [
        generate_case(1101, scenario="uk", master_size=5, n=4),
        generate_case(1202, scenario="hospital", master_size=2, n=4),
    ],
    ids=lambda c: c.name,
)
def test_wave_harvest_matches_the_sequential_harvest(case, tmp_path, monkeypatch):
    ruleset = case.ruleset
    harvests = {}

    def recording(attrs, ruleset, master, **kwargs):
        harvests[tuple(attrs)] = reference_harvest(attrs, ruleset, master, **kwargs)
        return harvests[tuple(attrs)]

    with monkeypatch.context() as patch:
        patch.setattr(region_finder, "harvest_safe_combos", recording)
        expected = find_certain_regions(
            ruleset, MasterDataManager(case.master), k=2, mode=CertaintyMode.ANCHORED
        )
    assert expected and harvests

    cluster = ShardCluster.in_process(ruleset, case.master, 2)
    try:
        factories = store_factories(case, tmp_path, shards=2, remote_urls=cluster.urls)
        assert set(factories) == {"single", "sharded", "sqlite", "remote"}
        # Remote runs in waves over the wire; the counting wrapper makes
        # the single store run in waves too.
        stores = {name: factory() for name, factory in factories.items()}
        stores["single-waves"] = CountingStore(stores["single"])
        for name, store in stores.items():
            got = find_certain_regions(
                ruleset, MasterDataManager(store), k=2, mode=CertaintyMode.ANCHORED
            )
            assert got == expected, name
        waves = ProbePlane(CountingStore(factories["single"]()))
        remote = ProbePlane(factories["remote"]())
        for attrs, reference in harvests.items():
            for plane in (waves, remote):
                got = harvest_safe_combos(attrs, ruleset, plane, mode=CertaintyMode.ANCHORED)
                assert got == reference, attrs
    finally:
        cluster.close()


@pytest.mark.parametrize("io_bound", [False, True])
def test_max_combos_still_raises(entry_master, io_bound):
    store = CountingStore(SingleRelationStore(entry_master))
    store.io_bound = io_bound
    with pytest.raises(BudgetExceededError):
        find_certain_regions(
            uk.paper_ruleset(), MasterDataManager(store), k=2,
            mode=CertaintyMode.ANCHORED, max_combos=10,
        )
    with pytest.raises(BudgetExceededError):
        harvest_safe_combos(
            ("AC", "phn", "type", "zip"), uk.paper_ruleset(), MasterDataManager(store),
            mode=CertaintyMode.STRICT, max_combos=10,
        )


# -- telemetry -------------------------------------------------------------------


def test_precompute_spans_and_counters(entry_master, tmp_path):
    registry = get_registry()
    waves0 = registry.counter_value("cerfix.precompute.waves")
    keys0 = registry.counter_value("cerfix.precompute.keys_fetched")
    store = CountingStore(SingleRelationStore(entry_master))
    path = tmp_path / "spans.jsonl"
    trace.configure(path)
    try:
        CerFix(uk.paper_ruleset(), store, mode=CertaintyMode.ANCHORED).precompute_regions(k=2)
    finally:
        trace.disable()
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    (root,) = [s for s in spans if s["name"] == "precompute"]
    per_set = [s for s in spans if s["name"] == "precompute.attrs"]
    assert per_set and all(s["parent"] == root["span"] for s in per_set)
    for s in per_set:
        assert set(s["attrs"]) >= {"attrs", "combos", "safe", "waves", "keys_fetched"}
        assert s["attrs"]["waves"] >= 1
    assert sum(s["attrs"]["keys_fetched"] for s in per_set) == len(store.sent)
    waves = sum(s["attrs"]["waves"] for s in per_set)
    assert registry.counter_value("cerfix.precompute.waves") - waves0 == waves
    assert registry.counter_value("cerfix.precompute.keys_fetched") - keys0 == len(store.sent)
