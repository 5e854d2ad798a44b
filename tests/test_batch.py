"""The batch pipeline: planner, probe cache, and parallel determinism.

The load-bearing properties, per ISSUE 2's acceptance criteria:

- thread and process execution at 1/2/4 workers is *byte-identical*
  to the serial path (uk_customers and hospital scenarios);
- the planner collapses duplicate repair signatures and each group is
  resolved exactly once;
- probe-cache hit counters are exact on relations with duplicated
  tuples.
"""

from __future__ import annotations

import pickle

import pytest

from repro import CerFix
from repro.batch import BatchCleaner, ProbeCache, build_plan
from repro.batch.cache import CachingMasterDataManager
from repro.batch.executor import BatchContext
from repro.errors import CerFixError
from repro.master.manager import MasterDataManager
from repro.master.store import ShardedMasterStore
from repro.obs.metrics import get_registry
from repro.relational.relation import Relation
from repro.scenarios import hospital, uk_customers as uk
from conftest import street_variants


# ---------------------------------------------------------------------------
# Shared workloads (small but dirty enough to exercise every layer)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def uk_batch():
    master = uk.generate_master(20, seed=31)
    wl = uk.generate_workload(master, 40, rate=0.25, seed=32)
    return master, wl


@pytest.fixture(scope="module")
def hospital_batch():
    master = hospital.generate_master(15, seed=33)
    wl = hospital.generate_workload(master, 30, rate=0.2, seed=34)
    return master, wl


def _clean(master, wl, ruleset, **kwargs):
    engine = CerFix(ruleset, master)
    return engine.clean_relation(wl.dirty, wl.clean, **kwargs)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def test_plan_groups_duplicates(uk_batch):
    master, wl = uk_batch
    doubled = Relation(wl.dirty.schema, wl.dirty.tuples() + wl.dirty.tuples())
    truth2 = Relation(wl.clean.schema, wl.clean.tuples() + wl.clean.tuples())
    plan = build_plan(doubled, truth2, shards=4)
    assert plan.total_tuples == 2 * len(wl.dirty)
    assert plan.n_groups <= len(wl.dirty)
    assert plan.duplicates_collapsed >= len(wl.dirty)
    # every row lands in exactly one group
    members = sorted(m for g in plan.groups for m in g.members)
    assert members == list(range(len(doubled)))
    # shards partition the groups
    sharded = sorted(g.representative for s in plan.shards for g in s.groups)
    assert sharded == sorted(g.representative for g in plan.groups)


def test_plan_dedupe_off_keeps_every_row(uk_batch):
    _, wl = uk_batch
    plan = build_plan(wl.dirty, wl.clean, dedupe=False)
    assert plan.n_groups == len(wl.dirty)
    assert plan.duplicates_collapsed == 0


def test_plan_fingerprint_sensitivity(uk_batch):
    _, wl = uk_batch
    base = build_plan(wl.dirty, wl.clean, shards=4)
    assert base.fingerprint == build_plan(wl.dirty, wl.clean, shards=4).fingerprint
    seen = {base.fingerprint}
    assert base.fingerprint != build_plan(wl.dirty, wl.clean, shards=2).fingerprint
    assert base.fingerprint != build_plan(wl.dirty, shards=4).fingerprint
    assert base.fingerprint != build_plan(
        wl.dirty, wl.clean, shards=4, context=("other-engine",)
    ).fingerprint
    # Every typed cell counts, inside the answer key or not.
    item = wl.dirty.schema.position("item")
    for value in (1, 1.0, True):
        rows = list(wl.dirty.raw_tuples())
        rows[0] = rows[0][:item] + (value,) + rows[0][item + 1:]
        variant = build_plan(Relation(wl.dirty.schema, rows), wl.clean, shards=4)
        assert variant.row_group == base.row_group
        assert variant.fingerprint not in seen
        seen.add(variant.fingerprint)
    # Rule-only plans bind the columns their answer key reads.
    assert build_plan(wl.dirty, validated=("zip",)).fingerprint != build_plan(
        wl.dirty, validated=("phn",)
    ).fingerprint


def test_plan_rejects_bad_inputs(uk_batch):
    _, wl = uk_batch
    with pytest.raises(CerFixError):
        build_plan(wl.dirty, wl.clean, shards=0)
    short = Relation(wl.clean.schema, wl.clean.tuples()[:-1])
    with pytest.raises(CerFixError):
        build_plan(wl.dirty, short)


# ---------------------------------------------------------------------------
# Parallel determinism (the acceptance criterion)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ("thread", "process"))
@pytest.mark.parametrize("workers", (1, 2, 4))
def test_uk_parallel_identical_to_serial(uk_batch, backend, workers):
    master, wl = uk_batch
    serial = _clean(master, wl, uk.paper_ruleset(), workers=1)
    parallel = _clean(
        master, wl, uk.paper_ruleset(), workers=workers, backend=backend
    )
    assert parallel.relation.tuples() == serial.relation.tuples()
    assert parallel.relation.schema.names == serial.relation.schema.names
    # the work accounting is scheduling-independent too
    assert parallel.report.completed == serial.report.completed
    assert parallel.report.user_cells == serial.report.user_cells
    assert parallel.report.rule_cells == serial.report.rule_cells


@pytest.mark.parametrize("backend", ("thread", "process"))
@pytest.mark.parametrize("workers", (1, 2, 4))
def test_hospital_parallel_identical_to_serial(hospital_batch, backend, workers):
    master, wl = hospital_batch
    serial = _clean(master, wl, hospital.hospital_ruleset(), workers=1)
    parallel = _clean(
        master, wl, hospital.hospital_ruleset(), workers=workers, backend=backend
    )
    assert parallel.relation.tuples() == serial.relation.tuples()
    assert parallel.report.completed == serial.report.completed


def test_oracle_batch_reaches_truth(uk_batch):
    """With an oracle user, a completed batch equals the ground truth."""
    master, wl = uk_batch
    result = _clean(master, wl, uk.paper_ruleset(), workers=1)
    assert result.report.completed == result.report.tuples
    assert result.relation.tuples() == wl.clean.tuples()


def test_sharding_never_changes_output(uk_batch):
    master, wl = uk_batch
    rows = _clean(master, wl, uk.paper_ruleset(), workers=1, shards=1).relation.tuples()
    for shards in (3, 7, 16):
        assert (
            _clean(master, wl, uk.paper_ruleset(), workers=1, shards=shards)
            .relation.tuples()
            == rows
        )


# ---------------------------------------------------------------------------
# Probe cache
# ---------------------------------------------------------------------------


def test_probe_cache_lru_eviction():
    cache = ProbeCache(maxsize=2)
    from repro.master.manager import MasterMatch

    m = MasterMatch(positions=(0,), values=("x",))
    cache.put(("a",), m)
    cache.put(("b",), m)
    assert cache.get(("a",)) is m  # refreshes 'a'
    cache.put(("c",), m)  # evicts 'b' (least recent)
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) is m
    assert cache.get(("c",)) is m
    assert cache.stats.evictions == 1


def test_caching_manager_matches_base(paper_ruleset, paper_manager):
    """A cached probe returns exactly what the base manager computes."""
    manager = CachingMasterDataManager(paper_manager.relation, ProbeCache(64))
    values = uk.fig3_truth()
    for rule in paper_ruleset:
        if rule.is_constant:
            continue
        base = paper_manager.match(rule, values)
        assert manager.match(rule, values) == base  # miss path
        assert manager.match(rule, values) == base  # hit path
    assert manager.hits == manager.misses  # every probe repeated once


def test_cache_counters_exact_on_duplicated_relation():
    """Duplicating a 1-tuple relation 3x adds no probe work at all: the
    chase-transcript memo resolves tuples 2 and 3 without ever reaching
    the probe cache (dedupe=False makes each its own group, so this is
    the memo, not the planner), and what the first tuple probed is
    exactly what the run probed."""
    master = uk.paper_master()
    dirty1 = Relation(uk.INPUT_SCHEMA, [uk.fig3_tuple()])
    truth1 = Relation(uk.INPUT_SCHEMA, [uk.fig3_truth()])

    def run(dirty, truth):
        cleaner = BatchCleaner(uk.paper_ruleset(), master)
        result = cleaner.clean(dirty, truth, workers=1, dedupe=False)
        return result, result.report.cache.hits, result.report.cache.misses

    result1, hits1, misses1 = run(dirty1, truth1)
    probes1 = hits1 + misses1
    assert misses1 > 0 and probes1 > 0

    dirty3 = Relation(uk.INPUT_SCHEMA, dirty1.tuples() * 3)
    truth3 = Relation(uk.INPUT_SCHEMA, truth1.tuples() * 3)
    result3, hits3, misses3 = run(dirty3, truth3)
    assert misses3 == misses1  # nothing new to learn
    assert hits3 == hits1  # ...and nothing re-probed: transcripts replayed
    assert result3.relation.tuples() == result1.relation.tuples() * 3


@pytest.mark.parametrize(
    "workers,backend", ((1, "thread"), (2, "process"))
)
def test_tiny_cache_reports_evictions(uk_batch, workers, backend):
    """A 1-entry cache must thrash — and the report must say so, on the
    shared-cache path and the per-process path alike."""
    master, wl = uk_batch
    cleaner = BatchCleaner(uk.paper_ruleset(), master, cache_size=1)
    result = cleaner.clean(wl.dirty, wl.clean, workers=workers, backend=backend)
    assert result.report.cache.evictions > 0


def test_suggestion_memo_counts_agree_across_backends():
    """Every backend publishes the same memo counts for the same work.
    Process workers hold private memos, so their counts must come back
    on the shard results. One shard gives every backend the same work:
    with the run-wide transcript memo, how many real sessions run (and
    so how many suggestions are looked up) depends on how groups are
    dealt to memos. Street variants give the memo answer keys that
    share a transcript, so it hits."""
    master = uk.generate_master(20, seed=1)
    wl = uk.generate_workload(master, 400, seed=2)
    dirty, truth = street_variants(wl.dirty, wl.clean)
    engine = CerFix(uk.paper_ruleset(), master)
    registry = get_registry()
    names = (
        "cerfix.suggestion_memo.hits", "cerfix.suggestion_memo.misses",
        "cerfix.transcript_memo.hits", "cerfix.transcript_memo.misses",
    )
    counts = {}
    for workers, backend in ((1, "thread"), (2, "thread"), (2, "process")):
        before = [registry.counter_value(n) for n in names]
        result = engine.clean_relation(
            dirty, truth, workers=workers, backend=backend, shards=1
        )
        assert result.report.backend == backend
        memo_hits, memo_misses, hits, misses = (
            registry.counter_value(n) - b for n, b in zip(names, before)
        )
        counts[workers, backend] = (memo_hits + memo_misses, hits, misses)
        assert hits + misses == result.report.groups
    lookups, hits, misses = counts[1, "thread"]
    assert lookups > 0 and hits > 0 and misses > 0
    assert counts[1, "thread"] == counts[2, "thread"] == counts[2, "process"]


def test_duplicate_signatures_mean_cache_hits_and_dedup(uk_batch):
    master, wl = uk_batch
    doubled = Relation(wl.dirty.schema, wl.dirty.tuples() + wl.dirty.tuples())
    truth2 = Relation(wl.clean.schema, wl.clean.tuples() + wl.clean.tuples())
    result = CerFix(uk.paper_ruleset(), master).clean_relation(doubled, truth2)
    assert result.report.duplicates_collapsed >= len(wl.dirty)
    assert result.report.cache.hit_rate > 0
    assert result.report.dedup_ratio >= 2.0


# ---------------------------------------------------------------------------
# Pickling (what the process backend ships to its workers)
# ---------------------------------------------------------------------------


def test_relation_pickles_without_indexes(paper_ruleset, paper_master):
    """``Relation.__reduce__`` ships schema + raw tuples only; indexes
    are derived caches that rebuild lazily on the other side."""
    relation = Relation(paper_master.schema, paper_master.tuples())
    index = relation.index_on(("zip",))
    assert len(index) == len(relation)
    clone = pickle.loads(pickle.dumps(relation))
    assert clone._indexes == {}  # nothing shipped
    assert clone.tuples() == relation.tuples()
    assert clone.schema.names == relation.schema.names
    # lazy rebuild yields the same lookups as the original
    key = (paper_master.tuples()[0][relation.schema.position("zip")],)
    assert [r.values for r in clone.lookup(("zip",), key)] == [
        r.values for r in relation.lookup(("zip",), key)
    ]


def test_relation_pickle_roundtrip_preserves_mutability(paper_master):
    clone = pickle.loads(pickle.dumps(paper_master))
    pos = clone.append(clone.tuples()[0])
    assert pos == len(paper_master)  # the original is untouched
    clone.update_cell(0, clone.schema.names[0], "patched")
    assert clone.tuples()[0][0] == "patched"


def test_sharded_sub_relations_rebuild_lazily_on_workers(paper_ruleset, paper_master):
    """The batch context of a sharded-store run ships raw tuples only:
    unpickling (what every process-pool worker does) must carry zero
    prebuilt shard indexes, and the first probe materialises exactly
    the routed shard."""
    store = ShardedMasterStore(
        Relation(paper_master.schema, paper_master.tuples()), shards=4
    )
    manager = MasterDataManager(store)
    manager.prebuild(paper_ruleset)  # parent side: fully built
    ctx = BatchContext(ruleset=paper_ruleset, master=manager)
    shipped = pickle.loads(pickle.dumps(ctx))
    worker_store = shipped.master.store
    assert worker_store.stats()["specs_partitioned"] == 0
    assert worker_store.stats()["shard_indexes_built"] == 0
    rule = next(r for r in paper_ruleset if not r.is_constant)
    match = worker_store.probe(rule, uk.fig3_truth())
    assert match == store.probe(rule, uk.fig3_truth())
    assert shipped.master.store.stats()["shard_indexes_built"] == 1


def test_process_backend_with_sharded_store_identical(uk_batch):
    master, wl = uk_batch
    store = ShardedMasterStore(Relation(master.schema, master.tuples()), shards=3)
    serial = _clean(master, wl, uk.paper_ruleset(), workers=1, shards=6)
    sharded = CerFix(uk.paper_ruleset(), store).clean_relation(
        wl.dirty, wl.clean, workers=2, backend="process", shards=6
    )
    assert sharded.relation.tuples() == serial.relation.tuples()
    assert sharded.report.completed == serial.report.completed


# ---------------------------------------------------------------------------
# Rule-only (no-truth) mode and report accounting
# ---------------------------------------------------------------------------


def test_rule_only_mode_repairs_from_trusted_columns():
    master = uk.paper_master()
    dirty = Relation(
        uk.INPUT_SCHEMA,
        [
            {**uk.fig3_tuple(), "zip": "DH1 3LE"},  # trusted zip, dirty street/city
        ],
    )
    engine = CerFix(uk.paper_ruleset(), master)
    result = engine.clean_relation(dirty, validated=("zip",))
    fixed = result.relation.row(0).to_dict()
    assert fixed["str"] == "20 Baker St"  # phi2 from the validated zip
    assert fixed["city"] == "Dur"  # phi3
    assert fixed["FN"] == "M."  # untouched: no rule reaches it without truth
    assert result.report.rule_cells >= 2
    assert result.report.completed == 0  # not a certain fix — that's the point


def test_rule_only_mode_unknown_validated_attr_rejected(uk_batch):
    master, wl = uk_batch
    engine = CerFix(uk.paper_ruleset(), master)
    with pytest.raises(CerFixError):
        engine.clean_relation(wl.dirty, validated=("nope",))


def test_report_shape_and_json(uk_batch):
    master, wl = uk_batch
    result = _clean(master, wl, uk.paper_ruleset(), workers=2, shards=4)
    report = result.report
    assert report.tuples == len(wl.dirty)
    assert report.groups + report.duplicates_collapsed == report.tuples
    assert len(report.shards) == report.executed_shards == 4
    assert sum(s.tuples for s in report.shards) == report.tuples
    assert 0.0 < report.auto_share < 1.0
    assert report.user_share + report.auto_share == pytest.approx(1.0)
    payload = report.to_json()
    assert payload["tuples"] == report.tuples
    assert payload["cache"]["hits"] == report.cache.hits
    assert len(payload["shards"]) == 4
    assert "throughput" in payload
    text = report.describe()
    assert "duplicates collapsed" in text and "hit rate" in text


def test_schema_mismatch_rejected(uk_batch):
    master, _ = uk_batch
    engine = CerFix(uk.paper_ruleset(), master)
    wrong = Relation(uk.MASTER_SCHEMA, master.tuples())
    with pytest.raises(CerFixError):
        engine.clean_relation(wrong)


# ---------------------------------------------------------------------------
# Answer-key dedup: rows group on the inputs their transcript reads
# ---------------------------------------------------------------------------


def test_answer_key_groups_on_typed_truth_or_validated_values(uk_batch):
    """Oracle plans group on the typed truth row, rule-only plans on the
    typed dirty values of ``validated``; dirty cells outside the key
    never split a group, and a value of another type always does."""
    _, wl = uk_batch
    names = wl.dirty.schema.names
    item = names.index("item")
    dirty_rows = wl.dirty.raw_tuples()
    truth_rows = wl.clean.raw_tuples()
    # Oracle: the same truth under every dirty row, one typed twin.
    rows = [row[:item] + (f"noise-{i}",) + row[item + 1:] for i, row in enumerate(dirty_rows[:6])]
    truth = [truth_rows[0]] * 5 + [truth_rows[0][:item] + (1.0,) + truth_rows[0][item + 1:]]
    truth[0] = truth[0][:item] + (1,) + truth[0][item + 1:]
    plan = build_plan(Relation(wl.dirty.schema, rows), Relation(wl.clean.schema, truth))
    assert [g.members for g in plan.groups] == [(0,), (1, 2, 3, 4), (5,)]
    assert plan.row_group == [0, 1, 1, 1, 1, 2]
    assert [repr(g.truth["item"]) for g in plan.groups] == ["1", repr(truth_rows[0][item]), "1.0"]
    assert [g.values for g in plan.groups] == [
        dict(zip(names, rows[g.representative])) for g in plan.groups
    ]
    # Rule-only: distinct typed validated values, whatever else differs.
    rule_only = build_plan(wl.dirty, validated=("zip",))
    zips = wl.dirty.column("zip")
    assert rule_only.n_groups == len({(type(z), z) for z in zips})
    for group in rule_only.groups:
        assert {repr(zips[m]) for m in group.members} == {repr(group.values["zip"])}
    assert build_plan(wl.dirty).n_groups == 1  # nothing validated: one transcript
    # Every row sits in the group ``row_group`` names.
    for g, group in enumerate(rule_only.groups):
        assert all(rule_only.row_group[m] == g for m in group.members)


def _payload_duplicated_workload(hospital_batch):
    """Every row duplicated with only the payload columns corrupted —
    collapsible under projection, never under whole-row signatures."""
    master, wl = hospital_batch
    dirty_rows, truth_rows = [], []
    for i, (d, t) in enumerate(zip(wl.dirty.rows(), wl.clean.rows())):
        dirty_rows.append(d.to_dict())
        truth_rows.append(t.to_dict())
        dup = d.to_dict()
        dup["score"] = f"garbled-{i}"
        dup["sample"] = "???"
        dirty_rows.append(dup)
        truth_rows.append(t.to_dict())
    return (
        master,
        Relation(hospital.INPUT_SCHEMA, dirty_rows),
        Relation(hospital.INPUT_SCHEMA, truth_rows),
    )


def test_projected_dedup_strictly_beats_whole_row_on_hospital(hospital_batch):
    """Answer keys collapse rows that whole-row signatures (dirty row
    plus truth row) keep apart."""
    _, dirty, truth = _payload_duplicated_workload(hospital_batch)
    whole_row_groups = len(set(zip(dirty.raw_tuples(), truth.raw_tuples())))
    keyed = build_plan(dirty, truth)
    assert keyed.n_groups < whole_row_groups  # strictly more dedup
    assert keyed.n_groups <= len(dirty) // 2
    assert keyed.fingerprint != build_plan(dirty, truth, dedupe=False).fingerprint
    # every row still belongs to exactly one group
    members = sorted(m for g in keyed.groups for m in g.members)
    assert members == list(range(len(dirty)))


def test_projected_dedup_output_is_bit_identical_to_no_dedupe(hospital_batch):
    master, dirty, truth = _payload_duplicated_workload(hospital_batch)
    ruleset = hospital.hospital_ruleset()

    plain_engine = CerFix(ruleset, master)
    plain = plain_engine.clean_relation(dirty, truth, dedupe=False)
    deduped_engine = CerFix(ruleset, master)
    deduped = deduped_engine.clean_relation(dirty, truth, dedupe=True)

    # the dedup actually collapsed payload-only duplicates...
    assert deduped.report.groups <= len(dirty) // 2
    # ...yet rows, per-tuple audit trails (member-specific old values
    # included) and the changed-cell accounting are identical
    assert deduped.relation.tuples() == plain.relation.tuples()

    def per_tuple(audit):
        out = {}
        for e in audit:
            j = e.to_json()
            j.pop("seq")
            out.setdefault(j["tuple_id"], []).append(j)
        return out

    assert per_tuple(deduped_engine.audit) == per_tuple(plain_engine.audit)
    assert deduped.report.changed_cells == plain.report.changed_cells
    assert deduped.report.completed == plain.report.completed
    assert deduped.report.user_cells == plain.report.user_cells


def test_projected_dedup_rule_only_keeps_member_payload(hospital_batch):
    """Without ground truth, an untouched payload cell keeps *its own*
    dirty value — not the group representative's."""
    master, dirty, _ = _payload_duplicated_workload(hospital_batch)
    ruleset = hospital.hospital_ruleset()
    engine = CerFix(ruleset, master)
    result = engine.clean_relation(dirty, None, validated=("provider_id",), dedupe=True)
    assert result.report.groups < len(dirty)
    names = hospital.INPUT_SCHEMA.names
    score_at = names.index("score")
    sample_at = names.index("sample")
    for i, row in enumerate(result.relation.tuples()):
        assert row[score_at] == dirty.raw_tuples()[i][score_at]
        assert row[sample_at] == dirty.raw_tuples()[i][sample_at]


# ---------------------------------------------------------------------------
# Cross-run probe-cache persistence
# ---------------------------------------------------------------------------


def test_probe_cache_persists_across_runs(uk_batch, tmp_path):
    master, wl = uk_batch
    path = tmp_path / "probes.cache"
    r1 = _clean(master, wl, uk.paper_ruleset(), cache_path=path)
    assert r1.report.persistence.startswith("cold start")
    assert "; saved" in r1.report.persistence
    assert path.exists()
    r2 = _clean(master, wl, uk.paper_ruleset(), cache_path=path)
    assert r2.report.persistence.startswith("warm start")
    # every probe the first run paid for is answered from the snapshot
    assert r2.report.cache.misses == 0
    assert r2.report.cache.hits > 0
    assert r2.relation.tuples() == r1.relation.tuples()


def test_probe_cache_snapshot_rejected_when_master_changes(uk_batch, tmp_path):
    master, wl = uk_batch
    path = tmp_path / "probes.cache"
    _clean(master, wl, uk.paper_ruleset(), cache_path=path)
    other_master = uk.generate_master(20, seed=99)
    engine = CerFix(uk.paper_ruleset(), other_master)
    result = engine.clean_relation(wl.dirty, wl.clean, cache_path=path)
    assert "master data changed" in result.report.persistence
    # ...and the stale snapshot is replaced by one stamped for the new master
    r2 = engine.clean_relation(wl.dirty, wl.clean, cache_path=path)
    assert r2.report.persistence.startswith("warm start")


def test_probe_cache_corrupt_snapshot_degrades_to_cold_start(uk_batch, tmp_path):
    master, wl = uk_batch
    path = tmp_path / "probes.cache"
    path.write_bytes(b"not a pickle")
    result = _clean(master, wl, uk.paper_ruleset(), cache_path=path)
    assert "cold start" in result.report.persistence
    assert result.report.tuples == len(wl.dirty)


def test_probe_cache_persistence_skipped_on_process_backend(uk_batch, tmp_path):
    master, wl = uk_batch
    path = tmp_path / "probes.cache"
    result = _clean(
        master, wl, uk.paper_ruleset(),
        cache_path=path, workers=2, backend="process",
    )
    assert result.report.persistence.startswith("skipped")
    assert not path.exists()


def test_probe_cache_preload_respects_maxsize():
    from repro.master.manager import MasterMatch

    cache = ProbeCache(maxsize=2)
    entries = [((f"r{i}", (i,)), MasterMatch((), ())) for i in range(5)]
    assert cache.preload(entries) == 2
    assert cache.stats.evictions == 0  # preload overflow is not a runtime eviction
    assert cache.get(("r4", (4,))) is not None
    assert cache.get(("r0", (0,))) is None
