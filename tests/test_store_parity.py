"""Differential parity suite: every master-store backend, every path.

The acceptance gate for the store refactor (ISSUE 3): the single,
sharded and sqlite backends must produce **bit-identical** fixes,
certain regions and audit events through the monitor/stream path and
the batch pipeline (serial, threaded and multi-process executors).
The harness lives in :mod:`repro.master.conformance` (lifted out of
``tests/`` so any backend — including the remote shard cluster — runs
the same suite; ``tests/test_conformance.py`` drives the full kit).
This module pins:

- randomized differential cases (datagen-backed) agree across backends
  on both paths, with and without ground truth;
- Hypothesis property: a sharded probe equals a single-relation probe
  for arbitrary relations, rules, keys and shard counts — including
  ``N == 1`` and ``N`` far above the number of distinct keys;
- a sqlite-backed batch run killed mid-shard resumes from its journal
  (and its master snapshot) to the same ``BatchReport`` as an
  uninterrupted run;
- store construction/selection errors are loud, and snapshots reload.

CI runs this file in its own matrix leg with ``-p no:cacheprovider``
and 4 process workers (``CERFIX_PARITY_WORKERS``) to catch
cross-process nondeterminism.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.batch.executor as executor_mod
from conftest import probe_cases
from repro.master.conformance import (
    assert_parity,
    generate_case,
    normalize_report,
    run_batch_path,
    run_interleaved_monitor_path,
    run_monitor_path,
    store_factories,
)
from repro import CerFix
from repro.errors import MasterDataError
from repro.master.store import (
    ShardedMasterStore,
    SingleRelationStore,
    SqliteMasterStore,
    make_store,
    shard_of,
)
from repro.relational.relation import Relation
from repro.scenarios import uk_customers as uk

#: The CI matrix leg sets 4 to force multi-process probing; local runs
#: can lower it for speed without changing what is asserted.
PARITY_WORKERS = int(os.environ.get("CERFIX_PARITY_WORKERS", "4"))


# ---------------------------------------------------------------------------
# Differential cases: monitor and batch paths across all three backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "seed,scenario", [(101, "uk"), (202, "uk"), (303, "hospital")]
)
def test_monitor_path_parity(seed, scenario, tmp_path):
    """Stream cleaning + region precompute: identical fixes, regions,
    audit events on every backend."""
    case = generate_case(seed, scenario=scenario)
    outcomes = {
        name: run_monitor_path(case, factory())
        for name, factory in store_factories(case, tmp_path).items()
    }
    assert_parity(outcomes)
    # sanity: the case actually exercised the master data
    assert any(e["source"] == "rule" for e in outcomes["single"].audit_events)


@pytest.mark.parametrize("seed,scenario", [(404, "uk"), (505, "hospital")])
@pytest.mark.parametrize(
    "workers,backend",
    [(1, "thread"), (PARITY_WORKERS, "thread"), (PARITY_WORKERS, "process")],
)
def test_batch_path_parity(seed, scenario, workers, backend, tmp_path):
    """Batch cleaning under every executor configuration: identical
    repaired relations, audit trails and work accounting per backend."""
    case = generate_case(seed, scenario=scenario)
    outcomes = {
        name: run_batch_path(case, factory(), workers=workers, backend=backend)
        for name, factory in store_factories(case, tmp_path).items()
    }
    assert_parity(outcomes)


@pytest.mark.parametrize("seed,scenario", [(808, "uk"), (909, "hospital")])
def test_monitor_interaction_order_fuzz_parity(seed, scenario, tmp_path):
    """Interleave non-oracle user responses (oracle/cautious/selective
    mix) across sessions in seeded random orders: every interleaving,
    on every backend, must produce bit-identical per-tuple fixes and
    audit trails (the roadmap follow-up from PR 3).

    Users are fixed by ``user_seed`` while the *round order* varies with
    ``order_seed`` — so the comparison proves both backend parity and
    interleaving-independence at once."""
    from repro.core.inference import mandatory_attributes

    case = generate_case(seed, scenario=scenario, n=24 if scenario == "uk" else 10)
    # Cap the region search at the mandatory core for the wide hospital
    # schema — level len(core)+1 alone costs ~17s there; parity is still
    # asserted over the regions the capped search finds.
    max_size = (
        None
        if scenario == "uk"
        else len(mandatory_attributes(case.ruleset, case.ruleset.input_schema))
    )
    outcomes = {}
    for name, factory in store_factories(case, tmp_path).items():
        for order_seed in (1, 7):
            outcomes[f"{name}/order{order_seed}"] = run_interleaved_monitor_path(
                case,
                factory(),
                order_seed=order_seed,
                user_seed=seed,
                region_max_size=max_size,
            )
    assert_parity(outcomes)
    reference = next(iter(outcomes.values()))
    # sanity: the mix of user models actually stalls some sessions
    # (selective users run out of known attributes) and completes others
    assert 0 < reference.report["completed"] <= reference.report["tuples"]


def test_batch_rule_only_parity(tmp_path):
    """No ground truth: rule-only repair from trusted columns must also
    agree bit for bit (this is the path with no oracle to mask bugs)."""
    case = generate_case(606, scenario="uk", with_truth=False)
    assert case.validated  # the generator picked a trusted column
    outcomes = {
        name: run_batch_path(case, factory())
        for name, factory in store_factories(case, tmp_path).items()
    }
    assert_parity(outcomes)


def test_parallel_equals_serial_on_sharded_store(tmp_path):
    """Cross-check within one backend: the sharded store's serial and
    multi-process batch outputs are identical (scheduling independence
    survives the partitioned probe path)."""
    case = generate_case(707, scenario="uk")
    factory = store_factories(case, tmp_path, shards=5)["sharded"]
    # pin the plan shard count: it defaults to workers*4, and a different
    # sharding legitimately reorders the (per-tuple identical) audit replay
    serial = run_batch_path(case, factory(), workers=1, shards=8)
    parallel = run_batch_path(
        case, factory(), workers=PARITY_WORKERS, backend="process", shards=8
    )
    assert parallel.fixed_rows == serial.fixed_rows
    assert parallel.audit_events == serial.audit_events


# ---------------------------------------------------------------------------
# Property-based probe parity (Hypothesis; generators in conftest.py)
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(case=probe_cases(), shards=st.sampled_from((1, 2, 3, 7, 64)))
def test_sharded_probe_equals_single_probe(case, shards):
    """For arbitrary master content, rules, keys and shard counts —
    including N=1 and N far above the distinct-key count — a routed
    sharded probe returns exactly what the global index returns."""
    master, rule, values = case
    single = SingleRelationStore(Relation(master.schema, master.tuples()))
    sharded = ShardedMasterStore(Relation(master.schema, master.tuples()), shards=shards)
    expected = single.probe(rule, values)
    got = sharded.probe(rule, values)
    assert got == expected
    # the scan path is backend-shared, but pin it anyway
    assert sharded.probe(rule, values, use_index=False) == single.probe(
        rule, values, use_index=False
    )


@settings(max_examples=60, deadline=None)
@given(case=probe_cases(), shards=st.sampled_from((1, 2, 5)))
def test_sharded_ambiguous_keys_equal_single(case, shards):
    master, rule, _ = case
    single = SingleRelationStore(Relation(master.schema, master.tuples()))
    sharded = ShardedMasterStore(Relation(master.schema, master.tuples()), shards=shards)
    assert sharded.ambiguous_keys(rule) == single.ambiguous_keys(rule)


@settings(max_examples=60, deadline=None)
@given(case=probe_cases(), shards=st.sampled_from((1, 3, 64)))
def test_sharded_probe_survives_pickling(case, shards):
    """A pickled sharded store (what process-pool workers receive)
    probes identically to the original, rebuilding shards lazily."""
    master, rule, values = case
    sharded = ShardedMasterStore(Relation(master.schema, master.tuples()), shards=shards)
    before = sharded.probe(rule, values)
    clone = pickle.loads(pickle.dumps(sharded))
    assert clone.stats()["shard_indexes_built"] == 0  # nothing shipped
    assert clone.probe(rule, values) == before
    built = clone.stats()["shard_indexes_built"]
    assert built <= 1  # only the routed shard materialised


# ---------------------------------------------------------------------------
# Crash safety: sqlite snapshot + checkpoint journal survive a kill
# ---------------------------------------------------------------------------


def test_sqlite_batch_crash_resume_matches_uninterrupted(tmp_path, monkeypatch):
    """Kill a sqlite-backed batch run mid-shard; a fresh process that
    reloads the snapshot and the journal must produce the same repaired
    relation and the same (scheduling-independent) BatchReport as an
    uninterrupted run."""
    master = uk.generate_master(20, seed=51)
    wl = uk.generate_workload(master, 40, rate=0.25, seed=52)
    db = tmp_path / "master.db"
    journal = tmp_path / "journal.jsonl"

    baseline_engine = CerFix(
        uk.paper_ruleset(), master, store="sqlite", store_path=db
    )
    expected = baseline_engine.clean_relation(wl.dirty, wl.clean, workers=1, shards=4)

    # Crash after two shards have been journaled.
    real = executor_mod._run_shard
    calls = {"n": 0}

    def crashing(shard, ctx, base, cache, *memos):
        if calls["n"] >= 2:
            raise RuntimeError("simulated mid-shard kill")
        calls["n"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", crashing)
    with pytest.raises(RuntimeError, match="simulated mid-shard kill"):
        CerFix(uk.paper_ruleset(), master, store="sqlite", store_path=db).clean_relation(
            wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
        )
    monkeypatch.setattr(executor_mod, "_run_shard", real)
    assert sum(
        1 for l in journal.read_text().splitlines() if json.loads(l)["kind"] == "shard"
    ) == 2

    # "Restart": the master relation comes back from the *snapshot*, not
    # from the in-memory object the crashed run held.
    restarted = SqliteMasterStore(db)
    assert restarted.relation.tuples() == master.tuples()
    resumed = CerFix(uk.paper_ruleset(), restarted).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )

    assert resumed.relation.tuples() == expected.relation.tuples()
    assert resumed.report.resumed_shards == 2
    assert normalize_report(resumed.report.to_json()) == normalize_report(
        expected.report.to_json()
    )


# ---------------------------------------------------------------------------
# Store construction, persistence and selection edges
# ---------------------------------------------------------------------------


def test_sqlite_snapshot_roundtrip(tmp_path, paper_master):
    db = tmp_path / "m.db"
    written = SqliteMasterStore(db, paper_master)
    loaded = SqliteMasterStore(db)
    assert loaded.relation.tuples() == paper_master.tuples()
    assert loaded.schema.names == paper_master.schema.names
    assert loaded.stored_digest() == written.content_digest()


def test_sqlite_update_writes_through(tmp_path, paper_master):
    db = tmp_path / "m.db"
    store = SqliteMasterStore(db, Relation(paper_master.schema, paper_master.tuples()))
    first = dict(zip(paper_master.schema.names, paper_master.tuples()[0]))
    store.apply_update(add=[first], remove=[1])
    reloaded = SqliteMasterStore(db)
    assert reloaded.relation.tuples() == store.relation.tuples()
    assert reloaded.stored_digest() == store.content_digest()


def test_sqlite_missing_snapshot_is_loud(tmp_path):
    with pytest.raises(MasterDataError):
        SqliteMasterStore(tmp_path / "absent.db")


def test_sqlite_rejects_non_scalar_cells(tmp_path):
    """Only JSON scalars round-trip the snapshot losslessly; anything
    else must fail loudly at save time, not come back silently altered."""
    from repro.relational.schema import Schema

    rel = Relation(Schema("m", ["k", "v"]), [(("a", "b"), "x")])
    with pytest.raises(MasterDataError, match="JSON scalar"):
        SqliteMasterStore(tmp_path / "m.db", rel)
    assert not (tmp_path / "m.db").exists()  # validation precedes the write
    # int/float/bool/None cells are fine and round-trip exactly
    ok = Relation(Schema("m", ["k", "v"]), [(1, 2.5), (True, None)])
    SqliteMasterStore(tmp_path / "ok.db", ok)
    assert SqliteMasterStore(tmp_path / "ok.db").relation.tuples() == ok.tuples()


def test_sqlite_update_rejects_non_scalar_without_diverging(tmp_path, paper_master):
    """A rejected update must leave the in-memory relation AND the
    snapshot exactly as they were — not mutate memory and then fail the
    write-through, which would silently fork the two."""
    db = tmp_path / "m.db"
    store = SqliteMasterStore(db, Relation(paper_master.schema, paper_master.tuples()))
    before = store.relation.tuples()
    digest_before = store.stored_digest()
    bad = dict(zip(paper_master.schema.names, paper_master.tuples()[0]))
    bad[paper_master.schema.names[0]] = ("not", "a", "scalar")
    with pytest.raises(MasterDataError, match="JSON scalar"):
        store.apply_update(add=[bad], remove=[1])
    assert store.relation.tuples() == before  # memory untouched
    assert store.stored_digest() == digest_before  # snapshot untouched
    assert SqliteMasterStore(db).relation.tuples() == before


def test_sqlite_corrupt_snapshot_payload_is_loud(tmp_path, paper_master):
    """Truncated/hand-edited JSON inside the snapshot must surface as
    MasterDataError (which the CLI prettifies), not a raw decode error."""
    import sqlite3

    db = tmp_path / "m.db"
    SqliteMasterStore(db, paper_master)
    conn = sqlite3.connect(db)
    with conn:
        conn.execute("UPDATE cerfix_master SET row = '[truncated' WHERE pos = 0")
    conn.close()
    with pytest.raises(MasterDataError, match="corrupt payload"):
        SqliteMasterStore(db)


def test_sqlite_tampered_snapshot_fails_digest_check(tmp_path, paper_master):
    import json
    import sqlite3

    db = tmp_path / "m.db"
    SqliteMasterStore(db, paper_master)
    tampered = list(paper_master.tuples()[0])
    tampered[0] = "Mallory"
    conn = sqlite3.connect(db)
    with conn:
        conn.execute(
            "UPDATE cerfix_master SET row = ? WHERE pos = 0", (json.dumps(tampered),)
        )
    conn.close()
    with pytest.raises(MasterDataError, match="content-digest check"):
        SqliteMasterStore(db)


def test_make_store_selection(tmp_path, paper_master):
    assert make_store(paper_master, "single").backend == "single"
    sharded = make_store(paper_master, "sharded", shards=7)
    assert sharded.backend == "sharded" and sharded.shards == 7
    sqlite = make_store(paper_master, "sqlite", path=tmp_path / "m.db")
    assert sqlite.backend == "sqlite"
    with pytest.raises(MasterDataError):
        make_store(paper_master, "sqlite")  # no path
    with pytest.raises(MasterDataError):
        make_store(paper_master, "mongodb")
    with pytest.raises(MasterDataError):
        ShardedMasterStore(paper_master, shards=0)


def test_shard_routing_is_deterministic_and_total():
    keys = [("EH8 4AH",), ("", ""), ("a", "b"), (None,), ("131",)]
    for n in (1, 2, 3, 64):
        for key in keys:
            s = shard_of(key, n)
            assert 0 <= s < n
            assert s == shard_of(key, n)  # stable within a process
    assert all(shard_of(k, 1) == 0 for k in keys)


def test_sharded_stats_track_probes(paper_ruleset, paper_master):
    store = ShardedMasterStore(
        Relation(paper_master.schema, paper_master.tuples()), shards=3
    )
    store.prebuild(paper_ruleset)
    values = uk.fig3_truth()
    n_probes = 0
    for rule in paper_ruleset:
        if not rule.is_constant:
            store.probe(rule, values)
            n_probes += 1
    stats = store.stats()
    assert stats["backend"] == "sharded"
    assert stats["shards"] == 3
    assert sum(stats["probes_by_shard"]) == n_probes
    assert stats["specs_partitioned"] == len(paper_ruleset.index_specs())


def test_engine_store_selection_and_instance_surface(tmp_path):
    engine = CerFix(
        uk.paper_ruleset(), uk.paper_master(), store="sharded", store_shards=2
    )
    assert engine.master.store.backend == "sharded"
    from repro.service.app import RoutingCore

    status, payload = RoutingCore(engine).handle("GET", "/api/instance", None)
    assert status == 200
    assert payload["store"]["backend"] == "sharded"
    assert payload["store"]["shards"] == 2
    with pytest.raises(Exception):
        CerFix(uk.paper_ruleset(), engine.master, store="sharded")  # already wrapped
