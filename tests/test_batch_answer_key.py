"""Answer-key planning against one real session per row.

The planner groups rows on their answer key (the typed truth row, or
rule-only the typed dirty values of ``validated``) and the pipeline
binds each group's transcript onto every member column by column. That
is a pure speed-up, so every test here is a differential against
``dedupe=False`` with the session-transcript memo switched off — one
real :class:`~repro.monitor.session.MonitorSession` per row — over rows
built to stress the binding: members with type-distinct dirty cells
(``1``/``1.0``/``True``) in read and payload columns, exact duplicates,
and truth rows that differ only where no question asks.

The relation is compared with its types, the report without the
grouping counts, and every tuple's audit trail without sequence
numbers (the global order follows the groups). Also here: regression
tests for typed truth and unhashable cells, and the plan fingerprint.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import CerFix
from repro.batch import executor as executor_mod
from repro.batch import pipeline as pipeline_mod
from repro.core.certainty import CertaintyMode
from repro.dirty import DirtyTable
from repro.master.conformance import normalize_report
from repro.relational.relation import Relation
from repro.scenarios import uk_customers as uk
from conftest import street_variants

#: Report keys that follow the grouping, not the repair.
_GROUPING_KEYS = ("groups", "duplicates_collapsed", "dedup_ratio", "shard_workload")


@pytest.fixture(scope="module")
def world():
    master = uk.generate_master(6, seed=3)
    wl = uk.generate_workload(master, 160, rate=0.3, seed=4)
    return master, _hostile(wl.dirty, wl.clean, seed=9)


def _hostile(dirty: Relation, truth: Relation, seed: int) -> tuple[Relation, Relation]:
    """Street variants, exact duplicates and type-distinct dirty cells."""
    dirty, truth = street_variants(dirty, truth, every=4)
    rng = random.Random(seed)
    names = dirty.schema.names
    typed = [1, 1.0, True, "1", 0, 0.0, False]
    rows, truths = [], []
    for row, want in zip(dirty.raw_tuples(), truth.raw_tuples()):
        row = list(row)
        for attr in ("item", "FN", "city", "AC"):
            if rng.random() < 0.2:
                row[names.index(attr)] = rng.choice(typed)
        rows.append(tuple(row))
        truths.append(want)
        if rng.random() < 0.1:
            rows.append(tuple(row))
            truths.append(want)
    return Relation(dirty.schema, rows), Relation(truth.schema, truths)


def _noisy(truth: Relation, seed: int) -> Relation:
    """Truth rows with some wrong cells: sessions that conflict with the
    master data or never complete."""
    rng = random.Random(seed)
    rows = []
    for row in truth.raw_tuples():
        row = list(row)
        if rng.random() < 0.3:
            i = rng.randrange(len(row))
            row[i] = f"{row[i]}!wrong"
        rows.append(tuple(row))
    return Relation(truth.schema, rows)


def _engine(master, mode: CertaintyMode | None) -> CerFix:
    if mode is CertaintyMode.SCENARIO:
        return CerFix(uk.paper_ruleset(), master, mode=mode, scenario=uk.scenario_tuples(master))
    return CerFix(uk.paper_ruleset(), master)


def _view(engine: CerFix, result, *, merge: bool = False) -> tuple:
    """(typed rows, report sans grouping counts, per-tuple audit trails).
    ``merge`` sorts each tuple id's events: with ids shared across rows
    the rows' trails interleave in group order."""
    report = normalize_report(result.report.to_json())
    for key in _GROUPING_KEYS:
        report.pop(key, None)
    trails = {}
    for tid in engine.audit.tuple_ids():
        events = [
            json.dumps({k: v for k, v in e.to_json().items() if k != "seq"}, sort_keys=True)
            for e in engine.audit.by_tuple(tid)
        ]
        trails[tid] = sorted(events) if merge else events
    return [repr(r) for r in result.relation.raw_tuples()], report, trails


def _reference(monkeypatch, master, dirty, truth, mode=None, **kw) -> tuple:
    """One real session per row: no grouping, no transcript memo."""
    with monkeypatch.context() as m:
        m.setattr(executor_mod, "_replay", lambda *a: None)
        engine = _engine(master, mode)
        result = engine.clean_relation(dirty, truth, dedupe=False, **kw)
    assert result.report.groups == len(dirty)
    return engine, result


CASES = {
    "oracle": {},
    "rule-only": {"truth": None, "validated": ("zip",)},
    "rule-only-nothing-validated": {"truth": None},
    "max-rounds-1": {"max_rounds": 1},
    "noisy-truth": {"noisy": True},
    "scenario": {"mode": CertaintyMode.SCENARIO},
    "seeded-oracle": {"validated": ("zip",)},
    "duplicate-tuple-ids": {"tuple_ids": True},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_answer_keys_match_one_session_per_row(world, monkeypatch, name):
    master, (dirty, truth) = world
    kw = dict(CASES[name])
    if kw.pop("noisy", False):
        truth = _noisy(truth, 7)
    truth = kw.pop("truth", truth)
    mode = kw.pop("mode", None)
    merge = kw.pop("tuple_ids", False)
    if merge:
        kw["tuple_ids"] = [f"id{i % 37}" for i in range(len(dirty))]
    ref_engine, ref = _reference(monkeypatch, master, dirty, truth, mode, **kw)
    engine = _engine(master, mode)
    keyed = engine.clean_relation(dirty, truth, **kw)
    assert keyed.report.groups < len(dirty)
    assert _view(engine, keyed, merge=merge) == _view(ref_engine, ref, merge=merge)
    if name == "noisy-truth":
        assert keyed.report.conflicts > 0 or keyed.report.incomplete > 0
    if name == "max-rounds-1":
        assert keyed.report.incomplete > 0


@pytest.mark.parametrize("workers,backend", [(1, "thread"), (2, "thread"), (2, "process")])
def test_answer_keys_match_across_backends(world, monkeypatch, workers, backend):
    master, (dirty, truth) = world
    ref_engine, ref = _reference(monkeypatch, master, dirty, truth)
    engine = _engine(master, None)
    keyed = engine.clean_relation(dirty, truth, workers=workers, backend=backend, shards=3)
    assert keyed.report.backend == backend
    assert _view(engine, keyed) == _view(ref_engine, ref)


def test_paged_rule_only_clean_matches_one_session_per_row(world, monkeypatch, tmp_path):
    """The DB cleaner over pages (``CERFIX_PAGE_ROWS`` in CI) writes
    what one session per row computes."""
    master, (dirty, _) = world
    # A database column has no booleans; ``1`` and ``1.0`` stay apart.
    dirty = Relation(
        dirty.schema,
        [tuple(int(v) if type(v) is bool else v for v in row) for row in dirty.raw_tuples()],
    )
    db = tmp_path / "dirty.db"
    table = DirtyTable.create(db, dirty)
    _, ref = _reference(monkeypatch, master, dirty, None, validated=("zip",))
    _engine(master, None).clean_table(db, validated=("zip",))
    conn = table.backend.connect(readonly=True)
    try:
        rows = table.read_relation(conn, dirty.schema).raw_tuples()
    finally:
        conn.close()
    assert [repr(r) for r in rows] == [repr(r) for r in ref.relation.raw_tuples()]


# ---------------------------------------------------------------------------
# Regressions: typed truth and unhashable cells
# ---------------------------------------------------------------------------


def test_truth_differing_only_in_type_keeps_its_type(world):
    """Truth ``item`` values ``1`` and ``1.0`` are different answers:
    each row must come out with its own."""
    master, (dirty, truth) = world
    item = truth.schema.position("item")
    row, want = dirty.raw_tuples()[0], truth.raw_tuples()[0]
    truths = [want[:item] + (value,) + want[item + 1:] for value in (1, 1.0, True)]
    result = CerFix(uk.paper_ruleset(), master).clean_relation(
        Relation(dirty.schema, [row] * 3), Relation(truth.schema, truths)
    )
    assert [repr(r[item]) for r in result.relation.raw_tuples()] == ["1", "1.0", "True"]


@pytest.mark.parametrize("validated", [(), ("zip",)])
def test_unhashable_cell_in_a_rule_read_column_cleans(world, monkeypatch, validated):
    master, (dirty, truth) = world
    rows = list(dirty.raw_tuples()[:20])
    fn = dirty.schema.position("FN")
    for i in (0, 5, 6):
        rows[i] = rows[i][:fn] + (["x"],) + rows[i][fn + 1:]
    dirty = Relation(dirty.schema, rows)
    truth = Relation(truth.schema, truth.raw_tuples()[:20]) if not validated else None
    ref_engine, ref = _reference(monkeypatch, master, dirty, truth, validated=validated)
    engine = _engine(master, None)
    keyed = engine.clean_relation(dirty, truth, validated=validated)
    assert _view(engine, keyed) == _view(ref_engine, ref)
    if truth is not None:
        assert [e.old for e in engine.audit.by_tuple("t0") if e.attr == "FN"][0] == ["x"]


# ---------------------------------------------------------------------------
# The plan fingerprint
# ---------------------------------------------------------------------------


def _capture_plans(monkeypatch) -> list:
    plans = []
    real = pipeline_mod.build_plan

    def capture(*a, **kw):
        plans.append(real(*a, **kw))
        return plans[-1]

    monkeypatch.setattr(pipeline_mod, "build_plan", capture)
    return plans


def test_fingerprint_is_computed_only_for_a_journal(world, monkeypatch, tmp_path):
    master, (dirty, truth) = world
    plans = _capture_plans(monkeypatch)
    engine = _engine(master, None)
    engine.clean_relation(dirty, truth)
    engine.clean_relation(dirty, truth, journal_path=tmp_path / "clean.journal")
    # ``fingerprint`` is computed on first use and cached on the plan.
    assert ["fingerprint" in vars(plan) for plan in plans] == [False, True]


def test_journal_refuses_to_resume_when_only_a_payload_column_changed(
    world, monkeypatch, tmp_path
):
    """``item`` lies outside the answer key (the truth row): changing a
    dirty ``item`` keeps the grouping but must still void the journal."""
    master, (dirty, truth) = world
    item = dirty.schema.position("item")
    rows = list(dirty.raw_tuples())
    rows[3] = rows[3][:item] + ("changed payload",) + rows[3][item + 1:]
    changed = Relation(dirty.schema, rows)
    before, after = _capture_plans(monkeypatch), None
    journal = tmp_path / "clean.journal"
    _engine(master, None).clean_relation(dirty, truth, journal_path=journal)
    again = _engine(master, None).clean_relation(dirty, truth, journal_path=journal)
    assert again.report.resumed_shards == len(again.report.shards) > 0
    engine = _engine(master, None)
    after = engine.clean_relation(changed, truth, journal_path=journal)
    assert after.report.resumed_shards == 0
    assert before[0].row_group == before[-1].row_group
    assert before[0].fingerprint != before[-1].fingerprint
    first_item = [e for e in engine.audit.by_tuple("t3") if e.attr == "item"][0]
    assert first_item.old == "changed payload"
