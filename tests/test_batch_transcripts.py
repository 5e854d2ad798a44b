"""The session-transcript memo and group-level audit segments.

The batch executor resolves each distinct answer path once and replays
it onto every other group on that path; the pipeline stores one audit
segment per group instead of one event per member and cell. Both are
pure speed-ups, so every test here is a differential against the
per-group / per-event form:

(a) a log built from segments agrees with one built event by event;
(b) hostile memo keys (typed answers, unhashable values, projected
    payload, tuple-id overrides, truncated and conflicting sessions);
(c) real sessions equal distinct transcripts;
(d) serial, thread and process backends agree byte for byte;
(e) a journal without the transcript counters still resumes.
"""

from __future__ import annotations

import json
import pickle
import random
import sys
import threading
from dataclasses import replace

import pytest

from repro import CerFix
from repro.audit.log import AuditLog
from repro.batch import executor as executor_mod
from repro.batch.executor import BatchContext, GroupOutcome, ShardResult
from repro.batch.planner import PlanGroup
from repro.cache import LRUCache
from repro.master.conformance import normalize_report
from repro.master.manager import MasterDataManager
from repro.master.plane import CachedMasterDataManager
from repro.obs.metrics import get_registry
from repro.relational.relation import Relation
from repro.scenarios import uk_customers as uk
from conftest import street_variants

# ---------------------------------------------------------------------------
# (a) AuditLog: segments vs per-event record
# ---------------------------------------------------------------------------

_VALUES = ["x", "y", 1, 1.0, True, None, 0]


def _random_event(rng: random.Random) -> dict:
    event = {
        "attr": rng.choice("ABC"),
        "old": rng.choice(_VALUES),
        "new": rng.choice(_VALUES),
        "source": rng.choice(("user", "rule", "normalize")),
        "rule_id": rng.choice((None, "r1", "r2")),
        "master_positions": tuple(rng.sample(range(5), rng.randint(0, 2))),
        "round_no": rng.randint(0, 3),
    }
    if rng.random() < 0.3:
        event["trace_id"] = "t" * 16
        event["span_id"] = rng.choice(("a", "b")) * 16
    return event


def _random_ops(seed: int, prefix: str = "", n: int = 40) -> list[tuple]:
    """Single records and group segments; tuple ids repeat on purpose."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        if rng.random() < 0.3:
            ops.append(("record", f"{prefix}t{rng.randint(0, 9)}", _random_event(rng)))
            continue
        tids = [f"{prefix}t{rng.randint(0, 9)}" for _ in range(rng.randint(0, 4))]
        events = [_random_event(rng) for _ in range(rng.randint(0, 4))]
        olds = {
            (i, j): rng.choice(_VALUES)
            for i in range(len(tids))
            for j in range(len(events))
            if rng.random() < 0.3
        }
        ops.append(("group", tids, events, olds))
    return ops


def _apply(log: AuditLog, ops: list[tuple], *, segments: bool) -> None:
    for op in ops:
        if op[0] == "record":
            _, tid, e = op
            _record(log, tid, e)
        elif segments:
            log.record_group(op[1], op[2], op[3])
        else:
            _, tids, events, olds = op
            for i, tid in enumerate(tids):
                for j, e in enumerate(events):
                    _record(log, tid, {**e, "old": olds.get((i, j), e["old"])})


def _record(log: AuditLog, tid: str, e: dict) -> None:
    log.record(
        tid, e["attr"], e["old"], e["new"], e["source"],
        rule_id=e["rule_id"], master_positions=e["master_positions"],
        round_no=e["round_no"], trace_id=e.get("trace_id"), span_id=e.get("span_id"),
    )


def _typed(events) -> list[str]:
    """Events in a form where ``1``, ``1.0`` and ``True`` differ."""
    return [json.dumps(e.to_json(), sort_keys=True) for e in events]


@pytest.mark.parametrize("seed", range(8))
def test_segment_log_matches_per_event_log(seed, tmp_path):
    ops = _random_ops(seed)
    seg, ref = AuditLog(), AuditLog()
    _apply(seg, ops, segments=True)
    _apply(ref, ops, segments=False)

    assert _typed(seg.events) == _typed(ref.events)
    assert [e.seq for e in seg.events] == list(range(len(ref)))
    assert len(seg) == len(ref)
    assert _typed(iter(seg)) == _typed(iter(ref))
    assert seg.stats() == ref.stats()
    assert seg.tuple_ids() == ref.tuple_ids()
    for tid in ref.tuple_ids() + ["absent"]:
        assert _typed(seg.by_tuple(tid)) == _typed(ref.by_tuple(tid))
    for attr in "ABCZ":
        assert _typed(seg.by_attr(attr)) == _typed(ref.by_attr(attr))
    changed = lambda e: e.changed  # noqa: E731
    assert _typed(seg.filter(changed)) == _typed(ref.filter(changed))

    seg.to_jsonl(tmp_path / "seg.jsonl")
    ref.to_jsonl(tmp_path / "ref.jsonl")
    assert (tmp_path / "seg.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    loaded = AuditLog.from_jsonl(tmp_path / "seg.jsonl")
    assert loaded.events == AuditLog.from_jsonl(tmp_path / "ref.jsonl").events
    assert loaded.stats() == ref.stats()

    clone = pickle.loads(pickle.dumps(seg))
    assert _typed(clone.events) == _typed(ref.events)
    for tid in ref.tuple_ids():
        assert _typed(clone.by_tuple(tid)) == _typed(ref.by_tuple(tid))
    # The clone keeps appending where the original stopped.
    _record(clone, "t0", _random_event(random.Random(seed)))
    assert clone.events[-1].seq == len(ref)


def test_stats_never_materialise(monkeypatch):
    log = AuditLog()
    log.record_group(["t0", "t1"], [_random_event(random.Random(0))])
    monkeypatch.setattr(
        "repro.audit.log._Segment.member",
        lambda *a: pytest.fail("stats() materialised a segment"),
    )
    assert log.stats() == {"events": 2, "tuples": 2}
    assert len(log) == 2
    assert log.tuple_ids() == ["t0", "t1"]


def test_record_group_rejects_unknown_source():
    log = AuditLog()
    bad = {**_random_event(random.Random(0)), "source": "guess"}
    with pytest.raises(Exception, match="unknown audit source"):
        log.record_group(["t0"], [bad])
    assert len(log) == 0


def test_interleaved_threads_keep_sequence_order():
    """Concurrent record and segment appends: sequence numbers stay
    dense, every thread's events keep program order, and a segment's
    events stay contiguous."""
    threads_ops = [_random_ops(100 + k, prefix=f"w{k}", n=60) for k in range(4)]
    log = AuditLog()
    barrier = threading.Barrier(len(threads_ops))

    def work(ops):
        barrier.wait()
        _apply(log, ops, segments=True)

    threads = [threading.Thread(target=work, args=(ops,)) for ops in threads_ops]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)

    events = log.events
    assert [e.seq for e in events] == list(range(len(events)))
    for k, ops in enumerate(threads_ops):
        ref = AuditLog()
        _apply(ref, ops, segments=False)
        mine = [e for e in events if e.tuple_id.startswith(f"w{k}")]
        assert _typed(replace(e, seq=0) for e in mine) == _typed(
            replace(e, seq=0) for e in ref.events
        )
        for tid in ref.tuple_ids():
            seqs = [e.seq for e in log.by_tuple(tid)]
            assert seqs == sorted(seqs)
            assert len(seqs) == len(ref.by_tuple(tid))
    for entry in log._snapshot():  # segments hold dense seq ranges
        if not hasattr(entry, "tuple_ids"):
            continue
        seqs = [e.seq for i in range(len(entry.tuple_ids)) for e in entry.member(i)]
        assert seqs == list(range(entry.base, entry.base + len(seqs)))


def test_per_tuple_index_catches_up_under_concurrent_appends():
    """The per-tuple index is built on query: readers catching it up
    while writers append must leave every event indexed exactly once."""
    event = _random_event(random.Random(0))
    log = AuditLog()
    writing = threading.Event()
    writing.set()

    def write(k):
        for i in range(5000):
            log.record_group([f"w{k}t{i % 10}"], [event])

    def read():
        while writing.is_set():
            log.stats()

    writers = [threading.Thread(target=write, args=(k,)) for k in range(4)]
    readers = [threading.Thread(target=read) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        writing.clear()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + writers)
    for k in range(4):
        for i in range(10):
            assert len(log.by_tuple(f"w{k}t{i}")) == 500
    assert log.stats() == {"events": 20000, "tuples": 40}


# ---------------------------------------------------------------------------
# (b) Hostile memo keys, at the executor
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    master = uk.generate_master(6, seed=3)
    wl = uk.generate_workload(master, 200, rate=0.3, seed=4)
    return master, wl


def _ctx(master, **kw) -> BatchContext:
    return BatchContext(ruleset=uk.paper_ruleset(), master=MasterDataManager(master), **kw)


def _group(i: int, values: dict, truth: dict | None) -> PlanGroup:
    return PlanGroup(representative=i, members=(i,), values=values, truth=truth)


def _canonical(outcome, values: dict | None = None) -> str:
    """The outcome as JSON; with ``values``, bound onto that row the way
    the pipeline binds a member: each attribute's first ``old`` is the
    row's own, changed cells are recounted, and ``values`` is the row
    with every touched cell at its last ``new``."""
    obj = outcome.to_json()
    if values is not None:
        state = dict(values)
        events = []
        for e in obj["audit_events"]:
            if e["attr"] not in {x["attr"] for x in events}:
                e = {**e, "old": values[e["attr"]]}
            state[e["attr"]] = e["new"]
            events.append(e)
        obj["audit_events"] = events
        obj["changed_cells"] = sum(e["old"] != e["new"] for e in events)
        obj["values"] = sorted(state.items())
    return json.dumps(obj, sort_keys=True)


class _Resolver:
    """Resolve groups through one run's worth of memos."""

    def __init__(self, ctx: BatchContext):
        self.ctx = ctx
        self.memos = [LRUCache(ctx.cache_size) for _ in range(4)]
        self.manager = CachedMasterDataManager(ctx.master.store, self.memos[0])

    @property
    def transcripts(self) -> LRUCache:
        return self.memos[3]

    def __call__(self, group: PlanGroup):
        return executor_mod._resolve_group(group, self.ctx, self.manager, *self.memos[1:])


def _reference(ctx: BatchContext, group: PlanGroup):
    """One real session on fresh memos — what the group must get."""
    outcome, hit = _Resolver(ctx)(group)
    assert not hit
    return outcome


def _leaves(transcripts: LRUCache) -> int:
    return sum(1 for _, node in transcripts.snapshot() if isinstance(node, GroupOutcome))


def test_typed_answers_never_share_a_node(world):
    master, wl = world
    ctx = _ctx(master)
    values, truth = wl.dirty.row(0).to_dict(), wl.clean.row(0).to_dict()
    groups = [
        _group(i, values, {**truth, "item": item})
        for i, item in enumerate([1, 1.0, True, "1"])
    ]
    resolve = _Resolver(ctx)
    first = [resolve(g) for g in groups]
    again = [resolve(g) for g in groups]
    assert [hit for _, hit in first] == [False] * 4
    assert [hit for _, hit in again] == [True] * 4
    assert _leaves(resolve.transcripts) == 4
    for g, (a, _), (b, _) in zip(groups, first, again):
        want = _reference(ctx, g)
        assert _canonical(a) == _canonical(want)
        assert _canonical(b, g.values) == _canonical(want, g.values)


def test_hit_rebinds_type_distinct_inputs(world, tmp_path, monkeypatch):
    """Rows on one answer key whose dirty cells differ only in type
    share one group: binding must report each member's own ``old``,
    exactly as a real session per row does."""
    master, wl = world
    names = wl.dirty.schema.names
    values, truth = wl.dirty.row(1).to_dict(), wl.clean.row(1).to_dict()
    variants = [("1", 1), (1, 1.0), (1.0, True), (True, "1")]
    dirty = Relation(
        wl.dirty.schema,
        [tuple({**values, "item": item, "FN": phn}[n] for n in names) for item, phn in variants],
    )
    truth_rel = Relation(wl.clean.schema, [tuple(truth[n] for n in names)] * len(variants))
    args = (uk.paper_ruleset(), master)
    memo = _run(args, dirty, truth_rel, tmp_path, "memo")
    with monkeypatch.context() as m:
        _without_memo(m)
        plain = _run(args, dirty, truth_rel, tmp_path, "plain", dedupe=False)
    assert memo[0].report.groups == 1 and plain[0].report.groups == len(variants)
    assert [repr(r) for r in memo[0].relation.raw_tuples()] == [
        repr(r) for r in plain[0].relation.raw_tuples()
    ]
    for i, (item, phn) in enumerate(variants):
        events = memo[2].by_tuple(f"t{i}")
        assert _unsequenced(events) == _unsequenced(plain[2].by_tuple(f"t{i}"))
        firsts = {e.attr: e.old for e in reversed(events)}
        assert repr(firsts["item"]) == repr(item)
        assert repr(firsts["FN"]) == repr(phn)


def _unsequenced(events) -> list[str]:
    """:func:`_typed` without sequence numbers, which follow grouping."""
    return [
        json.dumps({k: v for k, v in e.to_json().items() if k != "seq"}, sort_keys=True)
        for e in events
    ]


def test_chase_memo_rebinds_type_distinct_inputs(world):
    """Two real sessions on different answer paths share chase
    transcripts (the paths differ only in ``item``, which no rule
    reads); a rule-fixed cell whose dirty values differ only in type
    must keep each group's own ``old``."""
    master, wl = world
    ctx = _ctx(master)
    values, truth = wl.dirty.row(3).to_dict(), wl.clean.row(3).to_dict()
    resolve = _Resolver(ctx)
    for i, (dirty, item) in enumerate([(1, "DVD"), (1.0, "CD"), (True, "BOOK")]):
        group = _group(i, {**values, "city": dirty, "str": dirty}, {**truth, "item": item})
        outcome, hit = resolve(group)
        assert not hit
        fixed = [e for e in outcome.audit_events if e["attr"] == "city"]
        assert fixed and fixed[0]["source"] == "rule"
        assert _canonical(outcome) == _canonical(_reference(ctx, group))


def test_unhashable_answer_runs_a_real_session(world):
    master, wl = world
    ctx = _ctx(master)
    values, truth = wl.dirty.row(2).to_dict(), wl.clean.row(2).to_dict()
    group = _group(0, values, {**truth, "item": ["not", "hashable"]})
    resolve = _Resolver(ctx)
    outcomes = [resolve(group) for _ in range(2)]
    assert [hit for _, hit in outcomes] == [False, False]
    assert _leaves(resolve.transcripts) == 0
    want = _canonical(_reference(ctx, group))
    assert all(_canonical(o) == want for o, _ in outcomes)


def test_rule_only_memo_keys_on_the_validated_values(world):
    master, wl = world
    ctx = _ctx(master, validated=("zip",))
    resolve = _Resolver(ctx)
    rows = [wl.dirty.row(i).to_dict() for i in range(len(wl.dirty))]
    hits = 0
    for i, values in enumerate(rows):
        group = _group(i, values, None)
        outcome, hit = resolve(group)
        hits += hit
        assert _canonical(outcome, values) == _canonical(_reference(ctx, group), values)
    assert _leaves(resolve.transcripts) == len({r["zip"] for r in rows})
    assert hits == len(rows) - _leaves(resolve.transcripts)


# ---------------------------------------------------------------------------
# (b) Hostile memo keys, through the pipeline: memo vs no memo
# ---------------------------------------------------------------------------


def _run(engine_args, dirty, truth, tmp_path, name, **kw):
    engine = CerFix(*engine_args)
    result = engine.clean_relation(dirty, truth, **kw)
    path = tmp_path / f"{name}.jsonl"
    engine.audit.to_jsonl(path)
    return result, path.read_bytes(), engine.audit


def _without_memo(monkeypatch):
    monkeypatch.setattr(executor_mod, "_replay", lambda *a: None)


def _assert_same(a, b):
    (ra, ja, _), (rb, jb, _) = a, b
    assert ra.relation.raw_tuples() == rb.relation.raw_tuples()
    assert ja == jb
    assert normalize_report(ra.report.to_json()) == normalize_report(rb.report.to_json())


def _noisy_truth(truth: Relation, seed: int) -> Relation:
    """Truth rows with some wrong cells: sessions that conflict with the
    master data or never complete."""
    rng = random.Random(seed)
    rows = []
    for row in truth.tuples():
        row = list(row)
        if rng.random() < 0.3:
            i = rng.randrange(len(row))
            row[i] = f"{row[i]}!wrong"
        rows.append(tuple(row))
    return Relation(truth.schema, rows)


CASES = {
    "plain": {},
    "max-rounds-1": {"max_rounds": 1},
    "tuple-ids": {"tuple_ids": "dup"},
    "noisy-truth": {"noisy": True},
    "rule-only": {"truth": None, "validated": ("zip",)},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_memo_matches_real_sessions(world, tmp_path, monkeypatch, name):
    master, wl = world
    kw = dict(CASES[name])
    truth = wl.clean
    if kw.pop("noisy", False):
        truth = _noisy_truth(wl.clean, 7)
    truth = kw.pop("truth", truth)
    if kw.get("tuple_ids") == "dup":  # duplicate ids: by_tuple must merge
        kw["tuple_ids"] = [f"id{i % 50}" for i in range(len(wl.dirty))]
    args = (uk.paper_ruleset(), master)
    memo = _run(args, wl.dirty, truth, tmp_path, "memo", **kw)
    with monkeypatch.context() as m:
        _without_memo(m)
        plain = _run(args, wl.dirty, truth, tmp_path, "plain", **kw)
    _assert_same(memo, plain)
    for tid in plain[2].tuple_ids()[:60]:
        assert _typed(memo[2].by_tuple(tid)) == _typed(plain[2].by_tuple(tid))
    report = memo[0].report
    if name == "noisy-truth":
        assert report.conflicts > 0 or report.incomplete > 0
    if name == "max-rounds-1":
        assert report.incomplete > 0


def test_projected_payload_replays_each_members_old(world, tmp_path, monkeypatch):
    """Rows differing only in a payload cell (``item`` — no rule reads
    it) share a group; the oracle validates ``item``, so each member's
    audit must show its *own* dirty item, typed."""
    master, wl = world
    rng = random.Random(5)
    items = ["DVD", 1, 1.0, True, "dvd"]
    position = wl.dirty.schema.position("item")
    rows = []
    for row in wl.dirty.tuples():
        row = list(row)
        row[position] = rng.choice(items)
        rows.append(tuple(row))
    dirty = Relation(wl.dirty.schema, rows)
    args = (uk.paper_ruleset(), master)
    memo = _run(args, dirty, wl.clean, tmp_path, "memo")
    with monkeypatch.context() as m:
        _without_memo(m)
        plain = _run(args, dirty, wl.clean, tmp_path, "plain")
    _assert_same(memo, plain)
    assert memo[0].report.groups < len(dirty)  # payload rows collapsed
    for i in range(len(dirty)):
        item_events = [e for e in memo[2].by_tuple(f"t{i}") if e.attr == "item"]
        assert item_events
        assert repr(item_events[0].old) == repr(rows[i][position])


# ---------------------------------------------------------------------------
# (c) Real sessions equal distinct transcripts
# ---------------------------------------------------------------------------


def test_real_sessions_equal_distinct_transcripts(world, monkeypatch):
    master, wl = world
    sessions = {"n": 0}
    real = executor_mod.MonitorSession

    class Counting(real):
        def __init__(self, *a, **kw):
            sessions["n"] += 1
            super().__init__(*a, **kw)

    monkeypatch.setattr(executor_mod, "MonitorSession", Counting)
    registry = get_registry()
    before = {k: registry.counter_value(f"cerfix.transcript_memo.{k}") for k in ("hits", "misses")}
    engine = CerFix(uk.paper_ruleset(), master)
    result = engine.clean_relation(*street_variants(wl.dirty, wl.clean))
    hits, misses = (
        registry.counter_value(f"cerfix.transcript_memo.{k}") - before[k]
        for k in ("hits", "misses")
    )
    transcripts = {
        tuple(
            (e.attr, e.source, e.rule_id, type(e.new).__name__, e.new, e.round_no)
            for e in engine.audit.by_tuple(tid)
        )
        for tid in engine.audit.tuple_ids()
    }
    assert sessions["n"] == misses == len(transcripts)
    assert hits + misses == result.report.groups
    assert hits > 0
    assert get_registry().gauge_value("cerfix.transcript_memo.size") > 0


# ---------------------------------------------------------------------------
# (d) Backend identity
# ---------------------------------------------------------------------------


def test_backends_agree_byte_for_byte(world, tmp_path):
    master, wl = world
    args = (uk.paper_ruleset(), master)
    ids = [f"row-{i % 70}" for i in range(len(wl.dirty))]
    # One shard count for all: the audit's global order follows shards.
    runs = [
        _run(
            args, wl.dirty, wl.clean, tmp_path, f"{w}{b}",
            workers=w, backend=b, shards=4, tuple_ids=ids,
        )
        for w, b in ((1, "thread"), (2, "thread"), (2, "process"))
    ]
    assert runs[2][0].report.backend == "process"
    for other in runs[1:]:
        _assert_same(runs[0], other)


# ---------------------------------------------------------------------------
# (e) Journals written without the transcript counters still resume
# ---------------------------------------------------------------------------


def test_journal_without_transcript_counts_resumes(world, tmp_path):
    master, wl = world
    args = (uk.paper_ruleset(), master)
    journal = tmp_path / "clean.journal"
    fresh = _run(args, wl.dirty, wl.clean, tmp_path, "fresh", journal_path=journal)
    lines = []
    for line in journal.read_text().splitlines():
        obj = json.loads(line)
        assert obj.get("kind") != "shard" or "transcript_hits" in obj
        obj.pop("transcript_hits", None)
        obj.pop("transcript_misses", None)
        lines.append(json.dumps(obj))
    journal.write_text("\n".join(lines) + "\n")

    resumed = _run(args, wl.dirty, wl.clean, tmp_path, "resumed", journal_path=journal)
    assert resumed[0].report.resumed_shards == len(resumed[0].report.shards) > 0
    _assert_same(fresh, resumed)
    old = json.loads(lines[-1])
    result = ShardResult.from_json(old)
    assert (result.transcript_hits, result.transcript_misses) == (0, 0)
