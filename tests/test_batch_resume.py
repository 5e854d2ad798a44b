"""Checkpoint journal: crash-safe resume of interrupted batch runs."""

from __future__ import annotations

import json

import pytest

from repro import CerFix
from repro.batch import CheckpointJournal
import repro.batch.executor as executor_mod
from repro.scenarios import uk_customers as uk


@pytest.fixture(scope="module")
def workload():
    master = uk.generate_master(20, seed=41)
    wl = uk.generate_workload(master, 40, rate=0.25, seed=42)
    return master, wl


def _engine(master):
    return CerFix(uk.paper_ruleset(), master)


def test_resume_after_simulated_crash(workload, tmp_path, monkeypatch):
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    expected = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4
    )

    # Crash the worker after two shards have been journaled.
    real = executor_mod._run_shard
    calls = {"n": 0}

    def crashing(shard, ctx, base, cache, *memos):
        if calls["n"] >= 2:
            raise RuntimeError("simulated mid-run crash")
        calls["n"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", crashing)
    with pytest.raises(RuntimeError, match="simulated mid-run crash"):
        _engine(master).clean_relation(
            wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
        )
    monkeypatch.setattr(executor_mod, "_run_shard", real)

    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    assert lines[0]["kind"] == "header"
    assert sum(1 for l in lines if l["kind"] == "shard") == 2

    resumed = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    assert resumed.relation.tuples() == expected.relation.tuples()
    assert resumed.report.resumed_shards == 2
    assert resumed.report.executed_shards == 2
    # resumed shards keep their recorded accounting
    assert resumed.report.completed == expected.report.completed
    assert resumed.report.user_cells == expected.report.user_cells


def test_complete_journal_skips_all_work(workload, tmp_path, monkeypatch):
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    first = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )

    def exploding(*args, **kwargs):
        raise AssertionError("no shard should execute on a complete journal")

    monkeypatch.setattr(executor_mod, "_run_shard", exploding)
    second = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    assert second.relation.tuples() == first.relation.tuples()
    assert second.report.resumed_shards == 4
    assert second.report.executed_shards == 0


def test_stale_journal_is_discarded(workload, tmp_path):
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    # A different workload fingerprints differently: full rerun, no leakage.
    other = uk.generate_workload(master, 40, rate=0.25, seed=99)
    fresh = _engine(master).clean_relation(
        other.dirty, other.clean, workers=1, shards=4
    )
    resumed = _engine(master).clean_relation(
        other.dirty, other.clean, workers=1, shards=4, journal_path=journal
    )
    assert resumed.relation.tuples() == fresh.relation.tuples()
    assert resumed.report.resumed_shards == 0


def test_journal_discarded_when_master_content_changes(workload, tmp_path):
    """Same master cardinality, different content -> different fingerprint.
    A checkpoint computed against old master data must never be resumed."""
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    altered = uk.generate_master(20, seed=77)  # same row count, other people
    assert len(altered) == len(master)
    resumed = CerFix(uk.paper_ruleset(), altered).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    assert resumed.report.resumed_shards == 0


def test_torn_tail_line_is_dropped(workload, tmp_path):
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    text = journal.read_text()
    journal.write_text(text + '{"kind": "shard", "shard_id": 99, "trunc')  # torn write
    resumed = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    assert resumed.report.resumed_shards == 4


def test_journal_roundtrip_preserves_shard_results(workload, tmp_path):
    master, wl = workload
    journal_path = tmp_path / "journal.jsonl"
    result = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=2, journal_path=journal_path
    )
    # Re-derive the fingerprint the pipeline used and load what it wrote.
    lines = [json.loads(l) for l in journal_path.read_text().splitlines()]
    fingerprint = lines[0]["fingerprint"]
    done = CheckpointJournal(journal_path).load(fingerprint)
    assert sorted(done) == [0, 1]
    assert all(r.resumed for r in done.values())
    assert sum(r.tuples for r in done.values()) == result.report.tuples


def test_journal_without_memo_counts_still_resumes(workload, tmp_path):
    """Shard lines written before shard results carried suggestion-memo
    counts still load, with those counts read as zero."""
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    first = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    for line in lines:
        line.pop("memo_hits", None)
        line.pop("memo_misses", None)
    journal.write_text("".join(json.dumps(line) + "\n" for line in lines))
    fingerprint = lines[0]["fingerprint"]
    done = CheckpointJournal(journal).load(fingerprint)
    assert sorted(done) == [0, 1, 2, 3]
    assert all(r.memo_hits == r.memo_misses == 0 for r in done.values())
    resumed = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    assert resumed.report.resumed_shards == 4
    assert resumed.relation.tuples() == first.relation.tuples()


def test_record_before_open_raises(tmp_path):
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    from repro.batch.executor import ShardResult

    with pytest.raises(RuntimeError):
        journal.record(ShardResult(shard_id=0, outcomes=()))
