"""Tests for the benchmark's own code (run: ``python3 -m pytest perfbench``)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import calib, checks, workloads
from perfbench.spans import Tracer, coverage, layer_totals, self_times, subtree
from perfbench.steady import spread, worse_by

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_children_and_counts_overlap_once():
    spans = [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 3.0, 6.0),  # overlaps a: [1, 6] is covered once
        (4, 2, "leaf", 2.0, 3.0),
        (5, 1, "late", 9.0, 12.0),  # runs past its parent: clipped to 10
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 5 - 1)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(1)
    assert coverage(spans, 1) == pytest.approx(0.6)
    assert {s[0] for s in subtree(spans, 2)} == {2, 4}


def test_layer_totals_count_a_same_name_child_once():
    spans = [
        (1, 0, "master.probe", 0.0, 2.0),
        (2, 1, "master.probe", 0.5, 1.5),
        (3, 0, "master.probe", 3.0, 4.0),
    ]
    totals = layer_totals(spans)["master.probe"]
    assert totals["calls"] == 2
    assert totals["seconds"] == pytest.approx(3.0)
    assert totals["self_seconds"] == pytest.approx(1.0 + 1.0 + 1.0)


def _fake_module():
    module = types.ModuleType("repro_fake_layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    module.leaf, module.outer = leaf, outer
    sys.modules[module.__name__] = module
    return module


def test_tracer_records_nested_spans_counts_and_restores():
    module = _fake_module()
    original = module.outer
    tracer = Tracer()
    try:
        tracer.instrument(module, "outer", "outer")
        tracer.instrument(module, "leaf", "leaf", kind="count", weight=lambda x: x)
        with tracer.span("measure") as root:
            assert module.outer(3) == 8
        tracer.restore()
    finally:
        del sys.modules[module.__name__]
    assert module.outer is original
    names = {s[2]: s for s in tracer.spans}
    assert names["outer"][1] == root
    assert tracer.counts == {"outer": 1, "leaf": 3}


def test_group_guard_counts_a_self_calling_layer_once():
    class Store:
        def probe(self, key):
            return self.probe_many([key])[0]

        def probe_many(self, keys):
            return [k * 2 for k in keys]

    tracer = Tracer()
    tracer.instrument(Store, "probe", "probe", group="g")
    tracer.instrument(Store, "probe_many", "probe", group="g",
                      weight=lambda self, keys: len(keys))
    store = Store()
    assert store.probe(2) == 4
    assert store.probe_many([1, 2, 3]) == [2, 4, 6]
    tracer.restore()
    assert tracer.counts["probe"] == 4
    assert len(tracer.spans) == 2
    assert not hasattr(Store.probe, "__wrapped__")


def test_iter_spans_time_each_yielded_item():
    class Table:
        def pages(self, n):
            yield from range(n)

    tracer = Tracer()
    tracer.instrument(Table, "pages", "page", kind="iter")
    assert list(Table().pages(3)) == [0, 1, 2]
    tracer.restore()
    assert [s[2] for s in tracer.spans] == ["page"] * 3
    assert tracer.counts["page"] == 3


# -- metric names and the benchmark description ---------------------------------


def test_metric_names_and_units_are_well_formed():
    for name, unit in {**workloads.END_TO_END_UNITS, **workloads.PER_LAYER_UNITS}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["better"] in ("lower", "higher")
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_complete_metrics_fills_every_per_layer_metric():
    result = workloads.RunResult(metrics={"batch.groups": 7})
    block = workloads.complete_metrics(result, trace=True)
    assert set(block) == set(workloads.PER_LAYER_UNITS)
    assert block["batch.groups"] == {"value": 7.0, "unit": "count"}
    with pytest.raises(RuntimeError):
        workloads.complete_metrics(workloads.RunResult(metrics={"setup_s": 1.0}), trace=False)


# -- correctness checks and failure counting ------------------------------------


def test_row_check_rejects_a_corrupted_row():
    truth = [("a", "1"), ("b", "2")]
    assert checks.row_mismatches(list(truth), truth) == []
    problems = checks.row_mismatches([("a", "1"), ("b", "X")], truth)
    assert len(problems) == 1 and "row 1" in problems[0]
    assert checks.row_mismatches([("a", "1")], truth)


def _db_check(**changes):
    args = dict(
        table_rows=[("a",), ("b",)],
        expected_rows=[("a",), ("b",)],
        archive_rows=3,
        changed_cells=3,
        expected_changed=3,
        pre_digest="d0",
        undone_digest="d0",
    )
    args.update(changes)
    return checks.db_clean_problems(**args)


def test_db_clean_check_rejects_bad_output_missing_archive_row_and_bad_undo():
    assert _db_check() == []
    assert _db_check(table_rows=[("a",), ("c",)])
    assert any("archive rows" in p for p in _db_check(archive_rows=2))
    assert any("undo" in p for p in _db_check(undone_digest="d1"))


def test_failed_counts_refused_errored_and_unfinished_sessions():
    from repro.service.loadgen import SessionOutcome

    truth = {"t0": {"A": "1"}, "t1": {"A": "2"}, "t2": {"A": "3"}}
    outcomes = [
        SessionOutcome("t0", True, 1, {"A": "1"}, 0.01, 0),
        SessionOutcome("t1", False, 1, {"A": "9"}, 0.01, 0),
    ]
    refused = ["POST /api/sessions: still 429 after 200 retries"]
    failed, problems = checks.session_failures(outcomes, refused, truth, status_5xx=2)
    assert failed == 1 + 1 + 2
    assert problems == []
    wrong = [SessionOutcome("t2", True, 1, {"A": "0"}, 0.01, 0)]
    failed, problems = checks.session_failures(wrong, [], truth)
    assert failed == 1 and len(problems) == 1


# -- statistics -----------------------------------------------------------------


def test_spread_and_worse_by():
    median, q1, q3, rel = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, q1, q3) == (3.0, 1.5, 4.5)
    assert rel == pytest.approx(1.0)
    assert worse_by(100, 110, "lower") == pytest.approx(0.1)
    assert worse_by(100, 110, "higher") == pytest.approx(-0.1)


def test_calibrated_factor_scales_by_the_loop_slowdown(monkeypatch):
    seen = iter([2 * calib.REFERENCE_LOOP_S, 4 * calib.REFERENCE_LOOP_S])
    monkeypatch.setattr(calib, "loop_seconds", lambda: next(seen))
    with calib.Calibrated() as cal:
        pass
    assert cal.factor == pytest.approx(1 / 3)


def test_scaled_metrics_take_medians_over_units():
    result = workloads.RunResult()
    setups = [(1.0, 1.0), (4.0, 0.5), (9.0, 0.1)]
    units = [
        (2.0, 0.5, [0.010] * 98 + [0.100] * 2, 100),  # scaled: 1 s, p99 50 ms
        (1.0, 1.0, [0.020] * 100, 100),  # 1 s, p99 20 ms
        (4.0, 1.0, [0.001] * 100, 100),  # 4 s, p99 1 ms
    ]
    workloads.scaled_metrics(result, setups, units, "units")
    m = result.metrics
    assert m["setup_s"] == pytest.approx(1.0)
    assert m["tuples_per_s"] == pytest.approx(100.0)
    assert m["row_p50_ms"] == pytest.approx(5.0)
    assert "p90 (the highest percentile with 10 samples beyond it) 5.000 ms" in result.notes[0]


def test_percentiles():
    samples = [float(i) for i in range(1, 1001)]
    assert workloads.percentile(samples, 0.5) == 501.0
    assert workloads.tail_quantile(len(samples)) == 0.99
    assert workloads.tail_quantile(100) == 0.9
    assert workloads.tail_quantile(20) == 0.5


# -- the command --------------------------------------------------------------------


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-dup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
