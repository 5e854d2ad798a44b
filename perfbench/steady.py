"""Steadiness check: run workloads N times and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload db-clean --runs 5
    python3 perfbench/steady.py --runs 10 --save runs.json    # every workload

Each run uses its own seed (``--first-seed`` upward). Per metric it
prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the relative
spread ``(q3 - q1) / median``, next to the metric's bound from
``BENCHMARK.json``. A spread above a third of the bound is flagged
(``setup_s`` is exempt from the spread rule but still shown). With
``--compare`` a second saved set is checked the same way the medians
are compared between two sets: the later median may not be worse by
more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def report(workload: str, runs: list[dict], spec: dict) -> bool:
    """Print the spread table; return False when a spread is too wide."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    walls = [r["wall_s"] for r in runs]
    print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
          f"all correct: {all(r['correct'] for r in runs)}, "
          f"failed: {sum(r['failed'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3, rel = spread(values)
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s" and rel > bound / 3:
            flag = "  <-- above a third of the bound"
            ok = False
        print(f"  {name:14s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {rel:7.2%}  bound {bound if bound is not None else '-'}{flag}")
    return ok and all(r["correct"] for r in runs)


def compare(first: dict, second: dict, spec: dict) -> bool:
    ok = True
    for workload, runs in second.items():
        if workload not in first:
            continue
        print(f"\n{workload}: second set vs first")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in runs)
            worse = worse_by(a, b, metric["better"])
            flag = "  <-- worse than the bound" if worse > metric["bound"] else ""
            ok = ok and not flag
            print(f"  {name:14s} {a:12.4f} -> {b:12.4f}  worse by {worse:7.2%}  "
                  f"bound {metric['bound']}{flag}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write every run's result to this JSON file")
    parser.add_argument("--compare", help="a saved set to compare medians against")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {}
    ok = True
    for workload in workloads:
        results[workload] = [
            run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)
        ]
        ok = report(workload, results[workload], spec) and ok
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))
    if args.compare:
        ok = compare(json.loads(Path(args.compare).read_text()), results, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
