"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-dup --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. Lines before it explain the numbers. The program under
test is imported from ``src/`` of the same checkout; without it the
run exits with code 2 and prints no result. Scratch files go under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    from perfbench import procs, workloads

    if args.workload not in workloads.RUNNERS:
        print(f"unknown workload {args.workload!r} (one of {workloads.WORKLOADS})",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with procs.Reaper() as reaper:
        checkout = workloads.Checkout(src=SRC, work=work, reaper=reaper)
        try:
            with procs.one_cpu():
                result = workloads.RUNNERS[args.workload](
                    checkout, args.seed, args.seconds, bool(args.trace)
                )
        except Exception:
            traceback.print_exc()
            return 1
    metrics = workloads.complete_metrics(result, bool(args.trace))
    for note in result.notes:
        print(note)
    for problem in result.problems:
        print(f"INCORRECT: {problem}")
    print(f"failed_frac: {result.failed / max(1, result.attempted):.6f} "
          f"({result.failed} of {result.attempted})")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
