"""Correctness checks and failure counting for the benchmark's runs.

Every check is a pure function over values the run collected, so the
benchmark's own tests can feed it corrupted outputs directly. A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def row_mismatches(got: Sequence[Sequence[Any]], want: Sequence[Sequence[Any]]) -> list[str]:
    """Oracle workloads: every repaired row must equal its truth row."""
    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} repaired rows for {len(want)} truth rows")
    for index, (a, b) in enumerate(zip(got, want)):
        if tuple(a) != tuple(b):
            problems.append(f"row {index}: repaired {tuple(a)!r} != truth {tuple(b)!r}")
    return problems


def db_clean_problems(
    *,
    table_rows: Sequence[Sequence[Any]],
    expected_rows: Sequence[Sequence[Any]],
    archive_rows: int,
    changed_cells: int,
    expected_changed: int,
    pre_digest: str,
    undone_digest: str,
) -> list[str]:
    """``db-clean``: the paged output equals the in-memory clean of the
    same rows, one archive row per changed cell, and undo restores the
    pre-run table digest."""
    problems = [f"paged output {p}" for p in row_mismatches(table_rows, expected_rows)]
    if changed_cells != expected_changed:
        problems.append(
            f"paged run changed {changed_cells} cells, in-memory clean {expected_changed}"
        )
    if archive_rows != changed_cells:
        problems.append(f"{archive_rows} archive rows for {changed_cells} changed cells")
    if undone_digest != pre_digest:
        problems.append("undo did not restore the pre-run table digest")
    return problems


def session_failures(
    outcomes: Sequence[Any],
    errors: Sequence[str],
    truth: Mapping[str, Mapping[str, str]],
    status_5xx: int = 0,
) -> tuple[int, list[str]]:
    """``entry``: (failed sessions, wrong-output problems).

    A session fails when the client got an error or a refusal it could
    not retry past (``errors``), when it ended without a certain fix,
    or when its fix differs from the truth row; every 5xx answer the
    service counted is a failure too. Wrong fixes are also correctness
    problems; the others only count against ``failed``.
    """
    problems = []
    failed = len(errors) + status_5xx
    for outcome in outcomes:
        if not outcome.complete:
            failed += 1
            continue
        want = truth[outcome.tuple_id]
        if dict(outcome.values) != dict(want):
            failed += 1
            problems.append(f"session {outcome.tuple_id}: fix {outcome.values!r} != truth")
    return failed, problems
