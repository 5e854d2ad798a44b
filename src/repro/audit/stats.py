"""Audit statistics: the numbers behind paper Fig. 4.

"When FN is selected, CerFix presents the statistics about the attribute
FN, namely, the percentage of FN values that were validated by the users
and the percentage of values that were automatically fixed by CerFix.
Our experimental study indicates that in average, 20% of values are
validated by users while CerFix automatically fixes 80% of the data."

The accounting model: each cell (tuple, attribute) is *validated* exactly
once, either by a user event or by a rule fix; later ``normalize`` events
refine an already-validated cell and are reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.audit.events import ChangeEvent
from repro.audit.log import AuditLog


@dataclass(frozen=True)
class AttributeStat:
    """Per-attribute validation provenance (one Fig. 4 bar)."""

    attr: str
    user_validations: int
    rule_fixes: int
    normalizations: int
    value_changes: int  # events where old != new (actual repairs)
    confirmations: int  # validations where the value was already right

    @property
    def validated_cells(self) -> int:
        return self.user_validations + self.rule_fixes

    @property
    def pct_user(self) -> float:
        total = self.validated_cells
        return 100.0 * self.user_validations / total if total else 0.0

    @property
    def pct_auto(self) -> float:
        total = self.validated_cells
        return 100.0 * self.rule_fixes / total if total else 0.0


@dataclass(frozen=True)
class OverallStats:
    """Whole-log provenance (the paper's 20% / 80% headline)."""

    tuples: int
    user_cells: int
    auto_cells: int
    normalizations: int
    value_changes: int

    @property
    def validated_cells(self) -> int:
        return self.user_cells + self.auto_cells

    @property
    def user_share(self) -> float:
        total = self.validated_cells
        return self.user_cells / total if total else 0.0

    @property
    def auto_share(self) -> float:
        total = self.validated_cells
        return self.auto_cells / total if total else 0.0


def _first_validations(events: Iterable[ChangeEvent]) -> dict[tuple[str, str], ChangeEvent]:
    """The first user/rule event per (tuple, attr) — the validating one."""
    first: dict[tuple[str, str], ChangeEvent] = {}
    for e in events:
        if e.source == "normalize":
            continue
        first.setdefault((e.tuple_id, e.attr), e)
    return first


def attribute_stats(log: AuditLog, attrs: Iterable[str] | None = None) -> list[AttributeStat]:
    """Per-attribute statistics over the whole log.

    ``attrs`` fixes the output order (e.g. schema order); defaults to
    first-seen order of attributes in the log.
    """
    # One snapshot: a batch log materialises its events on every read.
    events = log.events
    first = _first_validations(events)
    if attrs is None:
        seen: dict[str, None] = {}
        for e in events:
            seen.setdefault(e.attr)
        attrs = list(seen)
    out = []
    for attr in attrs:
        user = sum(1 for e in first.values() if e.attr == attr and e.source == "user")
        rule = sum(1 for e in first.values() if e.attr == attr and e.source == "rule")
        norm = sum(1 for e in events if e.attr == attr and e.source == "normalize")
        changes = sum(1 for e in events if e.attr == attr and e.changed)
        confirmed = sum(
            1 for e in first.values() if e.attr == attr and not e.changed
        )
        out.append(
            AttributeStat(
                attr=attr,
                user_validations=user,
                rule_fixes=rule,
                normalizations=norm,
                value_changes=changes,
                confirmations=confirmed,
            )
        )
    return out


def overall_stats(log: AuditLog) -> OverallStats:
    """Aggregate provenance across all cells in the log."""
    events = log.events
    first = _first_validations(events)
    user = sum(1 for e in first.values() if e.source == "user")
    auto = sum(1 for e in first.values() if e.source == "rule")
    norm = sum(1 for e in events if e.source == "normalize")
    changes = sum(1 for e in events if e.changed)
    return OverallStats(
        tuples=len(log.tuple_ids()),
        user_cells=user,
        auto_cells=auto,
        normalizations=norm,
        value_changes=changes,
    )


def tuple_trace(log: AuditLog, tuple_id: str) -> list[str]:
    """Human-readable per-tuple history (the demo's tuple inspector)."""
    return [e.describe() for e in log.by_tuple(tuple_id)]


def cell_provenance(log: AuditLog, tuple_id: str, attr: str) -> list[ChangeEvent]:
    """All events that touched one cell — "what master tuples and editing
    rules have been employed to make the change" (paper §3)."""
    return [e for e in log.by_tuple(tuple_id) if e.attr == attr]
