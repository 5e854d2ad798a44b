"""The batch planner: group a dirty relation on answer keys and shard it.

A certain fix is decided by the values the user validates and by the
master data, never by unvalidated dirty cells: the chase only reads
validated attributes, suggestions treat unvalidated cells as unknown,
and a conflict needs a validated target. So a row's whole repair
transcript — which questions are asked, which rules fire, which cells
end at which values — is a function of its **answer key**:

* with ground truth (an oracle user answers every question), the
  typed truth row;
* rule-only (no truth), the typed dirty values of the trusted
  ``validated`` columns.

The planner groups rows on that key. Each group is resolved once by a
shard worker; the pipeline then binds the outcome onto every member in
one column pass (:class:`repro.batch.pipeline.BatchCleaner`): a cell
the transcript never touched keeps the member's own value, and the
``old`` of each attribute's first audit event is the member's own.

"Typed" means keys compare the interned value ids of each column
(:meth:`~repro.relational.relation.Relation.column_ids`), so ``1``,
``1.0`` and ``True`` land in different groups, and an unhashable cell
(interned under a fresh id) only ever groups with itself.

Groups are dealt round-robin into :class:`Shard` s (deterministically,
by first-seen order), so shard workloads stay balanced without
inspecting group cost. The plan's ``fingerprint`` ties a checkpoint
journal to the exact inputs and partitioning that produced it; it is
computed on first use, so a run without a journal never pays for it.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

from repro.errors import CerFixError
from repro.obs.metrics import get_registry
from repro.relational.relation import Relation


@dataclass(frozen=True)
class PlanGroup:
    """Rows sharing one answer key; resolved once per batch."""

    representative: int  # position of the first member in the dirty relation
    members: tuple[int, ...]  # all positions sharing the key
    values: dict[str, Any]  # the representative's (dirty) input values
    truth: dict[str, Any] | None  # oracle answers, when truth is supplied

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Shard:
    """One unit of (possibly concurrent) execution."""

    shard_id: int
    groups: tuple[PlanGroup, ...]

    @property
    def tuples(self) -> int:
        return sum(g.size for g in self.groups)


@dataclass(frozen=True)
class RepairPlan:
    """The full batch plan: answer-key groups dealt into shards.

    ``key`` names the columns the answer key reads (of the truth rows
    when there are any); ``row_group[i]`` is the position in ``groups``
    of row ``i``'s group.
    """

    groups: tuple[PlanGroup, ...]
    shards: tuple[Shard, ...]
    total_tuples: int
    dedupe: bool
    key: tuple[str, ...]
    row_group: list[int] = field(repr=False)
    dirty: Relation = field(repr=False)
    truth: Relation | None = field(repr=False)
    context: tuple[str, ...] = ()

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def duplicates_collapsed(self) -> int:
        """Rows that ride along on another row's repair."""
        return self.total_tuples - self.n_groups

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the configuration, the partitioning and every
        full input row (dirty and truth, typed). The answer key alone
        does not bind the columns outside it, and a journal must never
        resume over different rows."""
        digest = hashlib.sha256()
        digest.update(repr(tuple(self.dirty.schema.names)).encode("utf-8"))
        digest.update(repr(tuple(self.context)).encode("utf-8"))
        digest.update(
            f"shards={len(self.shards)};dedupe={self.dedupe};key={self.key}".encode("utf-8")
        )
        for relation in (self.dirty, self.truth):
            if relation is None:
                digest.update(b"no truth")
                continue
            # Each column as its dictionary (typed reprs) plus its ids:
            # equal bytes decode to equal typed rows.
            for name in relation.schema.names:
                d, ids = relation.column_ids(name)
                digest.update(repr(d.values).encode("utf-8"))
                digest.update(array("q", ids).tobytes())
        return digest.hexdigest()

    def describe(self) -> str:
        return (
            f"plan: {self.total_tuples} tuples -> {self.n_groups} groups "
            f"({self.duplicates_collapsed} duplicates collapsed) in "
            f"{len(self.shards)} shard(s)"
        )


def build_plan(
    dirty: Relation,
    truth: Relation | None = None,
    *,
    shards: int = 1,
    dedupe: bool = True,
    validated: Sequence[str] = (),
    context: Sequence[str] = (),
) -> RepairPlan:
    """Plan the batch repair of ``dirty`` (optionally oracle-backed by
    ``truth``).

    Rows are grouped on their answer key: the typed truth row, or
    without truth the typed dirty values of ``validated``.
    ``dedupe=False`` makes every row its own group. ``context`` is
    extra identity (rule ids, mode, …) folded into the plan fingerprint
    so a checkpoint journal written under one engine configuration is
    never resumed under another.
    """
    if shards < 1:
        raise CerFixError(f"shards must be >= 1, got {shards}")
    if truth is not None and len(truth) != len(dirty):
        raise CerFixError(
            f"truth has {len(truth)} rows but the dirty relation has {len(dirty)}"
        )
    n_rows = len(dirty)
    names = dirty.schema.names
    key_source = truth if truth is not None else dirty
    key_names = names if truth is not None else tuple(validated)
    if not dedupe:
        row_group = list(range(n_rows))
        n_groups = n_rows
    else:
        key_cols = [key_source.column_ids(name)[1] for name in key_names]
        keys = zip(*key_cols) if key_cols else [()] * n_rows
        index: dict[tuple, int] = {}
        row_group = [index.setdefault(key, len(index)) for key in keys]
        n_groups = len(index)
    members: list[list[int]] = [[] for _ in range(n_groups)]
    for i, g in enumerate(row_group):
        members[g].append(i)

    reps = [m[0] for m in members]

    def rows_at(relation: Relation) -> list[dict[str, Any]]:
        """The representatives' rows of ``relation``, decoded column by column."""
        cols = []
        for name in names:
            d, ids = relation.column_ids(name)
            values = d.values
            cols.append([values[ids[r]] for r in reps])
        return [dict(zip(names, row)) for row in zip(*cols)] if cols else [{} for _ in reps]

    dirty_rows = rows_at(dirty)
    truth_rows = rows_at(truth) if truth is not None else [None] * n_groups
    groups = [
        PlanGroup(representative=m[0], members=tuple(m), values=v, truth=t)
        for m, v, t in zip(members, dirty_rows, truth_rows)
    ]

    n_shards = max(1, min(shards, len(groups))) if groups else 1
    shard_list = tuple(
        Shard(shard_id=i, groups=tuple(groups[i::n_shards]))
        for i in range(n_shards)
    )

    reg = get_registry()
    reg.inc("cerfix.plan.rows", n_rows)
    reg.inc("cerfix.plan.groups", len(groups))
    reg.inc("cerfix.plan.deduped_rows", n_rows - len(groups))

    return RepairPlan(
        groups=tuple(groups),
        shards=shard_list,
        total_tuples=n_rows,
        dedupe=dedupe,
        key=tuple(key_names),
        row_group=row_group,
        dirty=dirty,
        truth=truth,
        context=tuple(context),
    )
