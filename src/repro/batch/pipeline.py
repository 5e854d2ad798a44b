"""The batch cleaning pipeline: plan → execute → bind.

:class:`BatchCleaner` is the orchestrator behind
:meth:`CerFix.clean_relation`: it groups the dirty relation on answer
keys (:mod:`repro.batch.planner`), resumes any checkpointed shards
(:mod:`repro.batch.journal`), runs the rest under the selected backend
(:mod:`repro.batch.executor`, which resolves each group to one repair
transcript), then binds every group's transcript onto its members.

Binding is one pass per column over the plan's row → group index. A
cell the transcript touched ends at the group's final value; any other
cell keeps the member's own input value; the ``old`` of each
attribute's first audit event is rebound to the member's own value
wherever it differs from the transcript's, and changed cells are
recounted member by member. Provenance lands in the engine's audit log
as one segment per group, in first-seen order
(:meth:`~repro.audit.log.AuditLog.record_group`), and a
:class:`~repro.batch.report.BatchReport` aggregates the run.

Scheduling never influences output: groups are independent and probing
is deterministic, so ``workers=4`` (threads or processes) produces the
same repaired relation, byte for byte, as the serial path — the
property the batch test suite pins down.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from pathlib import Path
from typing import Sequence

from repro.errors import CerFixError
from repro.audit.log import AuditLog
from repro.batch.cache import load_probe_cache, save_probe_cache
from repro.batch.executor import BatchContext, GroupOutcome, ShardExecutor, ShardResult
from repro.batch.journal import CheckpointJournal
from repro.batch.planner import RepairPlan, build_plan
from repro.batch.report import BatchReport, build_report
from repro.cache import CacheStats
from repro.core.certainty import CertaintyMode, Scenario
from repro.core.chase import same_value
from repro.core.region import RankedRegion
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.master.store import MasterStore, resolve_master
from repro.monitor.suggest import SuggestionStrategy
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.relational.relation import ColumnDict, Relation


@dataclass
class BatchResult:
    """A repaired relation plus the run's report."""

    relation: Relation
    report: BatchReport

    def __len__(self) -> int:
        return len(self.relation)


class BatchCleaner:
    """Whole-relation cleaning with dedup, caching, sharding and resume.

    Construction mirrors :class:`~repro.engine.CerFix`; per-run knobs
    (workers, backend, sharding, journal) live on :meth:`clean`.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        master: Relation | MasterDataManager | MasterStore,
        *,
        mode: CertaintyMode = CertaintyMode.STRICT,
        scenario: Scenario | None = None,
        strategy: SuggestionStrategy = SuggestionStrategy.CORE_FIRST,
        regions: Sequence[RankedRegion] = (),
        audit: AuditLog | None = None,
        use_index: bool = True,
        max_combos: int = 50_000,
        cache_size: int = 4096,
        store: str | None = None,
        store_shards: int = 4,
        store_path: str | Path | None = None,
        store_urls: Sequence | None = None,
    ):
        """``master`` may be a bare relation, a manager, or a
        :class:`~repro.master.store.MasterStore`. ``store`` selects a
        backend by name for the bare-relation form (``"single"``,
        ``"sharded"``, ``"sqlite"``, ``"remote"``); ``store_shards`` /
        ``store_path`` / ``store_urls`` parameterise the sharded,
        sqlite and remote backends (``store_urls`` entries may be
        replica-url lists — see
        :class:`~repro.master.remote.RemoteMasterStore`)."""
        self.ruleset = ruleset
        master = resolve_master(
            master, store, shards=store_shards, path=store_path, urls=store_urls
        )
        if master is None:
            raise CerFixError(
                "master data is required (master=None is only valid with "
                "store='remote')"
            )
        self.master = master if isinstance(master, MasterDataManager) else MasterDataManager(master)
        self.mode = mode
        self.scenario = scenario
        self.strategy = strategy
        self.regions = tuple(regions)
        self.audit = audit if audit is not None else AuditLog()
        self.use_index = use_index
        self.max_combos = max_combos
        self.cache_size = cache_size

    def clean(
        self,
        dirty: Relation,
        truth: Relation | None = None,
        *,
        workers: int = 1,
        backend: str = "thread",
        shards: int | None = None,
        dedupe: bool = True,
        validated: Sequence[str] = (),
        journal_path: str | Path | None = None,
        cache_path: str | Path | None = None,
        tuple_ids: Sequence[str] | None = None,
        max_rounds: int | None = None,
        root_span: bool = True,
    ) -> BatchResult:
        """Clean ``dirty`` and return the repaired relation + report.

        With ``truth``, every tuple is driven through the full monitor
        loop by an oracle user (the batch equivalent of
        :meth:`CerFix.stream`). Without it, the chase runs rule-only
        repairs from the trusted ``validated`` columns. ``journal_path``
        enables checkpoint/resume; an interrupted run picks up where it
        stopped as long as inputs and configuration are unchanged.
        ``cache_path`` persists the probe cache across runs: the run
        starts warm from a snapshot stamped for this exact (master
        content, rule set) pair — anything else degrades to a cold
        start — and saves the cache back on completion. The report's
        ``persistence`` line says which happened.

        ``root_span=False`` suppresses the ``clean-run`` span for
        callers that already own one — the paged DB cleaner wraps a
        whole run in its own ``clean-run`` and nests each call here
        under a ``page`` span instead.
        """
        got, want = set(dirty.schema.names), set(self.ruleset.input_schema.names)
        if got != want:
            raise CerFixError(
                f"dirty relation does not match the input schema: "
                f"missing {sorted(want - got)}, unexpected {sorted(got - want)}"
            )
        if tuple_ids is not None and len(tuple_ids) != len(dirty):
            raise CerFixError(
                f"got {len(tuple_ids)} tuple ids for {len(dirty)} rows"
            )
        unknown = [a for a in validated if a not in self.ruleset.input_schema]
        if unknown:
            raise CerFixError(f"validated attributes {unknown} not in the input schema")
        if root_span:
            with trace.span(
                "clean-run", rows=len(dirty), workers=workers, backend=backend
            ):
                return self._clean(
                    dirty,
                    truth,
                    workers=workers,
                    backend=backend,
                    shards=shards,
                    dedupe=dedupe,
                    validated=validated,
                    journal_path=journal_path,
                    cache_path=cache_path,
                    tuple_ids=tuple_ids,
                    max_rounds=max_rounds,
                )
        return self._clean(
            dirty,
            truth,
            workers=workers,
            backend=backend,
            shards=shards,
            dedupe=dedupe,
            validated=validated,
            journal_path=journal_path,
            cache_path=cache_path,
            tuple_ids=tuple_ids,
            max_rounds=max_rounds,
        )

    def _clean(
        self,
        dirty: Relation,
        truth: Relation | None,
        *,
        workers: int,
        backend: str,
        shards: int | None,
        dedupe: bool,
        validated: Sequence[str],
        journal_path: str | Path | None,
        cache_path: str | Path | None,
        tuple_ids: Sequence[str] | None,
        max_rounds: int | None,
    ) -> BatchResult:
        start = time.perf_counter()
        notes: list[str] = []

        n_shards = shards if shards is not None else max(1, workers) * 4
        with trace.span("plan", rows=len(dirty), shards=n_shards):
            plan = build_plan(
                dirty,
                truth,
                shards=n_shards,
                dedupe=dedupe,
                validated=validated,
                # The master content digest is O(|master|); only the journal
                # ever consumes the fingerprint, so only pay for it then.
                context=self._context_key(
                    validated, max_rounds, include_master=journal_path is not None
                ),
            )

        # The scenario generator is only ever consulted under SCENARIO
        # mode; dropping it otherwise keeps the context picklable (it is
        # typically a closure), which is what the process backend needs.
        scenario = self.scenario if self.mode is CertaintyMode.SCENARIO else None
        ctx = BatchContext(
            ruleset=self.ruleset,
            master=self.master,
            mode=self.mode,
            scenario=scenario,
            strategy=self.strategy,
            regions=self.regions,
            validated=tuple(validated),
            use_index=self.use_index,
            max_combos=self.max_combos,
            max_rounds=max_rounds,
            cache_size=self.cache_size,
            trace=trace.carrier(),  # the clean-run span, ready to ship
        )
        # Probe only the fields that can realistically be unpicklable
        # (scenario closures, exotic regions/rules) — not the master
        # relation, whose serialization can be large and is known-good.
        if workers > 1 and backend == "process" and not _picklable(
            (ctx.scenario, ctx.regions, ctx.ruleset)
        ):
            backend = "thread"
            notes.append(
                "process backend unavailable (context not picklable — typically a "
                "scenario closure); fell back to threads"
            )
        # Workers of the process backend rebuild the master indexes
        # themselves (pickling strips them); the parent only needs them
        # when it resolves shards on its own threads.
        if not (workers > 1 and backend == "process"):
            self.master.prebuild(self.ruleset)

        journal = CheckpointJournal(journal_path) if journal_path is not None else None
        done: dict[int, ShardResult] = journal.open(plan.fingerprint) if journal else {}
        pending = [s for s in plan.shards if s.shard_id not in done]

        # Cross-run probe-cache persistence (serial/thread paths only:
        # process workers hold private caches the parent never sees).
        persistence = ""
        preloaded = None
        cache_stamp: dict | None = None
        if cache_path is not None:
            if workers > 1 and backend == "process":
                persistence = "skipped (process workers hold private caches)"
            else:
                cache_stamp = {
                    "master_digest": self.master.content_digest(),
                    "rule_ids": [r.rule_id for r in self.ruleset],
                }
                preloaded, persistence = load_probe_cache(
                    cache_path, maxsize=self.cache_size, **cache_stamp
                )

        executor = ShardExecutor(
            ctx, workers=workers, backend=backend, cache=preloaded
        )
        on_result = journal.record if journal is not None else None
        fresh = executor.run(pending, on_result=on_result)
        results = sorted(
            list(done.values()) + list(fresh), key=lambda r: r.shard_id
        )

        relation, changed_cells = self._bind(dirty, plan, results, tuple_ids)
        # The serial/thread paths share the executor's caches (their
        # counters are exact there); process workers each hold private
        # caches, so their counts only exist as the fresh shards' deltas.
        if workers > 1 and backend == "process":
            evictions = sum(r.cache_evictions for r in fresh)
            memo = CacheStats(
                hits=sum(r.memo_hits for r in fresh),
                misses=sum(r.memo_misses for r in fresh),
            )
        else:
            evictions = executor.cache.stats.evictions
            memo = executor.memo.stats
        # Transcript-memo counts are per group on every backend.
        transcripts = CacheStats(
            hits=sum(r.transcript_hits for r in fresh),
            misses=sum(r.transcript_misses for r in fresh),
        )
        report = build_report(
            results,
            tuples=plan.total_tuples,
            groups=plan.n_groups,
            workers=workers,
            backend=backend,
            elapsed_seconds=time.perf_counter() - start,
            evictions=evictions,
            notes=notes,
        )
        # The bound count is exact per member; the per-group aggregate
        # counts every member as if it had the representative's row.
        report.changed_cells = changed_cells
        self._publish_metrics(executor, results, evictions, memo, transcripts)
        if cache_stamp is not None:
            saved = save_probe_cache(executor.cache, cache_path, **cache_stamp)
            persistence += f"; saved {saved} entries"
        report.persistence = persistence
        return BatchResult(relation=relation, report=report)

    # -- internals -----------------------------------------------------------

    def _publish_metrics(
        self,
        executor: ShardExecutor,
        results: Sequence[ShardResult],
        evictions: int,
        memo: CacheStats,
        transcripts: CacheStats,
    ) -> None:
        """Fold this run's totals into the process-wide registry — the
        live numbers behind the explorers' ``/api/metrics`` probe-cache
        and suggestion-memo sections, plus the transcript-memo counters
        (exact under every backend: see :meth:`clean` for where
        ``evictions``, ``memo`` and ``transcripts`` come from). A
        transcript-memo hit is a group replayed from the memo, a miss a
        group that ran a real session."""
        reg = get_registry()
        reg.inc("cerfix.batch.runs")
        reg.inc("cerfix.batch.tuples", sum(r.tuples for r in results))
        reg.inc("cerfix.batch.groups", sum(r.groups for r in results))
        reg.inc("cerfix.probe_cache.hits", sum(r.cache_hits for r in results))
        reg.inc("cerfix.probe_cache.misses", sum(r.cache_misses for r in results))
        reg.inc("cerfix.probe_cache.evictions", evictions)
        reg.set_gauge("cerfix.probe_cache.size", len(executor.cache))
        reg.set_gauge("cerfix.probe_cache.maxsize", executor.cache.maxsize)
        reg.inc("cerfix.suggestion_memo.hits", memo.hits)
        reg.inc("cerfix.suggestion_memo.misses", memo.misses)
        reg.set_gauge("cerfix.suggestion_memo.size", len(executor.memo))
        reg.set_gauge("cerfix.suggestion_memo.maxsize", executor.memo.maxsize)
        reg.inc("cerfix.transcript_memo.hits", transcripts.hits)
        reg.inc("cerfix.transcript_memo.misses", transcripts.misses)
        reg.set_gauge("cerfix.transcript_memo.size", len(executor.transcripts))
        reg.set_gauge("cerfix.transcript_memo.maxsize", executor.transcripts.maxsize)

    def _context_key(
        self,
        validated: Sequence[str],
        max_rounds: int | None,
        *,
        include_master: bool = True,
    ) -> tuple[str, ...]:
        """Engine-configuration identity folded into the plan fingerprint.

        The master data is identified by *content* digest, not cardinality:
        a checkpoint computed against different master tuples must never be
        resumed, even when the row count happens to match. The digest is
        store-backend-independent (see
        :meth:`~repro.master.store.MasterStore.content_digest`), so a
        journal written under one backend resumes under another."""
        if include_master:
            master_id = self.master.content_digest()
        else:
            master_id = "unjournaled"
        return (
            ",".join(r.rule_id for r in self.ruleset),
            f"master={master_id}",
            self.mode.value,
            self.strategy.value,
            f"validated={','.join(validated)}",
            f"max_rounds={max_rounds}",
            f"regions={len(self.regions)}",
        )

    def _bind(
        self,
        dirty: Relation,
        plan: RepairPlan,
        results: Sequence[ShardResult],
        tuple_ids: Sequence[str] | None,
    ) -> tuple[Relation, int]:
        """Bind every group's transcript onto its members, column by
        column (see the module docstring); returns the repaired relation
        and the exact changed-cell count over all members.

        Each member genuinely received its group's repair, so each gets
        its own audit trail (ids follow the stream convention: ``t<row>``
        unless ``tuple_ids`` overrides), stored as one segment per group
        whose ``olds`` hold only the members' differing first ``old`` s.
        """
        row_group = plan.row_group
        outcomes: list[GroupOutcome | None] = [None] * plan.n_groups
        for result in results:
            for outcome in result.outcomes:
                outcomes[row_group[outcome.members[0]]] = outcome
        if any(o is None for o in outcomes):
            raise CerFixError("batch results left groups unresolved")
        # Per group: each touched attribute's first event as
        # (index, old, new), and its final value.
        firsts: list[dict] = []
        finals: list[dict] = []
        for outcome in outcomes:
            first: dict = {}
            final: dict = {}
            for j, e in enumerate(outcome.audit_events):
                if e["attr"] not in first:
                    first[e["attr"]] = (j, e["old"], e["new"])
                final[e["attr"]] = e["new"]
            firsts.append(first)
            finals.append(final)
        changed = sum(o.changed_cells * len(o.members) for o in outcomes)
        olds: list[dict] = [{} for _ in outcomes]
        slot = [0] * len(row_group)  # row -> its index among its group's members
        for group in plan.groups:
            for k, member in enumerate(group.members):
                slot[member] = k
        schema = self.ruleset.input_schema
        dicts, cols = [], []
        for name in schema.names:
            d, ids = dirty.column_ids(name)
            if all(name in f for f in finals):
                # Every cell is a final value: a fresh dictionary holds
                # only those, not the whole input column's.
                out = ColumnDict()
                fixed = [out.intern(f[name]) for f in finals]
                cols.append(list(map(fixed.__getitem__, row_group)))
            else:
                out = d.copy()
                fixed = [out.intern(f[name]) if name in f else None for f in finals]
                cols.append([m if (f := fixed[g]) is None else f for g, m in zip(row_group, ids)])
            dicts.append(out)
            # Per group: the first event here and the id its ``old`` has in
            # this column (-1: not interned here, None: no event here).
            here = [f.get(name) for f in firsts]
            if not any(here):
                continue
            want: list[int | None] = [None] * len(outcomes)
            for g, first in enumerate(here):
                if first is not None:
                    vid = d.id_of(first[1])
                    want[g] = -1 if vid is None else vid
            values = d.values
            for i in compress(count(), map(ne, map(want.__getitem__, row_group), ids)):
                g = row_group[i]
                if here[g] is None:
                    continue
                j, t_old, t_new = here[g]
                old = values[ids[i]]
                # Another id is another typed value, unless the old is
                # not interned here (unhashable, or no row here holds it).
                if want[g] < 0 and same_value(old, t_old):
                    continue
                olds[g][slot[i], j] = old
                changed += (old != t_new) - (t_old != t_new)
        for outcome, group_olds in zip(outcomes, olds):
            if not outcome.audit_events:
                continue
            members = outcome.members
            tids = (
                [tuple_ids[m] for m in members]
                if tuple_ids is not None
                else [f"t{m}" for m in members]
            )
            self.audit.record_group(tids, outcome.audit_events, group_olds)
        return Relation.from_columns(schema, dicts, cols, len(dirty)), changed


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False
