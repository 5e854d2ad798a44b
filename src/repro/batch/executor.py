"""The shard executor: run a repair plan serially or concurrently.

Each shard resolves its groups independently — monitor sessions never
mutate the master data, so groups are embarrassingly parallel and the
result of a group depends only on the group and the engine
configuration, never on scheduling. That is what makes the parallel
backends *bit-identical* to the serial path.

A group's outcome is a *transcript*: the audit events, the statistics
and which cells end at which values, with each attribute's first
``old`` taken from the representative's row. The pipeline binds it onto
every member (:class:`repro.batch.pipeline.BatchCleaner`).

Groups are resolved through a **session-transcript memo**. Every
session decision reads validated values only, so a session is fixed by
the answers it is given: the seed answer (``ctx.validated``), then the
oracle's answer to each suggestion (``truth[suggestion.attrs]``). The
memo is a trie keyed by that path of typed answers — an inner node
holds the attributes the next question asks for, a leaf holds the
outcome. A group whose path ends at a leaf takes that outcome as its
own; a group that falls off the trie runs one real
:class:`~repro.monitor.session.MonitorSession` and inserts its path.
The planner already gives every distinct answer key one group, so the
memo only hits where two keys differ in answers no question asks for.

A run holds four :class:`~repro.cache.LRUCache` instances (probe
cache, suggestion memo, chase-transcript memo, session-transcript
memo); each shard probes through its own
:class:`~repro.master.plane.CachedMasterDataManager`.

Backends:

``workers=1``
    The deterministic serial path: shards run in shard-id order on the
    calling thread, sharing the run's caches.
``backend="thread"``
    A :class:`~concurrent.futures.ThreadPoolExecutor`; all shards share
    the run's caches (cross-shard hits) and the already-built master
    indexes. Best when probing dominates (index lookups release no
    meaningful GIL work, but cache sharing is maximal).
``backend="process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor`; the context is
    shipped to each worker once via the pool initializer and every
    process keeps its own caches, whose counts come back on each
    :class:`ShardResult`. Best on multi-core hosts where the chase
    itself is the bottleneck.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.errors import CerFixError
from repro.batch.planner import PlanGroup, Shard
from repro.cache import LRUCache
from repro.core.certainty import CertaintyMode, Scenario
from repro.core.region import RankedRegion
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.master.plane import CachedMasterDataManager
from repro.monitor.session import MonitorSession
from repro.monitor.suggest import SuggestionStrategy
from repro.monitor.user import OracleUser
from repro.obs import trace

BACKENDS = ("thread", "process")


@dataclass(frozen=True)
class BatchContext:
    """Everything a shard worker needs, picklable for the process backend.

    ``master`` carries its configured
    :class:`~repro.master.store.MasterStore` backend along: a sharded
    store pickles as raw tuples and rebuilds only the shards a worker's
    probes route to; the single store rebuilds its indexes eagerly in
    the worker (see :func:`_init_process`).

    ``scenario`` is typically a closure and therefore unpicklable; the
    pipeline downgrades ``backend="process"`` to threads when the
    context cannot be shipped (see :meth:`BatchCleaner.clean`).
    """

    ruleset: RuleSet
    master: MasterDataManager
    mode: CertaintyMode = CertaintyMode.STRICT
    scenario: Scenario | None = None
    strategy: SuggestionStrategy = SuggestionStrategy.CORE_FIRST
    regions: tuple[RankedRegion, ...] = ()
    validated: tuple[str, ...] = ()
    use_index: bool = True
    max_combos: int = 50_000
    max_rounds: int | None = None
    cache_size: int = 4096
    #: The clean-run's trace context (a picklable
    #: :class:`~repro.obs.trace.TraceCarrier`, or None with tracing
    #: off): thread workers re-activate it, process workers additionally
    #: configure their own exporter from its path/sample — so shard
    #: spans land in the same trace whatever the backend.
    trace: Any = None


@dataclass(frozen=True)
class GroupOutcome:
    """One resolved group: its transcript plus per-tuple statistics.

    ``audit_events`` fix every touched cell (its last ``new``); cells
    without an event keep each member's input value. ``changed_cells``
    counts the events whose ``old`` differs from their ``new``, as
    recorded; the pipeline recounts it per member.
    """

    members: tuple[int, ...]
    complete: bool
    rounds: int
    user_cells: int
    rule_cells: int
    normalized_cells: int
    changed_cells: int
    conflicts: int
    audit_events: tuple[dict, ...]  # serialized per-cell provenance

    def to_json(self) -> dict:
        return {
            "members": list(self.members),
            "complete": self.complete,
            "rounds": self.rounds,
            "user_cells": self.user_cells,
            "rule_cells": self.rule_cells,
            "normalized_cells": self.normalized_cells,
            "changed_cells": self.changed_cells,
            "conflicts": self.conflicts,
            "audit_events": list(self.audit_events),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroupOutcome":
        events = tuple(
            {**e, "master_positions": tuple(e.get("master_positions", ()))}
            for e in obj["audit_events"]
        )
        return cls(
            members=tuple(obj["members"]),
            complete=obj["complete"],
            rounds=obj["rounds"],
            user_cells=obj["user_cells"],
            rule_cells=obj["rule_cells"],
            normalized_cells=obj["normalized_cells"],
            changed_cells=obj["changed_cells"],
            conflicts=obj["conflicts"],
            audit_events=events,
        )


@dataclass
class ShardResult:
    """What one shard produced, with exact per-shard cache counters.

    Eviction and suggestion-memo counts are the change in the shared
    cache while this shard ran: exact when shards on one cache run one
    at a time (the serial path, and inside each process worker).
    Transcript-memo counts are per group (a hit replayed a memoised
    session, a miss ran a real one), so they are exact under every
    backend.
    """

    shard_id: int
    outcomes: tuple[GroupOutcome, ...]
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    transcript_hits: int = 0
    transcript_misses: int = 0
    resumed: bool = False

    @property
    def groups(self) -> int:
        return len(self.outcomes)

    @property
    def tuples(self) -> int:
        return sum(len(o.members) for o in self.outcomes)

    def to_json(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "elapsed_seconds": self.elapsed_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "transcript_hits": self.transcript_hits,
            "transcript_misses": self.transcript_misses,
            "outcomes": [o.to_json() for o in self.outcomes],
        }

    @classmethod
    def from_json(cls, obj: dict, *, resumed: bool = False) -> "ShardResult":
        return cls(
            shard_id=obj["shard_id"],
            outcomes=tuple(GroupOutcome.from_json(o) for o in obj["outcomes"]),
            elapsed_seconds=obj["elapsed_seconds"],
            cache_hits=obj["cache_hits"],
            cache_misses=obj["cache_misses"],
            cache_evictions=obj.get("cache_evictions", 0),
            memo_hits=obj.get("memo_hits", 0),
            memo_misses=obj.get("memo_misses", 0),
            transcript_hits=obj.get("transcript_hits", 0),
            transcript_misses=obj.get("transcript_misses", 0),
            resumed=resumed,
        )


class _TranscriptRecorder:
    """An audit sink recording straight into the serialized event form.

    A real group session's audit trail becomes the group's
    :attr:`GroupOutcome.audit_events` and the template of its
    transcript-memo leaf; the pipeline then appends it to the engine's
    :class:`~repro.audit.log.AuditLog` as one segment for all members.
    Events are plain dicts without seq or tuple_id — both are
    per-member and get assigned by that segment.
    """

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[dict] = []

    def record(
        self,
        tuple_id,
        attr,
        old,
        new,
        source,
        *,
        rule_id=None,
        master_positions=(),
        round_no=0,
    ) -> None:
        event = {
            "attr": attr,
            "old": old,
            "new": new,
            "source": source,
            "rule_id": rule_id,
            "master_positions": tuple(master_positions),
            "round_no": round_no,
        }
        # Stamp in the worker, where the group-chase span is live — the
        # pipeline replays these ids so provenance points at the span
        # that actually produced the fix, not the replay loop.
        trace_id, span_id = trace.current_ids()
        if trace_id is not None:
            event["trace_id"] = trace_id
            event["span_id"] = span_id
        self.events.append(event)


class _RecordingOracle(OracleUser):
    """An oracle that notes the attributes of every question it is
    asked, so a real session's answer path can enter the memo."""

    def __init__(self, truth, questions: list):
        super().__init__(truth)
        self.questions = questions

    def respond(self, suggestion, session):
        self.questions.append(suggestion.attrs)
        return super().respond(suggestion, session)


def _answer(attrs: Sequence[str], answers: dict) -> tuple:
    """One edge of the memo: the typed answers to a question, flattened
    to (attr, type, value, attr, type, value, ...). Types are part of
    the key because ``1``, ``1.0`` and ``True`` hash alike but can steer
    pattern matching and probe normalisation apart."""
    edge = []
    for a in attrs:
        if a in answers:
            value = answers[a]
            edge += (a, value.__class__, value)
    return tuple(edge)


def _resolve_group(
    group: PlanGroup,
    ctx: BatchContext,
    manager: MasterDataManager,
    memo: LRUCache,
    chase_memo: LRUCache,
    transcripts: LRUCache,
) -> tuple[GroupOutcome, bool]:
    """Clean one group's representative tuple; True when it was a
    transcript-memo hit.

    With truth, an :class:`OracleUser` drives the full monitor loop (the
    same machinery as the point-of-entry stream). Without truth, the
    chase runs from the trusted ``ctx.validated`` attributes and stops —
    rule-only repair; unvalidated cells keep their input values.
    """
    with trace.span(
        "group-chase", rep=group.representative, members=len(group.members)
    ) as span:
        answers = group.truth if group.truth is not None else group.values
        outcome = _replay(group, answers, transcripts)
        span.annotate(transcript="miss" if outcome is None else "hit")
        if outcome is not None:
            return outcome, True
        return _run_session(group, ctx, answers, manager, memo, chase_memo, transcripts), False


def _replay(group: PlanGroup, answers: dict, transcripts: LRUCache) -> GroupOutcome | None:
    """Walk the memo along this group's answers; the memoised outcome,
    stamped with this group's members and span, or None unless the walk
    ends at a leaf."""
    peek = transcripts.peek
    path: tuple = ()
    try:
        node = peek(path)
        while node.__class__ is tuple:
            path += (_answer(node, answers),)
            node = peek(path)
    except TypeError:  # an unhashable answer: no memo for this group
        return None
    if node is None:
        return None
    events = node.audit_events
    trace_id, span_id = trace.current_ids()
    if trace_id is not None:
        events = tuple({**e, "trace_id": trace_id, "span_id": span_id} for e in events)
    return replace(node, members=group.members, audit_events=events)


def _run_session(
    group: PlanGroup,
    ctx: BatchContext,
    answers: dict,
    manager: MasterDataManager,
    memo: LRUCache,
    chase_memo: LRUCache,
    transcripts: LRUCache,
) -> GroupOutcome:
    """Run one real session for the group and insert its answer path."""
    audit = _TranscriptRecorder()
    session = MonitorSession(
        ctx.ruleset,
        manager,
        group.values,
        f"g{group.representative}",
        regions=ctx.regions,
        strategy=ctx.strategy,
        mode=ctx.mode,
        scenario=ctx.scenario,
        audit=audit,
        use_index=ctx.use_index,
        max_combos=ctx.max_combos,
        suggestion_memo=memo,
        chase_memo=chase_memo,
        trace=False,  # the group-chase span covers the whole session
    )
    questions: list[tuple[str, ...]] = []
    seed = [a for a in ctx.validated if a not in session.validated]
    if seed and not session.is_complete:
        questions.append(tuple(seed))
        if group.truth is not None:
            session.validate({a: group.truth[a] for a in seed})
        else:
            session.assure(seed)
    if group.truth is not None:
        session.run(_RecordingOracle(group.truth, questions), max_rounds=ctx.max_rounds)
    provenance = session.provenance
    events = tuple(audit.events)
    outcome = GroupOutcome(
        members=group.members,
        complete=session.is_complete,
        rounds=session.round_no,
        user_cells=sum(1 for s in provenance.values() if s == "user"),
        rule_cells=sum(1 for s in provenance.values() if s == "rule"),
        normalized_cells=sum(1 for e in events if e["source"] == "normalize"),
        changed_cells=sum(1 for e in events if e["old"] != e["new"]),
        conflicts=len(session.conflicts),
        audit_events=events,
    )
    # The leaf keeps no members and no trace stamps: both belong to
    # whichever group replays it.
    leaf = replace(
        outcome,
        members=(),
        audit_events=tuple(
            {k: v for k, v in e.items() if k not in ("trace_id", "span_id")}
            if "trace_id" in e else e
            for e in events
        ),
    )
    path: tuple = ()
    try:
        for attrs in questions:
            transcripts.put(path, attrs)
            path += (_answer(attrs, answers),)
        transcripts.put(path, leaf)
    except TypeError:  # an unhashable answer: nothing to share
        pass
    return outcome


def _run_shard(
    shard: Shard,
    ctx: BatchContext,
    base: MasterDataManager,
    cache: LRUCache,
    memo: LRUCache,
    chase_memo: LRUCache,
    transcripts: LRUCache,
) -> ShardResult:
    """Resolve every group of one shard behind a cached manager.

    The cached manager wraps the base manager's *store*, so whatever
    backend the run configured (single, sharded, sqlite) answers the
    cache misses — and its probe structures are shared across shards.
    ``memo`` is the run's shared suggestion memo: a suggestion is a
    deterministic function of the validated (attr, value) pairs plus
    the engine configuration — constant across one batch run — so
    sharing it across shards reorders when inference work happens but
    never what any group observes (the bit-identity guarantee holds).
    ``transcripts`` is the run's session-transcript memo, shared on the
    same argument one level up: a whole session is a deterministic
    function of its answer path.
    """
    manager = CachedMasterDataManager(base.store, cache)
    evictions_before = cache.stats.evictions
    memo_before = memo.stats
    start = time.perf_counter()
    # Pool threads (and process workers) have no ambient span; the
    # carrier in the context re-parents this shard under the clean-run.
    outcomes = []
    hits = 0
    with trace.activate(ctx.trace):
        with trace.span("shard", shard=shard.shard_id, groups=len(shard.groups)):
            for group in shard.groups:
                outcome, hit = _resolve_group(
                    group, ctx, manager, memo, chase_memo, transcripts
                )
                outcomes.append(outcome)
                hits += hit
    memo_after = memo.stats
    return ShardResult(
        shard_id=shard.shard_id,
        outcomes=tuple(outcomes),
        elapsed_seconds=time.perf_counter() - start,
        cache_hits=manager.hits,
        cache_misses=manager.misses,
        cache_evictions=cache.stats.evictions - evictions_before,
        memo_hits=memo_after.hits - memo_before.hits,
        memo_misses=memo_after.misses - memo_before.misses,
        transcript_hits=hits,
        transcript_misses=len(outcomes) - hits,
    )


# -- process-backend plumbing -------------------------------------------------
# The context is shipped once per worker process via the pool initializer
# and parked in a module global; shard tasks then only carry the shard.

_PROCESS_CTX: BatchContext | None = None
#: The worker's probe cache, suggestion memo, chase-transcript memo and
#: session-transcript memo.
_PROCESS_CACHES: tuple[LRUCache, ...] = ()


def _init_process(ctx: BatchContext) -> None:
    global _PROCESS_CTX, _PROCESS_CACHES
    _PROCESS_CTX = ctx
    # A spawned worker starts with tracing unconfigured; the carrier
    # ships the exporter config so worker spans reach the same file.
    if ctx.trace is not None and ctx.trace.path:
        trace.configure(ctx.trace.path, ctx.trace.sample)
    _PROCESS_CACHES = tuple(LRUCache(ctx.cache_size) for _ in range(4))
    # Store-specific warm-up: the single store rebuilds its (pickle-
    # stripped) indexes eagerly; the sharded store stays lazy so this
    # worker only materialises the shards its probes actually route to.
    ctx.master.prepare_worker(ctx.ruleset)


def _process_shard(shard: Shard) -> ShardResult:
    assert _PROCESS_CTX is not None and _PROCESS_CACHES
    return _run_shard(shard, _PROCESS_CTX, _PROCESS_CTX.master, *_PROCESS_CACHES)


class ShardExecutor:
    """Run shards under the selected backend, reporting results in
    completion order to an optional callback (the checkpoint journal)."""

    def __init__(
        self,
        ctx: BatchContext,
        *,
        workers: int = 1,
        backend: str = "thread",
        cache: LRUCache | None = None,
    ):
        if workers < 1:
            raise CerFixError(f"workers must be >= 1, got {workers}")
        if backend not in BACKENDS:
            raise CerFixError(f"unknown backend {backend!r} (expected one of {BACKENDS})")
        self.ctx = ctx
        self.workers = workers
        self.backend = backend
        #: The serial/thread paths share one probe cache (a preloaded one,
        #: see :func:`repro.batch.cache.load_probe_cache`, is used as-is),
        #: one suggestion memo (see :func:`_run_shard`), one chase-
        #: transcript memo (see :func:`repro.core.chase.chase_memoized`)
        #: and one session-transcript memo (see :func:`_resolve_group`).
        self.cache = cache if cache is not None else LRUCache(ctx.cache_size)
        self.memo = LRUCache(ctx.cache_size)
        self.chase_memo = LRUCache(ctx.cache_size)
        self.transcripts = LRUCache(ctx.cache_size)

    def run(
        self,
        shards: Sequence[Shard],
        *,
        on_result: Callable[[ShardResult], None] | None = None,
    ) -> list[ShardResult]:
        """Execute ``shards``; returns results ordered by shard id.

        ``on_result`` fires once per shard as it completes (journal
        checkpointing); a worker failure propagates after already
        completed shards have been reported.
        """
        if not shards:
            return []
        if self.workers == 1:
            results = []
            for shard in shards:
                result = _run_shard(
                    shard, self.ctx, self.ctx.master, self.cache, self.memo,
                    self.chase_memo, self.transcripts,
                )
                if on_result is not None:
                    on_result(result)
                results.append(result)
            return results
        if self.backend == "thread":
            pool = ThreadPoolExecutor(max_workers=self.workers)
            submit = lambda shard: pool.submit(  # noqa: E731
                _run_shard, shard, self.ctx, self.ctx.master, self.cache, self.memo,
                self.chase_memo, self.transcripts,
            )
        else:
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_process,
                initargs=(self.ctx,),
            )
            submit = lambda shard: pool.submit(_process_shard, shard)  # noqa: E731
        results: dict[int, ShardResult] = {}
        with pool:
            pending = {submit(shard) for shard in shards}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()  # propagates worker failures
                    results[result.shard_id] = result
                    if on_result is not None:
                        on_result(result)
        return [results[s.shard_id] for s in shards]
