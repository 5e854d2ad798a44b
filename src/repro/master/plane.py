"""The probe plane: one analysis call's view of the master data.

The region finder, the certainty check and the consistency check each
chase thousands of value combinations against master data that cannot
change while they run. A :class:`ProbePlane` is the
:class:`~repro.master.manager.MasterDataManager` such a call works
through. Over a store whose probes are network round trips
(``io_bound``), it memoises every answer under the shared probe key
(:class:`ProbeKeyer`), answers probes whose key holds a
:class:`~repro.core.certainty.FreshValue` locally (a fresh sentinel
never equals a master value, so the match is empty, and it cannot be
serialised anyway), and fetches many keys in one
:meth:`~repro.master.store.MasterStore.probe_many` call. Over an
in-memory store it passes probes straight through: such a store
answers as fast as the memo would.

:meth:`ProbePlane.chase_all` drives chases in *waves*. Over a store
whose probes are network round trips (``io_bound``), a chase that needs
a key the plane has not fetched yet is suspended at that probe. Once
every chase of the wave has run, the distinct keys the suspended chases
miss go to the store in one batched call, and the suspended chases run
again from the start against the warmer memo. This repeats until no
chase is pending, so the number of round trips follows the depth of the
chases, not their number. Over in-memory stores every chase runs
exactly once, in order.

The plane only changes how probes reach the store: :func:`chase` stays
the one decision procedure, and a memoised answer is the one the store
gives for that key.

:class:`CachedMasterDataManager` is the long-lived counterpart: it reads
through a bounded :class:`~repro.cache.LRUCache` under the same key.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.cache import LRUCache
from repro.core.certainty import FreshValue
from repro.core.chase import ChaseResult, chase
from repro.core.rule import Constant, EditingRule
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.master.store import MasterMatch, MasterStore
from repro.relational.index import HashIndex
from repro.relational.relation import Relation

#: The answer for a probe key holding a fresh sentinel.
_NO_MATCH = MasterMatch(positions=(), values=())

#: Chases buffered per block while earlier ones wait for a fetch; bounds
#: the driver's memory whatever the size of the enumeration.
WAVE_BLOCK = 2048


class ProbeKeyer:
    """The one probe key: ``(rule id, HashIndex.key_of(raw LHS values))``.

    Keys are normalised with the rule's match operators, so 'EH8 4AH'
    and 'eh8 4ah' share one entry in every probe cache: the plane's
    memo and the :class:`~repro.cache.LRUCache` behind every
    :class:`CachedMasterDataManager`. Safe to share between threads: every
    structure it fills is derived, so two threads racing to fill the
    same slot store equal values.
    """

    #: Raw-key memo size; the memo is flushed wholesale when full.
    MEMO_MAX = 65536

    def __init__(self):
        self._probes: dict[str, HashIndex] = {}  # rule id -> key normaliser
        #: (rule id, raw LHS values) -> key. Normalising is pure, and
        #: callers re-probe the same few raw keys constantly.
        self._memo: dict[tuple, tuple] = {}

    def key(self, rule: EditingRule, values: Mapping[str, Any]) -> tuple:
        raw = tuple(values[a] for a in rule.lhs_attrs)
        memo_key = (rule.rule_id, raw)
        try:
            key = self._memo.get(memo_key)
        except TypeError:  # unhashable value in the probe key
            memo_key = None
            key = None
        if key is not None:
            return key
        probe = self._probes.get(rule.rule_id)
        if probe is None:
            probe = self._probes[rule.rule_id] = HashIndex(rule.m_attrs, rule.ops)
        key = (rule.rule_id, probe.key_of(raw))
        if memo_key is not None:
            if len(self._memo) >= self.MEMO_MAX:
                self._memo.clear()
            self._memo[memo_key] = key
        return key


class CachedMasterDataManager(MasterDataManager):
    """A manager whose :meth:`match` reads through an
    :class:`~repro.cache.LRUCache` of probe results.

    A miss goes to ``batcher.probe_sync`` when a batcher was given (the
    entry service's :class:`~repro.service.batcher.ProbeBatcher`, which
    coalesces concurrent misses and fills the cache), else to
    ``store.probe``. A batch run builds one per shard, the entry service
    shares one between every session; ``hits`` and ``misses`` count
    this instance's lookups, so per-shard reports stay exact when
    shards share a cache. The cache is never invalidated, so
    :meth:`apply_update` refuses.
    """

    def __init__(
        self,
        source: Relation | MasterStore,
        cache: LRUCache,
        batcher: Any = None,
        keyer: ProbeKeyer | None = None,
    ):
        super().__init__(source)
        self.cache = cache
        self.batcher = batcher
        self.keyer = keyer if keyer is not None else ProbeKeyer()
        self.hits = 0
        self.misses = 0
        self._count_lock = threading.Lock()

    def match(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
    ) -> MasterMatch:
        if isinstance(rule.source, Constant):
            return super().match(rule, values, use_index=use_index)
        key = self.keyer.key(rule, values)
        match = self.cache.get(key)
        if match is not None:
            with self._count_lock:
                self.hits += 1
            return match
        with self._count_lock:
            self.misses += 1
        if self.batcher is not None:
            return self.batcher.probe_sync(key, rule, values)
        match = self.store.probe(rule, values, use_index=use_index)
        self.cache.put(key, match)
        return match

    def apply_update(self, add=(), remove=()):
        raise NotImplementedError(
            "a cached master manager never invalidates its probe cache; apply "
            "master updates on the engine's own manager and build a new one"
        )

    def __repr__(self) -> str:
        return f"CachedMasterDataManager({self.store!r}, {self.hits} hits / {self.misses} misses)"


class ProbeMiss(Exception):
    """Raised inside :meth:`ProbePlane.chase_all` to suspend a chase at
    a probe whose key has not been fetched; carries the request."""

    def __init__(self, rule: EditingRule, values: Mapping[str, Any]):
        super().__init__(rule.rule_id)
        self.request = (rule, values)


class ProbePlane(MasterDataManager):
    """A memoised, batch-fetching view of a master store for one call.

    Build one per analysis call and drop it afterwards: the memo is
    never invalidated, so a plane must not outlive a master update.
    ``master`` may be a manager, a store or a bare relation; the plane
    probes the underlying store, through the memo when the store is
    ``io_bound`` and directly otherwise.
    """

    def __init__(self, master: MasterDataManager | MasterStore | Relation):
        super().__init__(master.store if isinstance(master, MasterDataManager) else master)
        self.keyer = ProbeKeyer()
        self._memo: dict[tuple, MasterMatch] = {}
        self._io_bound = self.store.io_bound
        self._suspend = False
        #: Chase passes run by :meth:`chase_all` (one per wave).
        self.waves = 0
        #: Distinct keys sent to the store by :meth:`prefetch`.
        self.keys_fetched = 0

    def match(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
    ) -> MasterMatch:
        if isinstance(rule.source, Constant) or not self._io_bound:
            # An in-memory store answers as fast as the memo would.
            return super().match(rule, values, use_index=use_index)
        key = self.keyer.key(rule, values)
        match = self._memo.get(key)
        if match is not None:
            return match
        if any(isinstance(v, FreshValue) for v in key[1]):
            match = _NO_MATCH
        elif self._suspend:
            raise ProbeMiss(rule, {a: values[a] for a in rule.lhs_attrs})
        else:
            match = self.store.probe(rule, values, use_index=use_index)
        self._memo[key] = match
        return match

    def prefetch(
        self,
        requests: Iterable[tuple[EditingRule, Mapping[str, Any]]],
        *,
        use_index: bool = True,
    ) -> int:
        """Fetch every request the memo cannot answer in one
        ``store.probe_many`` call; returns the number of keys sent.

        Requests are de-duplicated on the probe key. Constant rules and
        keys holding a fresh sentinel never reach the store.
        """
        wanted: dict[tuple, tuple[EditingRule, Mapping[str, Any]]] = {}
        for rule, values in requests:
            if isinstance(rule.source, Constant):
                continue
            key = self.keyer.key(rule, values)
            if key in self._memo or key in wanted:
                continue
            if any(isinstance(v, FreshValue) for v in key[1]):
                self._memo[key] = _NO_MATCH
                continue
            wanted[key] = (rule, values)
        if not wanted:
            return 0
        matches = self.store.probe_many(list(wanted.values()), use_index=use_index)
        self._memo.update(zip(wanted, matches))
        self.keys_fetched += len(wanted)
        return len(wanted)

    def chase_all(
        self,
        jobs: Iterable[tuple[Mapping[str, Any], Sequence[str]]],
        ruleset: RuleSet,
    ) -> Iterator[ChaseResult]:
        """Yield ``chase(values, validated, ruleset, self)`` for every
        ``(values, validated)`` job, in job order.

        Jobs are pulled lazily. Over an ``io_bound`` store, chases that
        miss the memo are buffered (at most :data:`WAVE_BLOCK` at a time)
        and completed in waves, one batched fetch per wave; results
        still come out in job order.
        """
        jobs = iter(jobs)
        suspend = self._io_bound
        missed: list[tuple[EditingRule, Mapping[str, Any]]] = []

        def attempt(job: tuple[Mapping[str, Any], Sequence[str]]) -> ChaseResult | None:
            self._suspend = suspend
            try:
                return chase(job[0], job[1], ruleset, self)
            except ProbeMiss as miss:
                missed.append(miss.request)
                return None
            finally:
                self._suspend = False

        job = next(jobs, None)
        while job is not None:
            # The first wave runs as jobs arrive; results stream out
            # until a chase suspends, after which they queue behind it.
            self.waves += 1
            queue: list[list] = []
            while job is not None and len(queue) < WAVE_BLOCK:
                result = attempt(job)
                if result is None or queue:
                    queue.append([job, result])
                else:
                    yield result
                job = next(jobs, None)
            while missed:
                self.prefetch(missed)
                missed.clear()
                self.waves += 1
                for entry in queue:
                    if entry[1] is None:
                        entry[1] = attempt(entry[0])
            for _, result in queue:
                yield result

    def __repr__(self) -> str:
        return f"ProbePlane({self.store!r}, {len(self._memo)} keys memoised)"
