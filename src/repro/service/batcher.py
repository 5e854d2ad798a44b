"""The probe micro-batcher: coalesced, batched master lookups.

Concurrent monitor sessions probe the master store with heavily
repeated keys — N users entering tuples that share a zip code all need
the same zip → (street, city) correction. The batcher sits between the
sessions' shared probe cache and the
:class:`~repro.master.store.MasterStore` and applies two amortisations:

**per-key request collapsing**
    the first miss for a key becomes its *leader*; every concurrent
    miss for the same key attaches to the leader's future instead of
    probing the store again — N sessions probing one key cost one
    store hit;
**micro-batching**
    pending leader misses are drained together (after a sub-millisecond
    window that lets concurrent misses pile up) and answered through
    one :meth:`~repro.master.store.MasterStore.probe_many` call.

Threading model: sessions run on executor threads and enter through
one shared :class:`~repro.master.plane.CachedMasterDataManager` (also
importable here as :class:`CoalescingMasterDataManager`). Its
synchronous ``match`` checks the shared :class:`~repro.cache.LRUCache`
first, under that cache's one lock, and hands only *misses* to
:meth:`ProbeBatcher.probe_sync`, which bridges them into the event
loop with ``run_coroutine_threadsafe``. The drain runs on the loop;
for in-memory backends (every store probing RAM, including sqlite)
the lookup happens inline — index reads never block the loop
meaningfully, and keeping them off the session executor makes the
bridge deadlock-free by construction. An ``io_bound`` store (the
remote shard cluster) instead has its ``probe_many`` dispatched to the
loop's default executor: a real network round trip must not stall
request accept, and the micro-batch is exactly the unit that amortises
it.

Determinism: probing is a pure function of (rule, key) over fixed
master data, so collapsing and batching can only change *speed*, never
output — the service parity suite pins this.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping

from repro.cache import LRUCache
from repro.core.rule import EditingRule
from repro.master.manager import MasterMatch
from repro.master.plane import CachedMasterDataManager, ProbeKeyer
from repro.master.store import MasterStore
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry

__all__ = ["CoalescingMasterDataManager", "ProbeBatcher", "ProbeKeyer"]

CoalescingMasterDataManager = CachedMasterDataManager


class ProbeBatcher:
    """Coalesce concurrent probe misses into batched store lookups.

    Lives on the service's event loop; :meth:`bind_loop` must run
    before the first probe. ``window`` (seconds) is how long a drain
    waits for more misses to pile up — 0 still coalesces everything
    submitted in the same loop tick.
    """

    def __init__(
        self,
        store: MasterStore,
        cache: LRUCache,
        *,
        window: float = 0.001,
        max_batch: int = 64,
        metrics: MetricsRegistry | None = None,
    ):
        self.store = store
        self.cache = cache
        self.window = window
        self.max_batch = max_batch
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pending: dict[tuple, asyncio.Future] = {}
        self._queue: list[tuple[tuple, EditingRule, Mapping[str, Any]]] = []
        self._drain_task: asyncio.Task | None = None

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    @property
    def loop(self) -> asyncio.AbstractEventLoop | None:
        return self._loop

    # -- the async path (runs on the loop) ---------------------------------

    async def probe(self, key: tuple, rule: EditingRule, values: Mapping[str, Any]) -> MasterMatch:
        """Resolve one cache miss, collapsing against in-flight keys."""
        pending = self._pending.get(key)
        if pending is not None:
            self.metrics.inc("probes.coalesced")
            return await pending
        cached = self.cache.peek(key)  # a drain may have filled it meanwhile
        if cached is not None:
            return cached
        assert self._loop is not None, "ProbeBatcher.bind_loop() was never called"
        future: asyncio.Future = self._loop.create_future()
        self._pending[key] = future
        self._queue.append((key, rule, values))
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = self._loop.create_task(self._drain())
        return await future

    async def _drain(self) -> None:
        while self._queue:
            if self.window > 0:
                await asyncio.sleep(self.window)
            else:
                await asyncio.sleep(0)  # yield once: same-tick misses join
            batch, self._queue = self._queue[: self.max_batch], self._queue[self.max_batch:]
            if not batch:
                continue
            requests = [(rule, values) for _, rule, values in batch]
            try:
                with trace.span("probe", probes=len(batch)):
                    if self.store.io_bound:
                        # Network-backed stores (the remote shard cluster)
                        # block on real round trips; run them on the default
                        # executor so the loop keeps accepting sessions.
                        # In-memory stores stay inline — their probes are
                        # index reads, and a thread hop would cost more
                        # than it hides.
                        assert self._loop is not None
                        car = trace.carrier()
                        matches = await self._loop.run_in_executor(
                            None, lambda: self._probe_many_traced(car, requests)
                        )
                    else:
                        matches = self.store.probe_many(requests)
            except Exception as exc:  # propagate to every waiter, keep draining
                for key, _, _ in batch:
                    future = self._pending.pop(key, None)
                    if future is not None and not future.done():
                        future.set_exception(exc)
                continue
            # store probes first, batches last: a concurrent reader
            # (counts_json) reads them in the opposite order
            self.metrics.inc("probes.store_probes", len(batch))
            self.metrics.inc("probes.batched_misses", len(batch))
            self.metrics.inc("probes.batches")
            for (key, _, _), match in zip(batch, matches):
                self.cache.put(key, match)
                future = self._pending.pop(key, None)
                if future is not None and not future.done():
                    future.set_result(match)

    def _probe_many_traced(self, car, requests):
        """Run the store's batch probe on an executor thread with the
        loop-side trace context re-activated — contextvars do not cross
        ``run_in_executor``, and the remote store's ``probe_many`` span
        (plus the shard RPC headers under it) must parent under the
        drain's ``probe`` span."""
        with trace.activate(car):
            return self.store.probe_many(requests)

    # -- the sync bridge (runs on executor threads) -------------------------

    def probe_sync(self, key: tuple, rule: EditingRule, values: Mapping[str, Any]) -> MasterMatch:
        """Blocking entry point for sessions running on executor threads.

        Loop-aware: under inline dispatch (single-core hosts) sessions
        run *on* the event loop thread, where a blocking bridge into the
        same loop would deadlock — those probes go straight to the store
        (the shared cache still amortises them; there is no concurrency
        to coalesce on one thread). Off-loop callers get the full
        coalescing/micro-batching path.
        """
        loop = self._loop
        if loop is None or not loop.is_running():
            # No loop (direct library use, unit tests): probe inline.
            match = self.store.probe(rule, values)
            self.cache.put(key, match)
            return match
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            match = self.store.probe(rule, values)
            self.cache.put(key, match)
            self.metrics.inc("probes.store_probes")
            return match
        handle = asyncio.run_coroutine_threadsafe(self.probe(key, rule, values), loop)
        return handle.result()
