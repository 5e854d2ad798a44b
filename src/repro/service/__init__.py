"""The async point-of-entry service (paper §1, "point of data entry").

CerFix's headline scenario is a monitor that fixes tuples *as users
enter them*. This package is the explorer's JSON API (``cerfix serve``)
as an asyncio-native entry service that multiplexes many monitor
sessions over one engine:

:mod:`repro.service.app`
    the :class:`RoutingCore` routing table and the
    :class:`AsyncCerFixService` orchestrator, which counts requests,
    sessions and latency for ``/api/metrics`` on its own
    :class:`~repro.obs.metrics.MetricsRegistry`;
:mod:`repro.service.batcher`
    the probe micro-batcher — concurrent cache misses against the
    master store are collapsed per key and answered in batched lookups;
:mod:`repro.service.cache`
    the shared probe cache and suggestion memo (both a
    :class:`repro.cache.LRUCache`) and the epoch-scoped :class:`MemoView`;
:mod:`repro.service.limits`
    admission control — bounded global and per-session queues with
    ``429 Retry-After`` backpressure;
:mod:`repro.service.http`
    :class:`AsyncCerFixServer`, the service on the shared bounded
    asyncio HTTP layer (:mod:`repro.net`);
:mod:`repro.service.loadgen`
    the async load generator used by the benchmarks and the CI smoke
    leg.

The contract mirrors the store backends': concurrency can only change
*speed*, never output. For any interleaving of sessions, the set of
(fix, region, audit-event) outputs per tuple is bit-identical to the
serial monitor path — the differential suite enforces this across all
master-store backends.
"""

from repro.service.app import AsyncCerFixService, RoutingCore
from repro.service.batcher import CoalescingMasterDataManager, ProbeBatcher
from repro.service.cache import LRUMemo, MemoView, SharedProbeCache
from repro.service.http import AsyncCerFixServer
from repro.service.limits import Admission, AdmissionController
from repro.service.loadgen import LoadReport, run_load

__all__ = [
    "Admission",
    "AdmissionController",
    "AsyncCerFixServer",
    "AsyncCerFixService",
    "CoalescingMasterDataManager",
    "LoadReport",
    "LRUMemo",
    "MemoView",
    "ProbeBatcher",
    "RoutingCore",
    "SharedProbeCache",
    "run_load",
]
