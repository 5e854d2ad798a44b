"""Batch repair pipeline: sharded, parallel, cache-accelerated
whole-relation cleaning.

CerFix's monitor cleans one tuple at the point of entry; this package
scales the same certain-fix machinery to whole relations:

- :mod:`~repro.batch.planner` — group rows on their answer key (the
  inputs a repair transcript is a function of), deal groups into shards;
- :mod:`~repro.batch.cache` — the batch names of the probe cache and
  cached manager, and probe-cache persistence across runs;
- :mod:`~repro.batch.executor` — serial / thread / process shard
  execution with bit-identical output;
- :mod:`~repro.batch.journal` — per-shard checkpoints for crash-safe
  resume;
- :mod:`~repro.batch.report` — the run's aggregate accounting;
- :mod:`~repro.batch.pipeline` — the orchestrator behind
  :meth:`CerFix.clean_relation`.
"""

# The executor loads repro.core before repro.master (the master manager
# imports core, whose chase imports the manager back); the cache module
# reaches repro.master directly, so it must come second.
from repro.batch.executor import BatchContext, GroupOutcome, ShardExecutor, ShardResult
from repro.batch.cache import CachingMasterDataManager, ProbeCache
from repro.batch.journal import CheckpointJournal
from repro.batch.pipeline import BatchCleaner, BatchResult
from repro.batch.planner import PlanGroup, RepairPlan, Shard, build_plan
from repro.batch.report import BatchReport, ShardStats, build_report
from repro.cache import CacheStats

__all__ = [
    "BatchCleaner",
    "BatchContext",
    "BatchReport",
    "BatchResult",
    "CacheStats",
    "CachingMasterDataManager",
    "CheckpointJournal",
    "GroupOutcome",
    "PlanGroup",
    "ProbeCache",
    "RepairPlan",
    "Shard",
    "ShardExecutor",
    "ShardResult",
    "ShardStats",
    "build_plan",
    "build_report",
]
