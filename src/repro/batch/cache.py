"""Batch probe caching and its cross-run persistence.

Batch workloads probe the master data with heavily repeated keys: a
relation of customer transactions re-derives the same zip -> (street,
city) correction for every tuple sharing that zip. A batch run
therefore answers probes through a
:class:`~repro.master.plane.CachedMasterDataManager` per shard, over
one bounded :class:`~repro.cache.LRUCache` of
:class:`~repro.master.manager.MasterMatch` results keyed by
:class:`~repro.master.plane.ProbeKeyer`. Cached values are frozen and
probing is deterministic, so the cache can only change speed, never
output.

This module keeps the batch-facing names (:class:`ProbeCache`,
:class:`CachingMasterDataManager`) as aliases of those classes, and
saves and loads a run's probe cache between runs.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Sequence

from repro.cache import LRUCache
from repro.master.plane import CachedMasterDataManager

ProbeCache = LRUCache
CachingMasterDataManager = CachedMasterDataManager


#: On-disk snapshot format; bump on any incompatible layout change.
CACHE_SNAPSHOT_FORMAT = 1


def save_probe_cache(
    cache: LRUCache,
    path: str | Path,
    *,
    master_digest: str,
    rule_ids: Sequence[str],
) -> int:
    """Persist ``cache`` for a future batch run; returns entries written.

    The snapshot is stamped with the master *content* digest and the
    rule-id set, and :func:`load_probe_cache` refuses a snapshot whose
    stamps disagree with the loading run — a cached
    :class:`~repro.master.manager.MasterMatch` is only valid against the
    exact master data and rules that produced it. The write is atomic
    (temp file + rename), so a crash mid-save leaves the previous
    snapshot intact.
    """
    path = Path(path)
    entries = cache.snapshot()
    payload = {
        "format": CACHE_SNAPSHOT_FORMAT,
        "master": master_digest,
        "rules": tuple(sorted(rule_ids)),
        "entries": entries,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return len(entries)


def load_probe_cache(
    path: str | Path,
    *,
    master_digest: str,
    rule_ids: Sequence[str],
    maxsize: int = 4096,
) -> tuple[LRUCache | None, str]:
    """Load a snapshot written by :func:`save_probe_cache`.

    Returns ``(cache, note)``: a warm :class:`~repro.cache.LRUCache` when the
    snapshot is present, readable and stamped for this exact
    (master content, rule set) pair, else ``(None, why)`` — a stale or
    corrupt snapshot degrades to a cold start, never to wrong answers.
    """
    path = Path(path)
    if not path.exists():
        return None, f"cold start (no snapshot at {path})"
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        fmt = payload["format"]
        master = payload["master"]
        rules = payload["rules"]
        entries = payload["entries"]
    except Exception as exc:  # truncated, corrupt, or foreign pickle
        return None, f"cold start (unreadable snapshot: {exc})"
    if fmt != CACHE_SNAPSHOT_FORMAT:
        return None, f"cold start (snapshot format {fmt} != {CACHE_SNAPSHOT_FORMAT})"
    if master != master_digest:
        return None, "cold start (master data changed since the snapshot)"
    if rules != tuple(sorted(rule_ids)):
        return None, "cold start (rule set changed since the snapshot)"
    cache = LRUCache(maxsize)
    resident = cache.preload(entries)
    return cache, f"warm start ({resident} entries from {path})"
