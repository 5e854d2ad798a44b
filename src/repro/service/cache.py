"""The entry service's caches.

The service shares one probe cache and one suggestion memo between
every concurrent session. Both are :class:`~repro.cache.LRUCache`
instances, whose one lock makes entries and statistics safe to use
from executor threads and the event loop alike; the names
:class:`SharedProbeCache` and :class:`LRUMemo` are aliases of it.

:class:`MemoView` scopes the suggestion memo to a configuration epoch
(one set of precomputed regions), so entries computed under one epoch
can never answer queries from another.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.cache import LRUCache

__all__ = ["LRUMemo", "MemoView", "SharedProbeCache"]

SharedProbeCache = LRUCache
LRUMemo = LRUCache


class MemoView:
    """A token-scoped view of a suggestion memo.

    The suggestion memo key does not mention the precomputed regions a
    session was created with (sessions capture them by reference). The
    service therefore scopes every session's memo to a *regions epoch*
    token: recomputing regions bumps the epoch, so sessions created
    afterwards read and write a fresh key space while older sessions
    keep hitting entries consistent with the regions they captured.
    """

    def __init__(self, memo: LRUCache, token: Hashable):
        self._memo = memo
        self._token = token

    def get(self, key: Hashable, default: Any = None) -> Any:
        return self._memo.get((self._token, key), default)

    def put(self, key: Hashable, value: Any) -> None:
        self._memo.put((self._token, key), value)
