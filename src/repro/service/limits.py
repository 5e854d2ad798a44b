"""Admission control: bounded queues with ``429 Retry-After`` backpressure.

The service bounds three things:

* **global in-flight requests** (``max_inflight``) — accepted requests
  that have not finished yet, including those queued on a lock;
* **concurrently active sessions** (``max_sessions``) — open monitor
  sessions that have not reached a certain fix;
* **per-session pending operations** (``max_session_pending``) — a
  client hammering one session queues at most this many operations.

Every bound rejects with a machine-readable reason and a
``Retry-After`` hint derived from recent latency, instead of queueing
without limit — under overload the service degrades to fast 429s, not
to unbounded memory growth and timeout cascades.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Admission:
    """The outcome of one admission check."""

    admitted: bool
    reason: str = ""
    retry_after: int = 0  # seconds; only meaningful when rejected

    def payload(self) -> dict:
        return {"error": self.reason, "retry_after": self.retry_after}


_ADMITTED = Admission(True)


class AdmissionController:
    """Thread-safe admission decisions for one service instance.

    The controller only counts; callers pair every successful
    ``enter_*`` with the matching ``exit_*`` (the service does so in
    ``finally`` blocks). ``retry_hint`` scales with the current queue
    depth and the caller-supplied mean latency so saturated deployments
    back clients off harder than briefly-busy ones.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 256,
        max_inflight: int = 1024,
        max_session_pending: int = 16,
    ):
        for name, value in (
            ("max_sessions", max_sessions),
            ("max_inflight", max_inflight),
            ("max_session_pending", max_session_pending),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.max_sessions = max_sessions
        self.max_inflight = max_inflight
        self.max_session_pending = max_session_pending
        self._lock = threading.Lock()
        self._inflight = 0
        self._active_sessions = 0
        self._session_pending: Counter[str] = Counter()

    # -- global request bound ----------------------------------------------

    def enter_request(self, mean_latency: float = 0.0) -> Admission:
        with self._lock:
            if self._inflight >= self.max_inflight:
                return Admission(
                    False,
                    reason=f"service saturated: {self._inflight} requests in flight "
                    f"(max_inflight={self.max_inflight})",
                    retry_after=self._retry_hint(self._inflight, mean_latency),
                )
            self._inflight += 1
            return _ADMITTED

    def exit_request(self) -> None:
        with self._lock:
            self._inflight -= 1

    # -- session capacity ---------------------------------------------------

    def reserve_session(self, mean_latency: float = 0.0) -> Admission:
        """Atomically claim one active-session slot (check **and**
        increment under the lock — N concurrent opens racing an
        unreserved count would all pass an N-times-too-generous check).
        Pair every admitted reservation with :meth:`release_session`
        when the session completes, is evicted, or fails to open."""
        with self._lock:
            if self._active_sessions >= self.max_sessions:
                return Admission(
                    False,
                    reason=f"session capacity reached: {self._active_sessions} active "
                    f"(max_sessions={self.max_sessions})",
                    retry_after=self._retry_hint(self._active_sessions, mean_latency),
                )
            self._active_sessions += 1
            return _ADMITTED

    def release_session(self) -> None:
        with self._lock:
            self._active_sessions -= 1

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return self._active_sessions

    # -- per-session queue bound --------------------------------------------

    def enter_session_op(self, session_id: str, mean_latency: float = 0.0) -> Admission:
        with self._lock:
            pending = self._session_pending[session_id]
            if pending >= self.max_session_pending:
                return Admission(
                    False,
                    reason=f"session {session_id!r} has {pending} operations pending "
                    f"(max_session_pending={self.max_session_pending})",
                    retry_after=self._retry_hint(pending, mean_latency),
                )
            self._session_pending[session_id] += 1
            return _ADMITTED

    def exit_session_op(self, session_id: str) -> None:
        with self._lock:
            self._session_pending[session_id] -= 1
            if self._session_pending[session_id] <= 0:
                del self._session_pending[session_id]

    def forget_session(self, session_id: str) -> None:
        """Drop a deleted session's pending counter (if any)."""
        with self._lock:
            self._session_pending.pop(session_id, None)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _retry_hint(depth: int, mean_latency: float) -> int:
        """Seconds a client should wait: the time to drain the queue at
        the recent per-request latency, clamped to [1, 30]."""
        estimate = depth * max(mean_latency, 0.001)
        return max(1, min(30, round(estimate)))
