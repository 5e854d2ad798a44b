"""The one HTTP layer: a bounded asyncio server every JSON surface runs on.

The entry service (:class:`repro.service.AsyncCerFixServer`) and the
shard servers (:class:`repro.master.shardserver.ShardServer`) are both
an :class:`HTTPServer` bound to a handler. The parser bounds, the
Prometheus mount, the JSON-body decode, the trace join and the ``500``
guard live in :mod:`repro.net.server`, once.
"""

from repro.net.server import MAX_BODY_BYTES, MAX_HEADER_BYTES, HTTPServer

__all__ = ["HTTPServer", "MAX_BODY_BYTES", "MAX_HEADER_BYTES"]
