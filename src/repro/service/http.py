"""The entry service's HTTP front end: the shared server bound to it.

:class:`AsyncCerFixServer` is :class:`repro.net.HTTPServer` (the one
bounded asyncio HTTP layer, with its request limits, Prometheus mount
and trace join) running :meth:`AsyncCerFixService.handle
<repro.service.app.AsyncCerFixService.handle>`. Two ways to run it:

* ``AsyncCerFixServer(service).serve_forever()`` in the foreground
  (what ``cerfix serve`` does), or ``await server.serve()`` inside an
  existing event loop;
* ``AsyncCerFixServer(service).start()`` — a dedicated background
  event-loop thread, returning once the server accepts (what tests,
  benchmarks and :meth:`repro.engine.CerFix.serve_async` use).
"""

from __future__ import annotations

import asyncio

from repro.net.server import HTTPServer
from repro.service.app import AsyncCerFixService


class AsyncCerFixServer(HTTPServer):
    """One entry service bound to one listening socket."""

    def __init__(self, service: AsyncCerFixService, host: str = "127.0.0.1", port: int = 0):
        super().__init__(service.handle, host, port, thread_name="cerfix-async-server")
        self.service = service

    async def serve(self) -> None:
        self.service.bind_loop(asyncio.get_running_loop())
        await super().serve()

    def close(self) -> None:
        """Stop serving and release the service's executor (idempotent)."""
        super().close()
        self.service.close()
