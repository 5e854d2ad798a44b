"""The bounded asyncio HTTP/1.1 server behind every JSON surface.

A small stdlib-only HTTP/1.1 server over :func:`asyncio.start_server`:
request line + headers + Content-Length body in, JSON out, keep-alive
by default. A surface supplies one *handler*::

    handler(method, path, body) -> (status, payload, extra_headers)

``path`` keeps its query string and ``body`` is the decoded JSON body
(``None`` when empty). A plain function runs inline on the loop; a
coroutine function is awaited. Everything around the handler lives
here, once:

* the parser bounds: a header block over :data:`MAX_HEADER_BYTES` or a
  malformed request line or ``Content-Length`` answers ``400``, a body
  over :data:`MAX_BODY_BYTES` answers ``413``, then the connection
  closes;
* the JSON-body decode: ``400`` on a body that is not JSON, and the
  connection stays usable;
* ``GET /metrics?format=prometheus`` (also ``/api/metrics``): the
  process-wide registry as Prometheus text;
* the ``X-Cerfix-Trace`` join: the handler runs under the caller's span;
* the ``500`` guard: a handler exception answers
  ``{"error": "<Type>: <message>"}`` and the server keeps serving.

Each response goes out in one write, so Nagle's algorithm cannot stall
the body behind the client's delayed ACK. The socket is bound in the
constructor, so ``.port`` is known before serving starts.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import json
import socket
import threading
from http import HTTPStatus
from typing import Any, Callable, Mapping

from repro.obs import promfmt, trace
from repro.obs.metrics import get_registry

#: Bounds a hostile/buggy client can hit before the connection is dropped.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

#: GET paths that answer the Prometheus exposition on ``?format=prometheus``.
METRICS_PATHS = ("/metrics", "/api/metrics")

_TRACE_HEADER = trace.HEADER.lower()

Handler = Callable[[str, str, Any], Any]


class _BadRequest(Exception):
    """A request the parser refuses; answered with ``status``, then the
    connection closes (the stream position is no longer trustworthy)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """(method, path, headers, body), or None on a cleanly closed socket.

    Header names come back lower-cased. Raises :class:`_BadRequest` on
    anything malformed or over the bounds.
    """
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed between requests — normal keep-alive end
        raise _BadRequest("truncated request line") from None
    except asyncio.LimitOverrunError:
        raise _BadRequest("request line too long") from None
    try:
        method, path, _version = line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise _BadRequest(f"malformed request line {line[:200]!r}") from None
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.LimitOverrunError:
            # a single >64KiB header line trips the StreamReader limit
            # before the total-size check can
            raise _BadRequest("header line too long") from None
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise _BadRequest("headers too large")
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise _BadRequest(f"bad Content-Length {raw_length[:64]!r}") from None
    if length < 0:
        raise _BadRequest(f"bad Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(f"body of {length} bytes exceeds {MAX_BODY_BYTES}", status=413)
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


def _encode_response(
    status: int,
    data: bytes,
    content_type: str,
    extra_headers: Mapping[str, str],
    *,
    keep_alive: bool,
) -> bytes:
    """One complete response (header block + body) as a single buffer."""
    try:
        reason = HTTPStatus(status).phrase
    except ValueError:
        reason = "Unknown"
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(data)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{k}: {v}" for k, v in extra_headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data


def _json(
    status: int, payload: Any, extra: Mapping[str, str] | None = None
) -> tuple[int, bytes, str, Mapping[str, str]]:
    data = json.dumps(payload, default=str).encode("utf-8")
    return status, data, "application/json", extra or {}


class HTTPServer:
    """One handler bound to one listening socket."""

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        thread_name: str = "cerfix-http",
    ):
        self.handler = handler
        self.host = host
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._sock = socket.create_server((host, port), family=family)
        self.port = self._sock.getsockname()[1]
        self._thread_name = thread_name
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- in-loop serving -----------------------------------------------------

    async def serve(self) -> None:
        """Serve on the running loop until :meth:`close` (or cancellation)."""
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(self._serve_connection, sock=self._sock)
        self._stop_event = asyncio.Event()
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            # Stop accepting, then close every client transport: handlers
            # observe EOF and leave their keep-alive loops, and a pooled
            # client sees its connection drop (what a killed process
            # looks like). Then wait for the handlers — no cancellation.
            server.close()
            for writer in list(self._writers):
                writer.close()
            await server.wait_closed()
            if self._conn_tasks:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        asyncio.gather(*list(self._conn_tasks), return_exceptions=True),
                        timeout=5,
                    )

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    status, data, ctype, _ = _json(exc.status, {"error": str(exc)})
                    writer.write(_encode_response(status, data, ctype, {}, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, raw = request
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                status, data, ctype, extra = await self._respond(method, path, headers, raw)
                writer.write(_encode_response(status, data, ctype, extra, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _respond(
        self, method: str, path: str, headers: Mapping[str, str], raw: bytes
    ) -> tuple[int, bytes, str, Mapping[str, str]]:
        bare, _, query = path.partition("?")
        prometheus = method == "GET" and bare in METRICS_PATHS and "format=prometheus" in query
        body = None
        if raw and not prometheus:
            try:
                body = json.loads(raw)
            except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
                return _json(400, {"error": "request body is not valid JSON"})
        try:
            if prometheus:  # scrapes bypass the handler's JSON routing table
                registry = get_registry()
                registry.record_snapshot()
                text = promfmt.render(registry.dump())
                return 200, text.encode("utf-8"), promfmt.CONTENT_TYPE, {}
            # Join the caller's trace: work under this request parents
            # under the client span that sent it.
            with trace.activate(trace.parse_header(headers.get(_TRACE_HEADER))):
                result = self.handler(method, path, body)
                if inspect.isawaitable(result):
                    result = await result
        except Exception as exc:  # a handler bug must not kill the server
            return _json(500, {"error": f"{type(exc).__name__}: {exc}"})
        status, payload, extra = result
        return _json(status, payload, extra)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "HTTPServer":
        """Serve on a dedicated event-loop thread; returns once accepting
        (or raises what starting raised)."""
        if self._thread is not None:
            return self

        def _run() -> None:
            try:
                asyncio.run(self.serve())
            except BaseException as exc:  # surface startup errors to start()
                self._startup_error = exc
                self._started.set()

        self._thread = threading.Thread(target=_run, daemon=True, name=self._thread_name)
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Serve in the foreground until Ctrl-C or :meth:`close`."""
        with contextlib.suppress(KeyboardInterrupt):
            asyncio.run(self.serve())

    def close(self) -> None:
        """Stop serving and sever live connections (idempotent)."""
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):  # loop raced to close
                loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._sock.close()  # never served, or already closed by the loop

    def __enter__(self) -> "HTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
