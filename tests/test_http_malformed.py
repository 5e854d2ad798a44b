"""Malformed and hostile requests against every HTTP surface.

Both servers (the entry service and a shard server) run on the one
bounded asyncio layer in :mod:`repro.net`. Each malformed request must
get a 400 (413 for an oversized body, 408 for one that stalls) with a
JSON ``error`` instead of a dropped socket or a read that blocks until
the client gives up, and the server must keep answering fresh
connections afterwards.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro import CerFix
from repro.master.shardserver import ShardServer, ShardServerApp
from repro.net import server as net_server
from repro.net import MAX_BODY_BYTES, MAX_HEADER_BYTES
from repro.scenarios import uk_customers as uk

#: surface -> (a GET route answering 200, a POST route taking a JSON body)
ROUTES = {
    "entry": ("/api/instance", "/api/sessions"),
    "shard": ("/healthz", "/probe_many"),
}


@pytest.fixture(scope="module")
def surfaces():
    entry = CerFix(uk.paper_ruleset(), uk.paper_master()).serve_async(port=0)
    shard = ShardServer(ShardServerApp(uk.paper_ruleset(), uk.paper_master(), 0, 1)).start()
    yield {"entry": entry, "shard": shard}
    entry.close()
    shard.close()


def _request(head: str, body: bytes = b"") -> bytes:
    return head.replace("\n", "\r\n").encode("latin-1") + body


def _cases(post: str) -> dict[str, tuple[bytes, bool]]:
    """case id -> (raw request bytes, half-close the socket after sending)."""
    bloat = "".join(f"X-Pad-{i}: {'p' * 1000}\n" for i in range(MAX_HEADER_BYTES // 1000 + 2))
    return {
        "content-length-abc": (
            _request(f"POST {post} HTTP/1.1\nHost: t\nContent-Length: abc\n\n"),
            False,
        ),
        "content-length-negative": (
            _request(f"POST {post} HTTP/1.1\nHost: t\nContent-Length: -1\n\n"),
            False,
        ),
        "content-length-over-max-body": (
            _request(f"POST {post} HTTP/1.1\nHost: t\nContent-Length: {MAX_BODY_BYTES + 1}\n\n"),
            False,
        ),
        "header-block-over-max": (_request(f"GET {post} HTTP/1.1\nHost: t\n{bloat}\n"), False),
        "truncated-request-line": (b"GET /healt", True),
        "non-json-body": (
            _request(f"POST {post} HTTP/1.1\nHost: t\nContent-Length: 9\n\n", b"{not json"),
            False,
        ),
        "non-utf8-body": (
            _request(f"POST {post} HTTP/1.1\nHost: t\nContent-Length: 2\n\n", b"\xc3("),
            False,
        ),
    }


def _exchange(server, raw: bytes, half_close: bool = False) -> tuple[int, dict, bytes]:
    """Send raw bytes on a fresh connection; parse the one response.

    The socket timeout turns a server that never answers into a test
    failure instead of a hang."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reader = sock.makefile("rb")
        status_line = reader.readline()
        assert status_line, "the server closed the connection without a response"
        headers = {}
        while (line := reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = reader.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


@pytest.mark.parametrize("case", list(_cases("/")))
@pytest.mark.parametrize("surface", list(ROUTES))
def test_malformed_request_answers_400_and_server_survives(surfaces, surface, case):
    server = surfaces[surface]
    ok_route, post_route = ROUTES[surface]
    raw, half_close = _cases(post_route)[case]
    status, headers, body = _exchange(server, raw, half_close)
    assert status in (400, 413), (status, body)
    assert headers["content-type"] == "application/json"
    assert json.loads(body)["error"]
    status, _, body = _exchange(server, _request(f"GET {ok_route} HTTP/1.1\nHost: t\n\n"))
    assert status == 200, body


@pytest.mark.parametrize("surface", list(ROUTES))
def test_stalled_body_answers_408_and_server_survives(surfaces, surface, monkeypatch):
    """A header block announcing a body that never comes is cut off at
    the read deadline, well before the client's 5 s socket timeout."""
    monkeypatch.setattr(net_server, "READ_DEADLINE_S", 0.5)
    server = surfaces[surface]
    ok_route, post_route = ROUTES[surface]
    start = time.perf_counter()
    status, headers, body = _exchange(
        server, _request(f"POST {post_route} HTTP/1.1\nHost: t\nContent-Length: 10\n\n")
    )
    elapsed = time.perf_counter() - start
    assert status == 408, (status, body)
    assert elapsed < 3.0, elapsed
    assert headers["content-type"] == "application/json"
    assert json.loads(body)["error"]
    status, _, body = _exchange(server, _request(f"GET {ok_route} HTTP/1.1\nHost: t\n\n"))
    assert status == 200, body
