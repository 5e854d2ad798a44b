"""Processes the benchmark spawns, and the endpoints it reads them by.

Every process started here is registered with one :class:`Reaper`,
which terminates and waits for all of them on exit — including when a
workload raises — so no shard server or service outlives a run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence


class Reaper:
    """Owns spawned processes and clusters; :meth:`close` stops them all."""

    def __init__(self) -> None:
        self._owned: list[Any] = []

    def adopt(self, thing: Any) -> Any:
        """Track a ``subprocess.Popen`` or anything with ``close()``."""
        self._owned.append(thing)
        return thing

    def release(self, thing: Any) -> None:
        """Stop one tracked item now."""
        self._owned.remove(thing)
        _stop(thing)

    def close(self) -> None:
        while self._owned:
            _stop(self._owned.pop())

    def __enter__(self) -> "Reaper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _stop(thing: Any) -> None:
    if not isinstance(thing, subprocess.Popen):
        thing.close()
        return
    if thing.poll() is None:
        thing.terminate()
        try:
            thing.wait(timeout=5)
        except subprocess.TimeoutExpired:
            thing.kill()
            thing.wait(timeout=5)
    if thing.stdout is not None:
        thing.stdout.close()


@contextmanager
def one_cpu() -> Iterator[None]:
    """Run the block, and every process spawned inside it, on the first
    CPU this process may use.

    On the 2-CPU host the benchmark was tuned on, wake-ups across CPUs
    between the client, the entry service and the shard servers made the
    multi-process workloads' figures jump by up to 60% from run to run.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def child_env(src: Path) -> dict[str, str]:
    """Environment for a spawned ``repro`` process: the checkout's
    ``src`` first on the path, unbuffered stdout so the bound url is
    readable as soon as it is printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn_service(reaper: Reaper, src: Path, instance: Path, timeout: float = 120.0):
    """Start ``cerfix serve --async --instance DIR`` on an ephemeral port.

    Returns ``(process, url, setup_seconds)``: setup runs from spawn to
    the first ``200`` answer, so it includes loading the instance and
    its region precompute (the service prints its url only after both).
    """
    start = time.perf_counter()
    process = reaper.adopt(
        subprocess.Popen(
            [sys.executable, "-m", "repro.explorer.cli", "serve", "--async",
             "--instance", str(instance), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=child_env(src),
        )
    )
    url = _read_url(process, "listening on ", timeout)
    deadline = time.monotonic() + timeout
    while True:
        try:
            get_json(url + "/api/instance", timeout=5)
            break
        except (urllib.error.URLError, OSError):
            if time.monotonic() > deadline or process.poll() is not None:
                raise RuntimeError(f"entry service at {url} never answered 200")
            time.sleep(0.02)
    return process, url, time.perf_counter() - start


def _read_url(process: subprocess.Popen, marker: str, timeout: float) -> str:
    found: dict[str, str] = {}
    lines: list[str] = []

    def reader() -> None:
        for line in process.stdout:
            if marker in line:
                found["url"] = line.rsplit(marker, 1)[1].split()[0]
                break
            lines.append(line)
        # Keep draining so a chatty child never blocks on a full pipe.
        for _ in process.stdout:
            pass

    threading.Thread(target=reader, daemon=True).start()
    deadline = time.monotonic() + timeout
    while "url" not in found:
        if process.poll() is not None or time.monotonic() > deadline:
            tail = "".join(lines[-15:]).strip()
            raise RuntimeError(
                f"spawned process printed no url (exit {process.poll()!r}): {tail}"
            )
        time.sleep(0.01)
    return found["url"]


def get_json(url: str, timeout: float = 10.0) -> Any:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def shard_counters(urls: Sequence[str]) -> dict[str, float]:
    """Sum the ``cerfix.shard.*`` counters over every shard server's
    public ``/metrics`` endpoint."""
    totals: dict[str, float] = {}
    for url in urls:
        counters = get_json(url + "/metrics")["counters"]
        for key, value in counters.items():
            if key.startswith("cerfix.shard."):
                totals[key] = totals.get(key, 0) + value
    return totals
