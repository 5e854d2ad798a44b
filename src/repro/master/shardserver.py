"""The shard server: one master-data shard served over HTTP/JSON.

The scale-out counterpart of :class:`~repro.master.store.ShardedMasterStore`:
instead of N in-process partitions, N *processes* (possibly on N hosts)
each serve one shard of the probe key space, and
:class:`~repro.master.remote.RemoteMasterStore` routes probes to them
with the same deterministic :func:`~repro.master.store.shard_of` hash.
Every server loads the full master content (raw tuples are cheap; it is
the *probe indexes* that dominate memory at scale) but warms and serves
only its own shard's lookup structures — the same laziness that keeps a
process-pool worker from building shards its probes never route to.

Wire protocol (all JSON)::

    GET  /healthz      {ok, shard_id, shards, tuples, digest, name}
    GET  /stats        request counters + the underlying store's stats
    GET  /metrics      the process-wide registry dump + this server's
                       request counters and delta rates (see
                       :mod:`repro.obs.metrics`) — the scrape endpoint
                       for the whole cluster;
                       ``?format=prometheus`` answers the Prometheus
                       text exposition instead (:mod:`repro.obs.promfmt`)
    GET  /relation     {schema, tuples, digest} — the canonical content
    POST /prebuild     warm this shard's indexes for every rule spec
    POST /probe_many   {"probes": [{"rule_id": ..., "values": {...}}],
                        "use_index": true}
                       -> {"matches": [{"positions": [...], "values": [...]}]}

``/probe_many`` verifies that every probe's normalised key actually
routes to this shard (409 on a misroute): a client/server disagreement
on shard count or routing must surface as a loud error, never as a
silently incomplete match.

The transport is the shared bounded asyncio server (:mod:`repro.net`):
the same header/body limits, 400/413 answers to malformed requests,
Prometheus mount and ``X-Cerfix-Trace`` join as the entry service.

Run one server per shard::

    cerfix shard-server --instance ./inst --shard-id 0 --shards 3 --port 8401

or programmatically (tests, benchmarks) through :class:`ShardServer` /
:class:`ShardCluster`, which also handle spawn/health-check/shutdown for
real subprocess clusters.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Sequence

from repro.errors import MasterDataError
from repro.core.ruleset import RuleSet
from repro.net.server import HTTPServer
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.obs.monitor import install_process_gauges
from repro.master.store import (
    MasterMatch,
    ShardedMasterStore,
    require_scalar_cells,
)
from repro.relational.relation import Relation
from repro.relational.schema import schema_to_json

#: How long cluster helpers wait for a freshly spawned server to answer
#: its first health check before declaring the spawn failed.
SPAWN_TIMEOUT = 20.0


class ShardServerApp:
    """The request handling behind one shard server (transport-free).

    Holds the rule set and a :class:`ShardedMasterStore` over the full
    master content, but answers probes only for its own ``shard_id`` —
    anything else is a misroute. Separated from the HTTP plumbing so
    tests can drive the routing table directly.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        relation: Relation,
        shard_id: int,
        shards: int,
        *,
        name: str = "",
    ):
        if not 0 <= shard_id < shards:
            raise MasterDataError(f"shard id {shard_id} out of range for {shards} shards")
        require_scalar_cells(
            (v for t in relation.raw_tuples() for v in t), "shard-server master data"
        )
        self.ruleset = ruleset
        self.shard_id = shard_id
        self.shards = shards
        self.name = name
        self.store = ShardedMasterStore(relation, shards=shards)
        self.digest = self.store.content_digest()
        # Warm this shard's lookup dicts up front: probing then never
        # pays a first-request build.
        self.store.build_shard(ruleset, shard_id)
        self._rules = {r.rule_id: r for r in ruleset if not r.is_constant}
        self._lock = threading.Lock()
        self.requests = 0
        self.probes = 0
        self.misroutes = 0
        registry = get_registry()
        registry.register_source(f"shard{shard_id}", self.counters)
        # The cluster monitor consumes flat instruments, not sources:
        # mirror the request counters into registry counters and time
        # every request into a histogram, and register the per-process
        # self-gauges so a scrape answers rss/fds/threads/uptime too.
        install_process_gauges(registry)
        self._req_counter = registry.counter("cerfix.shard.requests")
        self._probe_counter = registry.counter("cerfix.shard.probes")
        self._misroute_counter = registry.counter("cerfix.shard.misroutes")
        self._req_seconds = registry.histogram("cerfix.shard.request_seconds")

    def counters(self) -> dict[str, Any]:
        """This server's request counters (a registry source)."""
        with self._lock:
            return {
                "shard_id": self.shard_id,
                "requests": self.requests,
                "probes": self.probes,
                "misroutes": self.misroutes,
            }

    # -- routes -------------------------------------------------------------

    def handle(self, method: str, path: str, body: Any) -> tuple[int, Any]:
        """Route one request.

        Trace joining happens a layer up (the HTTP layer parses
        ``X-Cerfix-Trace`` and activates the client's context around
        this call) — ``handle`` keeps its three-argument shape so tests
        and embedders can wrap it without caring about telemetry."""
        start = time.perf_counter()
        try:
            return self._route(method, path, body)
        finally:
            self._req_seconds.observe(time.perf_counter() - start)

    def _route(self, method: str, path: str, body: Any) -> tuple[int, Any]:
        path = path.partition("?")[0]
        with self._lock:
            self.requests += 1
        self._req_counter.inc()
        if method == "GET" and path == "/metrics":
            registry = get_registry()
            registry.record_snapshot()
            return 200, {
                **registry.dump(),
                "shard": self.counters(),
                "rates": registry.rates(),
            }
        if method == "GET" and path == "/healthz":
            return 200, {
                "ok": True,
                "shard_id": self.shard_id,
                "shards": self.shards,
                "tuples": len(self.store),
                "digest": self.digest,
                "name": self.name,
            }
        if method == "GET" and path == "/stats":
            return 200, {
                "shard_id": self.shard_id,
                "requests": self.requests,
                "probes": self.probes,
                "misroutes": self.misroutes,
                "store": self.store.stats(),
            }
        if method == "GET" and path == "/relation":
            return 200, {
                "schema": schema_to_json(self.store.schema),
                "tuples": [list(t) for t in self.store.relation.tuples()],
                "digest": self.digest,
            }
        if method == "POST" and path == "/prebuild":
            built = self.store.build_shard(self.ruleset, self.shard_id)
            return 200, {"built": built}
        if method == "POST" and path == "/probe_many":
            return self._probe_many(body)
        return 404, {"error": f"no route {method} {path}"}

    def _probe_many(self, body: Any) -> tuple[int, Any]:
        if not isinstance(body, dict) or not isinstance(body.get("probes"), list):
            return 400, {"error": "expected a JSON body with a 'probes' list"}
        use_index = bool(body.get("use_index", True))
        matches: list[dict] = []
        for i, probe in enumerate(body["probes"]):
            rule_id = probe.get("rule_id") if isinstance(probe, dict) else None
            rule = self._rules.get(rule_id)
            if rule is None:
                return 400, {
                    "error": f"probe {i}: unknown or constant rule {rule_id!r} "
                    f"(this server holds {sorted(self._rules)})"
                }
            values = probe.get("values")
            if not isinstance(values, dict):
                return 400, {"error": f"probe {i}: 'values' must be an object"}
            missing = [a for a in rule.lhs_attrs if a not in values]
            if missing:
                return 400, {"error": f"probe {i}: rule {rule_id} needs values for {missing}"}
            expected, match = self.store.probe_routed(
                rule, values, use_index=use_index, expect_shard=self.shard_id
            )
            if match is None:
                with self._lock:
                    self.misroutes += 1
                self._misroute_counter.inc()
                return 409, {
                    "error": f"probe {i}: key routes to shard {expected}, "
                    f"not this server's shard {self.shard_id} — client and "
                    f"server disagree on shard count or routing",
                    "expected_shard": expected,
                }
            matches.append({"positions": list(match.positions), "values": list(match.values)})
        with self._lock:
            self.probes += len(matches)
        self._probe_counter.inc(len(matches))
        return 200, {"matches": matches}

    def match_from_json(self, obj: dict) -> MasterMatch:
        """Decode one wire match (shared with the client for symmetry)."""
        return MasterMatch(positions=tuple(obj["positions"]), values=tuple(obj["values"]))


class ShardServer(HTTPServer):
    """One running shard server: :class:`ShardServerApp` on the shared
    bounded asyncio HTTP layer (:mod:`repro.net`), handled inline on
    the server's event loop.

    In-process flavour: tests and benchmarks boot clusters of these on
    ephemeral ports without paying interpreter startup; the CLI's
    ``cerfix shard-server`` runs exactly this class in the foreground.
    Use as a context manager, or pair :meth:`start` with :meth:`close`;
    ``close`` severs pooled keep-alive connections, so an in-process
    restart looks like a process kill to the client.
    """

    def __init__(
        self,
        app: ShardServerApp,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__(self._handle, host, port, thread_name=f"cerfix-shard-{app.shard_id}")
        self.app = app

    def _handle(self, method: str, path: str, body: Any) -> tuple[int, Any, dict]:
        if trace.carrier() is None:
            status, payload = self.app.handle(method, path, body)
        else:
            # Joined to a client's trace: a clean run over a spawned
            # cluster exports one connected tree across processes.
            with trace.span("shard-server", shard=self.app.shard_id, path=path):
                status, payload = self.app.handle(method, path, body)
        return status, payload, {}


# -- cluster lifecycle --------------------------------------------------------


class ShardCluster:
    """N shard servers over one master content, as one lifecycle.

    Two flavours behind one interface:

    * :meth:`in_process` — :class:`ShardServer` threads in this
      process (fast; unit tests, benchmarks);
    * :meth:`spawn` — ``cerfix shard-server`` *subprocesses* over an
      instance directory (what the CI ``remote-store`` leg and real
      deployments look like), each health-checked before the
      constructor returns and killed on :meth:`close` so no orphan
      survives the caller.

    With ``replicas > 1`` each shard gets that many identical members
    (same ``shard_id``/``shards``, same content) and :attr:`urls`
    becomes nested — one replica-url list per shard, directly the
    topology :class:`~repro.master.remote.RemoteMasterStore` takes.

    ``restart(i)`` replaces one member on its *same* port — the
    mid-run shard-restart scenario the conformance kit exercises —
    and :meth:`rolling_restart` cycles every member that way, one at
    a time, the way a real deployment rolls a new version out under
    live traffic.
    """

    def __init__(self, members: list[Any], restarter, replicas: int = 1):
        #: Flat, shard-major: ``members[shard_id * replicas + replica]``.
        self._members = members
        self._restart = restarter
        self.replicas = replicas

    def _index(self, shard_id: int, replica: int) -> int:
        return shard_id * self.replicas + replica

    @property
    def urls(self) -> list:
        """Flat url list when unreplicated (back-compat); one replica
        list per shard when ``replicas > 1``."""
        if self.replicas == 1:
            return [m["url"] for m in self._members]
        return [
            [self._members[self._index(s, r)]["url"] for r in range(self.replicas)]
            for s in range(self.shards)
        ]

    @property
    def shards(self) -> int:
        return len(self._members) // self.replicas

    def restart(self, shard_id: int, replica: int = 0) -> None:
        """Stop one member and bring a fresh one up on the same
        host:port (a rolling restart as the client sees it)."""
        i = self._index(shard_id, replica)
        self._members[i] = self._restart(self._members[i])

    def rolling_restart(self, pause: float = 0.0) -> None:
        """Restart every member, one at a time, ``pause`` seconds apart.

        With replicas this is the zero-downtime deployment shape: at
        any instant at most one replica of one shard is bouncing, so a
        failover-capable client keeps answering probes throughout.
        """
        for shard_id in range(self.shards):
            for replica in range(self.replicas):
                self.restart(shard_id, replica)
                if pause:
                    time.sleep(pause)

    def stop(self, shard_id: int, replica: int = 0) -> None:
        """Stop one member without replacement (the shard-down scenario)."""
        _stop_member(self._members[self._index(shard_id, replica)])

    def close(self) -> None:
        for member in self._members:
            _stop_member(member)

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- in-process flavour -------------------------------------------------

    @classmethod
    def in_process(
        cls,
        ruleset: RuleSet,
        relation: Relation,
        shards: int,
        *,
        replicas: int = 1,
        host: str = "127.0.0.1",
        name: str = "",
    ) -> "ShardCluster":
        def boot(shard_id: int, port: int) -> dict:
            app = ShardServerApp(
                ruleset,
                Relation(relation.schema, relation.tuples()),
                shard_id,
                shards,
                name=name,
            )
            server = ShardServer(app, host=host, port=port).start()
            return {
                "url": server.url,
                "server": server,
                "shard_id": shard_id,
                "port": server.port,
            }

        members = [boot(i, 0) for i in range(shards) for _ in range(replicas)]

        def restarter(member: dict) -> dict:
            _stop_member(member)
            return boot(member["shard_id"], member["port"])

        return cls(members, restarter, replicas)

    # -- subprocess flavour -------------------------------------------------

    @classmethod
    def spawn(
        cls,
        instance_dir: str | Path,
        shards: int,
        *,
        replicas: int = 1,
        host: str = "127.0.0.1",
        timeout: float = SPAWN_TIMEOUT,
    ) -> "ShardCluster":
        """Boot ``shards × replicas`` subprocess servers over an
        instance directory.

        Each process prints its bound URL on stdout (``--port 0`` picks
        an ephemeral port); spawn parses it, then polls ``/healthz``
        until the server answers. Any member failing to come up tears
        the whole cluster down before raising.
        """
        members: list[dict] = []
        try:
            for shard_id in range(shards):
                for _ in range(replicas):
                    members.append(
                        _spawn_member(instance_dir, shard_id, shards, host, 0, timeout)
                    )
        except Exception:
            for member in members:
                _stop_member(member)
            raise

        def restarter(member: dict) -> dict:
            _stop_member(member)
            return _spawn_member(
                instance_dir, member["shard_id"], shards, host, member["port"], timeout
            )

        return cls(members, restarter, replicas)


def _stop_member(member: dict) -> None:
    server = member.get("server")
    if server is not None:
        server.close()
        return
    process: subprocess.Popen | None = member.get("process")
    if process is None or process.poll() is not None:
        return
    process.terminate()
    try:
        process.wait(timeout=5)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=5)


def _child_env() -> dict[str, str]:
    """The spawn environment, with ``repro`` importable in the child.

    The parent may only be able to import ``repro`` through pytest's
    ``pythonpath = ["src"]`` config or a manual ``sys.path`` edit —
    neither of which a fresh interpreter inherits. Prepending the
    directory that actually provides the package keeps the child
    working in every launch mode (installed, PYTHONPATH, pytest).
    """
    import os

    import repro

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = package_root + os.pathsep + existing if existing else package_root
    return env


def _spawn_member(
    instance_dir: str | Path,
    shard_id: int,
    shards: int,
    host: str,
    port: int,
    timeout: float,
) -> dict:
    cmd = [
        sys.executable,
        "-m",
        "repro.master.shardserver",
        "--instance",
        str(instance_dir),
        "--shard-id",
        str(shard_id),
        "--shards",
        str(shards),
        "--host",
        host,
        "--port",
        str(port),
    ]
    process = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=_child_env()
    )
    url = _read_url(process, timeout)
    member = {
        "url": url,
        "process": process,
        "shard_id": shard_id,
        "port": int(url.rsplit(":", 1)[1]),
    }
    _wait_healthy(url, shard_id, shards, process, timeout)
    return member


def _read_url(process: subprocess.Popen, timeout: float) -> str:
    """Parse the ``listening on <url>`` line the server prints at bind.

    On failure the error carries the child's captured output (stderr is
    merged into the pipe): a server dying at startup must name its real
    cause — a traceback, a bad ``--instance`` path — not just an exit
    code and a timeout.
    """
    result: dict[str, str] = {}
    captured: list[str] = []

    def reader() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            if "listening on " in line:
                result["url"] = line.rsplit("listening on ", 1)[1].split()[0]
                return
            captured.append(line)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(timeout)
    if "url" not in result:
        _stop_member({"process": process})
        thread.join(1)  # let the reader drain what the dying child wrote
        output = "".join(captured[-15:]).strip()
        raise MasterDataError(
            f"shard server did not report a bound port within {timeout:.0f}s "
            f"(exit code {process.poll()!r})"
            + (f"; child output:\n{output}" if output else "")
        )
    return result["url"]


def _wait_healthy(
    url: str, shard_id: int, shards: int, process: subprocess.Popen, timeout: float
) -> None:
    from repro.master.remote import fetch_health

    deadline = time.monotonic() + timeout
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise MasterDataError(
                f"shard server {shard_id} at {url} exited with code {process.poll()}"
            )
        try:
            health = fetch_health(url)
        except MasterDataError as exc:
            last_error = exc
            time.sleep(0.05)
            continue
        if health.get("shard_id") != shard_id or health.get("shards") != shards:
            raise MasterDataError(
                f"shard server at {url} answered as shard "
                f"{health.get('shard_id')}/{health.get('shards')}, "
                f"expected {shard_id}/{shards}"
            )
        return
    raise MasterDataError(
        f"shard server {shard_id} at {url} failed its health check within "
        f"{timeout:.0f}s: {last_error}"
    )


# -- command line -------------------------------------------------------------


def build_app_from_args(args) -> ShardServerApp:
    """Resolve ``--instance`` / scenario flags into a ready app."""
    if args.instance:
        from repro.config import load_instance_parts

        config, master, ruleset = load_instance_parts(args.instance)
        name = config.name
    else:
        from repro.scenarios import hospital, uk_customers

        mod = hospital if args.scenario == "hospital" else uk_customers
        if args.master:
            from repro.relational.csvio import read_csv

            master = read_csv(args.master, schema=mod.MASTER_SCHEMA)
        elif args.scenario == "hospital":
            master = mod.generate_master(50)
        else:
            master = mod.paper_master()
        ruleset = (
            hospital.hospital_ruleset()
            if args.scenario == "hospital"
            else uk_customers.paper_ruleset()
        )
        name = args.scenario
    return ShardServerApp(ruleset, master, args.shard_id, args.shards, name=name)


def add_arguments(parser) -> None:
    """Shared between ``cerfix shard-server`` and ``python -m``."""
    parser.add_argument("--instance", help="serve an instance directory's master data")
    parser.add_argument("--scenario", choices=("uk", "hospital"), default="uk")
    parser.add_argument("--master", help="master data CSV (overrides the scenario default)")
    parser.add_argument(
        "--shard-id",
        type=int,
        required=True,
        dest="shard_id",
        help="which shard of the key space this server answers",
    )
    parser.add_argument(
        "--shards",
        type=int,
        required=True,
        help="total shard count (must match every other server "
        "and the clients' --shard-urls list length)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="listening port (0 picks an ephemeral port)"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="export request spans to this JSONL file (CERFIX_TRACE=path[|sample] "
        "works too — a spawned cluster inherits the client's env)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        dest="trace_sample",
        help="root-span sample rate for --trace (default 1.0)",
    )


def run_from_args(args) -> int:
    """Boot and serve in the foreground (the CLI/`python -m` entry)."""
    from repro.errors import CerFixError

    if getattr(args, "trace", None):
        trace.configure(args.trace, getattr(args, "trace_sample", 1.0))
    else:
        trace.configure_from_env()
    try:
        app = build_app_from_args(args)
        server = ShardServer(app, host=args.host, port=args.port)
    except CerFixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"cerfix shard-server: shard {app.shard_id}/{app.shards} "
        f"listening on {server.url} "
        f"({len(app.store)} tuples, digest {app.digest[:12]}…)",
        flush=True,
    )
    server.serve_forever()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="cerfix-shard-server",
        description="serve one master-data shard over HTTP/JSON",
    )
    add_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
