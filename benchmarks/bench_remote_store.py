"""B5 — remote master store: round-trip amortisation over real sockets.

The remote backend's whole performance story is *fewer, fatter round
trips*: a naive client pays one HTTP round trip per probe, while
``probe_many`` routes a batch by shard and crosses the network once
per (shard, chunk) — the seam the entry service's micro-batcher and
the batch pipeline's cache feed. This bench boots a 3-shard cluster
(real TCP on loopback), replays an identical probe workload through
the naive per-probe path and through batched ``probe_many`` at several
chunk sizes, and records wall-clock, probes/s and the *measured*
round-trip counts from the client's per-shard stats. A region
precompute point records the round trips of the wave-prefetched probe
plane against one trip per probe, and a final point runs the whole
batch pipeline against the cluster for an end-to-end tuples/s number.

Acceptance (asserted): at 3 shards, batched probing crosses the
network at least 5x fewer times than naive probing, and is faster.
A replicated point (2 replicas per shard, client-side failover) must
add zero probe round trips and at most 5% steady-state wall-clock
overhead (full mode; best-of-3 — quick mode's tiny workload makes the
ratio pure noise, so there only the round-trip identity is asserted),
and killing a replica under load must cost at most one jittered
retry-storm per shard before the circuit parks it — bit-identical
answers throughout.

Quick mode (the CI ``bench-smoke`` leg): ``CERFIX_BENCH_QUICK=1``
shrinks the workload so the leg finishes in seconds while still
validating the JSON dump's shape.

Results land in ``benchmarks/out/b5_remote_store.txt`` and
``BENCH_remote.json`` at the repo root.
"""

import os

import pytest

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, save_table, time_call
from repro.core.certainty import CertaintyMode
from repro.master.plane import ProbePlane
from repro.master.remote import RemoteMasterStore
from repro.master.shardserver import ShardCluster
from repro.scenarios import uk_customers as uk

QUICK = os.environ.get("CERFIX_BENCH_QUICK", "") == "1"

SHARDS = 3
REPLICAS = 2
# The quick geometry doubles as the full sweep's anchor point: a full
# run replays it verbatim (test_remote_quick_anchor_rows) so the
# committed dump always shares (mode, probes) rows with CI's quick
# run — the intersection ``check_bench_json.py --remote-baseline``
# guards against probe-throughput regressions.
ANCHOR_MASTER = 300
ANCHOR_INPUTS = 80
ANCHOR_ROUNDS = 1
MASTER_SIZE = ANCHOR_MASTER if QUICK else 2_000
PROBE_INPUTS = ANCHOR_INPUTS if QUICK else 400
PROBE_ROUNDS = ANCHOR_ROUNDS if QUICK else 5
BATCH_ROWS = 100 if QUICK else 1_000
CHUNK_SIZES = (64, 512)
#: naive must cross the network at least this many times more often
MIN_TRIP_REDUCTION = 5.0
#: replicated steady state may cost at most this much over unreplicated
MAX_REPLICATION_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def table():
    result = BenchResult(
        f"B5 — remote master store: naive vs batched probing over "
        f"{SHARDS} shard servers",
        ("mode", "probes", "round trips", "trips saved", "seconds", "probes/s"),
    )
    yield result
    result.note(
        f"{SHARDS} in-process shard servers over loopback TCP (HTTP/1.1 "
        f"keep-alive); master {MASTER_SIZE} rows"
    )
    result.note(
        "round trips are measured client-side (per-shard stats), handshake "
        "excluded; 'trips saved' is vs the naive per-probe client"
    )
    result.note(
        f"acceptance: batched probe_many >= {MIN_TRIP_REDUCTION:.0f}x fewer "
        f"round trips than naive at {SHARDS} shards"
    )
    result.note(
        f"acceptance: {REPLICAS}-replica client adds zero probe round trips "
        f"and <= {MAX_REPLICATION_OVERHEAD:.0%} steady-state overhead "
        f"(best of 3); a killed replica costs <= 1 jittered retry-storm per "
        f"failed request before its circuit parks it, answers bit-identical"
    )
    result.note(
        "region precompute (k=2): 'probes' counts the master probes its chases "
        "issue, one round trip each for a per-probe client; 'round trips' are "
        "the wave-prefetched probe plane's (relation fetch included); recorded only"
    )
    if not QUICK:
        result.note(
            f"the trailing naive/probe_many rows at {ANCHOR_INPUTS} inputs x "
            f"{ANCHOR_ROUNDS} round replay the quick (CI) geometry against a "
            f"{ANCHOR_MASTER}-row master — the --remote-baseline anchor points"
        )
    save_table(result, "b5_remote_store.txt")
    save_json(result, "BENCH_remote.json")


@pytest.fixture(scope="module")
def world():
    master = uk.generate_master(MASTER_SIZE, seed=31)
    ruleset = uk.paper_ruleset()
    inputs = uk.generate_workload(master, PROBE_INPUTS, rate=0.0, seed=32).clean
    batch_wl = uk.generate_workload(master, BATCH_ROWS, rate=0.15, seed=33)
    cluster = ShardCluster.in_process(ruleset, master, SHARDS)
    yield master, ruleset, inputs, batch_wl, cluster
    cluster.close()


def _round_trips(store: RemoteMasterStore, baseline: int = 1) -> int:
    """Total probe round trips, ``baseline`` handshake GETs per shard off."""
    return sum(s["round_trips"] - baseline for s in store.stats()["per_shard"])


def test_remote_probe_round_trips(table, world):
    master, ruleset, inputs, _, cluster = world
    rules = [r for r in ruleset if not r.is_constant]
    rows = [r.to_dict() for r in inputs.rows()]
    requests = [
        (rule, values) for _ in range(PROBE_ROUNDS) for values in rows for rule in rules
    ]

    # naive: one round trip per probe (what a store without probe_many
    # batching — or a client ignoring it — pays)
    naive = RemoteMasterStore(cluster.urls)

    def probe_naive():
        for rule, values in requests:
            naive.probe(rule, values)
        return len(requests)

    t_naive, n = time_call(probe_naive, repeat=1)
    naive_trips = _round_trips(naive)
    naive.close()
    assert naive_trips == len(requests)
    table.add("naive per-probe", n, naive_trips, "1.0x", f"{t_naive:.2f}", f"{n / t_naive:.0f}")

    reference = None
    for chunk in CHUNK_SIZES:
        batched = RemoteMasterStore(cluster.urls, max_batch=chunk)

        def probe_batched():
            return batched.probe_many(requests)

        t_batched, matches = time_call(probe_batched, repeat=1)
        if reference is None:
            reference = matches
        else:
            assert matches == reference, "chunk size changed probe results"
        trips = _round_trips(batched)
        batched.close()
        table.add(
            f"probe_many (chunk {chunk})",
            len(requests),
            trips,
            f"{naive_trips / trips:.1f}x",
            f"{t_batched:.2f}",
            f"{len(requests) / t_batched:.0f}",
        )
        assert trips <= -(-len(requests) // chunk) + SHARDS
        assert naive_trips / trips >= MIN_TRIP_REDUCTION, (
            f"batched probing only saved {naive_trips / trips:.1f}x round trips"
        )
        assert t_batched < t_naive, "batched probing slower than naive"


def test_remote_replicated_steady_state_and_failover(table, world):
    """The replicated client vs the flat one on the identical workload:
    zero extra probe round trips, bounded steady-state overhead — and a
    replica killed under load costs at most one jittered retry-storm
    per shard before its circuit parks it, answers bit-identical."""
    master, ruleset, inputs, _, cluster = world
    rules = [r for r in ruleset if not r.is_constant]
    rows = [r.to_dict() for r in inputs.rows()]
    requests = [
        (rule, values) for _ in range(PROBE_ROUNDS) for values in rows for rule in rules
    ]

    flat = RemoteMasterStore(cluster.urls)
    t_flat, expected = time_call(lambda: flat.probe_many(requests), repeat=3)
    flat_trips = _round_trips(flat) // 3
    flat.close()

    rcluster = ShardCluster.in_process(ruleset, master, SHARDS, replicas=REPLICAS)
    try:
        repl = RemoteMasterStore(rcluster.urls)
        t_repl, got = time_call(lambda: repl.probe_many(requests), repeat=3)
        assert got == expected, "replication changed probe answers"
        # handshake GETs: one per replica per shard
        repl_trips = _round_trips(repl, baseline=REPLICAS) // 3
        repl.close()
        assert repl_trips == flat_trips, "replication added probe round trips"
        overhead = t_repl / t_flat - 1
        table.add(
            f"replicated x{REPLICAS} steady state",
            len(requests),
            repl_trips,
            f"{overhead:+.1%} vs flat",
            f"{t_repl:.2f}",
            f"{len(requests) / t_repl:.0f}",
        )
        if not QUICK:  # quick workloads are too small to time a 5% bound
            assert overhead <= MAX_REPLICATION_OVERHEAD, (
                f"replicated steady state cost {overhead:+.1%} over unreplicated"
            )

        circuit_threshold = 3
        store = RemoteMasterStore(
            rcluster.urls,
            retries=1,
            backoff=0.01,
            circuit_threshold=circuit_threshold,
            circuit_reset=60.0,
        )
        assert store.probe_many(requests) == expected  # warm, all healthy
        for shard in range(SHARDS):
            rcluster.stop(shard, 0)  # one replica of every shard dies

        def probe_through_failure():
            return [store.probe_many(requests) for _ in range(2)]

        t_failover, sweeps = time_call(probe_through_failure, repeat=1)
        assert all(sweep == expected for sweep in sweeps), "failover changed answers"
        per_shard = store.stats()["per_shard"]
        failovers = sum(s["failovers"] for s in per_shard)
        dead_errors = sum(s["replicas"][0]["errors"] for s in per_shard)
        store.close()
        assert failovers >= 1, "the killed replicas were never routed around"
        # <= one retry-storm per failed request, <= circuit_threshold
        # failed requests per shard before the circuit parks the replica
        assert dead_errors <= SHARDS * circuit_threshold, (
            f"dead replicas absorbed {dead_errors} exhausted requests — "
            f"the circuit never parked them"
        )
        table.add(
            f"replicated x{REPLICAS}, replica killed",
            2 * len(requests),
            f"{failovers} failovers",
            f"{dead_errors} dead-end trips",
            f"{t_failover:.2f}",
            f"{2 * len(requests) / t_failover:.0f}",
        )
    finally:
        rcluster.close()


def test_remote_quick_anchor_rows(table, world):
    """Full sweeps replay the quick-geometry probe workload so the
    committed dump always shares exact (mode, probes) rows with CI's
    quick run — the intersection the ``--remote-baseline`` guard in
    check_bench_json.py compares. Same seeds, same sizes, own cluster:
    the rows are byte-for-byte the workload the bench-smoke leg times."""
    if QUICK:
        pytest.skip("quick-mode rows already use the anchor geometry")
    master = uk.generate_master(ANCHOR_MASTER, seed=31)
    ruleset = uk.paper_ruleset()
    inputs = uk.generate_workload(master, ANCHOR_INPUTS, rate=0.0, seed=32).clean
    rules = [r for r in ruleset if not r.is_constant]
    rows = [r.to_dict() for r in inputs.rows()]
    requests = [
        (rule, values)
        for _ in range(ANCHOR_ROUNDS)
        for values in rows
        for rule in rules
    ]
    cluster = ShardCluster.in_process(ruleset, master, SHARDS)
    try:
        naive = RemoteMasterStore(cluster.urls)

        def probe_naive():
            for rule, values in requests:
                naive.probe(rule, values)
            return len(requests)

        t_naive, n = time_call(probe_naive, repeat=1)
        naive_trips = _round_trips(naive)
        naive.close()
        table.add(
            "naive per-probe", n, naive_trips, "1.0x",
            f"{t_naive:.2f}", f"{n / t_naive:.0f}",
        )
        for chunk in CHUNK_SIZES:
            batched = RemoteMasterStore(cluster.urls, max_batch=chunk)
            t_batched, _ = time_call(lambda: batched.probe_many(requests), repeat=1)
            trips = _round_trips(batched)
            batched.close()
            table.add(
                f"probe_many (chunk {chunk})",
                len(requests),
                trips,
                f"{naive_trips / trips:.1f}x",
                f"{t_batched:.2f}",
                f"{len(requests) / t_batched:.0f}",
            )
    finally:
        cluster.close()


def test_remote_region_precompute(table, monkeypatch):
    """Region precompute (k=2) over the cluster, on the ``entry``
    benchmark's 10-row master: the wave-prefetched plane's round trips
    against the one-trip-per-probe client it replaced. ``probes`` counts
    the master probes the chases issue (an inline plane over an
    in-process store, so no chase is re-run); each cost one round trip
    before. Recorded only: ``probes/s`` is left out so no guard reads
    the row."""
    master = uk.generate_master(10, seed=1)
    ruleset = uk.paper_ruleset()
    probes = 0
    match = ProbePlane.match

    def counting_match(self, rule, values, **kwargs):
        nonlocal probes
        probes += 1
        return match(self, rule, values, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ProbePlane, "match", counting_match)
        expected = CerFix(ruleset, master, mode=CertaintyMode.ANCHORED).precompute_regions(k=2)

    cluster = ShardCluster.in_process(ruleset, master, SHARDS)
    try:
        store = RemoteMasterStore(cluster.urls)
        engine = CerFix(ruleset, store, mode=CertaintyMode.ANCHORED)
        t_regions, regions = time_call(lambda: engine.precompute_regions(k=2), repeat=1)
        trips = _round_trips(store)
        store.close()
    finally:
        cluster.close()
    assert regions == expected, "remote precompute changed the regions"
    table.add(
        "region precompute (k=2)",
        probes,
        trips,
        f"{probes / trips:.0f}x (was {probes})",
        f"{t_regions:.2f}",
        "-",
    )


def test_remote_batch_pipeline_end_to_end(table, world):
    """The whole batch pipeline against the cluster: dedup + probe cache
    + probe_many batching stacked on real round trips."""
    master, ruleset, _, batch_wl, cluster = world

    def clean_once():
        engine = CerFix(ruleset, master, store="remote", store_urls=list(cluster.urls))
        result = engine.clean_relation(batch_wl.dirty, batch_wl.clean, workers=2)
        trips = _round_trips(engine.master.store, baseline=2)  # handshake+prebuild
        engine.master.store.close()
        return result, trips

    t_batch, (result, trips) = time_call(clean_once, repeat=1)
    assert result.report.completed == BATCH_ROWS
    table.add(
        "batch pipeline (2 workers)",
        result.report.cache.misses,
        trips,
        "-",
        f"{t_batch:.2f}",
        f"{BATCH_ROWS / t_batch:.0f} tuples",
    )
