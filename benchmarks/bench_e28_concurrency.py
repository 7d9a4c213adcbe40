"""E28 -- Concurrency-first read path: front ends, clients, cluster.

ISSUE 6 rebuilt the service read path around version-cached merged
views (warm ``estimate`` = one lock-free dict read, zero merges, zero
serializations) and made the transport pluggable.  This benchmark
measures what that buys under concurrent load:

* **Pure-query scaling** -- serial vs 8-client vs 32-client ``estimate``
  qps against a warm ShardedF0-backed sketch, for EVERY registered
  front end (``threading`` and ``multiproc`` -- each run is stamped
  with ``frontend``/``procs``).  The enforced gate: 8-client
  qps >= 0.8x serial -- cached reads must not collapse under
  concurrency (on any host: a warm read does O(1) work, so even one
  core only pays scheduling overhead).
* **Mixed read/write qps** -- 8 clients, half ingesting write batches,
  half querying, against each front end: the cache-invalidation path
  under churn.
* **Single node vs 2-node cluster** -- the same query load through a
  :class:`~repro.distributed.cluster.ClusterClient` (R=2 replication,
  merge-on-read across both replicas), recording the fan-out premium a
  replicated read pays over the single-node cached path.

Machine-readable record: ``BENCH_E28.json`` (via ``harness.emit_json``,
which stamps ``cpu_count`` so dashboards can bucket hosts).
"""

import random
import threading
import time

from benchmarks.harness import emit, emit_json, format_table
from repro.distributed.cluster import ClusterClient
from repro.service import F0Server, Router, ServiceClient, create_frontend
from repro.service.frontends import frontend_names
from repro.store.store import VIEW_METRICS
from repro.streaming.base import SketchParams

UNIVERSE_BITS = 18
STREAM_LENGTH = 30_000
SHARDS = 4
PURE_QUERIES = 320
MIXED_OPS_PER_CLIENT = 25
WRITE_BATCH = 64
CLUSTER_QUERIES = 120
CLIENT_SWEEP = (1, 8, 32)
CONCURRENT_GATE_CLIENTS = 8
QPS_RATIO_TARGET = 0.8  # 8-client qps >= 0.8x serial.

PARAMS = SketchParams(eps=0.7, delta=0.3,
                      thresh_constant=12.0, repetitions_constant=3.0)

CREATE_KWARGS = dict(eps=PARAMS.eps, delta=PARAMS.delta,
                     thresh_constant=PARAMS.thresh_constant,
                     repetitions_constant=PARAMS.repetitions_constant,
                     universe_bits=UNIVERSE_BITS)


def _stream(seed=23):
    rng = random.Random(seed)
    return [rng.getrandbits(UNIVERSE_BITS) for _ in range(STREAM_LENGTH)]


def _run_clients(count, per_client, make_op, url):
    """qps of ``count`` threads each running ``per_client`` ops."""
    errors = []

    def worker(index):
        try:
            op = make_op(ServiceClient(url), index)
            for _ in range(per_client):
                op()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(count)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors[:1]
    return count * per_client / elapsed


def _query_sweep(url):
    """Pure-query qps for each client count; cache is already warm."""
    qps = {}
    for clients in CLIENT_SWEEP:
        per_client = max(1, PURE_QUERIES // clients)
        qps[clients] = _run_clients(
            clients, per_client,
            lambda c, i: (lambda: c.estimate("hot")), url)
    return qps


def _mixed_qps(url):
    """8 clients: even = write batches, odd = queries."""
    rng = random.Random(41)
    batches = [[rng.getrandbits(UNIVERSE_BITS) for _ in range(WRITE_BATCH)]
               for _ in range(CONCURRENT_GATE_CLIENTS
                              * MIXED_OPS_PER_CLIENT)]
    cursor = {"next": 0}
    cursor_lock = threading.Lock()

    def make_op(client, index):
        if index % 2 == 0:
            def write():
                with cursor_lock:
                    batch = batches[cursor["next"] % len(batches)]
                    cursor["next"] += 1
                client.ingest("hot", batch)
            return write
        return lambda: client.estimate("hot")

    return _run_clients(CONCURRENT_GATE_CLIENTS, MIXED_OPS_PER_CLIENT,
                        make_op, url)


def _frontend_run(name, items):
    """Populate one server behind the named front end, measure, stop."""
    server = create_frontend(name, ("127.0.0.1", 0),
                             Router()).start_background()
    try:
        client = ServiceClient(server.url)
        client.create("hot", kind="minimum", seed=9, shards=SHARDS,
                      **CREATE_KWARGS)
        client.ingest("hot", items)
        warm_estimate = client.estimate("hot")  # Build the cached view.

        VIEW_METRICS.reset()
        query_qps = _query_sweep(server.url)
        builds_during_pure_queries = VIEW_METRICS.builds
        mixed = _mixed_qps(server.url)
        return {
            "frontend": name,
            # Single-process front ends serve from this process; the
            # multiproc front end stamps its fork width so qps numbers
            # are never compared across different core budgets.
            "procs": getattr(server, "procs", 1),
            "warm_estimate": warm_estimate,
            "query_qps_by_clients": {str(k): v
                                     for k, v in query_qps.items()},
            "concurrent_over_serial": (query_qps[CONCURRENT_GATE_CLIENTS]
                                       / query_qps[1]),
            "view_builds_during_pure_queries": builds_during_pure_queries,
            "mixed_rw_qps_8_clients": mixed,
        }
    finally:
        server.stop()


def _cluster_run(items):
    """Single node vs 2-node replicated cluster, same query load."""
    nodes = [F0Server(("127.0.0.1", 0)).start_background()
             for _ in range(2)]
    try:
        cluster = ClusterClient([n.url for n in nodes], replication=2,
                                timeout=10.0)
        cluster.create("hot", kind="minimum", seed=9, shards=SHARDS,
                       **CREATE_KWARGS)
        cluster.ingest("hot", items)
        single = ServiceClient(nodes[0].url)
        reference = single.estimate("hot")
        assert cluster.estimate("hot") == reference

        def timed(op, count):
            start = time.perf_counter()
            for _ in range(count):
                op()
            return count / (time.perf_counter() - start)

        single_qps = timed(lambda: single.estimate("hot"),
                           CLUSTER_QUERIES)
        cluster_qps = timed(lambda: cluster.estimate("hot"),
                            CLUSTER_QUERIES)

        per_client = max(1, CLUSTER_QUERIES // CONCURRENT_GATE_CLIENTS)
        errors = []

        def worker():
            try:
                c = ClusterClient([n.url for n in nodes], replication=2,
                                  timeout=10.0)
                for _ in range(per_client):
                    c.estimate("hot")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(CONCURRENT_GATE_CLIENTS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        concurrent_qps = (CONCURRENT_GATE_CLIENTS * per_client
                          / (time.perf_counter() - start))
        assert not errors, errors[:1]
        return {
            "estimate": reference,
            "single_node_qps": single_qps,
            "cluster_qps_serial": cluster_qps,
            "cluster_qps_8_clients": concurrent_qps,
            "merge_on_read_premium": single_qps / cluster_qps,
        }
    finally:
        for node in nodes:
            node.stop()


def test_e28_concurrency(capsys):
    items = _stream()
    frontend_runs = [_frontend_run(name, items)
                     for name in frontend_names()]
    cluster_stats = _cluster_run(items)

    rows = []
    for run in frontend_runs:
        for clients in CLIENT_SWEEP:
            rows.append([run["frontend"], f"query x{clients}",
                         run["query_qps_by_clients"][str(clients)]])
        rows.append([run["frontend"], "mixed r/w x8",
                     run["mixed_rw_qps_8_clients"]])
    rows.append(["cluster(2, R=2)", "query x1",
                 cluster_stats["cluster_qps_serial"]])
    rows.append(["cluster(2, R=2)", "query x8",
                 cluster_stats["cluster_qps_8_clients"]])
    rows.append(["single node", "query x1",
                 cluster_stats["single_node_qps"]])

    table = format_table(
        f"E28  Concurrent qps (ShardedF0 x{SHARDS}, {STREAM_LENGTH} "
        f"items, warm cached views)",
        ["target", "load", "qps"], rows)
    table += ("\n\ngate: 8-client query qps >= "
              f"{QPS_RATIO_TARGET}x serial, per front end: "
              + ", ".join(f"{run['frontend']} "
                          f"{run['concurrent_over_serial']:.2f}x"
                          for run in frontend_runs))
    emit(capsys, "E28_concurrency", table)

    emit_json("E28", {
        "stream_length": STREAM_LENGTH,
        "universe_bits": UNIVERSE_BITS,
        "shards": SHARDS,
        "pure_queries": PURE_QUERIES,
        "qps_ratio_target": QPS_RATIO_TARGET,
        "frontends": frontend_runs,
        "cluster": cluster_stats,
    })

    for run in frontend_runs:
        # Warm cached views: the pure-query phase must never rebuild.
        assert run["view_builds_during_pure_queries"] == 0, run
        assert run["concurrent_over_serial"] >= QPS_RATIO_TARGET, (
            f"{run['frontend']}: 8-client qps fell to "
            f"{run['concurrent_over_serial']:.2f}x serial "
            f"(< {QPS_RATIO_TARGET}x)")
