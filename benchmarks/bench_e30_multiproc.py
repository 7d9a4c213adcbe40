"""E30 -- Multi-process serving: mixed read/write load past the GIL.

E28 capped the single-process story: mixed read/write qps saturates one
core whatever the front end, because every request shares one
interpreter.  This benchmark measures the multiproc front end's answer
-- N pre-forked ``SO_REUSEPORT`` workers over worker-local stores,
reconciling through the frame-delta log -- against the threading
baseline on identical load:

* **Load** -- forked client processes, each holding several keep-alive
  connections (raw sockets, hand-built HTTP/1.1: the point is to
  measure the *server*, not ``urllib`` object churn), issuing 1 write
  per 8 ops (a 64-item ingest batch) and estimates otherwise.
* **Sweep** -- the threading front end, then multiproc at 1/2/4
  workers (``delta_interval`` > 0, the coalescing publisher mode).
* **Correctness** -- after each run quiesces, the served estimate must
  be *bit-identical* to the threading run's and to a serial
  :func:`~repro.store.factory.build_sketch` reference over the same
  items: the delta-log reconciliation must cost nothing in accuracy.
* **Gates** (only on >= 4-CPU hosts; the payload says
  ``"skipped: <4 CPUs"`` elsewhere) -- multiproc at 4 workers reaches
  >= 10k mixed qps and >= 2.5x the threading front end.

Machine-readable record: ``BENCH_E30.json``, each run stamped with
``frontend``/``procs``.
"""

import json
import multiprocessing
import random
import socket
import time

from benchmarks.harness import emit, emit_json, format_table
from repro.parallel import available_workers
from repro.service import Router, ServiceClient, create_frontend
from repro.store.factory import build_sketch
from repro.streaming.base import SketchParams

UNIVERSE_BITS = 18
BASE_STREAM = 20_000
WRITE_BATCH = 64
WRITE_EVERY = 8          # 1-in-8 ops is an ingest batch.
CLIENT_PROCS = 4
CONNS_PER_CLIENT = 4     # Spread over the reuseport workers.
DELTA_INTERVAL = 0.05
QPS_GATE = 10_000.0
SPEEDUP_GATE = 2.5
GATE_PROCS = 4
MIN_GATE_CPUS = 4

PARAMS = SketchParams(eps=0.7, delta=0.3,
                      thresh_constant=12.0, repetitions_constant=3.0)

CREATE_KWARGS = dict(kind="minimum", universe_bits=UNIVERSE_BITS,
                     eps=PARAMS.eps, delta=PARAMS.delta,
                     thresh_constant=PARAMS.thresh_constant,
                     repetitions_constant=PARAMS.repetitions_constant,
                     seed=9)

SKETCH = "mixed"


def _ops_per_client():
    """Size each run to a few seconds on the host actually running it."""
    # Affinity-aware: a containerised runner pinned to 2 of 64 cores
    # must size (and gate) like a 2-CPU host, not a 64-CPU one.
    cpus = available_workers()
    return 6_000 if cpus >= MIN_GATE_CPUS else 1_200


def _base_stream(seed=23):
    rng = random.Random(seed)
    return [rng.getrandbits(UNIVERSE_BITS) for _ in range(BASE_STREAM)]


def _write_batches(client_index, count):
    """Deterministic per-client write batches (same union every run)."""
    rng = random.Random(1_000 + client_index)
    return [[rng.getrandbits(UNIVERSE_BITS) for _ in range(WRITE_BATCH)]
            for _ in range(count)]


# --------------------------------------------------------------------------
# Raw-socket keep-alive client (forked per client process)


def _estimate_request(host):
    return (f"GET /v1/sketches/{SKETCH}/estimate HTTP/1.1\r\n"
            f"Host: {host}\r\nContent-Length: 0\r\n\r\n").encode()


def _ingest_request(host, batch):
    body = json.dumps({"items": batch}).encode()
    head = (f"POST /v1/sketches/{SKETCH}/ingest HTTP/1.1\r\n"
            f"Host: {host}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    return head + body


class _Conn:
    """One keep-alive connection with a minimal HTTP/1.1 response reader."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def roundtrip(self, request):
        """Send one request, read one response, return its status code."""
        self.sock.sendall(request)
        while b"\r\n\r\n" not in self.buffer:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed mid-response")
            self.buffer += data
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
                break
        while len(self.buffer) < length:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed mid-body")
            self.buffer += data
        self.buffer = self.buffer[length:]
        return status

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def _client_main(index, host, port, ops, barrier, out):
    """One forked load generator: mixed ops over several connections."""
    writes = _write_batches(index, (ops + WRITE_EVERY - 1) // WRITE_EVERY)
    estimate = _estimate_request(host)
    ingests = [_ingest_request(host, batch) for batch in writes]
    conns = [_Conn(host, port) for _ in range(CONNS_PER_CLIENT)]
    try:
        barrier.wait(timeout=30)
        start = time.perf_counter()
        write_index = 0
        for op in range(ops):
            conn = conns[op % CONNS_PER_CLIENT]
            if op % WRITE_EVERY == 0:
                status = conn.roundtrip(ingests[write_index])
                write_index += 1
            else:
                status = conn.roundtrip(estimate)
            if status != 200:
                out.put((index, None, f"op {op} -> HTTP {status}"))
                return
        elapsed = time.perf_counter() - start
        out.put((index, elapsed, None))
    except Exception as exc:  # pragma: no cover - failure path
        out.put((index, None, f"{type(exc).__name__}: {exc}"))
    finally:
        for conn in conns:
            conn.close()


def _drive_load(host, port, ops_per_client):
    """Fork the client fleet; returns qps over the slowest client."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(CLIENT_PROCS)
    out = ctx.Queue()
    procs = [ctx.Process(target=_client_main,
                         args=(i, host, port, ops_per_client, barrier, out),
                         daemon=True)
             for i in range(CLIENT_PROCS)]
    for p in procs:
        p.start()
    results = [out.get(timeout=600) for _ in procs]
    for p in procs:
        p.join(timeout=30)
    failures = [(i, err) for i, _, err in results if err]
    assert not failures, failures[:1]
    slowest = max(elapsed for _, elapsed, _ in results)
    return CLIENT_PROCS * ops_per_client / slowest


# --------------------------------------------------------------------------
# Runs


def _run(frontend, procs, ops_per_client):
    """Serve, load, quiesce, read back the converged estimate."""
    options = {}
    if frontend == "multiproc":
        options = {"procs": procs, "delta_interval": DELTA_INTERVAL}
    server = create_frontend(frontend, ("127.0.0.1", 0), Router(),
                             **options).start_background()
    try:
        api = ServiceClient(server.url)
        api.create(SKETCH, **CREATE_KWARGS)
        api.ingest(SKETCH, _base_stream())
        api.estimate(SKETCH)  # Warm every worker's view of the name.
        qps = _drive_load("127.0.0.1", server.server_port, ops_per_client)
        # Quiesce: let every worker's coalescing publisher flush, then
        # read until the folded view is identical from several
        # connections (each request folds peers' deltas first).
        time.sleep(3 * DELTA_INTERVAL + 0.2)
        estimates = {api.estimate(SKETCH) for _ in range(5)}
        assert len(estimates) == 1, (
            f"{frontend} x{procs}: estimates did not converge: "
            f"{sorted(estimates)}")
        return {
            "frontend": frontend,
            "procs": procs,
            "mixed_qps": qps,
            "estimate": estimates.pop(),
        }
    finally:
        server.stop()


def _serial_reference(ops_per_client):
    """The same items through one local sketch: the ground truth."""
    sketch = build_sketch(CREATE_KWARGS["kind"], UNIVERSE_BITS, PARAMS,
                          seed=CREATE_KWARGS["seed"])
    sketch.process_batch(_base_stream())
    writes_per_client = (ops_per_client + WRITE_EVERY - 1) // WRITE_EVERY
    for index in range(CLIENT_PROCS):
        for batch in _write_batches(index, writes_per_client):
            sketch.process_batch(batch)
    return sketch.estimate()


def test_e30_multiproc(capsys):
    ops_per_client = _ops_per_client()
    cpus = available_workers()

    runs = [_run("threading", 1, ops_per_client)]
    for procs in (1, 2, 4):
        runs.append(_run("multiproc", procs, ops_per_client))

    reference = _serial_reference(ops_per_client)
    threading_qps = runs[0]["mixed_qps"]
    gate_run = next(r for r in runs if r["frontend"] == "multiproc"
                    and r["procs"] == GATE_PROCS)
    speedup = gate_run["mixed_qps"] / threading_qps

    rows = [[r["frontend"], r["procs"], r["mixed_qps"],
             r["estimate"] == reference] for r in runs]
    table = format_table(
        f"E30  Mixed r/w qps ({CLIENT_PROCS} client procs x "
        f"{CONNS_PER_CLIENT} conns, 1-in-{WRITE_EVERY} writes of "
        f"{WRITE_BATCH} items)",
        ["frontend", "procs", "mixed qps", "bit-identical"], rows)
    gated = cpus >= MIN_GATE_CPUS
    table += (f"\n\ngate ({'enforced' if gated else 'skipped: <4 CPUs'}):"
              f" multiproc x{GATE_PROCS} >= {QPS_GATE:.0f} qps and >= "
              f"{SPEEDUP_GATE}x threading "
              f"(measured {gate_run['mixed_qps']:.0f} qps, "
              f"{speedup:.2f}x)")
    emit(capsys, "E30_multiproc", table)

    emit_json("E30", {
        "base_stream": BASE_STREAM,
        "universe_bits": UNIVERSE_BITS,
        "client_procs": CLIENT_PROCS,
        "conns_per_client": CONNS_PER_CLIENT,
        "ops_per_client": ops_per_client,
        "write_every": WRITE_EVERY,
        "write_batch": WRITE_BATCH,
        "delta_interval": DELTA_INTERVAL,
        "serial_estimate": reference,
        "runs": runs,
        "speedup_over_threading": speedup,
        "gate": ({"qps": QPS_GATE, "speedup": SPEEDUP_GATE}
                 if gated else "skipped: <4 CPUs"),
    })

    # Correctness is gated on every host: shared-nothing workers plus
    # the delta log must cost nothing in accuracy.
    for run in runs:
        assert run["estimate"] == reference, (
            f"{run['frontend']} x{run['procs']}: estimate "
            f"{run['estimate']} != serial {reference}")

    if gated:
        assert gate_run["mixed_qps"] >= QPS_GATE, (
            f"multiproc x{GATE_PROCS} reached only "
            f"{gate_run['mixed_qps']:.0f} qps (< {QPS_GATE:.0f})")
        assert speedup >= SPEEDUP_GATE, (
            f"multiproc x{GATE_PROCS} is only {speedup:.2f}x the "
            f"threading front end (< {SPEEDUP_GATE}x)")
