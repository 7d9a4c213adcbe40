"""The service workloads (serve_read, serve_mixed).

Run as a script, this is the server launcher::

    python3 benchmarks/perf/serve.py

It builds a `Router` over an empty store, starts the default front end
through ``create_frontend`` on an ephemeral loopback port, prints
``{"url": ...}`` and then obeys one command per stdin line, answering each
with one JSON line:

* ``rss`` -- the launcher's peak RSS (``{"rss_mb": ...}``);
* ``trace`` -- install the ingest and serve shims (answers ``{}``);
* ``stats`` -- write the span log and return the span totals since
  ``trace`` (``{"totals": ..., "span_file": ...}``).

Closing stdin stops the front end and ends the process.

The parent side (:func:`run_serve`) drives the server over HTTP only:
create one ``minimum`` sketch at service defaults, prefill 8192 items,
read the estimate once (the warm-up), then run a closed loop -- each of
two threads sends its next request on its own keep-alive connection only
after the previous reply arrived, like `ServiceClient`, `ClusterClient`
and `repro query` callers do.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from shims import WORKLOAD_SHIMS, Tracer  # noqa: E402

SKETCH = "bench"
PREFILL_ITEMS = 8192
PREFILL_BATCH = 4096
CLIENTS = 2
#: serve_mixed's per-connection cycle of 16 requests: 2 JSON ingests of
#: 64 items, 1 blob read, 13 estimate reads.  Every kind comes up within
#: the first three requests, so even a short traced phase sees them all.
MIXED_CYCLE = ("ingest", "estimate", "blob") + ("estimate",) * 5 \
    + ("ingest",) + ("estimate",) * 7
INGEST_ITEMS = 64
#: Longest a launcher may take to start or to stop.
LAUNCH_TIMEOUT_S = 60


class Connection:
    """One keep-alive HTTP/1.1 connection speaking raw bytes, so the
    client adds no library overhead to what it measures."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=30)
        self.rfile = self.sock.makefile("rb")

    def request(self, method: str, path: str, body: bytes = b""):
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.sock.sendall(head + body)
        status = int(self.rfile.readline().split()[1])
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        return status, self.rfile.read(length)

    def json(self, method: str, path: str, payload=None):
        body = json.dumps(payload).encode() if payload is not None else b""
        status, data = self.request(method, path, body)
        if status >= 300:
            raise RuntimeError(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Launcher:
    """A server launcher subprocess and the parent's handle on it."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=common.REPO_ROOT, text=True)
        try:
            url = self._read()["url"]
        except BaseException:
            self.close()
            raise
        host, _, port = url.rpartition("//")[2].rpartition(":")
        self.host, self.port = host, int(port)

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server launcher exited early")
        return json.loads(line)

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=LAUNCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def prefill_items(seed: int) -> List[int]:
    rng = random.Random(f"{seed}/serve/prefill")
    return [rng.getrandbits(common.UNIVERSE_BITS)
            for _ in range(PREFILL_ITEMS)]


def set_up(launcher: Launcher, seed: int) -> Connection:
    """Create and prefill the sketch, then one warm-up estimate read."""
    conn = Connection(launcher.host, launcher.port)
    conn.json("POST", "/v1/sketches",
              {"name": SKETCH, "kind": "minimum",
               "universe_bits": common.UNIVERSE_BITS, "seed": seed})
    items = prefill_items(seed)
    for start in range(0, len(items), PREFILL_BATCH):
        conn.json("POST", f"/v1/sketches/{SKETCH}/ingest",
                  {"items": items[start:start + PREFILL_BATCH]})
    conn.json("GET", f"/v1/sketches/{SKETCH}/estimate")
    return conn


class Client(threading.Thread):
    """One closed-loop connection: next request only after the reply."""

    def __init__(self, launcher: Launcher, workload: str, seed: int,
                 index: int, deadline: float) -> None:
        super().__init__(name=f"perf-client-{index}")
        self.conn = Connection(launcher.host, launcher.port)
        self.base = f"/v1/sketches/{SKETCH}"
        self.cycle = (MIXED_CYCLE if workload == "serve_mixed"
                      else ("estimate",))
        self.rng = random.Random(f"{seed}/serve/client/{index}")
        self.deadline = deadline
        self.samples: List[tuple] = []  # (kind, seconds)
        self.estimates = set()
        self.ingested: List[int] = []
        self.failed = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as exc:  # Reported by the parent thread.
            self.error = exc
        finally:
            self.conn.close()

    def _loop(self) -> None:
        j = 0
        while time.monotonic() < self.deadline:
            kind = self.cycle[j % len(self.cycle)]
            j += 1
            if kind == "ingest":
                items = [self.rng.getrandbits(common.UNIVERSE_BITS)
                         for _ in range(INGEST_ITEMS)]
                method, path = "POST", self.base + "/ingest"
                body = json.dumps({"items": items}).encode()
            else:
                method, path, body = "GET", f"{self.base}/{kind}", b""
            start = perf_counter()
            status, data = self.conn.request(method, path, body)
            self.samples.append((kind, perf_counter() - start))
            if status != 200:
                self.failed += 1
            elif kind == "ingest":
                self.ingested.extend(items)
            elif kind == "estimate":
                self.estimates.add(json.loads(data)["estimate"])


def _load(launcher: Launcher, workload: str, seed: int, seconds: float,
          phase: int):
    """Run the closed loop for ``seconds``; returns (clients, window)."""
    deadline = time.monotonic() + seconds
    clients = [Client(launcher, workload, seed, CLIENTS * phase + k,
                      deadline) for k in range(CLIENTS)]
    start = perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join(seconds + LAUNCH_TIMEOUT_S)
        if client.is_alive():
            raise RuntimeError(f"{client.name} did not finish")
        if client.error is not None:
            raise client.error
    return clients, perf_counter() - start


def _view_metrics(conn: Connection) -> dict:
    return conn.json("GET", "/healthz")["view_metrics"]


def _final_checks(conn: Connection, workload: str, seed: int,
                  clients, views_before: dict, views_after: dict) -> int:
    """Checks after the load stopped; returns the number that failed."""
    from repro import build_sketch
    from repro.store.serialize import loads_sketch
    reference = build_sketch("minimum", common.UNIVERSE_BITS, seed=seed)
    reference.process_batch(prefill_items(seed))
    for client in clients:
        if client.ingested:
            reference.process_batch(client.ingested)
    served = conn.json("GET", f"/v1/sketches/{SKETCH}/estimate")["estimate"]
    failed = served != reference.estimate()
    if workload == "serve_read":
        # Every read was served from the warm view: one value, no build.
        failed += any(c.estimates != {served} for c in clients)
        failed += views_after["builds"] != views_before["builds"]
    else:
        status, blob = conn.request("GET", f"/v1/sketches/{SKETCH}/blob")
        failed += status != 200 or loads_sketch(blob).estimate() != served
    return int(failed)


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              setups: int) -> dict:
    """One run: ``setups`` launches (the last one measures)."""
    setup_times = []
    for k in range(setups):
        start = time.monotonic()
        launcher = Launcher()
        conn = None
        try:
            conn = set_up(launcher, seed)
            setup_times.append(time.monotonic() - start)
            if k == setups - 1:
                result = (_measure_traced if trace else _measure)(
                    launcher, conn, workload, seed, seconds)
        finally:
            if conn is not None:
                conn.close()
            launcher.close()
    result["setup_times"] = setup_times
    return result


def _summary(clients, window: float) -> dict:
    samples = [s for c in clients for s in c.samples]
    return {"samples": samples, "window_s": window,
            "attempted": len(samples),
            "failed": sum(c.failed for c in clients)}


def _measure(launcher, conn, workload, seed, seconds) -> dict:
    before = _view_metrics(conn)
    clients, window = _load(launcher, workload, seed, seconds, 0)
    after = _view_metrics(conn)
    result = _summary(clients, window)
    result["failed"] += _final_checks(conn, workload, seed, clients,
                                      before, after)
    result["rss_mb"] = launcher.command("rss")["rss_mb"]
    return result


def _measure_traced(launcher, conn, workload, seed, seconds) -> dict:
    """Half the time untraced, then half traced on the same server."""
    untraced, _ = _load(launcher, workload, seed, seconds / 2, 0)
    before = _view_metrics(conn)
    launcher.command("trace")
    clients, window = _load(launcher, workload, seed, seconds / 2, 1)
    stats = launcher.command("stats")
    totals = stats["totals"]
    after = _view_metrics(conn)
    result = _summary(clients, window)
    # The untraced half's requests are attempted and checked like the rest.
    result["attempted"] += sum(len(c.samples) for c in untraced)
    result["failed"] += sum(c.failed for c in untraced)
    result["failed"] += _final_checks(conn, workload, seed,
                                      untraced + clients, before, after)
    result["rss_mb"] = launcher.command("rss")["rss_mb"]
    ops = len(result["samples"])
    traced_s = sum(s for _, s in result["samples"])
    untraced_s = sum(s for c in untraced for _, s in c.samples)
    untraced_ops = sum(len(c.samples) for c in untraced)
    router_s = totals.get("service.router", [0, 0.0, 0.0])[1]
    extra = {
        "service.transport_share": 1 - router_s / traced_s,
        "trace_overhead_pct": 100 * ((traced_s / ops)
                                     / (untraced_s / untraced_ops) - 1),
    }
    for key in ("builds", "hits", "serializations"):
        extra[f"store.view.{key}"] = (after[key] - before[key]) / ops
    result["trace"] = {"totals": totals, "ops": ops, "traced_s": traced_s,
                       "extra": extra, "span_file": stats["span_file"]}
    return result


def main() -> int:
    common.import_repro()
    from repro.service.frontends import (create_frontend,
                                         resolve_frontend_name)
    from repro.service.router import Router
    tracer = Tracer()
    frontend = create_frontend(resolve_frontend_name(), ("127.0.0.1", 0),
                               Router())
    frontend.start_background()
    try:
        common.emit({"url": frontend.url})
        for line in sys.stdin:
            command = line.strip()
            if command == "rss":
                common.emit({"rss_mb": common.peak_rss_mb()})
            elif command == "trace":
                tracer.install(WORKLOAD_SHIMS["serve_mixed"])
                common.emit({})
            elif command == "stats":
                os.makedirs(common.WORK_DIR, exist_ok=True)
                span_file = os.path.join(common.WORK_DIR,
                                         f"spans-serve-{os.getpid()}.jsonl")
                tracer.write_spans(span_file)
                common.emit({"totals": tracer.totals(),
                             "span_file": os.path.relpath(
                                 span_file, common.REPO_ROOT)})
            else:
                common.emit({"error": f"unknown command {command!r}"})
    finally:
        tracer.uninstall()
        frontend.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
