"""End-to-end tests for the F0 sketch service.

The acceptance flow (ISSUE 5): create -> parallel shard pushes ->
merge -> query -> snapshot -> restart -> restore -> same estimate,
plus a concurrent-client smoke with >= 8 threads returning correct
estimates.

The ``server`` fixture is parametrized over every registered front end
(``threading`` and ``multiproc``), so each endpoint test doubles as a
parity check: same router, same handler, different process layout.
"""

import json
import random
import socket
import statistics
import threading
import time

import pytest

from repro.service import F0Server, Router, ServiceClient, ServiceError
from repro.service.frontends import create_frontend, frontend_names
from repro.store import build_sketch
from repro.streaming import SketchParams

SMALL = SketchParams(eps=0.7, delta=0.3,
                     thresh_constant=10.0, repetitions_constant=2.0)

CREATE_KWARGS = dict(eps=SMALL.eps, delta=SMALL.delta,
                     thresh_constant=SMALL.thresh_constant,
                     repetitions_constant=SMALL.repetitions_constant)


@pytest.fixture(params=frontend_names())
def server(request):
    srv = create_frontend(request.param, ("127.0.0.1", 0),
                          Router()).start_background()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


def stream(universe_bits, count, seed=0):
    rng = random.Random(seed)
    return [rng.getrandbits(universe_bits) for _ in range(count)]


class TestEndpoints:
    def test_health(self, client):
        reply = client.health()
        assert reply["status"] == "ok"
        assert reply["sketches"] == 0

    def test_create_list_info_delete(self, client):
        client.create("a", kind="minimum", universe_bits=16, seed=3,
                      **CREATE_KWARGS)
        assert client.sketches() == ["a"]
        info = client.info("a")
        assert info["kind"] == "MinimumF0"
        assert info["serialized_bytes"] > 0
        client.delete("a")
        assert client.sketches() == []

    def test_unknown_sketch_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.estimate("missing")
        assert exc.value.status == 404

    def test_duplicate_create_is_409(self, client):
        client.create("a", universe_bits=8)
        with pytest.raises(ServiceError) as exc:
            client.create("a", universe_bits=8)
        assert exc.value.status == 409

    def test_invalid_create_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.create("bad", kind="no-such-kind", universe_bits=8)
        assert exc.value.status == 400

    def test_malformed_merge_payload_is_400(self, client):
        client.create("a", universe_bits=8)
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/sketches/a/merge",
                            b"not a frame",
                            content_type="application/octet-stream")
        assert exc.value.status == 400

    def test_incompatible_merge_is_400(self, client):
        client.create("a", kind="minimum", universe_bits=8, seed=1,
                      **CREATE_KWARGS)
        foreign = build_sketch("minimum", 8, SMALL, seed=99)
        with pytest.raises(ServiceError) as exc:
            client.push("a", foreign)
        assert exc.value.status == 400

    def test_non_integer_ingest_is_400(self, client):
        client.create("a", universe_bits=8)
        with pytest.raises(ServiceError) as exc:
            client._json("POST", "/v1/sketches/a/ingest",
                         {"items": ["one", "two"]})
        assert exc.value.status == 400

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client._json("GET", "/v2/everything")
        assert exc.value.status == 404

    def test_hash_frame_rejected_as_sketch(self, client):
        """A serialized hash function must not poison an entry via PUT
        or merge -- both reject with 400 up front."""
        from repro.hashing.toeplitz import ToeplitzHashFamily
        from repro.store import dumps
        hash_blob = dumps(ToeplitzHashFamily(8, 8).sample(random.Random(0)))
        with pytest.raises(ServiceError) as exc:
            client._request("PUT", "/v1/sketches/poison", hash_blob,
                            content_type="application/octet-stream")
        assert exc.value.status == 400
        client.create("a", universe_bits=8)
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/sketches/a/merge", hash_blob,
                            content_type="application/octet-stream")
        assert exc.value.status == 400
        assert client.sketches() == ["a"]  # Nothing poisoned.

    def test_unroutable_names_rejected_at_create(self, client):
        for bad in ("us/east", "a b", "q?x", "", ".hidden", "x" * 200):
            with pytest.raises(ServiceError) as exc:
                client.create(bad, universe_bits=8)
            assert exc.value.status == 400, bad

    def test_quoted_name_round_trip(self, client):
        client.create("us:east-1.web", kind="exact")
        client.ingest("us:east-1.web", [1, 2, 3])
        assert client.estimate("us:east-1.web") == 3.0
        client.delete("us:east-1.web")
        assert client.sketches() == []

    def test_keep_alive_survives_error_with_unread_body(self, server):
        """An errored request whose body was never routed must not
        corrupt the next request on the same persistent connection."""
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1",
                                          server.server_port, timeout=10)
        try:
            conn.request("POST", "/v1/nope", body=b'{"x": 1}',
                         headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            assert reply.status == 404
            reply.read()
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            assert reply.status == 200
            assert b"ok" in reply.read()
        finally:
            conn.close()

    def test_malformed_content_length_rejected_once(self, server):
        """A body whose length cannot be parsed must not be read as the
        next request: one 400, then the connection closes."""
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        request = (b"POST /v1/sketches HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Length: abc\r\n\r\n" + smuggled)
        received = _exchange(server, request)
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert received.startswith(b"HTTP/1.1 400 "), received

    def test_chunked_body_rejected_once(self, server):
        """Only Content-Length framing is supported: a chunked body must
        get one 501 and a closed connection, never be parsed as the
        next request."""
        request = (b"POST /v1/sketches/a/ingest HTTP/1.1\r\nHost: x\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   b"e\r\n{\"items\": [1]}\r\n0\r\n\r\n")
        received = _exchange(server, request)
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert received.startswith(b"HTTP/1.1 501 "), received
        assert b"Connection: close" in received, received
        assert "Transfer-Encoding" in _json_body(received)["error"]

    def test_malformed_request_line_is_json_400(self, server):
        received = _exchange(server, b"garbage\r\n\r\n")
        assert received.count(b"HTTP/1.1 ") == 1, received
        assert received.startswith(b"HTTP/1.1 400 "), received
        assert _json_body(received)["error"]

    def test_unsupported_method_is_json_501(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("PATCH", "/v1/sketches")
        assert exc.value.status == 501
        assert str(exc.value) == "HTTP 501: Unsupported method ('PATCH')"

    def test_keep_alive_requests_answer_within_delayed_ack(self, server):
        """Ten requests on one keep-alive connection: the median must
        stay under half the 40 ms delayed-ACK window, which a response
        split over two socket writes does not meet."""
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1",
                                          server.server_port, timeout=10)
        latencies = []
        try:
            for _ in range(10):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                reply = conn.getresponse()
                reply.read()
                latencies.append(time.perf_counter() - start)
                assert reply.status == 200
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.020, latencies

    def test_server_side_ingest_and_estimate(self, client):
        client.create("exact", kind="exact", **CREATE_KWARGS)
        items = stream(16, 500, seed=2)
        assert client.ingest("exact", items, chunk_size=128) == 500
        assert client.estimate("exact") == float(len(set(items)))

    def test_fetch_returns_live_sketch(self, client):
        client.create("s", kind="minimum", universe_bits=16, seed=5,
                      **CREATE_KWARGS)
        items = stream(16, 400, seed=1)
        client.ingest("s", items)
        fetched = client.fetch("s")
        reference = build_sketch("minimum", 16, SMALL, seed=5)
        reference.process_batch(items)
        assert fetched.estimate() == reference.estimate()

    def test_ttl_expires_via_service(self, server, client):
        if getattr(server, "procs", None):
            pytest.skip("clock monkeypatch cannot reach forked workers")
        clock = [0.0]
        server.store._clock = lambda: clock[0]
        client.create("ephemeral", kind="exact", ttl=10.0,
                      **CREATE_KWARGS)
        clock[0] = 11.0
        with pytest.raises(ServiceError) as exc:
            client.estimate("ephemeral")
        assert exc.value.status == 404


def _exchange(server, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; return everything read
    until the server closes it."""
    with socket.create_connection(("127.0.0.1", server.server_port),
                                  timeout=10) as sock:
        sock.sendall(request)
        received = b""
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass
    return received


def _json_body(response: bytes) -> dict:
    """The JSON body of one raw HTTP response."""
    return json.loads(response.partition(b"\r\n\r\n")[2])


class TestStoreCoordinator:
    def test_coordinator_against_local_store(self):
        from repro.distributed import SketchStoreCoordinator
        from repro.store import SketchStore

        store = SketchStore()
        prototype = build_sketch("minimum", 16, SMALL, seed=8)
        coordinator = SketchStoreCoordinator(store, "dist", prototype)
        items = stream(16, 900, seed=3)
        parts = [items[i::3] for i in range(3)]
        for part in parts:
            site = coordinator.replica()
            site.process_batch(part)
            coordinator.submit(site)
        reference = build_sketch("minimum", 16, SMALL, seed=8)
        reference.process_batch(items)
        assert coordinator.estimate() == reference.estimate()

    def test_coordinator_against_live_service(self, client):
        from repro.distributed import SketchStoreCoordinator

        prototype = build_sketch("minimum", 16, SMALL, seed=8)
        coordinator = SketchStoreCoordinator(client, "dist", prototype)
        items = stream(16, 900, seed=3)
        threads = []
        for part in (items[i::3] for i in range(3)):
            site = coordinator.replica()
            site.process_batch(part)
            threads.append(threading.Thread(target=coordinator.submit,
                                            args=(site,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = build_sketch("minimum", 16, SMALL, seed=8)
        reference.process_batch(items)
        assert coordinator.estimate() == reference.estimate()

    def test_upload_endpoint_creates_or_replaces(self, client):
        sketch = build_sketch("exact", 0, SMALL)
        sketch.process_batch([1, 2, 3])
        client.upload("uploaded", sketch)
        assert client.estimate("uploaded") == 3.0
        replacement = build_sketch("exact", 0, SMALL)
        replacement.process_batch([7])
        client.upload("uploaded", replacement)
        assert client.estimate("uploaded") == 1.0


class TestServedFlow:
    def test_full_lifecycle_with_restart(self, tmp_path):
        """create -> parallel shard pushes -> merge -> query ->
        snapshot -> restart -> restore -> same estimate."""
        universe_bits = 20
        items = stream(universe_bits, 4000, seed=9)
        snapshot = str(tmp_path / "sketches.bin")

        server = F0Server(("127.0.0.1", 0),
                          snapshot_path=snapshot).start_background()
        try:
            client = ServiceClient(server.url)
            client.create("clicks", kind="minimum",
                          universe_bits=universe_bits, seed=13,
                          **CREATE_KWARGS)

            parts = [items[i::4] for i in range(4)]
            errors = []

            def shard_push(part):
                try:
                    worker = ServiceClient(server.url)
                    replica = worker.replica("clicks")
                    replica.process_batch(part)
                    worker.push("clicks", replica)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=shard_push, args=(p,))
                       for p in parts]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors

            estimate = client.estimate("clicks")
            reference = build_sketch("minimum", universe_bits, SMALL,
                                     seed=13)
            reference.process_batch(items)
            assert estimate == reference.estimate()

            reply = client.snapshot()
            assert reply["sketches"] == 1
        finally:
            server.stop()

        # Restart: a fresh server process-equivalent, restored from disk.
        server2 = F0Server(("127.0.0.1", 0),
                           snapshot_path=snapshot).start_background()
        try:
            client2 = ServiceClient(server2.url)
            assert client2.sketches() == []
            assert client2.restore()["restored"] == 1
            assert client2.estimate("clicks") == estimate
            # The restored sketch keeps absorbing uploads bit-exactly.
            extra = stream(universe_bits, 500, seed=77)
            replica = client2.replica("clicks")
            replica.process_batch(extra)
            client2.push("clicks", replica)
            reference = build_sketch("minimum", universe_bits, SMALL,
                                     seed=13)
            reference.process_batch(items + extra)
            assert client2.estimate("clicks") == reference.estimate()
        finally:
            server2.stop()

    def test_concurrent_clients_smoke(self, server):
        """>= 8 threads of mixed ingest / push / query traffic; the
        final estimate must equal the serial reference."""
        universe_bits = 14
        client = ServiceClient(server.url)
        client.create("mixed", kind="minimum",
                      universe_bits=universe_bits, seed=21,
                      **CREATE_KWARGS)
        items = stream(universe_bits, 2400, seed=4)
        parts = [items[i::8] for i in range(8)]
        errors = []

        def worker(i, part):
            try:
                c = ServiceClient(server.url)
                if i % 2 == 0:
                    c.ingest("mixed", part, chunk_size=100)
                else:
                    replica = c.replica("mixed")
                    replica.process_batch(part)
                    c.push("mixed", replica)
                assert c.estimate("mixed") > 0
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i, p))
                   for i, p in enumerate(parts)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        reference = build_sketch("minimum", universe_bits, SMALL, seed=21)
        reference.process_batch(items)
        assert client.estimate("mixed") == reference.estimate()


class TestBatchedFrames:
    def test_push_frames_over_http(self, server):
        """Many shard uploads in ONE request; union equals serial."""
        client = ServiceClient(server.url)
        client.create("batched", kind="minimum", universe_bits=14,
                      seed=6, **CREATE_KWARGS)
        items = stream(14, 1200, seed=5)
        shards = []
        for i in range(4):
            shard = build_sketch("minimum", 14, SMALL, seed=6)
            shard.process_batch(items[i::4])
            shards.append(shard)
        assert client.push_frames("batched", shards) == 4
        reference = build_sketch("minimum", 14, SMALL, seed=6)
        reference.process_batch(items)
        assert client.estimate("batched") == reference.estimate()

    def test_malformed_batch_is_400(self, server):
        client = ServiceClient(server.url)
        client.create("a", universe_bits=8)
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/v1/sketches/a/frames",
                            b"\x02\x00\x00",  # Truncated length prefix.
                            content_type="application/octet-stream")
        assert exc.value.status == 400


class TestFrontendRegistry:
    def test_both_frontends_registered(self):
        assert set(frontend_names()) == {"threading", "multiproc"}

    def test_unavailable_multiproc_refused_with_reason(self, monkeypatch):
        import argparse
        import dataclasses

        from repro.common.errors import ReproError
        from repro.service.frontends import FRONTENDS, frontend_info
        entry = frontend_info("multiproc")
        assert entry.available == hasattr(socket, "SO_REUSEPORT")
        assert "SO_REUSEPORT" in entry.unavailable_reason
        monkeypatch.setitem(FRONTENDS.entries, "multiproc",
                            dataclasses.replace(entry, available=False))
        with pytest.raises(ReproError, match=entry.unavailable_reason):
            create_frontend("multiproc", ("127.0.0.1", 0), Router())
        with pytest.raises(argparse.ArgumentTypeError,
                           match=entry.unavailable_reason):
            FRONTENDS.arg_type("multiproc")

    def test_unknown_frontend_rejected(self):
        from repro.common.errors import ReproError
        from repro.service.frontends import create_frontend
        with pytest.raises(ReproError):
            create_frontend("bogus", ("127.0.0.1", 0), Router())

    def test_duplicate_registration_rejected(self):
        from repro.common.errors import ReproError
        from repro.service.frontends import register_frontend
        with pytest.raises(ReproError):
            register_frontend("threading", "dup", lambda *a, **k: None)


class TestGracefulShutdown:
    def test_sigterm_snapshots_and_exits_cleanly(self, tmp_path):
        """``repro serve --snapshot-on-exit``: SIGTERM must drain, write
        the snapshot, and exit 0 -- the redeploy-without-data-loss path."""
        import os
        import re
        import signal
        import subprocess
        import sys

        snap = tmp_path / "exit.bin"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--quiet", "--snapshot-on-exit", str(snap)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            banner = [None]

            def read_banner():
                banner[0] = proc.stdout.readline()

            reader = threading.Thread(target=read_banner, daemon=True)
            reader.start()
            reader.join(timeout=20)
            assert banner[0], "service never printed its URL banner"
            url = re.search(r"http://[0-9.:]+", banner[0]).group(0)

            client = ServiceClient(url)
            client.create("persisted", kind="exact")
            client.ingest("persisted", [1, 2, 3, 3])
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        from repro.store import SketchStore
        store = SketchStore()
        assert store.restore(str(snap)) == 1
        assert store.estimate("persisted") == 3.0

    def test_multiproc_sigterm_folds_every_worker_into_one_snapshot(
            self, tmp_path):
        """SIGTERM against the pre-fork front end must drain the
        workers, fold every worker's unfolded deltas, and write exactly
        one snapshot -- frame-identical to the same items ingested
        serially.  Loss of any worker's last writes would show up here
        as a short estimate."""
        import os
        import re
        import signal
        import subprocess
        import sys

        from repro.store import SketchStore
        from repro.store.factory import build_sketch
        from repro.store.serialize import dumps
        from repro.streaming.base import SketchParams

        snap = tmp_path / "exit.bin"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--quiet", "--frontend", "multiproc", "--procs", "2",
             "--snapshot-on-exit", str(snap)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            banner = [None]

            def read_banner():
                banner[0] = proc.stdout.readline()

            reader = threading.Thread(target=read_banner, daemon=True)
            reader.start()
            reader.join(timeout=30)
            assert banner[0], "service never printed its URL banner"
            url = re.search(r"http://[0-9.:]+", banner[0]).group(0)

            params = SketchParams(eps=0.7, delta=0.3, thresh_constant=12.0,
                                  repetitions_constant=3.0)
            ServiceClient(url).create(
                "persisted", kind="minimum", universe_bits=10,
                eps=params.eps, delta=params.delta,
                thresh_constant=params.thresh_constant,
                repetitions_constant=params.repetitions_constant, seed=4)
            # Spread writes over fresh connections so both workers hold
            # deltas the parent must fold on the way down.
            batches = [[1, 2, 3], [3, 4], [5, 6, 7], [8]]
            for batch in batches:
                ServiceClient(url).ingest("persisted", batch)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        store = SketchStore()
        assert store.restore(str(snap)) == 1  # Exactly one frame written.
        reference = build_sketch("minimum", 10, params, seed=4)
        reference.process_batch([x for batch in batches for x in batch])
        assert store.estimate("persisted") == reference.estimate()
        assert store.serialized("persisted") == dumps(reference)


class TestTTLSweeper:
    """Satellite of ISSUE 10: expiry must not depend on read traffic.

    The store's TTL reaping is lazy; a live service needs the
    :class:`~repro.service.server.TTLSweeper` thread so an expired
    entry disappears even when nothing ever reads it again.
    """

    def test_expired_entry_leaves_live_service_without_reads(self):
        from repro.service.server import TTLSweeper
        from repro.store import SketchStore
        import time as _time

        clock = [0.0]
        store = SketchStore(clock=lambda: clock[0])
        server = F0Server(("127.0.0.1", 0), store=store)
        server.start_background()
        sweeper = TTLSweeper(store, interval=0.02)
        sweeper.start()
        try:
            client = ServiceClient(server.url)
            client.create("ephemeral", kind="exact", ttl=5.0)
            client.create("durable", kind="exact")
            clock[0] = 10.0  # Past the TTL; nothing reads the entry.
            deadline = _time.monotonic() + 5.0
            # Watch the raw registry: no store API call (which would
            # itself lazily reap) ever touches the expired name.
            while ("ephemeral" in store._entries
                   and _time.monotonic() < deadline):
                _time.sleep(0.01)
            assert "ephemeral" not in store._entries
            assert "durable" in store._entries
            assert sweeper.evicted == 1
        finally:
            sweeper.stop()
            server.stop()

    def test_stop_drains_with_final_sweep(self):
        from repro.service.server import TTLSweeper
        from repro.store import SketchStore

        clock = [0.0]
        store = SketchStore(clock=lambda: clock[0])
        store.create("gone", build_sketch("exact", 0), ttl=1.0)
        sweeper = TTLSweeper(store, interval=3600.0)  # Never fires.
        sweeper.start()
        clock[0] = 10.0
        sweeper.stop()  # The drain runs one final sweep.
        assert "gone" not in store._entries
        assert sweeper.evicted == 1
        assert sweeper.sweeps >= 1

    def test_interval_validation(self):
        from repro.common.errors import ReproError
        from repro.service.server import TTLSweeper
        from repro.store import SketchStore

        with pytest.raises(ReproError):
            TTLSweeper(SketchStore(), interval=0.0)

    def test_serve_rejects_sweep_on_storeless_gateway(self):
        from repro.common.errors import ReproError
        from repro.service.server import serve

        class _StorelessRouter:
            pass

        with pytest.raises(ReproError):
            serve(port=0, router=_StorelessRouter(), sweep_interval=1.0)
