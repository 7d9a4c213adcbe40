"""Unit tests for the transport-independent service router.

The acceptance bar (ISSUE 6): every endpoint of the service API is
exercised through ``Router.handle(method, path, body)`` directly -- no
socket is ever bound -- proving the routing layer is a pure function
the front ends merely transport.
"""

import json
import random
import struct
import time

import pytest

from repro.service.router import (
    Response,
    Router,
    join_frames,
    split_frames,
)
from repro.store import StoreFormatError, build_sketch, dumps, loads
from repro.store.store import SketchStore
from repro.streaming import SketchParams

SMALL = SketchParams(eps=0.7, delta=0.3,
                     thresh_constant=10.0, repetitions_constant=2.0)

CREATE = {"kind": "minimum", "universe_bits": 14, "seed": 5,
          "eps": SMALL.eps, "delta": SMALL.delta,
          "thresh_constant": SMALL.thresh_constant,
          "repetitions_constant": SMALL.repetitions_constant}


def stream(universe_bits, count, seed=0):
    rng = random.Random(seed)
    return [rng.getrandbits(universe_bits) for _ in range(count)]


def jbody(payload):
    return json.dumps(payload).encode("utf-8")


@pytest.fixture
def router():
    return Router()


def make_created(router, name="s", **overrides):
    payload = dict(CREATE, name=name, **overrides)
    reply = router.handle("POST", "/v1/sketches", jbody(payload))
    assert reply.status == 201, reply.payload
    return payload


class TestFrameCodec:
    def test_round_trip(self):
        frames = [b"", b"x", b"frame-two", bytes(range(256))]
        assert split_frames(join_frames(frames)) == frames

    def test_empty_batch_rejected(self):
        with pytest.raises(StoreFormatError):
            split_frames(b"")

    def test_truncated_prefix_rejected(self):
        with pytest.raises(StoreFormatError):
            split_frames(b"\x01\x00")

    def test_overrunning_frame_rejected(self):
        body = struct.pack("<I", 10) + b"short"
        with pytest.raises(StoreFormatError):
            split_frames(body)

    def test_trailing_garbage_rejected(self):
        body = join_frames([b"ok"]) + b"\xff\xff"
        with pytest.raises(StoreFormatError):
            split_frames(body)


class TestRouterEndpoints:
    """One test per wire-protocol endpoint, no sockets anywhere."""

    def test_healthz(self, router):
        reply = router.handle("GET", "/healthz")
        assert reply.status == 200
        body = reply.json_body()
        assert body["status"] == "ok"
        assert body["sketches"] == 0
        assert set(body["view_metrics"]) == \
            {"hits", "builds", "serializations"}

    def test_create_and_list(self, router):
        make_created(router, "a")
        reply = router.handle("GET", "/v1/sketches")
        assert reply.status == 200
        assert reply.json_body()["sketches"] == ["a"]

    def test_info(self, router):
        make_created(router, "a")
        reply = router.handle("GET", "/v1/sketches/a")
        assert reply.status == 200
        info = reply.json_body()
        assert info["kind"] == "MinimumF0"
        assert info["serialized_bytes"] > 0

    def test_put_upload_create_or_replace(self, router):
        sketch = build_sketch("exact", 0, SMALL)
        sketch.process_batch([1, 2, 3])
        reply = router.handle("PUT", "/v1/sketches/up", dumps(sketch))
        assert reply.status == 200
        est = router.handle("GET", "/v1/sketches/up/estimate")
        assert est.json_body()["estimate"] == 3.0

    def test_delete(self, router):
        make_created(router, "a")
        assert router.handle("DELETE", "/v1/sketches/a").status == 200
        assert router.handle("GET", "/v1/sketches/a").status == 404

    def test_blob_round_trips(self, router):
        make_created(router, "a")
        items = stream(14, 300, seed=1)
        router.handle("POST", "/v1/sketches/a/ingest",
                      jbody({"items": items}))
        blob = router.handle("GET", "/v1/sketches/a/blob")
        assert blob.status == 200
        assert blob.content_type == "application/octet-stream"
        decoded = loads(blob.payload)
        reference = build_sketch("minimum", 14, SMALL, seed=5)
        reference.process_batch(items)
        assert decoded.estimate() == reference.estimate()

    def test_estimate(self, router):
        make_created(router, "a", kind="exact")
        router.handle("POST", "/v1/sketches/a/ingest",
                      jbody({"items": [1, 2, 2, 3]}))
        reply = router.handle("GET", "/v1/sketches/a/estimate")
        assert reply.json_body() == {"name": "a", "estimate": 3.0}

    def test_ingest(self, router):
        make_created(router, "a")
        reply = router.handle("POST", "/v1/sketches/a/ingest",
                              jbody({"items": [7, 8]}))
        assert reply.status == 200
        assert reply.json_body()["ingested"] == 2

    def test_merge(self, router):
        make_created(router, "a")
        shard = build_sketch("minimum", 14, SMALL, seed=5)
        items = stream(14, 200, seed=2)
        shard.process_batch(items)
        reply = router.handle("POST", "/v1/sketches/a/merge",
                              dumps(shard))
        assert reply.status == 200
        est = router.handle("GET", "/v1/sketches/a/estimate").json_body()
        assert est["estimate"] == shard.estimate()

    def test_frames_batched_merge(self, router):
        make_created(router, "a")
        items = stream(14, 900, seed=3)
        shards = []
        for i in range(3):
            shard = build_sketch("minimum", 14, SMALL, seed=5)
            shard.process_batch(items[i::3])
            shards.append(shard)
        body = join_frames([dumps(s) for s in shards])
        reply = router.handle("POST", "/v1/sketches/a/frames", body)
        assert reply.status == 200
        assert reply.json_body()["frames"] == 3
        reference = build_sketch("minimum", 14, SMALL, seed=5)
        reference.process_batch(items)
        est = router.handle("GET", "/v1/sketches/a/estimate").json_body()
        assert est["estimate"] == reference.estimate()

    def test_snapshot_and_restore(self, router, tmp_path):
        path = str(tmp_path / "snap.bin")
        make_created(router, "a", kind="exact")
        router.handle("POST", "/v1/sketches/a/ingest",
                      jbody({"items": [1, 2]}))
        reply = router.handle("POST", "/v1/snapshot",
                              jbody({"path": path}))
        assert reply.status == 200
        assert reply.json_body()["sketches"] == 1

        fresh = Router(SketchStore())
        reply = fresh.handle("POST", "/v1/restore", jbody({"path": path}))
        assert reply.status == 200
        assert reply.json_body()["restored"] == 1
        est = fresh.handle("GET", "/v1/sketches/a/estimate").json_body()
        assert est["estimate"] == 2.0

    def test_snapshot_uses_default_path(self, tmp_path):
        path = str(tmp_path / "default.bin")
        router = Router(snapshot_path=path)
        make_created(router, "a", kind="exact")
        assert router.handle("POST", "/v1/snapshot").status == 200
        assert router.handle("POST", "/v1/restore").status == 200


class TestRouterErrors:
    def test_unknown_name_404(self, router):
        for method, path in [("GET", "/v1/sketches/nope"),
                             ("GET", "/v1/sketches/nope/estimate"),
                             ("GET", "/v1/sketches/nope/blob"),
                             ("DELETE", "/v1/sketches/nope")]:
            assert router.handle(method, path).status == 404, path

    def test_unknown_path_404(self, router):
        assert router.handle("GET", "/v2/everything").status == 404
        assert router.handle("GET", "/").status == 404

    def test_wrong_method_404(self, router):
        make_created(router, "a")
        assert router.handle("PUT", "/v1/sketches/a/estimate").status \
            == 404

    def test_duplicate_create_409(self, router):
        make_created(router, "a")
        reply = router.handle("POST", "/v1/sketches",
                              jbody(dict(CREATE, name="a")))
        assert reply.status == 409

    def test_bad_name_400(self, router):
        reply = router.handle("POST", "/v1/sketches",
                              jbody(dict(CREATE, name="a/b")))
        assert reply.status == 400

    @pytest.mark.parametrize("field,body", [
        ("eps", b'{"name":"a","eps":null}'),
        ("seed", b'{"name":"f","seed":1e400}'),
        ("window", b'{"name":"w","window":true}'),
        ("ttl", b'{"name":"t","ttl":{"s":1}}')],
        ids=["eps-null", "seed-overflow", "window-bool", "ttl-object"])
    def test_malformed_create_number_400(self, router, field, body):
        reply = router.handle("POST", "/v1/sketches", body)
        assert reply.status == 400
        assert reply.json_body()["error"] == f"{field} must be a number"
        assert router.handle("GET", "/v1/sketches").json_body() == \
            {"sketches": []}

    @pytest.mark.parametrize("bits", [65, 512])
    def test_universe_over_cap_refused_quickly(self, router, bits):
        # GF2n(512) alone took 42 s; the cap answers before any field
        # is built, on create and on an uploaded frame alike.
        start = time.perf_counter()
        reply = router.handle("POST", "/v1/sketches", jbody(dict(
            CREATE, name="wide", kind="estimation", universe_bits=bits)))
        assert reply.status == 400
        assert "MAX_UNIVERSE_BITS" in reply.json_body()["error"]
        assert router.handle("GET", "/v1/sketches").json_body() == \
            {"sketches": []}
        frame = bytearray(dumps(build_sketch("estimation", 24, SMALL,
                                             seed=bits)))
        sites = [i for i in range(len(frame) - 3)
                 if frame[i:i + 4] == struct.pack("<I", 24)]
        site = random.Random(bits).choice(sites[1:])  # A field width.
        frame[site:site + 4] = struct.pack("<I", bits)
        reply = router.handle("PUT", "/v1/sketches/wide", bytes(frame))
        assert reply.status == 400
        assert "MAX_UNIVERSE_BITS" in reply.json_body()["error"]
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("key,body", [
        ("windw", b'{"name":"a","kind":"minimum","universe_bits":24,'
                  b'"windw":8}'),
        ("shards", b'{"name":"b","shards":4}')],
        ids=["misspelled-window", "shards"])
    def test_unknown_create_key_400(self, router, key, body):
        """A key the create handler does not read is refused by name,
        never dropped into a sketch built without it."""
        reply = router.handle("POST", "/v1/sketches", body)
        assert reply.status == 400
        assert reply.json_body()["error"].startswith(
            f"unknown create key {key!r}")
        assert router.handle("GET", "/v1/sketches").json_body() == \
            {"sketches": []}

    def test_malformed_json_400(self, router):
        reply = router.handle("POST", "/v1/sketches", b"{nope")
        assert reply.status == 400
        reply = router.handle("POST", "/v1/sketches", b"[1, 2]")
        assert reply.status == 400

    def test_bad_ingest_items_400(self, router):
        make_created(router, "a")
        reply = router.handle("POST", "/v1/sketches/a/ingest",
                              jbody({"items": ["x"]}))
        assert reply.status == 400

    @pytest.mark.parametrize("window", [None, 60.0])
    @pytest.mark.parametrize("kind", ["minimum", "bucketing", "fm",
                                      "estimation"])
    @pytest.mark.parametrize("bad", [-1, 2 ** 64, 2 ** 14, True],
                             ids=["negative", "past-u64", "past-universe",
                                  "bool"])
    def test_item_outside_universe_400(self, router, kind, window, bad):
        make_created(router, "a", kind=kind,
                     **({} if window is None else {"window": window}))
        reply = router.handle("POST", "/v1/sketches/a/ingest",
                              jbody({"items": [0, 7, bad, 3]}))
        assert reply.status == 400
        assert reply.json_body()["error"].startswith("items[2]: ")
        # Nothing of the refused batch reached the sketch.
        assert router.handle("GET", "/v1/sketches/a/estimate") \
            .json_body()["estimate"] == 0

    def test_wide_items_not_aliased(self, router):
        # 2**30 and 7 + 2**40 share their low 24 bits with 0 and 7; a
        # 24-bit sketch used to count all four as two items.
        make_created(router, "a", universe_bits=24)
        reply = router.handle("POST", "/v1/sketches/a/ingest",
                              jbody({"items": [0, 2 ** 30, 7, 7 + 2 ** 40]}))
        assert reply.status == 400
        assert reply.json_body()["error"] == \
            "items[1]: 1073741824 does not fit in 24 bits"

    def test_exact_items_unbounded_but_checked(self, router):
        make_created(router, "e", kind="exact")
        assert router.handle("POST", "/v1/sketches/e/ingest",
                             jbody({"items": [2 ** 70]})).status == 200
        for bad in (-1, True):
            reply = router.handle("POST", "/v1/sketches/e/ingest",
                                  jbody({"items": [1, bad]}))
            assert reply.status == 400
            assert reply.json_body()["error"].startswith("items[1]: ")
        assert router.handle("GET", "/v1/sketches/e/estimate") \
            .json_body()["estimate"] == 1

    def test_malformed_frame_400(self, router):
        make_created(router, "a")
        assert router.handle("POST", "/v1/sketches/a/merge",
                             b"junk").status == 400
        assert router.handle("POST", "/v1/sketches/a/frames",
                             b"junk").status == 400
        assert router.handle("POST", "/v1/sketches/a/frames",
                             b"").status == 400

    def test_incompatible_merge_400(self, router):
        make_created(router, "a")
        foreign = build_sketch("minimum", 14, SMALL, seed=99)
        reply = router.handle("POST", "/v1/sketches/a/merge",
                              dumps(foreign))
        assert reply.status == 400

    @pytest.mark.parametrize("kind", ["estimation", "fm"])
    def test_foreign_seed_merge_400(self, router, kind):
        make_created(router, "a", kind=kind, seed=0)
        router.handle("POST", "/v1/sketches/a/ingest",
                      jbody({"items": stream(14, 50, seed=4)}))
        before = router.handle("GET", "/v1/sketches/a/blob").payload
        foreign = build_sketch(kind, 14, SMALL, seed=1)
        foreign.process_batch(stream(14, 50, seed=5))
        reply = router.handle("POST", "/v1/sketches/a/merge",
                              dumps(foreign))
        assert reply.status == 400
        assert "different hashes" in reply.json_body()["error"]
        assert router.handle("GET", "/v1/sketches/a/blob").payload == before

    @pytest.mark.parametrize("kind", ["minimum", "bucketing", "estimation"])
    def test_refused_merge_changes_nothing(self, router, kind):
        # Every row but the last matches the stored sketch's seeds, so a
        # row-by-row merge would fold the earlier rows in before refusing.
        make_created(router, "a", kind=kind)
        router.handle("POST", "/v1/sketches/a/ingest",
                      jbody({"items": stream(14, 120, seed=4)}))
        stored = router.store.get("a")
        rows_before = dumps(stored)
        frame_before = router.handle("GET", "/v1/sketches/a/blob").payload
        estimate_before = router.handle(
            "GET", "/v1/sketches/a/estimate").json_body()["estimate"]
        shard = build_sketch(kind, 14, SMALL, seed=CREATE["seed"])
        shard.process_batch(stream(14, 300, seed=6))
        foreign = build_sketch(kind, 14, SMALL, seed=99)
        hash_attr = "hashes" if kind == "estimation" else "h"
        setattr(shard.rows[-1], hash_attr,
                getattr(foreign.rows[-1], hash_attr))
        reply = router.handle("POST", "/v1/sketches/a/merge", dumps(shard))
        assert reply.status == 400
        assert "different hashes" in reply.json_body()["error"]
        assert dumps(router.store.get("a")) == rows_before
        assert router.handle("GET", "/v1/sketches/a/blob").payload \
            == frame_before
        assert router.handle("GET", "/v1/sketches/a/estimate") \
            .json_body()["estimate"] == estimate_before

    def test_snapshot_without_path_400(self, router):
        assert router.handle("POST", "/v1/snapshot").status == 400
        assert router.handle("POST", "/v1/restore").status == 400

    def test_restore_missing_file_404(self, router, tmp_path):
        reply = router.handle("POST", "/v1/restore",
                              jbody({"path": str(tmp_path / "no.bin")}))
        assert reply.status == 404

    def test_responses_are_json_errors(self, router):
        reply = router.handle("GET", "/v1/sketches/nope")
        assert "error" in reply.json_body()
        assert reply.content_type == "application/json"


class TestResponse:
    def test_helpers(self):
        assert Response.json(200, {"a": 1}).json_body() == {"a": 1}
        blob = Response.blob(b"\x00\x01")
        assert blob.status == 200
        assert blob.content_type == "application/octet-stream"
        err = Response.error(404, "gone")
        assert err.status == 404
        assert err.json_body() == {"error": "gone"}
