"""Tests for the multi-process serving stack: the frame-delta log, the
delta-publishing router wrapper, and the pre-fork front end itself."""

import json
import random

import pytest

from repro.common.errors import ReproError
from repro.service import Router, ServiceClient
from repro.service.multiproc import DeltaRouter, MultiprocFrontend
from repro.store.deltalog import (
    DELETE,
    MERGE,
    REPLACE,
    DeltaLog,
    SeqCounter,
)
from repro.store.factory import build_sketch
from repro.store.serialize import dumps
from repro.store.store import SketchStore
from repro.streaming.base import SketchParams

PARAMS = SketchParams(eps=0.7, delta=0.3,
                      thresh_constant=12.0, repetitions_constant=3.0)
BITS = 12

CREATE_KWARGS = dict(kind="minimum", universe_bits=BITS, eps=PARAMS.eps,
                     delta=PARAMS.delta,
                     thresh_constant=PARAMS.thresh_constant,
                     repetitions_constant=PARAMS.repetitions_constant,
                     seed=5)


def _sketch(items=()):
    sketch = build_sketch("minimum", BITS, PARAMS, seed=5)
    for item in items:
        sketch.process(item)
    return sketch


def _frame(items=()):
    return dumps(_sketch(items))


class TestDeltaLog:
    def test_append_poll_roundtrip_in_seq_order(self, tmp_path):
        counter = SeqCounter()
        w0 = DeltaLog(str(tmp_path), worker_id=0, counter=counter)
        w1 = DeltaLog(str(tmp_path), worker_id=1, counter=counter)
        # Interleave appends across writers: the reader must see them
        # in global-sequence order regardless of which file holds them.
        w0.append(MERGE, "a", _frame([1]))
        w1.append(MERGE, "b", _frame([2]), ttl=30.0)
        w0.append(DELETE, "a")
        reader = DeltaLog(str(tmp_path))
        records = reader.poll()
        assert [(r.seq, r.kind, r.name) for r in records] == [
            (0, MERGE, "a"), (1, MERGE, "b"), (2, DELETE, "a")]
        assert records[0].ttl is None
        assert records[1].ttl == 30.0
        assert records[2].frame == b""
        assert reader.poll() == []  # Offsets advanced: nothing new.

    def test_writer_skips_own_file_unless_asked(self, tmp_path):
        counter = SeqCounter()
        w0 = DeltaLog(str(tmp_path), worker_id=0, counter=counter)
        w1 = DeltaLog(str(tmp_path), worker_id=1, counter=counter)
        w0.append(MERGE, "mine", _frame([1]))
        w1.append(MERGE, "theirs", _frame([2]))
        assert [r.name for r in w0.poll()] == ["theirs"]
        fresh = DeltaLog(str(tmp_path), worker_id=0, counter=counter)
        assert [r.name for r in fresh.poll(include_own=True)] == [
            "mine", "theirs"]

    def test_read_only_handle_refuses_append(self, tmp_path):
        reader = DeltaLog(str(tmp_path))
        with pytest.raises(ReproError):
            reader.append(MERGE, "x", _frame())

    def test_truncated_tail_left_for_next_poll(self, tmp_path):
        counter = SeqCounter()
        writer = DeltaLog(str(tmp_path), worker_id=0, counter=counter)
        writer.append(MERGE, "whole", _frame([1]))
        # Simulate a reader racing a writer mid-record: append a second
        # record, then truncate the file inside its body.
        writer.append(MERGE, "torn", _frame([2]))
        path = tmp_path / DeltaLog.filename(0)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 5])
        reader = DeltaLog(str(tmp_path))
        assert [r.name for r in reader.poll()] == ["whole"]
        # The writer finishes the record: only the tail is re-read.
        path.write_bytes(data)
        assert [r.name for r in reader.poll()] == ["torn"]

    def test_peers_polls_fixed_slots_only(self, tmp_path):
        counter = SeqCounter()
        DeltaLog(str(tmp_path), worker_id=0,
                 counter=counter).append(MERGE, "in", _frame([1]))
        DeltaLog(str(tmp_path), worker_id=7,
                 counter=counter).append(MERGE, "out", _frame([2]))
        reader = DeltaLog(str(tmp_path), peers=1)
        assert [r.name for r in reader.poll()] == ["in"]

    def test_replace_barrier_skips_stale_merges(self, tmp_path):
        counter = SeqCounter()
        w0 = DeltaLog(str(tmp_path), worker_id=0, counter=counter)
        w1 = DeltaLog(str(tmp_path), worker_id=1, counter=counter)
        store = SketchStore()
        reader = DeltaLog(str(tmp_path))

        w0.append(MERGE, "x", _frame([1, 2, 3]))
        assert reader.fold_into(store) == (1, 0)
        w1.append(REPLACE, "x", _frame([9]))
        assert reader.fold_into(store) == (1, 0)
        replaced = store.estimate("x")
        # A writer whose counter lags publishes a pre-replace MERGE
        # (lower global seq than the barrier): it must be skipped, not
        # folded into the replacing frame.
        stale = DeltaLog(str(tmp_path), worker_id=2, counter=SeqCounter())
        stale.append(MERGE, "x", _frame([1, 2, 3]))
        assert reader.fold_into(store) == (0, 1)
        assert store.estimate("x") == replaced

    def test_delete_barriers_and_recovery_replay(self, tmp_path):
        counter = SeqCounter()
        w0 = DeltaLog(str(tmp_path), worker_id=0, counter=counter)
        w0.append(MERGE, "gone", _frame([1]))
        w0.append(DELETE, "gone")
        w0.append(MERGE, "kept", _frame([4, 5]))
        w0.append(MERGE, "kept", _frame([5, 6]))

        store = SketchStore()
        DeltaLog(str(tmp_path)).fold_into(store)
        assert store.names() == ["kept"]
        expected = store.estimate("kept")

        # Idempotent merges: replaying the full log from scratch (how a
        # fresh process recovers fleet state) lands on the same store.
        replay = SketchStore()
        DeltaLog(str(tmp_path)).fold_into(replay)
        assert replay.names() == ["kept"]
        assert replay.estimate("kept") == expected
        # And folding again into the *same* store changes nothing.
        again = DeltaLog(str(tmp_path))
        again.fold_into(store)
        assert store.estimate("kept") == expected

    def test_bad_record_counts_not_raises(self, tmp_path):
        counter = SeqCounter()
        writer = DeltaLog(str(tmp_path), worker_id=0, counter=counter)
        writer.append(MERGE, "junk", b"not a frame")
        writer.append(MERGE, "good", _frame([2]))
        store = SketchStore()
        reader = DeltaLog(str(tmp_path))
        assert reader.fold_into(store) == (1, 1)
        assert store.names() == ["good"]


def _delta_router(tmp_path, worker_id, counter):
    log = DeltaLog(str(tmp_path), worker_id=worker_id, counter=counter,
                   peers=2)
    return DeltaRouter(Router(), log)


def _create_body():
    return json.dumps(dict(CREATE_KWARGS, name="hot")).encode()


class TestDeltaRouter:
    def test_effects_published_and_folded_across_workers(self, tmp_path):
        counter = SeqCounter()
        a = _delta_router(tmp_path, 0, counter)
        b = _delta_router(tmp_path, 1, counter)

        assert a.handle("POST", "/v1/sketches", _create_body()).status \
            == 201
        assert a.handle("POST", "/v1/sketches/hot/ingest",
                        json.dumps({"items": [1, 2, 3]}).encode()).status \
            == 200
        # Worker b never saw the writes; its next read folds them.
        response = b.handle("GET", "/v1/sketches/hot/estimate")
        assert response.status == 200
        expected = a.router.store.estimate("hot")
        assert response.json_body()["estimate"] == expected

        # And writes flow the other way: b ingests, a observes.
        b.handle("POST", "/v1/sketches/hot/ingest",
                 json.dumps({"items": [7, 8]}).encode())
        merged = a.handle(
            "GET", "/v1/sketches/hot/estimate").json_body()["estimate"]
        assert merged == b.router.store.estimate("hot")
        assert merged == _sketch([1, 2, 3, 7, 8]).estimate()

    def test_delete_converges(self, tmp_path):
        counter = SeqCounter()
        a = _delta_router(tmp_path, 0, counter)
        b = _delta_router(tmp_path, 1, counter)
        a.handle("POST", "/v1/sketches", _create_body())
        assert b.handle("GET", "/v1/sketches/hot/estimate").status == 200
        assert a.handle("DELETE", "/v1/sketches/hot").status == 200
        assert b.handle("GET", "/v1/sketches/hot/estimate").status == 404

    def test_unchanged_frames_are_not_republished(self, tmp_path):
        counter = SeqCounter()
        a = _delta_router(tmp_path, 0, counter)
        audit = DeltaLog(str(tmp_path))
        a.handle("POST", "/v1/sketches", _create_body())
        a.handle("POST", "/v1/sketches/hot/ingest",
                 json.dumps({"items": [1, 2, 3]}).encode())
        baseline = len(audit.poll())
        # Re-ingesting the same items bumps the entry version but the
        # frame digest is unchanged: publishing it again would make
        # every peer re-fold (and re-publish) identical bytes forever.
        a.handle("POST", "/v1/sketches/hot/ingest",
                 json.dumps({"items": [1, 2, 3]}).encode())
        assert len(audit.poll()) == 0
        # A genuinely new item publishes exactly one more record.
        a.handle("POST", "/v1/sketches/hot/ingest",
                 json.dumps({"items": [99]}).encode())
        assert baseline >= 1
        assert len(audit.poll()) == 1

    def test_reads_publish_nothing(self, tmp_path):
        counter = SeqCounter()
        a = _delta_router(tmp_path, 0, counter)
        audit = DeltaLog(str(tmp_path))
        a.handle("POST", "/v1/sketches", _create_body())
        audit.poll()
        for _ in range(5):
            a.handle("GET", "/v1/sketches/hot/estimate")
            a.handle("GET", "/v1/sketches/hot")
            a.handle("GET", "/healthz")
        assert audit.poll() == []


class TestReadAfterWrite:
    def test_acknowledged_writes_visible_from_any_worker(self):
        frontend = MultiprocFrontend(("127.0.0.1", 0), Router(),
                                     procs=2).start_background()
        try:
            client = ServiceClient(frontend.url)
            client.create("hot", **CREATE_KWARGS)
            seen = set()
            items = []
            for round_index in range(4):
                batch = [random.Random(round_index).getrandbits(BITS)
                         for _ in range(200)]
                items.extend(batch)
                client.ingest("hot", batch)
                # With delta_interval=0 the worker published before it
                # acknowledged: every other worker folds the write on
                # its next request, whatever connection serves it.
                for _ in range(4):
                    seen.add(ServiceClient(frontend.url).estimate("hot"))
                assert seen == {_sketch(items).estimate()}
                seen.clear()
            # The parent's folded view agrees with what was served.
            assert frontend.store.estimate("hot") \
                == _sketch(items).estimate()
        finally:
            frontend.stop()


class TestWorkerCrash:
    """Satellite of ISSUE 10: a SIGKILLed worker must never silently
    drop its reuseport share.  The parent's monitor detects the dead
    child, logs a loud error, and respawns it under the *original*
    worker id -- so its fixed delta-log slot resumes draining and its
    pre-crash acknowledged writes are recovered by the startup replay.
    """

    def _wait(self, predicate, timeout=15.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.05)
        return predicate()

    def test_sigkilled_worker_detected_and_respawned(self, capfd):
        import os
        import signal as _signal

        frontend = MultiprocFrontend(("127.0.0.1", 0), Router(),
                                     procs=2,
                                     delta_interval=0.0)
        frontend.start_background()
        try:
            client = ServiceClient(frontend.url)
            client.create("survivor", **CREATE_KWARGS)
            # Acknowledged pre-crash writes from (potentially) both
            # workers' stores.
            for batch in ([1, 2, 3], [4, 5], [6]):
                ServiceClient(frontend.url).ingest("survivor", batch)
            victim = frontend._children[0]
            os.kill(victim.pid, _signal.SIGKILL)
            assert self._wait(lambda: frontend.worker_respawns == 1), \
                "monitor never respawned the killed worker"
            assert frontend.worker_crashes == 1
            err = capfd.readouterr().err
            assert "died unexpectedly" in err
            assert "respawned" in err
            # The replacement holds the original worker id (fixed
            # delta-log slot) and is alive.
            assert frontend._children[0].is_alive()
            assert frontend._children[0].name == "f0-multiproc-0"
            # Mid-load after the crash: every acknowledged write --
            # including the dead worker's pre-crash deltas -- is still
            # visible through whichever worker answers.
            reference = _sketch([1, 2, 3, 4, 5, 6])
            for _ in range(4):  # Fresh connections spread over workers.
                est = ServiceClient(frontend.url).estimate("survivor")
                assert est == reference.estimate()
            ServiceClient(frontend.url).ingest("survivor", [7, 8])
            reference.process_batch([7, 8])
            assert (ServiceClient(frontend.url).estimate("survivor")
                    == reference.estimate())
        finally:
            frontend.stop()
        assert frontend.worker_crashes == 1  # Shutdown counted no crash.

    def test_respawn_budget_exhaustion_surfaces_dead_share(self, capfd):
        import os
        import signal as _signal

        frontend = MultiprocFrontend(("127.0.0.1", 0), Router(),
                                     procs=2,
                                     delta_interval=0.0)
        frontend.max_respawns = 0  # Force the no-respawn path.
        frontend.start_background()
        try:
            victim = frontend._children[1]
            os.kill(victim.pid, _signal.SIGKILL)
            assert self._wait(lambda: frontend.worker_crashes == 1)
            assert self._wait(lambda: 1 in frontend._dead)
            err = capfd.readouterr().err
            assert "died unexpectedly" in err
            assert "NOT respawned" in err
            assert frontend.worker_respawns == 0
        finally:
            frontend.stop()
