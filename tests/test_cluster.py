"""Multi-node cluster tests: hashing, replication, fail-over.

The acceptance bar (ISSUE 6): estimates are bit-identical across a
direct store, the threading front end, and a
2-node cluster with replica fail-over (one node killed mid-test).
"""

import random

import pytest

from repro.distributed.cluster import (
    ClusterClient,
    ClusterError,
    ClusterRouter,
    HashRing,
)
from repro.service import (
    F0Server,
    Router,
    ServiceClient,
    ServiceError,
)
from repro.store import build_sketch
from repro.store.store import SketchStore
from repro.streaming import SketchParams

SMALL = SketchParams(eps=0.7, delta=0.3,
                     thresh_constant=10.0, repetitions_constant=2.0)

CREATE_KWARGS = dict(eps=SMALL.eps, delta=SMALL.delta,
                     thresh_constant=SMALL.thresh_constant,
                     repetitions_constant=SMALL.repetitions_constant)


def stream(universe_bits, count, seed=0):
    rng = random.Random(seed)
    return [rng.getrandbits(universe_bits) for _ in range(count)]


@pytest.fixture
def two_nodes():
    nodes = [F0Server(("127.0.0.1", 0)).start_background()
             for _ in range(2)]
    yield nodes
    for node in nodes:
        try:
            node.stop()
        except Exception:
            pass  # A fail-over test already stopped it.


@pytest.fixture
def cluster(two_nodes):
    return ClusterClient([n.url for n in two_nodes], replication=2,
                         timeout=5.0)


class TestHashRing:
    def test_deterministic_across_instances_and_order(self):
        r1 = HashRing(["a", "b", "c"])
        r2 = HashRing(["c", "a", "b"])
        for key in ("clicks", "views", "us:east-1.web", "x" * 50):
            assert r1.nodes_for(key, 2) == r2.nodes_for(key, 2)

    def test_replicas_are_distinct(self):
        ring = HashRing(["a", "b", "c", "d"])
        for i in range(50):
            replicas = ring.nodes_for(f"key{i}", 3)
            assert len(replicas) == len(set(replicas)) == 3

    def test_count_capped_at_node_count(self):
        ring = HashRing(["a", "b"])
        assert sorted(ring.nodes_for("k", 10)) == ["a", "b"]

    def test_keys_spread_over_nodes(self):
        ring = HashRing(["a", "b", "c", "d"])
        owners = {ring.nodes_for(f"key{i}")[0] for i in range(200)}
        assert owners == {"a", "b", "c", "d"}

    def test_consistency_under_node_removal(self):
        """Dropping one node only re-routes keys it owned."""
        before = HashRing(["a", "b", "c"])
        after = HashRing(["a", "b"])
        for i in range(100):
            key = f"key{i}"
            if before.nodes_for(key)[0] != "c":
                assert after.nodes_for(key)[0] == before.nodes_for(key)[0]

    def test_invalid_rings_rejected(self):
        from repro.common.errors import ReproError
        with pytest.raises(ReproError):
            HashRing([])
        with pytest.raises(ReproError):
            HashRing(["a", "a"])
        with pytest.raises(ReproError):
            HashRing(["a"], vnodes=0)

    def test_replica_count_below_one_rejected(self):
        """A count of 0 or less is an error, not "every node"."""
        from repro.common.errors import ReproError
        from repro.distributed.cluster import plan_rebalance
        ring = HashRing(["a", "b", "c"])
        for count in (0, -2):
            with pytest.raises(ReproError):
                ring.nodes_for("k", count)
            with pytest.raises(ReproError):
                plan_rebalance(["k"], ["a"], ["a", "b"],
                               replication=count)


class TestClusterClient:
    def test_replicated_writes_keep_replicas_identical(self, two_nodes,
                                                       cluster):
        cluster.create("clicks", kind="minimum", universe_bits=14,
                       seed=7, **CREATE_KWARGS)
        cluster.ingest("clicks", stream(14, 800, seed=1))
        per_node = [ServiceClient(n.url).estimate("clicks")
                    for n in two_nodes]
        assert per_node[0] == per_node[1] == cluster.estimate("clicks")

    def test_push_and_frames_fan_out(self, cluster):
        cluster.create("s", kind="minimum", universe_bits=14, seed=3,
                       **CREATE_KWARGS)
        items = stream(14, 600, seed=2)
        shards = []
        for i in range(3):
            shard = build_sketch("minimum", 14, SMALL, seed=3)
            shard.process_batch(items[i::3])
            shards.append(shard)
        cluster.push("s", shards[0])
        assert cluster.push_frames("s", shards[1:]) == 2
        reference = build_sketch("minimum", 14, SMALL, seed=3)
        reference.process_batch(items)
        assert cluster.estimate("s") == reference.estimate()

    def test_logical_errors_propagate(self, cluster):
        cluster.create("dup", kind="exact")
        with pytest.raises(ServiceError) as exc:
            cluster.create("dup", kind="exact")
        assert exc.value.status == 409
        with pytest.raises(ServiceError) as exc:
            cluster.estimate("missing")
        assert exc.value.status == 404

    def test_delete_everywhere(self, cluster, two_nodes):
        cluster.create("gone", kind="exact")
        cluster.delete("gone")
        for node in two_nodes:
            assert ServiceClient(node.url).sketches() == []

    def test_delete_unknown_name_is_404(self, cluster, two_nodes):
        """A replica lacking the name is skipped; none holding it is a
        404, as on a single node."""
        ServiceClient(two_nodes[0].url).create("half", kind="exact")
        cluster.delete("half")
        with pytest.raises(ServiceError) as exc:
            cluster.delete("half")
        assert exc.value.status == 404

    def test_sketches_union(self, cluster, two_nodes):
        cluster.create("a", kind="exact")
        # A name written directly to one node still shows in the union.
        ServiceClient(two_nodes[0].url).create("solo", kind="exact")
        assert cluster.sketches() == ["a", "solo"]

    def test_all_nodes_dead_raises_cluster_error(self, two_nodes):
        cluster = ClusterClient([n.url for n in two_nodes],
                                replication=2, timeout=2.0)
        cluster.create("s", kind="exact")
        for node in two_nodes:
            node.stop()
        with pytest.raises(ClusterError):
            cluster.estimate("s")
        with pytest.raises(ClusterError):
            cluster.ingest("s", [1])

    def test_coordinator_runs_against_cluster(self, cluster):
        from repro.distributed import SketchStoreCoordinator
        prototype = build_sketch("minimum", 14, SMALL, seed=8)
        coordinator = SketchStoreCoordinator(cluster, "dist", prototype)
        items = stream(14, 600, seed=3)
        for part in (items[i::3] for i in range(3)):
            site = coordinator.replica()
            site.process_batch(part)
            coordinator.submit(site)
        reference = build_sketch("minimum", 14, SMALL, seed=8)
        reference.process_batch(items)
        assert coordinator.estimate() == reference.estimate()


class TestFailOver:
    def test_estimates_bit_identical_everywhere_with_failover(self):
        """The headline acceptance: direct store == threading front end
        == 2-node cluster, before AND after one node dies."""
        universe_bits = 14
        items = stream(universe_bits, 1200, seed=9)

        # Reference: a direct in-process store.
        store = SketchStore()
        store.create("clicks", build_sketch("minimum", universe_bits,
                                            SMALL, seed=13))
        store.ingest("clicks", items)
        reference = store.estimate("clicks")

        # Threading front end.
        threading_srv = F0Server(("127.0.0.1", 0)).start_background()
        # 2-node cluster, every name on both nodes.
        nodes = [F0Server(("127.0.0.1", 0)).start_background()
                 for _ in range(2)]
        cluster = ClusterClient([n.url for n in nodes], replication=2,
                                timeout=5.0)
        try:
            for target in (ServiceClient(threading_srv.url), cluster):
                target.create("clicks", kind="minimum",
                              universe_bits=universe_bits, seed=13,
                              **CREATE_KWARGS)
                target.ingest("clicks", items)
                assert target.estimate("clicks") == reference

            # Kill one node mid-test: reads fail over to the survivor
            # and the estimate stays bit-identical.
            nodes[0].stop()
            assert cluster.estimate("clicks") == reference
            assert cluster.fetch("clicks").estimate() == reference
            info = cluster.info("clicks")
            assert info["estimate"] == reference
            assert info["replication"] == 2
        finally:
            threading_srv.stop()
            for node in nodes[1:]:
                node.stop()

    def test_writes_continue_on_survivor(self, two_nodes, cluster):
        cluster.create("s", kind="exact")
        cluster.ingest("s", [1, 2, 3])
        two_nodes[0].stop()
        cluster.ingest("s", [4])  # Fan-out skips the dead replica.
        assert cluster.estimate("s") == 4.0


class TestClusterRouter:
    def test_gateway_routes_cluster_ops(self, cluster):
        import json
        gw = ClusterRouter(cluster)
        reply = gw.handle("POST", "/v1/sketches", json.dumps(
            {"name": "g", "kind": "exact"}).encode())
        assert reply.status == 201
        assert sorted(reply.json_body()) >= ["created"]
        reply = gw.handle("POST", "/v1/sketches/g/ingest",
                          b'{"items": [1, 2, 2]}')
        assert reply.status == 200
        reply = gw.handle("GET", "/v1/sketches/g/estimate")
        assert reply.json_body()["estimate"] == 2.0
        health = gw.handle("GET", "/healthz").json_body()
        assert health["status"] == "ok"
        assert health["live"] == 2
        assert gw.handle("GET", "/v1/sketches").json_body() == \
            {"sketches": ["g"]}
        assert gw.handle("DELETE", "/v1/sketches/g").status == 200

    def test_gateway_error_mapping(self, cluster):
        gw = ClusterRouter(cluster)
        assert gw.handle("GET", "/v1/sketches/nope").status == 404
        assert gw.handle("GET", "/v2/zzz").status == 404
        assert gw.handle("POST", "/v1/sketches", b"{bad").status == 400
        assert gw.handle("POST", "/v1/snapshot").status == 400
        assert gw.handle("POST", "/v1/restore").status == 400

    def test_gateway_degraded_health_and_503(self, two_nodes, cluster):
        gw = ClusterRouter(cluster)
        gw.handle("POST", "/v1/sketches", b'{"name": "s", "kind": "exact"}')
        for node in two_nodes:
            node.stop()
        health = gw.handle("GET", "/healthz").json_body()
        assert health["status"] == "degraded"
        assert health["live"] == 0
        assert gw.handle("GET", "/v1/sketches/s/estimate").status == 503

    def test_gateway_matches_router(self, cluster):
        """The gateway answers exactly as a single node's Router would:
        same statuses, same bodies (info only by its kind)."""
        import json

        from repro.service.router import join_frames
        from repro.store.serialize import dumps

        shards = []
        for part in range(2):
            shard = build_sketch("minimum", 12, SMALL, seed=5)
            shard.process_batch(stream(12, 200, seed=part))
            shards.append(dumps(shard))
        minimum = dict(name="m", kind="minimum", universe_bits=12,
                       seed=5, **CREATE_KWARGS)
        script = [
            ("POST", "/v1/sketches", {"name": "w", "kind": "exact",
                                      "window": 10, "buckets": 4}),
            ("POST", "/v1/sketches/w/ingest", {"items": [1, 2, 3]}),
            ("GET", "/v1/sketches/w/estimate", None),
            ("POST", "/v1/sketches/w/advance", {"now": 25}),
            ("GET", "/v1/sketches/w/estimate?window=5", None),
            ("GET", "/v1/sketches/w/estimate?window=abc", None),
            ("GET", "/v1/sketches/w", None),
            ("POST", "/v1/sketches", {"name": "e", "eps": None}),
            ("POST", "/v1/sketches", {"name": "u", "windw": 8}),
            ("POST", "/v1/sketches", {"name": "bad name"}),
            ("POST", "/v1/sketches", {"kind": "exact"}),
            ("GET", "/v1/sketches/nope/estimate", None),
            ("POST", "/v1/sketches/nope/ingest", {"items": [1]}),
            ("POST", "/v1/sketches", minimum),
            ("POST", "/v1/sketches/m/frames", join_frames(shards)),
            ("POST", "/v1/sketches/m/frames", b"\x02\x00\x00"),
            ("GET", "/v1/sketches/m/estimate", None),
            ("DELETE", "/v1/sketches/w", None),
            ("DELETE", "/v1/sketches/w", None),
            ("GET", "/v1/sketches/w/estimate", None),
        ]
        router, gateway = Router(), ClusterRouter(cluster)
        for method, path, payload in script:
            body = payload if isinstance(payload, bytes) \
                else json.dumps(payload).encode() if payload else b""
            want = router.handle(method, path, body)
            got = gateway.handle(method, path, body)
            step = f"{method} {path}"
            assert got.status == want.status, step
            if (method, path) == ("GET", "/v1/sketches/w"):
                assert got.json_body()["kind"] == \
                    want.json_body()["kind"], step
            else:
                assert got.json_body() == want.json_body(), step

    def test_gateway_served_by_frontend(self, cluster):
        """Any registered front end can serve the gateway: clients talk
        to ONE url and need no ring logic."""
        gateway = F0Server(("127.0.0.1", 0),
                           router=ClusterRouter(cluster))
        gateway.start_background()
        try:
            client = ServiceClient(gateway.url)
            client.create("viaGw", kind="minimum", universe_bits=14,
                          seed=2, **CREATE_KWARGS)
            items = stream(14, 500, seed=6)
            client.ingest("viaGw", items)
            reference = build_sketch("minimum", 14, SMALL, seed=2)
            reference.process_batch(items)
            assert client.estimate("viaGw") == reference.estimate()
            fetched = client.fetch("viaGw")
            assert fetched.estimate() == reference.estimate()
        finally:
            gateway.stop()


class TestRebalance:
    NAMES = [f"metric-{i}" for i in range(12)]

    def test_plan_lists_only_ownership_changes(self):
        from repro.distributed.cluster import plan_rebalance

        old = ["http://a:1", "http://b:1"]
        new = old + ["http://c:1"]
        moves = plan_rebalance(self.NAMES, old, new, replication=2)
        assert moves == plan_rebalance(self.NAMES, old, new,
                                       replication=2)  # Deterministic.
        assert moves, "adding a node must move some keys"
        assert len(moves) < len(self.NAMES), \
            "consistent hashing must leave most keys in place"
        for move in moves:
            # Only nodes that *gained* the name appear as targets, and
            # every frame comes from a node that held it before.
            assert move.targets
            assert set(move.targets) <= set(new) - set(move.sources) \
                or set(move.targets) <= set(new)
            assert set(move.sources) <= set(old)
            ring_old = HashRing(old)
            ring_new = HashRing(new)
            assert set(move.targets) == (
                set(ring_new.nodes_for(move.name, 2))
                - set(ring_old.nodes_for(move.name, 2)))
        # An unchanged topology plans no movement at all.
        assert plan_rebalance(self.NAMES, old, old, replication=2) == []

    def _populate(self, nodes):
        cluster = ClusterClient([n.url for n in nodes], replication=2,
                                timeout=5.0)
        for index, name in enumerate(self.NAMES):
            cluster.create(name, kind="minimum", universe_bits=10,
                           seed=4, **CREATE_KWARGS)
            cluster.ingest(name, stream(10, 300, seed=index))
        return {name: cluster.estimate(name) for name in self.NAMES}

    def test_grow_two_to_three_moves_only_changed_frames(self, two_nodes):
        from repro.distributed.cluster import plan_rebalance, rebalance

        before = self._populate(two_nodes)
        third = F0Server(("127.0.0.1", 0)).start_background()
        try:
            old = [n.url for n in two_nodes]
            new = old + [third.url]
            plan = plan_rebalance(self.NAMES, old, new, replication=2)
            report = rebalance(old, new, replication=2)

            # The frame-count assertion: exactly one frame per
            # (name, gaining node) pair crossed the wire -- untouched
            # names were never re-streamed.
            assert report["moved_frames"] \
                == sum(len(m.targets) for m in plan)
            assert report["names"] == len(self.NAMES)
            assert report["unchanged"] == len(self.NAMES) - len(plan)
            assert sorted(m["name"] for m in report["moves"]) \
                == sorted(m.name for m in plan)
            third_store = ServiceClient(third.url)
            moved_names = {m.name for m in plan
                           if third.url in m.targets}
            assert set(third_store.sketches()) == moved_names

            # Post-rebalance reads through the new topology are
            # bit-identical to the pre-rebalance estimates.
            grown = ClusterClient(new, replication=2, timeout=5.0)
            for name in self.NAMES:
                assert grown.estimate(name) == before[name], name
        finally:
            third.stop()

    def test_dry_run_moves_nothing(self, two_nodes):
        from repro.distributed.cluster import rebalance

        self._populate(two_nodes)
        third = F0Server(("127.0.0.1", 0)).start_background()
        try:
            old = [n.url for n in two_nodes]
            report = rebalance(old, old + [third.url], replication=2,
                               dry_run=True)
            assert report["dry_run"] is True
            assert report["moved_frames"] > 0  # It *would* move frames.
            assert ServiceClient(third.url).sketches() == []
        finally:
            third.stop()

    def test_prune_deletes_released_replicas(self, two_nodes):
        from repro.distributed.cluster import plan_rebalance, rebalance

        before = self._populate(two_nodes)
        third = F0Server(("127.0.0.1", 0)).start_background()
        try:
            old = [n.url for n in two_nodes]
            new = old + [third.url]
            plan = plan_rebalance(self.NAMES, old, new, replication=2)
            report = rebalance(old, new, replication=2, prune=True)
            released = sum(len(m.releases) for m in plan)
            assert report["pruned"] == released
            for move in plan:
                for node in move.releases:
                    with pytest.raises(ServiceError):
                        ServiceClient(node).estimate(move.name)
            # Pruning must not cost correctness: the surviving replica
            # set still answers bit-identically.
            grown = ClusterClient(new, replication=2, timeout=5.0)
            for name in self.NAMES:
                assert grown.estimate(name) == before[name], name
        finally:
            third.stop()


class TestRebalanceUnderLoad:
    """Satellite of ISSUE 10: online rebalance races live writes.

    Writers keep pushing through the *old* topology while frames are
    streaming to a third node; a final catch-up pass then converges
    the new owners.  Set semantics are what make this safe: merge-on-
    put re-applies any frame or write idempotently, so every replica
    must end bit-identical to a serial reference over all items.
    """

    NAMES = [f"load-{i}" for i in range(8)]

    @pytest.mark.slow
    def test_rebalance_races_concurrent_writes(self, two_nodes):
        import threading

        from repro.distributed.cluster import rebalance
        from repro.store.serialize import dumps

        old_urls = [n.url for n in two_nodes]
        cluster = ClusterClient(old_urls, replication=2, timeout=10.0)
        base = {name: stream(10, 200, seed=index)
                for index, name in enumerate(self.NAMES)}
        extra = {name: stream(10, 150, seed=1000 + index)
                 for index, name in enumerate(self.NAMES)}
        for name in self.NAMES:
            cluster.create(name, kind="minimum", universe_bits=10,
                           seed=4, **CREATE_KWARGS)
            cluster.ingest(name, base[name])

        third = F0Server(("127.0.0.1", 0)).start_background()
        try:
            new_urls = old_urls + [third.url]
            errors = []

            def writer(names):
                try:
                    wclient = ClusterClient(old_urls, replication=2,
                                            timeout=10.0)
                    for name in names:
                        items = extra[name]
                        for start in range(0, len(items), 25):
                            wclient.ingest(name,
                                           items[start:start + 25])
                except Exception as exc:  # Surface in the main thread.
                    errors.append(exc)

            threads = [
                threading.Thread(target=writer,
                                 args=(self.NAMES[index::2],))
                for index in range(2)]
            for thread in threads:
                thread.start()
            # Race: frames stream to the third node while the writers
            # keep mutating their sources through the old topology.
            rebalance(old_urls, new_urls, replication=2)
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            # Catch-up pass: re-copy anything written to an old owner
            # after its frame had already crossed (merge-on-put makes
            # the re-copy idempotent).
            rebalance(old_urls, new_urls, replication=2)

            reference_frames = {}
            for index, name in enumerate(self.NAMES):
                ref = build_sketch("minimum", 10, SMALL, seed=4)
                ref.process_batch(base[name])
                ref.process_batch(extra[name])
                reference_frames[name] = dumps(ref)
            new_cluster = ClusterClient(new_urls, replication=2,
                                        timeout=10.0)
            ring = HashRing(new_urls)
            for name in self.NAMES:
                expected = reference_frames[name]
                # Merged read through the new topology...
                assert (dumps(new_cluster.fetch(name)) == expected), name
                # ...and each replica, bit-for-bit.
                for owner in ring.nodes_for(name, 2):
                    frame = ServiceClient(owner).fetch_frame(name)
                    assert frame == expected, (name, owner)
        finally:
            third.stop()
