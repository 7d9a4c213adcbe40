"""Multi-node sharding for the F0 service: Section 4 as a topology.

The paper's distributed protocols (Section 4) work because the sketches
are *mergeable*: the combine of any partition of a stream equals the
sketch of the whole stream.  This module turns that algebra into a
serving topology over several independent F0 service nodes:

* :class:`HashRing` -- deterministic consistent hashing (``hashlib``
  based, so every client in every process agrees) with virtual nodes,
  mapping each sketch name to an ordered replica set;
* :class:`ClusterClient` -- a drop-in ``ServiceClient``-shaped client
  that writes every mutation to all ``replication`` replicas of a name
  and answers reads by *merge-on-read*: fetch each live replica's
  sketch, merge, estimate.  A dead node is simply skipped -- set
  semantics mean the merged view over any non-empty subset of in-sync
  replicas is exact, so reads survive node failure with no repair
  protocol;
* :class:`ClusterRouter` -- the same ``handle(method, path, body)``
  contract as :class:`repro.service.router.Router`, and a single-URL
  gateway under any registered front end.  It reads only the sketch
  name off a request: writes are forwarded unchanged to the name's
  replicas, reads run a :class:`~repro.service.router.Router` over the
  merged replicas, so requests are validated by ``Router`` alone.

Writes are applied to every replica synchronously and in the same
order per client, so replicas of a name hold bit-identical sketches
while all nodes are up; after a node dies, the survivors still hold
the full union (every write reached them too), which is why fail-over
reads return *bit-identical* estimates, not approximations of them.
"""

from __future__ import annotations

import bisect
import hashlib
import urllib.parse
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ReproError
from repro.service.client import ServiceClient, ServiceError
from repro.service.router import Response, RouteError, Router
from repro.store.serialize import StoreFormatError, dumps
from repro.store.store import SketchStore
from repro.streaming.base import F0Sketch

#: Virtual nodes per physical node -- enough that a 2..8-node ring
#: spreads names within a few percent of even.
DEFAULT_VNODES = 64

#: Replicas each sketch name is written to (capped at the node count).
DEFAULT_REPLICATION = 2


class ClusterError(ReproError):
    """No live replica could serve the operation."""


def _ring_hash(data: str) -> int:
    """A 64-bit deterministic position on the ring.

    ``hashlib`` rather than :func:`hash`: Python randomises string
    hashes per process, and the whole point of consistent hashing is
    that *every* client, in every process, on every run, routes a name
    to the same replica set.
    """
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    Args:
        nodes: the physical node identifiers (base URLs, host:port
            strings -- anything hashable as text).  Order does not
            matter; the ring layout depends only on the names.
        vnodes: virtual nodes per physical node.  More vnodes = more
            even key spread at the cost of a larger (still tiny) ring.

    Raises:
        ReproError: no nodes, duplicate nodes, or vnodes < 1.
    """

    def __init__(self, nodes: Sequence[str],
                 vnodes: int = DEFAULT_VNODES) -> None:
        if not nodes:
            raise ReproError("a hash ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ReproError("duplicate node in hash ring")
        if vnodes < 1:
            raise ReproError("vnodes must be >= 1")
        self.nodes = list(nodes)
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for node in self.nodes:
            for i in range(vnodes):
                points.append((_ring_hash(f"{node}#{i}"), node))
        points.sort()
        self._points = [h for h, _ in points]
        self._owners = [n for _, n in points]

    def nodes_for(self, key: str, count: int = 1) -> List[str]:
        """The first ``count`` *distinct* nodes clockwise from ``key``.

        The returned order is the replica preference order: stable for
        a fixed ring, and mostly stable under node addition/removal
        (only keys adjacent to the moved vnodes re-route -- the
        consistent-hashing property).

        Args:
            key: the sketch name being placed.
            count: how many distinct replicas to collect; capped at the
                node count.

        Raises:
            ReproError: ``count`` < 1.
        """
        if count < 1:
            raise ReproError("replica count must be >= 1")
        count = min(count, len(self.nodes))
        start = bisect.bisect_right(self._points, _ring_hash(key))
        chosen: List[str] = []
        for i in range(len(self._owners)):
            node = self._owners[(start + i) % len(self._owners)]
            if node not in chosen:
                chosen.append(node)
                if len(chosen) == count:
                    break
        return chosen


class ClusterClient:
    """``ServiceClient``-shaped access to a replicated multi-node cluster.

    Every sketch name consistent-hashes to ``replication`` nodes.
    Mutations (create / upload / ingest / push / frames / delete) are
    applied to each replica in preference order; an *unreachable*
    replica is skipped (it will simply miss those writes), while a
    replica that answers with a logical error (409 duplicate, 400
    incompatible merge) propagates it -- in-sync replicas all answer
    alike, so the first logical verdict is the cluster's verdict.
    Reads merge every live replica's sketch, so they stay exact as
    long as *any* replica that saw every write is alive.

    Args:
        nodes: base URLs of the member F0 services.
        replication: replicas per sketch name (capped at node count).
        vnodes: virtual nodes per physical node for the ring.
        timeout: per-request socket timeout, passed to each node
            client.  Keep it small relative to your fail-over budget --
            a dead-but-routable node costs one timeout per operation.
        client_factory: ``factory(url, timeout) -> ServiceClient``-like;
            injectable for tests.

    Raises:
        ReproError: empty node list or replication < 1.
    """

    def __init__(self, nodes: Sequence[str],
                 replication: int = DEFAULT_REPLICATION,
                 vnodes: int = DEFAULT_VNODES,
                 timeout: float = 30.0,
                 client_factory: Optional[
                     Callable[..., ServiceClient]] = None) -> None:
        if replication < 1:
            raise ReproError("replication must be >= 1")
        self.ring = HashRing(nodes, vnodes=vnodes)
        self.replication = min(replication, len(self.ring.nodes))
        self._factory = client_factory or ServiceClient
        self._timeout = timeout
        self._clients: Dict[str, ServiceClient] = {}

    # -- plumbing ----------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """The member node URLs (ring order is derived, not this list)."""
        return list(self.ring.nodes)

    def _client(self, url: str) -> ServiceClient:
        client = self._clients.get(url)
        if client is None:
            client = self._factory(url, timeout=self._timeout)
            self._clients[url] = client
        return client

    def replicas_for(self, name: str) -> List[str]:
        """The node URLs holding ``name``, in preference order."""
        return self.ring.nodes_for(name, self.replication)

    def _on_replicas(self, name: str, op: Callable[[ServiceClient], object],
                     missing_ok: bool = False) -> List[Tuple[str, object]]:
        """Apply one operation to every replica of ``name``.

        Unreachable replicas (connection refused / timeout; status 0)
        are skipped.  With ``missing_ok`` so are replicas answering 404
        -- one that was down during create and came back empty, while
        the others still hold the full union.  Other errors re-raise
        immediately.  Returns the ``(url, result)`` pairs that
        succeeded.

        Raises:
            ClusterError: every replica was unreachable.
            ServiceError: a reachable replica rejected the operation
                (with ``missing_ok``, 404 once every live replica did).
        """
        done: List[Tuple[str, object]] = []
        down: Optional[ServiceError] = None
        missing: Optional[ServiceError] = None
        for url in self.replicas_for(name):
            try:
                done.append((url, op(self._client(url))))
            except ServiceError as exc:
                if exc.status == 0:
                    down = exc
                elif exc.status == 404 and missing_ok:
                    missing = exc
                else:
                    raise
        if done:
            return done
        if missing is not None:
            raise missing
        raise ClusterError(
            f"no live replica for {name!r} among "
            f"{self.replicas_for(name)}") from down

    # -- mutations (fan out to all replicas) -------------------------------

    def create(self, name: str, **kwargs) -> dict:
        """Create ``name`` on every replica (same params + seed, so the
        replicas start bit-identical).  Keyword arguments mirror
        :meth:`repro.service.client.ServiceClient.create`."""
        done = self._on_replicas(name,
                                 lambda c: c.create(name, **kwargs))
        reply = dict(done[0][1])
        reply["replicas"] = [url for url, _ in done]
        return reply

    def upload(self, name: str, sketch: F0Sketch) -> None:
        """Create-or-replace ``name`` on every replica with one sketch."""
        self._on_replicas(name, lambda c: c.upload(name, sketch))

    def ingest(self, name: str, items: Iterable[int]) -> int:
        """Ingest the items into every replica (returns items sent).

        The iterable is materialised once so each replica sees the
        identical stream -- set semantics make the repetition free.
        """
        batch = [int(x) for x in items]
        self._on_replicas(name, lambda c: c.ingest(name, batch))
        return len(batch)

    def push(self, name: str, sketch: F0Sketch) -> None:
        """Merge-on-put one shard sketch into every replica."""
        self._on_replicas(name, lambda c: c.push(name, sketch))

    def push_frames(self, name: str, sketches: Iterable[F0Sketch]) -> int:
        """Batched merge-on-put of many shard sketches to every replica."""
        batch = list(sketches)
        done = self._on_replicas(name,
                                 lambda c: c.push_frames(name, batch))
        return int(done[0][1])

    def delete(self, name: str) -> None:
        """Drop ``name`` from every replica (a 404 replica is fine).

        Raises:
            ServiceError: 404 if every live replica lacks the name.
        """
        self._on_replicas(name, lambda c: c.delete(name), missing_ok=True)

    # -- reads (merge-on-read over live replicas) --------------------------

    def fetch(self, name: str) -> F0Sketch:
        """The merged sketch over every live replica of ``name``.

        Raises:
            ServiceError: 404 if every live replica lacks the name.
            ClusterError: no replica reachable at all.
        """
        done = self._on_replicas(name, lambda c: c.fetch(name),
                                 missing_ok=True)
        merged = done[0][1]
        for _, part in done[1:]:
            merged.merge(part)
        return merged

    def estimate(self, name: str) -> float:
        """The F0 estimate over the merged live replicas of ``name``."""
        return self.fetch(name).estimate()

    def info(self, name: str) -> Dict[str, object]:
        """Merged metadata plus the replica map and how many answered."""
        replicas = self.replicas_for(name)
        merged = self.fetch(name)
        frame = dumps(merged)
        return {
            "name": name,
            "kind": type(merged).__name__,
            "estimate": merged.estimate(),
            "space_bits": merged.space_bits(),
            "serialized_bytes": len(frame),
            "replicas": replicas,
            "replication": self.replication,
        }

    def sketches(self) -> List[str]:
        """The union of sketch names across every reachable node."""
        names = set()
        reachable = 0
        for url in self.ring.nodes:
            try:
                names.update(self._client(url).sketches())
            except ServiceError as exc:
                if exc.status != 0:
                    raise
                continue
            reachable += 1
        if not reachable:
            raise ClusterError("no cluster node reachable")
        return sorted(names)

    def health(self) -> Dict[str, object]:
        """Per-node liveness: ``ok`` when all answer, else ``degraded``."""
        nodes = []
        live = 0
        for url in self.ring.nodes:
            try:
                reply = self._client(url).health()
            except ServiceError:
                nodes.append({"node": url, "status": "down"})
                continue
            live += 1
            nodes.append({"node": url, "status": "ok",
                          "sketches": reply.get("sketches")})
        return {
            "status": "ok" if live == len(nodes) else "degraded",
            "live": live,
            "nodes": nodes,
        }


# --------------------------------------------------------------------------
# Rebalance: move only the frames whose ring ownership changed


class RebalanceMove(NamedTuple):
    """One name's planned frame movement under a ring change."""

    #: Sketch name being moved.
    name: str
    #: Old replica set, preference order (frame sources).
    sources: List[str]
    #: Nodes gaining ownership, new preference order (frame targets).
    targets: List[str]
    #: Nodes losing ownership (prune candidates once targets hold it).
    releases: List[str]


def plan_rebalance(names: Iterable[str], old_nodes: Sequence[str],
                   new_nodes: Sequence[str],
                   replication: int = DEFAULT_REPLICATION,
                   vnodes: int = DEFAULT_VNODES) -> List[RebalanceMove]:
    """Diff two ring layouts; list only the names whose ownership moved.

    Pure ring arithmetic, no network: for each name the old and new
    replica sets are computed and a :class:`RebalanceMove` is emitted
    only when some node *gained* the name.  Consistent hashing keeps
    this list small -- adding one node to an N-node ring moves ~1/(N+1)
    of the keys, and :func:`rebalance` streams exactly one frame per
    (name, gaining node) pair, nothing else.

    Args:
        names: sketch names currently in the cluster.
        old_nodes: node URLs before the topology change.
        new_nodes: node URLs after it.
        replication: replicas per name (capped at each ring's size).
        vnodes: virtual nodes per physical node (must match the
            clients' setting or the diff is meaningless).

    Raises:
        ReproError: ``replication`` < 1, or an invalid ring.
    """
    if replication < 1:
        raise ReproError("replication must be >= 1")
    old_ring = HashRing(old_nodes, vnodes=vnodes)
    new_ring = HashRing(new_nodes, vnodes=vnodes)
    moves: List[RebalanceMove] = []
    for name in sorted(set(names)):
        old_set = old_ring.nodes_for(name, replication)
        new_set = new_ring.nodes_for(name, replication)
        gained = [n for n in new_set if n not in old_set]
        if not gained:
            continue
        released = [n for n in old_set if n not in new_set]
        moves.append(RebalanceMove(name, old_set, gained, released))
    return moves


def rebalance(old_nodes: Sequence[str], new_nodes: Sequence[str],
              replication: int = DEFAULT_REPLICATION,
              vnodes: int = DEFAULT_VNODES, timeout: float = 30.0,
              client_factory: Optional[Callable[..., ServiceClient]] = None,
              prune: bool = False,
              dry_run: bool = False) -> Dict[str, object]:
    """Stream frames to their new owners after a node-set change.

    For every name some node gained, the frame is fetched (raw, never
    decoded) from the first live old replica and merge-pushed to each
    gaining node -- falling back to a create-style upload when the
    target has never seen the name (404).  Merge-on-put makes the whole
    operation idempotent: re-running a rebalance, or racing it with
    live shard uploads, cannot lose or double-count items.

    Args:
        old_nodes: node URLs before the topology change.
        new_nodes: node URLs after it.
        replication: replicas per name (must match the clients').
        vnodes: ring vnodes (must match the clients').
        timeout: per-request socket timeout.
        client_factory: injectable ``factory(url, timeout)`` for tests.
        prune: after a name's every target holds it, delete it from
            nodes that lost ownership (default keeps them -- set
            semantics make stale extra replicas harmless, just unread).
        dry_run: plan and report without touching any node.

    Returns:
        A summary dict: ``names`` examined, ``moved_frames`` streamed
        (== the number of (name, gaining-node) pairs), ``pruned``
        deletions, ``unchanged`` names that kept their replica set,
        and the per-name ``moves``.

    Raises:
        ReproError: ``replication`` < 1, or an invalid ring.
        ClusterError: no old node answers the name listing, or a
            name's every source replica is unreachable.
        ServiceError: a reachable node rejected a transfer.
    """
    cluster = ClusterClient(old_nodes, replication, vnodes, timeout,
                            client_factory)
    names = cluster.sketches()
    moves = plan_rebalance(names, old_nodes, new_nodes,
                           replication=replication, vnodes=vnodes)
    moved = pruned = 0
    for move in moves:
        if dry_run:
            moved += len(move.targets)
            continue
        frame: Optional[bytes] = None
        down: Optional[ServiceError] = None
        for source in move.sources:
            try:
                frame = cluster._client(source).fetch_frame(move.name)
                break
            except ServiceError as exc:
                if exc.status != 0:
                    raise
                down = exc
        if frame is None:
            raise ClusterError(
                f"no live source for {move.name!r} among "
                f"{move.sources}") from down
        for target in move.targets:
            client = cluster._client(target)
            try:
                client.push_frame(move.name, frame)
            except ServiceError as exc:
                if exc.status != 404:
                    raise
                client.upload_frame(move.name, frame)
            moved += 1
        if prune:
            for loser in move.releases:
                try:
                    cluster._client(loser).delete(move.name)
                except ServiceError as exc:
                    if exc.status not in (0, 404):
                        raise
                    continue
                pruned += 1
    return {
        "names": len(names),
        "unchanged": len(names) - len(moves),
        "moved_frames": moved,
        "pruned": pruned,
        "dry_run": dry_run,
        "moves": [{"name": m.name, "targets": m.targets,
                   "releases": m.releases} for m in moves],
    }


class ClusterRouter:
    """The cluster as one routable endpoint (gateway mode).

    Implements the same ``handle(method, path, body) -> Response``
    contract as :class:`repro.service.router.Router`, so any registered
    front end can serve it: ``repro serve --cluster url1,url2`` starts
    a single-URL gateway, and clients need no ring logic at all.

    The gateway parses nothing but the sketch name it routes on (the
    path segment, or a create body's ``name``).  Writes are forwarded
    byte for byte to every replica, whose own :class:`Router`
    validates and applies them -- a write the first replica rejects
    goes no further, since in-sync replicas answer alike.  Reads run a
    plain :class:`Router` over a one-entry store holding the merge of
    the live replicas.  Statuses and error messages are thus a node's.

    Snapshot/restore are deliberately not proxied: they are per-node
    operations (each node owns its snapshot file), answered with 400.

    Args:
        cluster: the :class:`ClusterClient` to route onto.
        verbose: accepted for front-end-contract parity.
    """

    def __init__(self, cluster: ClusterClient,
                 verbose: bool = False) -> None:
        self.cluster = cluster
        self.verbose = verbose
        #: Gateways hold no local store (front ends read this back).
        self.store = None

    def handle(self, method: str, path: str,
               body: bytes = b"") -> Response:
        """Route one request; never raises for routine service errors."""
        try:
            return self._dispatch(method.upper(), path, body)
        except RouteError as err:
            return Response.error(err.status, str(err))
        except ClusterError as exc:
            return Response.error(503, str(exc))
        except ServiceError as exc:
            return Response.error(exc.status or 503, exc.message)
        except (StoreFormatError, ReproError, ValueError) as exc:
            # A replica answering with an undecodable frame, or two
            # replicas whose sketches refuse to merge.
            return Response.error(400, str(exc))
        except Exception as exc:  # Anything else is a gateway bug.
            return Response.error(500, f"{type(exc).__name__}: {exc}")

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, method: str, path: str, body: bytes) -> Response:
        parts = [p for p in path.partition("?")[0].split("/") if p]
        if parts == ["healthz"] and method == "GET":
            health = self.cluster.health()
            health["sketches"] = len(self.cluster.sketches()) \
                if health["live"] else 0
            return Response.json(200, health)
        if parts == ["v1", "sketches"] and method == "GET":
            return Response.json(200, {"sketches": self.cluster.sketches()})
        if parts in (["v1", "snapshot"], ["v1", "restore"]) \
                and method == "POST":
            raise RouteError(
                400, f"{parts[1]} is a per-node operation; call it on "
                     "each node service directly")
        if parts == ["v1", "sketches"] and method == "POST":
            name = Router._json_body(body).get("name")
            if not isinstance(name, str):
                # Nothing to place on the ring: the Router's own 400.
                return Router().handle(method, path, body)
            return self._forward(method, path, name, body, status=201)
        if len(parts) in (3, 4) and parts[:2] == ["v1", "sketches"]:
            name = urllib.parse.unquote(parts[2])
            if method == "GET":
                return self._read(path, name, info=len(parts) == 3)
            return self._forward(method, path, name, body, status=200)
        return Router().handle(method, path, body)

    def _read(self, path: str, name: str, info: bool) -> Response:
        """Answer a read with a :class:`Router` over the merged replicas."""
        store = SketchStore()
        store.put(name, self.cluster.fetch(name))
        response = Router(store).handle("GET", path)
        if info and response.status == 200:
            reply = response.json_body()
            reply["replicas"] = self.cluster.replicas_for(name)
            reply["replication"] = self.cluster.replication
            response = Response.json(200, reply)
        return response

    def _forward(self, method: str, path: str, name: str, body: bytes,
                 status: int) -> Response:
        """Send a write unchanged to every replica of ``name`` and relay
        the first answer; a DELETE skips replicas lacking the name."""
        done = self.cluster._on_replicas(
            name, lambda c: c.request(method, path, body),
            missing_ok=method == "DELETE")
        return Response(status, done[0][1])


__all__ = [
    "DEFAULT_REPLICATION",
    "DEFAULT_VNODES",
    "ClusterClient",
    "ClusterError",
    "ClusterRouter",
    "HashRing",
    "RebalanceMove",
    "plan_rebalance",
    "rebalance",
]
