"""A thin stdlib client for the F0 sketch service.

:class:`ServiceClient` wraps the server's HTTP wire protocol (see
:mod:`repro.service.server`) behind typed methods.  Sketch payloads
travel in the versioned binary format of :mod:`repro.store.serialize`,
so a fetched sketch is a real, live object (ingest more items into it,
merge it, re-upload it) and an uploaded one round-trips bit-exactly.

The shard-upload idiom (what ``repro push`` and the parallel workers
use)::

    client.create("clicks", kind="minimum", universe_bits=32, seed=7)
    replica = client.replica("clicks")   # same hash seeds as the server
    replica.process_batch(local_items)   # ingest locally, off-server
    client.push("clicks", replica)       # one merge-on-put upload

Set semantics make the flow robust: a replica fetched *after* the
server absorbed other uploads re-merges those contents harmlessly, and
retrying a push after a lost response cannot double-count.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from typing import Dict, Iterable, List, Optional

from repro.common.errors import ReproError
from repro.store.serialize import dumps, loads
from repro.streaming.base import DEFAULT_CHUNK_SIZE, F0Sketch, chunked


class ServiceError(ReproError):
    """An HTTP request the service answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        #: The HTTP status code the service responded with.
        self.status = status
        #: The service's own error text, without the ``HTTP n:`` prefix.
        self.message = message


class ServiceClient:
    """Typed access to one F0 service instance.

    Args:
        base_url: e.g. ``"http://127.0.0.1:8080"`` (no trailing slash
            needed).
        timeout: per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    @staticmethod
    def _seg(name: str) -> str:
        """A sketch name as one URL path segment (fully quoted)."""
        return urllib.parse.quote(name, safe="")

    # -- transport ---------------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[bytes] = None,
                content_type: str = "application/json") -> bytes:
        """Send one raw request; returns the response body.

        Raises:
            ServiceError: the service answered with an error status
                (its ``{"error": ...}`` text as the message), or status
                0 when the node could not be reached at all.
        """
        req = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers={"Content-Type": content_type} if body else {})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            detail = exc.read()
            try:
                message = json.loads(detail).get("error", "")
            except ValueError:
                message = detail.decode("utf-8", "replace")
            raise ServiceError(exc.code, message or exc.reason) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: "
                                  f"{exc.reason}") from exc

    def _json(self, method: str, path: str,
              payload: Optional[dict] = None) -> dict:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        return json.loads(self.request(method, path, body))

    # -- endpoints ---------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """``GET /healthz`` -- liveness plus the live sketch count."""
        return self._json("GET", "/healthz")

    def sketches(self) -> List[str]:
        """Names of all live sketches."""
        return list(self._json("GET", "/v1/sketches")["sketches"])

    def create(self, name: str, kind: str = "minimum",
               universe_bits: int = 0, eps: float = 0.8,
               delta: float = 0.2, thresh_constant: float = 96.0,
               repetitions_constant: float = 35.0, seed: int = 0,
               ttl: Optional[float] = None,
               window: Optional[float] = None,
               buckets: Optional[int] = None) -> dict:
        """Create a named server-side sketch.

        The arguments mirror :func:`repro.store.factory.build_sketch`;
        repeating them locally with the same ``seed`` builds a replica
        whose hash seeds match the server's, so its uploads merge
        bit-exactly.  ``window`` (plus optional ``buckets``) makes the
        sketch a sliding-window ring -- pair with :meth:`advance` and
        ``estimate(..., window=span)``.

        Raises:
            ServiceError: 409 if the name already exists, 400 for
                invalid parameters.
        """
        payload = {"name": name, "kind": kind,
                   "universe_bits": universe_bits, "eps": eps,
                   "delta": delta, "thresh_constant": thresh_constant,
                   "repetitions_constant": repetitions_constant,
                   "seed": seed}
        if ttl is not None:
            payload["ttl"] = ttl
        if window is not None:
            payload["window"] = window
        if buckets is not None:
            payload["buckets"] = buckets
        return self._json("POST", "/v1/sketches", payload)

    def info(self, name: str) -> Dict[str, object]:
        """Metadata: kind, estimate, space/serialized footprints, ttl."""
        return self._json("GET", f"/v1/sketches/{self._seg(name)}")

    def estimate(self, name: str,
                 window: Optional[float] = None) -> float:
        """The named sketch's current F0 estimate.

        Args:
            name: the served sketch.
            window: for windowed sketches, estimate the trailing
                ``window`` time units instead of the full configured
                window (``GET .../estimate?window=S``).

        Raises:
            ServiceError: 404 for an unknown name; 400 when ``window``
                is passed for a sketch that is not windowed.
        """
        path = f"/v1/sketches/{self._seg(name)}/estimate"
        if window is not None:
            path += "?" + urllib.parse.urlencode({"window": window})
        return float(self._json("GET", path)["estimate"])

    def advance(self, name: str, now: float) -> int:
        """Rotate a windowed sketch's ring to logical time ``now``.

        Returns the number of ring buckets rotated (0 when ``now``
        stays inside the current epoch or lags behind it).

        Raises:
            ServiceError: 404 for an unknown name, 400 for a sketch
                that is not windowed.
        """
        path = f"/v1/sketches/{self._seg(name)}/advance"
        return int(self._json("POST", path, {"now": now})["rotated"])

    def delete(self, name: str) -> None:
        """Drop the named sketch."""
        self._json("DELETE", f"/v1/sketches/{self._seg(name)}")

    def fetch(self, name: str) -> F0Sketch:
        """Download the sketch as a live object (decoded wire frame)."""
        return loads(self.fetch_frame(name))

    def fetch_frame(self, name: str) -> bytes:
        """Download the sketch's raw wire frame, undecoded.

        The frame-streaming primitive: rebalance moves entries between
        nodes without ever materialising the sketch objects, so a
        gateway can shuttle frames it could not even decode.
        """
        path = f"/v1/sketches/{self._seg(name)}/blob"
        return self.request("GET", path)

    def push_frame(self, name: str, frame: bytes) -> None:
        """Merge-on-put upload of an already-serialized wire frame.

        Raises:
            ServiceError: 404 for an unknown name, 400 for a malformed
                or incompatible frame.
        """
        self.request("POST", f"/v1/sketches/{self._seg(name)}/merge",
                     frame, content_type="application/octet-stream")

    def upload_frame(self, name: str, frame: bytes) -> None:
        """Create-or-replace the named entry from a raw wire frame."""
        self.request("PUT", f"/v1/sketches/{self._seg(name)}", frame,
                     content_type="application/octet-stream")

    def replica(self, name: str) -> F0Sketch:
        """A local replica suitable for shard ingestion.

        Currently implemented as :meth:`fetch` -- the replica carries
        the server's hash seeds *and* its current contents, which set
        semantics make harmless to re-merge on :meth:`push`.
        """
        return self.fetch(name)

    def ingest(self, name: str, items: Iterable[int],
               chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
        """Server-side ingestion: POST the items in JSON chunks.

        Fine for small or ad-hoc streams; heavy producers should ingest
        into a local replica and :meth:`push` one merge instead.
        Returns the number of items sent.
        """
        total = 0
        path = f"/v1/sketches/{self._seg(name)}/ingest"
        for chunk in chunked(items, chunk_size):
            body = {"items": [int(x) for x in chunk]}
            reply = self._json("POST", path, body)
            total += int(reply["ingested"])
        return total

    def upload(self, name: str, sketch: F0Sketch) -> None:
        """Create-or-replace the named entry with a client-built sketch.

        This is how a coordinator registers a prototype whose hash
        seeds it drew itself (contrast :meth:`create`, which has the
        *server* build the sketch from named parameters).
        """
        self.upload_frame(name, dumps(sketch))

    def push(self, name: str, sketch: F0Sketch) -> None:
        """Upload a sketch for merge-on-put into the named entry.

        Raises:
            ServiceError: 404 for an unknown name, 400 if the sketch's
                seeds or shape are incompatible with the stored one.
        """
        self.push_frame(name, dumps(sketch))

    def push_frames(self, name: str, sketches: Iterable[F0Sketch]) -> int:
        """Batched merge-on-put: many shard uploads in one request.

        Each sketch is encoded as a length-prefixed wire frame and the
        whole batch travels as a single ``POST .../frames`` body -- one
        HTTP round trip however many shards report in.  Returns the
        number of frames the server merged.

        Raises:
            ServiceError: 404 for an unknown name, 400 if any frame is
                malformed or incompatible with the stored sketch.
        """
        from repro.service.router import join_frames
        body = join_frames([dumps(sk) for sk in sketches])
        reply = json.loads(self.request(
            "POST", f"/v1/sketches/{self._seg(name)}/frames", body,
            content_type="application/octet-stream"))
        return int(reply["frames"])

    def snapshot(self, path: Optional[str] = None) -> Dict[str, object]:
        """Ask the server to snapshot its store (to ``path`` or its
        configured default)."""
        payload = {"path": path} if path else {}
        return self._json("POST", "/v1/snapshot", payload)

    def restore(self, path: Optional[str] = None) -> Dict[str, object]:
        """Ask the server to restore its store from a snapshot file."""
        payload = {"path": path} if path else {}
        return self._json("POST", "/v1/restore", payload)
