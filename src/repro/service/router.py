"""The transport-independent request router for the F0 service.

:class:`Router` is the whole service API as a pure function: a
``(method, path, body)`` triple in, a :class:`Response` out.  It owns no
sockets, threads or event loops -- those live in the pluggable front
ends of :mod:`repro.service.frontends` -- which is what makes every
endpoint unit-testable without binding a port, and what lets the same
routing table serve the threading front end, the multiproc workers, and
a multi-node gateway: :class:`repro.distributed.cluster.ClusterRouter`
forwards writes to each replica's own ``Router`` and answers reads with
a ``Router`` over the merged replicas, so this module is the only code
that parses and validates service requests.

Wire protocol (all JSON unless noted)::

    GET    /healthz                       liveness + sketch count +
                                          view_metrics (warm-read
                                          instrumentation)
    GET    /v1/sketches                   list live sketch names
    POST   /v1/sketches                   create  {name, kind,
                                          universe_bits, eps?, delta?,
                                          thresh_constant?,
                                          repetitions_constant?, seed?,
                                          ttl?, window?, buckets?};
                                          any other key -> 400
    GET    /v1/sketches/N                 metadata (kind, estimate,
                                          footprints, ttl)
    PUT    /v1/sketches/N                 body = serialized sketch frame
                                          (create-or-replace upload)
    DELETE /v1/sketches/N                 drop the sketch
    GET    /v1/sketches/N/blob            serialized frame
                                          (application/octet-stream)
    GET    /v1/sketches/N/estimate        {name, estimate}; windowed
                                          sketches accept ?window=S for
                                          the trailing-span estimate
    POST   /v1/sketches/N/advance         {now: float} -> rotate a
                                          windowed sketch's ring to
                                          logical time ``now``
    POST   /v1/sketches/N/ingest          {items: [int, ...]} ->
                                          {ingested}
    POST   /v1/sketches/N/merge           body = serialized sketch frame
                                          (merge-on-put shard upload)
    POST   /v1/sketches/N/frames          body = length-prefixed batch
                                          of frames (u32 LE size before
                                          each), merged in one request
    POST   /v1/snapshot                   {path?} -> atomic snapshot
    POST   /v1/restore                    {path?} -> restore registry

Library errors map to statuses instead of tracebacks: unknown name ->
404, duplicate create -> 409, merge-on-put conflict -> 409, malformed
frames or parameters -> 400; anything else is a 500 with the
exception's message.
"""

from __future__ import annotations

import json
import math
import re
import struct
import urllib.parse
from typing import List, Optional

from repro.common.errors import ReproError
from repro.store.factory import build_sketch
from repro.store.serialize import StoreFormatError, loads_sketch
from repro.store.store import (
    SketchConflictError,
    SketchExistsError,
    SketchNotFoundError,
    SketchStore,
)
from repro.streaming.base import SketchParams, item_error

#: Sketch names must be addressable as one URL path segment, so creates
#: reject anything that could not be routed back to the entry.
SAFE_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:-]{0,127}$")

#: The keys a create body may carry; any other key is refused, so a
#: misspelled option never silently builds a different sketch.
CREATE_KEYS = ("name", "kind", "universe_bits", "eps", "delta",
               "thresh_constant", "repetitions_constant", "seed", "ttl",
               "window", "buckets")

JSON_TYPE = "application/json"
BLOB_TYPE = "application/octet-stream"


class Response:
    """One routed response: status, payload bytes, content type."""

    __slots__ = ("status", "payload", "content_type")

    def __init__(self, status: int, payload: bytes,
                 content_type: str = JSON_TYPE) -> None:
        self.status = status
        self.payload = payload
        self.content_type = content_type

    @classmethod
    def json(cls, status: int, obj: dict) -> "Response":
        """A JSON-encoded response."""
        return cls(status, json.dumps(obj).encode("utf-8"), JSON_TYPE)

    @classmethod
    def blob(cls, payload: bytes) -> "Response":
        """A 200 octet-stream response."""
        return cls(200, payload, BLOB_TYPE)

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        """An ``{"error": ...}`` JSON response."""
        return cls.json(status, {"error": message})

    def json_body(self) -> dict:
        """Decode the payload as JSON (test/convenience accessor)."""
        return json.loads(self.payload)


class RouteError(Exception):
    """Internal: abort the current request with a status + message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def split_frames(body: bytes) -> List[bytes]:
    """Split a batched-frame body into its individual wire frames.

    The batch encoding is the snapshot file's inner layout: each frame
    is preceded by a little-endian u32 byte length, frames abut with no
    padding, and the body must end exactly on a frame boundary.

    Raises:
        StoreFormatError: truncated length prefix, a frame running past
            the end of the body, or an empty batch.
    """
    frames: List[bytes] = []
    pos = 0
    total = len(body)
    while pos < total:
        if pos + 4 > total:
            raise StoreFormatError("truncated frame length prefix")
        (length,) = struct.unpack_from("<I", body, pos)
        pos += 4
        if pos + length > total:
            raise StoreFormatError(
                f"frame of {length} bytes overruns the batch body")
        frames.append(body[pos:pos + length])
        pos += length
    if not frames:
        raise StoreFormatError("empty frame batch")
    return frames


def join_frames(frames: List[bytes]) -> bytes:
    """Encode frames into one batched body (inverse of
    :func:`split_frames`)."""
    out: List[bytes] = []
    for frame in frames:
        out.append(struct.pack("<I", len(frame)))
        out.append(frame)
    return b"".join(out)


class Router:
    """Routes service requests onto one :class:`SketchStore`.

    Args:
        store: the store to serve; a fresh empty one by default.
        snapshot_path: default target for ``/v1/snapshot`` and source
            for ``/v1/restore`` when the request names no path.
    """

    def __init__(self, store: Optional[SketchStore] = None,
                 snapshot_path: Optional[str] = None) -> None:
        self.store = store if store is not None else SketchStore()
        self.snapshot_path = snapshot_path

    # -- entry point -------------------------------------------------------

    def handle(self, method: str, path: str,
               body: bytes = b"") -> Response:
        """Route one request; never raises for routine service errors."""
        try:
            return self._dispatch(method.upper(), path, body)
        except RouteError as err:
            return Response.error(err.status, str(err))
        except SketchNotFoundError as exc:
            return Response.error(404, f"no sketch named {exc.args[0]!r}")
        except (SketchExistsError, SketchConflictError) as exc:
            return Response.error(409, str(exc))
        except (StoreFormatError, ReproError, ValueError) as exc:
            # ValueError covers the sketches' own compatibility checks
            # (merge with foreign seeds, width mismatches).
            return Response.error(400, str(exc))
        except FileNotFoundError as exc:
            return Response.error(404, str(exc))
        except Exception as exc:  # Anything else is a server bug.
            return Response.error(500, f"{type(exc).__name__}: {exc}")

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, method: str, path: str, body: bytes) -> Response:
        path, _, query_string = path.partition("?")
        query = urllib.parse.parse_qs(query_string)
        path = path.rstrip("/")
        parts = [p for p in path.split("/") if p]
        if parts == ["healthz"] and method == "GET":
            # view_metrics exposes the serving process's cached-read
            # counters -- under the multiproc front end that is *one
            # worker's* view, which is exactly what a warm-path probe
            # over a single keep-alive connection wants to watch.
            from repro.store.store import VIEW_METRICS
            return Response.json(200, {
                "status": "ok",
                "sketches": len(self.store),
                "view_metrics": {
                    "hits": VIEW_METRICS.hits,
                    "builds": VIEW_METRICS.builds,
                    "serializations": VIEW_METRICS.serializations,
                }})
        if not parts or parts[0] != "v1":
            raise RouteError(404, f"unknown path {path!r}")
        rest = parts[1:]
        if rest == ["sketches"]:
            if method == "GET":
                return Response.json(200,
                                     {"sketches": self.store.names()})
            if method == "POST":
                return self._create(body)
        elif rest == ["snapshot"] and method == "POST":
            return self._snapshot(body)
        elif rest == ["restore"] and method == "POST":
            return self._restore(body)
        elif 2 <= len(rest) <= 3 and rest[0] == "sketches":
            name = urllib.parse.unquote(rest[1])
            action = rest[2] if len(rest) == 3 else None
            response = self._sketch_op(method, name, action, body, query)
            if response is not None:
                return response
        raise RouteError(404, f"unknown path {path!r}")

    @staticmethod
    def _query_float(query: dict, key: str) -> Optional[float]:
        """The last ``?key=`` value as a float, or None when absent."""
        values = query.get(key)
        if not values:
            return None
        try:
            return float(values[-1])
        except ValueError:
            raise RouteError(400,
                             f"query parameter {key!r} must be a number")

    @staticmethod
    def _number(payload: dict, key: str, default, cast=float):
        """``payload[key]`` through ``cast`` (``default`` when absent);
        null, booleans, containers and non-finite values answer 400."""
        if key not in payload:
            return default
        value = payload[key]
        try:
            if isinstance(value, bool):
                raise TypeError(key)
            number = cast(value)
        except (TypeError, ValueError, OverflowError):
            raise RouteError(400, f"{key} must be a number") from None
        if isinstance(number, float) and not math.isfinite(number):
            raise RouteError(400, f"{key} must be a number")
        return number

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise RouteError(400, f"malformed JSON body: {exc}")
        if not isinstance(payload, dict):
            raise RouteError(400, "JSON body must be an object")
        return payload

    # -- handlers ----------------------------------------------------------

    def _sketch_op(self, method: str, name: str, action: Optional[str],
                   body: bytes,
                   query: Optional[dict] = None) -> Optional[Response]:
        """Handle ``/v1/sketches/<name>[/<action>]``; None = no route."""
        store = self.store
        query = query or {}
        if action is None:
            if method == "GET":
                return Response.json(200, store.info(name))
            if method == "PUT":
                # Upload a client-built sketch wholesale (create or
                # replace) -- how a coordinator registers a prototype
                # whose seeds it drew itself.
                if not SAFE_NAME_RE.match(name):
                    raise RouteError(400,
                                     f"invalid sketch name {name!r}")
                store.put(name, loads_sketch(body))
                return Response.json(200, {"stored": name})
            if method == "DELETE":
                store.delete(name)
                return Response.json(200, {"deleted": name})
            return None
        if action == "blob" and method == "GET":
            return Response.blob(store.serialized(name))
        if action == "estimate" and method == "GET":
            span = self._query_float(query, "window")
            if span is not None:
                return Response.json(
                    200, {"name": name, "window": span,
                          "estimate": store.estimate_window(name, span)})
            return Response.json(200, {"name": name,
                                       "estimate": store.estimate(name)})
        if action == "advance" and method == "POST":
            payload = self._json_body(body)
            now = payload.get("now")
            if not isinstance(now, (int, float)) \
                    or isinstance(now, bool):
                raise RouteError(400,
                                 "advance body needs now: <number>")
            rotated = store.advance(name, float(now))
            return Response.json(200, {"name": name, "rotated": rotated})
        if action == "ingest" and method == "POST":
            payload = self._json_body(body)
            items = payload.get("items")
            if not isinstance(items, list):
                raise RouteError(400,
                                 "ingest body needs items: [int, ...]")
            bits = store.get(name).universe_bits
            for i, x in enumerate(items):
                reason = item_error(x, bits)
                if reason is not None:
                    raise RouteError(400, f"items[{i}]: {reason}")
            count = store.ingest(name, items)
            return Response.json(200, {"name": name, "ingested": count})
        if action == "merge" and method == "POST":
            store.merge_into(name, loads_sketch(body))
            return Response.json(200, {"name": name, "merged": True})
        if action == "frames" and method == "POST":
            # Batched wire-frame ingest: many shard uploads amortised
            # into one request body (and one entry-lock epoch each).
            incoming = [loads_sketch(f) for f in split_frames(body)]
            for sketch in incoming:
                store.merge_into(name, sketch)
            return Response.json(200, {"name": name,
                                       "frames": len(incoming),
                                       "merged": True})
        return None

    def _create(self, body: bytes) -> Response:
        payload = self._json_body(body)
        unknown = [key for key in payload if key not in CREATE_KEYS]
        if unknown:
            raise RouteError(400, f"unknown create key {unknown[0]!r}; "
                                  f"expected {', '.join(CREATE_KEYS)}")
        name = payload.get("name")
        kind = payload.get("kind", "minimum")
        if not isinstance(name, str) or not SAFE_NAME_RE.match(name):
            raise RouteError(
                400, "sketch names must be 1-128 chars of "
                     "[A-Za-z0-9._:-], starting alphanumeric")
        number = self._number
        params = SketchParams(
            eps=number(payload, "eps", 0.8),
            delta=number(payload, "delta", 0.2),
            thresh_constant=number(payload, "thresh_constant", 96.0),
            repetitions_constant=number(payload, "repetitions_constant",
                                        35.0))
        universe_bits = number(payload, "universe_bits", 0, int)
        options = dict(seed=number(payload, "seed", 0, int),
                       window=number(payload, "window", None),
                       buckets=number(payload, "buckets", None, int))
        ttl = number(payload, "ttl", None)
        sketch = build_sketch(kind, universe_bits, params, **options)
        self.store.create(name, sketch, ttl=ttl or None)
        return Response.json(201, {"created": name, "kind": kind})

    def _snapshot(self, body: bytes) -> Response:
        payload = self._json_body(body)
        path = payload.get("path") or self.snapshot_path
        if not path:
            raise RouteError(400, "no snapshot path given and the server "
                                  "has no default (--snapshot)")
        count = self.store.snapshot(path)
        return Response.json(200, {"snapshot": path, "sketches": count})

    def _restore(self, body: bytes) -> Response:
        payload = self._json_body(body)
        path = payload.get("path") or self.snapshot_path
        if not path:
            raise RouteError(400, "no snapshot path given and the server "
                                  "has no default (--snapshot)")
        count = self.store.restore(path)
        return Response.json(200, {"restored": count, "path": path})


#: What any front end needs from a router: the ``handle`` callable plus
#: the attributes the service shell reads back.
RouterLike = Router

__all__ = [
    "BLOB_TYPE",
    "JSON_TYPE",
    "Response",
    "RouteError",
    "Router",
    "RouterLike",
    "SAFE_NAME_RE",
    "join_frames",
    "split_frames",
]
