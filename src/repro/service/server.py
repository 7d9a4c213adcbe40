"""The stdlib-only threading front end for the F0 sketch service.

One :class:`F0Server` (an ``http.server.ThreadingHTTPServer``) fronts
one :class:`~repro.service.router.Router`.  Every request runs in its
own thread; the handler is a pure transport shell -- it reads the body,
calls ``router.handle(method, path, body)``, and writes the
:class:`~repro.service.router.Response` back.  Routing, validation and
error mapping all live in the router (see its module doc for the wire
protocol), so this file only deals in HTTP/1.1 mechanics: keep-alive,
body draining, oversized-body rejection.  This handler is the service's
only HTTP parser: the multiproc workers subclass it.  Every reply,
errors included, is a :class:`~repro.service.router.Response` sent in
one socket write, so a keep-alive client never waits on a delayed ACK
between the headers and the body.

Correctness under concurrency comes from the store's locking discipline
(registry lock for the name map, a per-sketch lock for mutations, a
version-cached view for reads), so any number of shard workers may
upload to the same named sketch simultaneously and the merges
serialize while estimates stay lock-free O(1) reads.

:func:`serve` is the ``repro serve`` foreground entry point: it can run
any registered front end (``threading`` here, ``multiproc`` in
:mod:`repro.service.multiproc`), handles SIGTERM/SIGINT gracefully, and
optionally snapshots the store on exit so a redeploy never loses
sketches.
"""

from __future__ import annotations

import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.common.errors import ReproError
from repro.service.router import Response, Router
from repro.store.store import SketchStore

#: Largest accepted request body (64 MiB) -- a backstop against a
#: malformed Content-Length stalling a worker thread on a huge read.
MAX_BODY_BYTES = 64 * 1024 * 1024


class F0ServiceHandler(BaseHTTPRequestHandler):
    """Transport shell: one HTTP request onto the server's router."""

    server_version = "ReproF0Service/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: the last segment of a large blob never waits on the
    #: client's delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:
        """Respect the server's quiet flag (tests, benchmarks)."""
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _content_length(self) -> Optional[int]:
        """The declared body length; None when the header is malformed."""
        try:
            return int(self.headers.get("Content-Length", 0) or 0)
        except (TypeError, ValueError):
            return None

    def _drain_body(self) -> None:
        """Consume an unread request body before replying.

        Connections are persistent (HTTP/1.1 keep-alive): replying
        without reading the body would leave those bytes in the stream
        to be parsed as the *next* request.
        """
        if getattr(self, "_body_consumed", False):
            return
        self._body_consumed = True
        length = self._content_length()
        if length is None or length < 0 or length > MAX_BODY_BYTES:
            self.close_connection = True
        elif length:
            self.rfile.read(length)

    def _send(self, response: Response) -> None:
        """Write status line, headers and body in one socket write."""
        self._drain_body()
        if self.request_version == "HTTP/0.9":
            # An unparseable request line defaults to HTTP/0.9, which
            # has no status line; every reply here carries one.
            self.request_version = self.protocol_version
        payload = response.payload
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(payload)))
            if self.close_connection:
                self.send_header("Connection", "close")
            if self.command == "HEAD":
                payload = b""
            self._headers_buffer.append(b"\r\n" + payload)
            self.flush_headers()
        except (BrokenPipeError, ConnectionResetError):
            pass  # Client went away; nothing to report to.

    def _reject(self, status: int, message: str) -> None:
        """Reply with a JSON error and drop the connection without
        reading the body, so unread bytes cannot masquerade as the next
        request."""
        self._body_consumed = True
        self.close_connection = True
        self._send(Response.error(status, message))

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer a request ``http.server`` refused before routing (a
        malformed request line, an unsupported method, oversized
        headers) with a JSON error instead of its HTML page."""
        self.log_error("code %d, message %s", code, message)
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self._reject(code, message)

    # -- dispatch ----------------------------------------------------------

    def _route(self, method: str) -> None:
        self._body_consumed = False  # Handler persists across keep-alive.
        if "Transfer-Encoding" in self.headers:
            # Only Content-Length framing is supported; a chunked body
            # left unread would be parsed as the next request.
            self._reject(501, "Transfer-Encoding is not supported")
            return
        length = self._content_length()
        if length is None:
            self._reject(400, "malformed Content-Length")
            return
        if length < 0 or length > MAX_BODY_BYTES:
            self._reject(413, "request body too large")
            return
        body = self.rfile.read(length) if length else b""
        self._body_consumed = True
        self._send(self.server.router.handle(method, self.path, body))

    # -- HTTP verbs --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        """Route GET requests."""
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        """Route POST requests."""
        self._route("POST")

    def do_PUT(self) -> None:  # noqa: N802 - http.server naming
        """Route PUT requests."""
        self._route("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        """Route DELETE requests."""
        self._route("DELETE")


class F0Server(ThreadingHTTPServer):
    """The threading sketch service: one HTTP thread per request.

    Args:
        address: ``(host, port)`` to bind; port 0 picks an ephemeral
            port (read it back from ``server.server_port``).
        store: the :class:`SketchStore` to serve; a fresh empty one by
            default.  Ignored when an explicit ``router`` is given.
        snapshot_path: default target for ``/v1/snapshot`` and source
            for ``/v1/restore`` when the request names no path.
        verbose: log one line per request (quiet by default so tests
            and benchmarks stay readable).
        router: serve an existing router (e.g. a
            :class:`~repro.distributed.cluster.ClusterRouter` gateway)
            instead of building one around ``store``.
    """

    daemon_threads = True

    #: Listen backlog.  The http.server default of 5 drops SYNs as soon
    #: as ~8 clients connect at once (each dropped connect costs the
    #: client a full TCP retransmit timeout); size it for bursts.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int],
                 store: Optional[SketchStore] = None,
                 snapshot_path: Optional[str] = None,
                 verbose: bool = False,
                 router=None) -> None:
        super().__init__(address, F0ServiceHandler)
        if router is None:
            router = Router(store=store, snapshot_path=snapshot_path)
        self.router = router
        self.snapshot_path = snapshot_path
        self.verbose = verbose
        self._thread: Optional[threading.Thread] = None

    @property
    def store(self) -> Optional[SketchStore]:
        """The backing store (None for store-less gateway routers)."""
        return getattr(self.router, "store", None)

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", "::", ""):
            host = "127.0.0.1"
        return f"http://{host}:{port}"

    def start_background(self) -> "F0Server":
        """Serve from a daemon thread; returns self for chaining.

        The test-suite / notebook entry: bind, serve, keep the calling
        thread free.  Pair with :meth:`stop`.
        """
        if self._thread is not None:
            raise ReproError("server already started")
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="f0-service", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the serve loop and release the socket."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.server_close()


class TTLSweeper:
    """A background thread that periodically sheds expired entries.

    The store's TTL reaping is otherwise lazy (an expired entry
    disappears when the *next* operation touches it -- see
    :meth:`~repro.store.store.SketchStore.evict_expired`), so a
    long-lived service whose stale names are never read again would
    hold their memory forever.  The sweeper closes that gap: every
    ``interval`` seconds it calls ``store.evict_expired()`` on the live
    store, so expiry frees memory even with zero read traffic.

    Args:
        store: the :class:`~repro.store.store.SketchStore` to sweep.
        interval: seconds between sweeps (must be > 0).

    The thread is a daemon; :meth:`stop` drains it (signals the loop,
    runs one final sweep, joins), so shutdown never races a sweep
    against store teardown.
    """

    def __init__(self, store: SketchStore, interval: float) -> None:
        if not interval > 0:
            raise ReproError("sweep interval must be > 0 seconds")
        self.store = store
        self.interval = float(interval)
        #: Total entries evicted across all sweeps (a test/ops metric).
        self.evicted = 0
        #: Number of completed sweep passes.
        self.sweeps = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sweep_once(self) -> None:
        self.evicted += len(self.store.evict_expired())
        self.sweeps += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sweep_once()

    def start(self) -> "TTLSweeper":
        """Start sweeping from a daemon thread; returns self."""
        if self._thread is not None:
            raise ReproError("sweeper already started")
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="f0-ttl-sweeper",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain the sweeper: stop the loop, final sweep, join."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._sweep_once()


def serve(host: str = "127.0.0.1", port: int = 8080,
          store: Optional[SketchStore] = None,
          snapshot_path: Optional[str] = None,
          restore: bool = False, verbose: bool = True,
          frontend: str = "threading",
          snapshot_on_exit: Optional[str] = None,
          router=None, procs: Optional[int] = None,
          delta_interval: Optional[float] = None,
          sweep_interval: Optional[float] = None) -> None:
    """Run the service in the foreground (the ``repro serve`` verb).

    SIGTERM and SIGINT both shut the service down gracefully: in-flight
    requests finish, and when ``snapshot_on_exit`` is set the store is
    snapshotted to that path before the process exits -- a long-lived
    service never loses sketches on redeploy.

    Args:
        host: bind address.
        port: bind port (0 = ephemeral).
        store: pre-populated store to serve (fresh empty by default).
        snapshot_path: default snapshot/restore target.
        restore: load ``snapshot_path`` before serving (missing file is
            fine -- the service starts empty and snapshots will create
            it).
        verbose: per-request log lines to stderr (threading front end).
        frontend: registered front-end name (``threading`` /
            ``multiproc``; see :mod:`repro.service.frontends`).
        snapshot_on_exit: snapshot the store here after a graceful
            shutdown signal.  With the multiproc front end this is
            still exactly one snapshot: the shutdown fold merges every
            worker's deltas into this process's store copy first.
        router: serve an existing router (cluster gateway mode) instead
            of building one around ``store``.
        procs: worker count for the multiproc front end (``None``
            follows the ``REPRO_PROCS`` resolution order; ignored by
            single-process front ends).
        delta_interval: multiproc publish coalescing interval in
            seconds (``None``/0 publishes each acknowledged mutation
            immediately).
        sweep_interval: run a :class:`TTLSweeper` over the backing
            store every this many seconds, so TTL-expired entries are
            shed even when nothing reads them (``None`` keeps reaping
            lazy).  Requires a router with a store.

    Raises:
        ReproError: ``restore=True`` without a ``snapshot_path``, a
            ``sweep_interval`` on a store-less gateway router, or an
            unknown front-end name.
    """
    from repro.service.frontends import create_frontend

    if router is None:
        router = Router(store=store, snapshot_path=snapshot_path)
    server = create_frontend(frontend, (host, port), router,
                             verbose=verbose, procs=procs,
                             delta_interval=delta_interval)
    backing = getattr(router, "store", None)
    if restore:
        if not snapshot_path:
            raise ReproError("restore requested but no snapshot path given")
        if backing is None:
            raise ReproError("this router holds no store to restore into")
        try:
            count = backing.restore(snapshot_path)
            print(f"restored {count} sketch(es) from {snapshot_path}")
        except FileNotFoundError:
            print(f"no snapshot at {snapshot_path}; starting empty")

    sweeper: Optional[TTLSweeper] = None
    if sweep_interval is not None:
        if backing is None:
            raise ReproError(
                "sweep interval given but this router holds no store "
                "to sweep")
        sweeper = TTLSweeper(backing, sweep_interval)

    stop_event = threading.Event()

    def _on_signal(signum, frame) -> None:
        stop_event.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except ValueError:  # Not the main thread (embedded use).
            pass

    server.start_background()
    if sweeper is not None:
        sweeper.start()
    print(f"serving F0 sketch store on {server.url} "
          f"({frontend} front end)", flush=True)
    try:
        stop_event.wait()
        print("shutdown signal received; draining", flush=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if sweeper is not None:
            sweeper.stop()
        server.stop()
        if snapshot_on_exit and backing is not None:
            count = backing.snapshot(snapshot_on_exit)
            print(f"snapshotted {count} sketch(es) to {snapshot_on_exit}",
                  flush=True)
