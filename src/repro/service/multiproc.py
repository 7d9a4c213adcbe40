"""The pre-fork multi-process front end: N workers, one port, one log.

The GIL caps every single-process front end on mixed read/write load
(benchmark E28).  This front end gets past it the only way the store's
semantics allow cheaply: *shared-nothing* workers.  The parent forks N
processes before serving; each worker runs the ordinary
:class:`~repro.service.router.Router` over its own fork-inherited
:class:`~repro.store.store.SketchStore` copy and its own accept loop,
so requests on different workers never share a lock, a cache line, or
a GIL.

Every worker binds the same ``(host, port)`` with ``SO_REUSEPORT`` and
the kernel spreads incoming connections across them.  The parent holds
a bound but *non-listening* placeholder socket on the port: it reserves
the address for the fleet's lifetime without ever receiving connections
(only listening sockets join the reuseport group).  Every platform with
``fork`` that this front end targets (Linux, macOS, the BSDs) has
``SO_REUSEPORT``; where it is missing the registry lists the front end
as unavailable.

Workers reconcile through the frame-delta log of
:mod:`repro.store.deltalog`: :class:`DeltaRouter` wraps the router so
every request first *folds* peers' new records into the local store
(a warm no-op fold is one ``stat`` per peer) and every acknowledged
mutation *publishes* the entry's wire frame -- immediately by default
(cross-worker read-after-acknowledged-write), or coalesced on a
publisher thread when ``delta_interval`` is set (the high-throughput
mode benchmark E30 measures).  Because the sketches merge
associatively, commutatively and idempotently, every worker's folded
view -- and the parent's final fold on shutdown -- is bit-identical to
a single-store run over the same writes.

Graceful shutdown: ``stop()`` stops new connections, SIGTERMs the
workers (each drains in-flight requests, flushes pending deltas, exits
0), folds every worker's log into the parent's store copy, and leaves
snapshotting to the caller -- ``repro serve --snapshot-on-exit`` writes
exactly one snapshot covering all workers' writes.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import select
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ReproError
from repro.parallel.executor import available_workers
from repro.service.server import F0Server, F0ServiceHandler
from repro.store import deltalog
from repro.store.deltalog import DeltaLog
from repro.store.store import SketchNotFoundError

Address = Tuple[str, int]

#: The idle keep-alive timeout on worker connections (bounds how long
#: a drain can block on an idle client).
_DRAIN_TIMEOUT = 2.0

#: Seconds between liveness polls of the worker fleet (parent-side
#: crash monitor).
_MONITOR_INTERVAL = 0.2


def _digest(frame: bytes) -> bytes:
    """A compact fingerprint of one wire frame (publish dedup)."""
    return hashlib.blake2b(frame, digest_size=16).digest()


class DeltaRouter:
    """Fold-before-dispatch / publish-after-ack wrapper around a router.

    Args:
        router: the worker-local :class:`~repro.service.router.Router`.
        log: this worker's :class:`~repro.store.deltalog.DeltaLog`.
        interval: ``0`` (default) publishes each acknowledged mutation
            before its response -- strict cross-worker
            read-after-acknowledged-write; ``> 0`` coalesces merge
            publishes on a background thread every ``interval`` seconds
            (creates, replaces, deletes and restores still publish
            immediately -- metadata visibility is cheap and races are
            not).
    """

    def __init__(self, router, log: DeltaLog,
                 interval: float = 0.0) -> None:
        self.router = router
        self.store = getattr(router, "store", None)
        self.log = log
        self.interval = interval or 0.0
        self._fold_lock = threading.Lock()
        self._publish_lock = threading.Lock()
        self._published: Dict[str, Tuple[int, bytes]] = {}
        self._dirty: Set[str] = set()
        self._dirty_lock = threading.Lock()
        self._stop = threading.Event()
        self._publisher: Optional[threading.Thread] = None
        if self.store is not None and self.interval > 0:
            self._publisher = threading.Thread(
                target=self._publish_loop, name="f0-delta-publisher",
                daemon=True)
            self._publisher.start()

    # -- request path ------------------------------------------------------

    def handle(self, method: str, path: str, body: bytes = b""):
        """Fold peers' deltas, dispatch, publish the request's effects."""
        if self.store is None:  # Store-less gateway: nothing to reconcile.
            return self.router.handle(method, path, body)
        self.fold()
        method = method.upper()
        restoring = method == "POST" and _parts(path) == ["v1", "restore"]
        before = set(self.store.names()) if restoring else ()
        response = self.router.handle(method, path, body)
        if method != "GET" and 200 <= response.status < 400:
            try:
                self._publish_effects(method, path, body, before)
            except OSError:
                pass  # A full disk must not turn an applied write into
                # a 500; the write is still locally durable-in-memory.
        return response

    def fold(self) -> None:
        """Fold peers' new delta records into the local store."""
        with self._fold_lock:
            try:
                self.log.fold_into(self.store)
            except OSError:
                pass

    # -- publish -----------------------------------------------------------

    def _publish_effects(self, method: str, path: str, body: bytes,
                         names_before) -> None:
        """Map one acknowledged mutation onto delta records."""
        parts = _parts(path)
        if parts == ["v1", "sketches"] and method == "POST":
            try:
                name = json.loads(body).get("name")
            except ValueError:
                return
            if isinstance(name, str):
                self._publish_merge(name)
        elif parts == ["v1", "restore"] and method == "POST":
            after = set(self.store.names())
            for name in names_before - after:
                self._publish_delete(name)
            for name in sorted(after):
                self._publish_replace(name)
        elif len(parts) >= 3 and parts[:2] == ["v1", "sketches"]:
            name = urllib.parse.unquote(parts[2])
            action = parts[3] if len(parts) > 3 else None
            if action is None and method == "PUT":
                self._publish_replace(name)
            elif action is None and method == "DELETE":
                self._publish_delete(name)
            elif method == "POST" \
                    and action in ("ingest", "merge", "frames",
                                   "advance"):
                if self.interval > 0:
                    with self._dirty_lock:
                        self._dirty.add(name)
                else:
                    self._publish_merge(name)

    def _frame_ttl(self, name: str):
        """Current ``(frame, version, ttl)`` of one entry, or None."""
        try:
            version = self.store.entry_version(name)
            frame = self.store.serialized(name)
            ttl = self.store.info(name)["ttl"]
        except SketchNotFoundError:
            return None  # Deleted under us; the delete will publish.
        return frame, version, ttl

    def _publish_merge(self, name: str) -> None:
        with self._publish_lock:
            last = self._published.get(name)
            current = self._frame_ttl(name)
            if current is None:
                return
            frame, version, ttl = current
            if last is not None and last[0] >= version:
                return  # The published frame already includes this state.
            digest = _digest(frame)
            if last is not None and last[1] == digest:
                self._published[name] = (version, digest)
                return  # Version moved but the contents did not (a fold
                # of peer state we already covered): publishing would
                # only ping-pong identical frames between workers.
            self.log.append(deltalog.MERGE, name, frame, ttl=ttl)
            self._published[name] = (version, digest)

    def _publish_replace(self, name: str) -> None:
        with self._publish_lock:
            current = self._frame_ttl(name)
            if current is None:
                return
            frame, version, ttl = current
            seq = self.log.append(deltalog.REPLACE, name, frame, ttl=ttl)
            self.log.note_barrier(name, seq)
            self._published[name] = (version, _digest(frame))

    def _publish_delete(self, name: str) -> None:
        with self._publish_lock:
            seq = self.log.append(deltalog.DELETE, name)
            self.log.note_barrier(name, seq)
            self._published.pop(name, None)

    def _publish_loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._flush_dirty()

    def _flush_dirty(self) -> None:
        with self._dirty_lock:
            names = sorted(self._dirty)
            self._dirty.clear()
        for name in names:
            try:
                self._publish_merge(name)
            except OSError:
                pass

    def close(self) -> None:
        """Stop the publisher, flush pending frames, release the log."""
        self._stop.set()
        if self._publisher is not None:
            self._publisher.join(timeout=5)
            self._publisher = None
        self._flush_dirty()
        self.log.close()


def _parts(path: str) -> List[str]:
    return [p for p in path.split("?", 1)[0].split("/") if p]


# --------------------------------------------------------------------------
# Worker process


class _WorkerHandler(F0ServiceHandler):
    """Worker-side handler: bounded keep-alive idle so drains finish."""

    timeout = _DRAIN_TIMEOUT


class _WorkerServer(F0Server):
    """An :class:`F0Server` sharing its port with its peers
    (``SO_REUSEPORT``)."""

    def __init__(self, address: Address, router,
                 verbose: bool = False) -> None:
        super().__init__(address, router=router, verbose=verbose)
        self.RequestHandlerClass = _WorkerHandler

    def server_bind(self) -> None:
        """Bind with ``SO_REUSEPORT`` set."""
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


def _worker_main(worker_id: int, address: Address, router, procs: int,
                 log_dir: str, counter, ready_fd: int, verbose: bool,
                 interval: float) -> None:
    """One forked worker: serve the inherited router copy until SIGTERM,
    then drain in-flight requests, flush pending deltas, and exit 0."""
    stop_event = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop_event.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Parent owns Ctrl-C.
    log = DeltaLog(log_dir, worker_id=worker_id, counter=counter,
                   peers=procs)
    store = getattr(router, "store", None)
    if store is not None:
        try:
            # Replay the whole log once, *including this worker's own
            # records*: a respawned worker inherits the parent's stale
            # store copy, and the normal fold path would skip its own
            # pre-crash writes.  On a first start this is a cheap
            # no-op; idempotent merges make the replay safe anyway.
            log.fold_into(store, include_own=True)
        except OSError:
            pass
    delta_router = DeltaRouter(router, log, interval=interval)
    server = _WorkerServer(address, router=delta_router, verbose=verbose)
    try:
        thread = threading.Thread(target=server.serve_forever,
                                  name="f0-worker-accept", daemon=True)
        thread.start()
        os.write(ready_fd, b"R")
        os.close(ready_fd)
        stop_event.wait()
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()  # Joins in-flight handler threads (drain).
    finally:
        delta_router.close()  # Flush unpublished frames for the fold.


# --------------------------------------------------------------------------
# Parent orchestration


class MultiprocFrontend:
    """Pre-fork multi-process front end (see module doc).

    Args:
        address: ``(host, port)`` to serve; port 0 picks an ephemeral
            port shared by every worker.
        router: the router to serve.  Each worker runs its
            fork-inherited copy; the parent's copy receives the final
            fold on :meth:`stop` (and lazily whenever :attr:`store` is
            read), so snapshot-on-exit covers every worker's writes.
        verbose: per-request log lines from the workers.
        procs: worker count; ``None`` resolves like ``REPRO_PROCS``
            (explicit > override > env > default), ``0`` = all cores.
        delta_interval: see :class:`DeltaRouter`.
        delta_dir: shared delta-log directory (a private temp dir by
            default, removed on :meth:`stop`).

    Raises:
        ReproError: bad ``procs``, or (on start) no ``fork``.
    """

    def __init__(self, address: Address, router, verbose: bool = False,
                 procs: Optional[int] = None,
                 delta_interval: Optional[float] = None,
                 delta_dir: Optional[str] = None) -> None:
        from repro.service.frontends import resolve_procs

        self.router = router
        self.verbose = verbose
        self._address = address
        resolved = resolve_procs(procs)
        self.procs = resolved if resolved > 0 else available_workers()
        self.delta_interval = delta_interval or 0.0
        if self.delta_interval < 0:
            raise ReproError("delta_interval must be >= 0")
        self._delta_dir = delta_dir
        self._own_delta_dir = False
        self._children: List[multiprocessing.process.BaseProcess] = []
        self._placeholder: Optional[socket.socket] = None
        self._reader: Optional[DeltaLog] = None
        self._port: Optional[int] = None
        self._started = False
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._ctx = None
        self._counter = None
        self._worker_address: Optional[Address] = None
        self._dead: Set[int] = set()
        #: Workers the monitor found dead outside of shutdown.
        self.worker_crashes = 0
        #: Crashed workers successfully restarted under their original
        #: worker id (so their delta-log slot keeps draining).
        self.worker_respawns = 0
        #: Respawn budget for the fleet's lifetime -- a crash-looping
        #: worker must surface as a dead share, not burn CPU forever.
        self.max_respawns = 3

    # -- contract ----------------------------------------------------------

    @property
    def server_port(self) -> int:
        """The bound port (meaningful once started)."""
        if self._port is None:
            raise ReproError("front end not started")
        return self._port

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        host = self._address[0]
        if host in ("0.0.0.0", "::", ""):
            host = "127.0.0.1"
        return f"http://{host}:{self.server_port}"

    @property
    def store(self):
        """The parent's store copy, with workers' published deltas
        folded in -- a point-in-time merged view while the fleet runs,
        the final converged state after :meth:`stop`."""
        backing = getattr(self.router, "store", None)
        if backing is not None and self._reader is not None:
            try:
                self._reader.fold_into(backing, include_own=True)
            except OSError:
                pass
        return backing

    # -- lifecycle ---------------------------------------------------------

    def start_background(self) -> "MultiprocFrontend":
        """Reserve the port, fork the workers, wait until all serve."""
        if self._started:
            raise ReproError("server already started")
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise ReproError(
                "the multiproc front end needs the 'fork' start method "
                "(unavailable on this platform); use --frontend "
                "threading")
        self._started = True
        self._ctx = ctx
        host, port = self._address
        if self._delta_dir is None:
            self._delta_dir = tempfile.mkdtemp(prefix="repro-deltas-")
            self._own_delta_dir = True
        else:
            os.makedirs(self._delta_dir, exist_ok=True)
        counter = ctx.Value("Q", 0)
        self._counter = counter
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        placeholder.bind((host, port))
        self._placeholder = placeholder
        self._port = placeholder.getsockname()[1]
        ready_r, ready_w = os.pipe()
        try:
            worker_address = (host, self._port)
            self._worker_address = worker_address
            for i in range(self.procs):
                child = ctx.Process(
                    target=_worker_main,
                    args=(i, worker_address, self.router, self.procs,
                          self._delta_dir, counter, ready_w, self.verbose,
                          self.delta_interval),
                    name=f"f0-multiproc-{i}", daemon=True)
                child.start()
                self._children.append(child)
            os.close(ready_w)
            ready_w = -1
            self._await_ready(ready_r)
        except BaseException:
            self.stop()
            raise
        finally:
            if ready_w >= 0:
                os.close(ready_w)
            os.close(ready_r)
        self._reader = DeltaLog(self._delta_dir, worker_id=None,
                                counter=counter, peers=self.procs)
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="f0-worker-monitor",
                                         daemon=True)
        self._monitor.start()
        return self

    def _await_ready(self, ready_r: int, timeout: float = 20.0) -> None:
        """Block until every worker wrote its ready byte."""
        deadline = time.monotonic() + timeout
        acks = 0
        while acks < self.procs:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReproError(
                    f"multiproc workers failed to start in time "
                    f"({acks}/{self.procs} ready)")
            readable, _, _ = select.select([ready_r], [], [],
                                           min(remaining, 0.2))
            if readable:
                data = os.read(ready_r, self.procs - acks)
                if not data:
                    raise ReproError("multiproc startup pipe closed early")
                acks += len(data)
                continue
            for child in self._children:
                if not child.is_alive():
                    raise ReproError(
                        f"multiproc worker {child.name} died during "
                        f"startup (exit code {child.exitcode})")

    # -- crash detection ---------------------------------------------------

    def _monitor_loop(self) -> None:
        """Watch the fleet; a dead worker is never a silent no-op.

        A crashed worker (OOM kill, segfaulted extension, stray
        ``kill -9``) would otherwise keep its ``SO_REUSEPORT`` share:
        the kernel still hashes a fraction of new connections onto the
        dead socket, and those clients see resets while every health
        check on the surviving workers passes.  The monitor polls
        liveness, logs a loud error for each crash, and -- within
        :attr:`max_respawns` -- restarts the worker under its *original* worker id so its delta-log slot
        (fixed: peers poll files ``0..N-1``) resumes draining and its
        pre-crash writes are recovered by the startup replay in
        ``_worker_main``.
        """
        while not self._stopping.wait(_MONITOR_INTERVAL):
            for index, child in enumerate(self._children):
                if (index in self._dead or child.is_alive()
                        or self._stopping.is_set()):
                    continue
                self.worker_crashes += 1
                print(f"multiproc worker {child.name} died unexpectedly "
                      f"(exit code {child.exitcode})",
                      file=sys.stderr, flush=True)
                if self._respawn(index):
                    self.worker_respawns += 1
                    print(f"multiproc worker {index} respawned "
                          f"({self.worker_respawns}/{self.max_respawns} "
                          f"respawns used)", file=sys.stderr, flush=True)
                else:
                    self._dead.add(index)
                    print(f"multiproc worker {index} NOT respawned; "
                          f"its port share is dead -- restart the "
                          f"service", file=sys.stderr, flush=True)

    def _respawn(self, index: int) -> bool:
        """Restart worker ``index`` under its original id; True on
        success."""
        if (self.worker_respawns >= self.max_respawns
                or self._stopping.is_set()):
            return False
        ready_r, ready_w = os.pipe()
        child = None
        try:
            child = self._ctx.Process(
                target=_worker_main,
                args=(index, self._worker_address, self.router,
                      self.procs, self._delta_dir, self._counter,
                      ready_w, self.verbose, self.delta_interval),
                name=f"f0-multiproc-{index}", daemon=True)
            child.start()
            os.close(ready_w)
            ready_w = -1
            deadline = time.monotonic() + 20.0
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                readable, _, _ = select.select(
                    [ready_r], [], [], min(remaining, 0.2))
                if readable and os.read(ready_r, 1):
                    self._children[index] = child
                    return True
                if not child.is_alive():
                    break
        except (OSError, ValueError):
            pass
        finally:
            if ready_w >= 0:
                os.close(ready_w)
            os.close(ready_r)
        if child is not None and child.is_alive():
            child.kill()
            child.join(timeout=5)
        return False

    def stop(self) -> None:
        """Drain the fleet, fold every worker's deltas, release the port.

        After this returns, ``router.store`` (the parent copy) holds
        the merged union of every worker's acknowledged writes -- the
        caller (``serve``) snapshots exactly once from it.
        """
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        for child in self._children:
            if child.is_alive():
                child.terminate()  # SIGTERM: graceful drain + flush.
        for child in self._children:
            child.join(timeout=15)
            if child.is_alive():
                child.kill()
                child.join(timeout=5)
        self._children = []
        backing = getattr(self.router, "store", None)
        if backing is not None and self._reader is not None:
            try:
                self._reader.fold_into(backing, include_own=True)
            except OSError:
                pass
        if self._placeholder is not None:
            try:
                self._placeholder.close()
            except OSError:
                pass
            self._placeholder = None
        if self._own_delta_dir and self._delta_dir is not None:
            shutil.rmtree(self._delta_dir, ignore_errors=True)
            self._own_delta_dir = False
        self._reader = None


__all__ = ["DeltaRouter", "MultiprocFrontend"]
