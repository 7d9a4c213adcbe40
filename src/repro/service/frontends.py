"""Pluggable service front ends: transport shells over one router.

The router (:mod:`repro.service.router`) is the service; a *front end*
is only the concurrency strategy that feeds it requests.  This registry
makes that strategy a configuration choice, so ``repro serve --frontend
asyncio`` swaps the transport without touching a line of routing,
storage or sketch code.

Registered front ends:

* ``threading`` -- :class:`repro.service.server.F0Server`: one OS
  thread per request (``http.server.ThreadingHTTPServer``).  Simple,
  debuggable, and fine up to moderate concurrency.
* ``asyncio`` -- :class:`AsyncioFrontend`: a single event loop
  multiplexing every connection (``asyncio.start_server``), handing
  router calls to a small thread pool so a slow mutation never stalls
  the loop.  Thousands of idle keep-alive connections cost almost
  nothing.
* ``multiproc`` -- :class:`~repro.service.multiproc.MultiprocFrontend`:
  N pre-forked shared-nothing workers on one ``SO_REUSEPORT`` port,
  reconciling through the frame-delta log
  (:mod:`repro.store.deltalog`).  The only front end that scales mixed
  read/write load past one core (benchmark E30).

Every front end implements the same tiny contract
(:class:`ServiceFrontend`): ``url``, ``start_background()``,
``stop()``.  ``python -m repro list`` lists this registry.

:data:`FRONTENDS` is a :class:`repro.common.registry.Registry`: the
front end resolves an explicit name, else the
:func:`set_default_frontend` override, else ``REPRO_FRONTEND``, else
:data:`DEFAULT_FRONTEND`.  The multiproc worker count resolves the same
way through :func:`resolve_procs` (``set_default_procs`` /
``REPRO_PROCS`` / :data:`DEFAULT_PROCS`).  Which front end *wins* is
workload-dependent -- so benchmarks E28/E30 stamp ``frontend``/``procs``
into their payloads and measure instead of assuming.
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Protocol, Tuple

from repro.common.errors import ReproError
from repro.common.registry import Registry
from repro.service.router import Router
from repro.service.server import MAX_BODY_BYTES, F0Server

Address = Tuple[str, int]


class ServiceFrontend(Protocol):
    """What every front end exposes to the service shell and tests."""

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        ...

    def start_background(self) -> "ServiceFrontend":
        """Bind and serve without blocking the calling thread."""
        ...

    def stop(self) -> None:
        """Drain, shut down, and release the socket."""
        ...


#: The front end ``repro serve`` uses when none is named.
DEFAULT_FRONTEND = "threading"

#: Worker count the multiproc front end uses when none is named
#: (0 means "all cores").
DEFAULT_PROCS = 2

#: Environment variables consulted when no explicit value is given.
ENV_FRONTEND = "REPRO_FRONTEND"
ENV_PROCS = "REPRO_PROCS"

#: Entry factories are called as ``factory(address, router,
#: verbose=..., **options)`` and return an unstarted
#: :class:`ServiceFrontend`; they must tolerate (and may ignore)
#: options meant for other front ends.
FRONTENDS = Registry("front end", DEFAULT_FRONTEND, ENV_FRONTEND)

register_frontend = FRONTENDS.register
frontend_names = FRONTENDS.names
frontend_info = FRONTENDS.info
set_default_frontend = FRONTENDS.set_default
resolve_frontend_name = FRONTENDS.resolve

_procs_override: Optional[int] = None


def set_default_procs(count: Optional[int]) -> None:
    """Set (or with ``None`` clear) the process-wide worker-count
    override (takes precedence over ``REPRO_PROCS``).

    Raises:
        ReproError: negative count.
    """
    if count is not None and count < 0:
        raise ReproError("procs must be >= 0 (0 = all cores)")
    global _procs_override
    _procs_override = count


def resolve_procs(count: Optional[int] = None) -> int:
    """The worker count an optional explicit ``count`` resolves to
    (explicit > override > ``REPRO_PROCS`` > default; 0 = all cores).

    Raises:
        ReproError: ``REPRO_PROCS`` is not a non-negative integer.
    """
    if count is not None:
        if count < 0:
            raise ReproError("procs must be >= 0 (0 = all cores)")
        return count
    if _procs_override is not None:
        return _procs_override
    env = os.environ.get(ENV_PROCS)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = -1
        if value < 0:
            raise ReproError(
                f"{ENV_PROCS}={env!r} must be a non-negative integer "
                "(0 = all cores)")
        return value
    return DEFAULT_PROCS


def create_frontend(name: str, address: Address, router: Router,
                    verbose: bool = False, **options) -> ServiceFrontend:
    """Instantiate (but do not start) a registered front end.

    ``options`` are front-end specific (the multiproc front end takes
    ``procs``/``delta_interval``); ``None``-valued options are dropped
    so callers can pass CLI flags through unconditionally.
    """
    options = {k: v for k, v in options.items() if v is not None}
    return FRONTENDS.get(name).factory(address, router, verbose=verbose,
                                       **options)


# --------------------------------------------------------------------------
# asyncio front end


class AsyncioFrontend:
    """A single-event-loop HTTP/1.1 front end over one router.

    The loop thread only parses requests and shuttles bytes; every
    ``router.handle`` call runs on a small :class:`ThreadPoolExecutor`
    so a long store mutation (a big merge, a snapshot) never blocks
    connection multiplexing -- and so the store's locking remains the
    single concurrency discipline shared with the threading front end.

    Args:
        address: ``(host, port)`` to bind; port 0 picks an ephemeral
            port.
        router: the :class:`~repro.service.router.Router` (or any
            object with the same ``handle`` contract) to serve.
        verbose: accepted for front-end-contract parity (per-request
            logging is the threading front end's affordance).
        handler_threads: size of the router-call pool.
    """

    def __init__(self, address: Address, router: Router,
                 verbose: bool = False, handler_threads: int = 8) -> None:
        self.router = router
        self.verbose = verbose
        self._address = address
        self._handler_threads = handler_threads
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._port: Optional[int] = None
        self._shutdown_event: Optional[asyncio.Event] = None

    # -- contract ----------------------------------------------------------

    @property
    def store(self):
        """The backing store (parity with :class:`F0Server`)."""
        return getattr(self.router, "store", None)

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

    def start_background(self) -> "AsyncioFrontend":
        """Run the event loop in a daemon thread; returns self."""
        if self._thread is not None:
            raise ReproError("server already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self._handler_threads,
            thread_name_prefix="f0-asyncio-handler")
        self._thread = threading.Thread(target=self._run_loop,
                                        name="f0-asyncio", daemon=True)
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            error = self._startup_error
            self.stop()
            raise error
        if not self._started.is_set():
            self.stop()
            raise ReproError("asyncio front end failed to start in time")
        return self

    def stop(self) -> None:
        """Stop the loop, close the socket, drain the handler pool."""
        loop = self._loop
        if loop is not None and loop.is_running() \
                and self._shutdown_event is not None:
            loop.call_soon_threadsafe(self._shutdown_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._loop = None
        self._server = None

    # -- loop internals ----------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self._address[0],
                self._address[1])
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        sockets = self._server.sockets or []
        self._port = sockets[0].getsockname()[1]
        self._started.set()
        try:
            await self._shutdown_event.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    return
                method, path, body, keep_alive = request
                response = await self._loop.run_in_executor(
                    self._pool, self.router.handle, method, path, body)
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, ValueError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            # Client went away or sent garbage (ValueError covers
            # readline overruns on absurd header lines); drop quietly.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter):
        """Parse one HTTP/1.1 request; None = connection done."""
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            return None
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, version = \
                request_line.decode("latin-1").strip().split(" ", 2)
        except ValueError:
            await self._write_response(
                writer, _error_response(400, "malformed request line"),
                keep_alive=False)
            return None
        headers = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            length = 0
        if length < 0 or length > MAX_BODY_BYTES:
            await self._write_response(
                writer, _error_response(413, "request body too large"),
                keep_alive=False)
            return None
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        keep_alive = (connection != "close"
                      and not version.endswith("1.0"))
        return method, target, body, keep_alive

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, response,
                              keep_alive: bool) -> None:
        head = (
            f"HTTP/1.1 {response.status} "
            f"{_REASONS.get(response.status, 'Unknown')}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n").encode("latin-1")
        writer.write(head + response.payload)
        await writer.drain()


_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _error_response(status: int, message: str):
    from repro.service.router import Response
    return Response.error(status, message)


# --------------------------------------------------------------------------
# Registry population


def _threading_factory(address: Address, router: Router,
                       verbose: bool = False, **_options) -> F0Server:
    return F0Server(address, router=router, verbose=verbose)


def _asyncio_factory(address: Address, router: Router,
                     verbose: bool = False, **_options) -> AsyncioFrontend:
    return AsyncioFrontend(address, router, verbose=verbose)


register_frontend(
    "threading", _threading_factory,
    "one OS thread per request (http.server.ThreadingHTTPServer)")

register_frontend(
    "asyncio", _asyncio_factory,
    "single event loop multiplexing all connections "
    "(asyncio.start_server + handler thread pool)")

# Imported at the bottom: multiproc needs this module's resolution
# helpers, so registering it first would be a circular import.
from repro.service.multiproc import MultiprocFrontend  # noqa: E402

register_frontend(
    "multiproc", MultiprocFrontend,
    "N pre-forked SO_REUSEPORT workers reconciling through the "
    "frame-delta log (shared-nothing, scales past one core)")

__all__ = [
    "AsyncioFrontend",
    "DEFAULT_FRONTEND",
    "DEFAULT_PROCS",
    "ENV_FRONTEND",
    "ENV_PROCS",
    "FRONTENDS",
    "MultiprocFrontend",
    "ServiceFrontend",
    "create_frontend",
    "frontend_info",
    "frontend_names",
    "register_frontend",
    "resolve_frontend_name",
    "resolve_procs",
    "set_default_frontend",
    "set_default_procs",
]
