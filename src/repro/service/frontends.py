"""Pluggable service front ends: transport shells over one router.

The router (:mod:`repro.service.router`) is the service; a *front end*
is only the concurrency strategy that feeds it requests.  This registry
makes that strategy a configuration choice, so ``repro serve --frontend
multiproc`` swaps the transport without touching a line of routing,
storage or sketch code.

Registered front ends:

* ``threading`` -- :class:`repro.service.server.F0Server`: one OS
  thread per request (``http.server.ThreadingHTTPServer``).  Simple
  and debuggable; the default.
* ``multiproc`` -- :class:`~repro.service.multiproc.MultiprocFrontend`:
  N pre-forked shared-nothing workers on one ``SO_REUSEPORT`` port,
  reconciling through the frame-delta log
  (:mod:`repro.store.deltalog`).  The only front end that scales mixed
  read/write load past one core (benchmark E30).  Listed but refused
  on a platform without ``SO_REUSEPORT``.

Both speak HTTP through the one handler,
:class:`repro.service.server.F0ServiceHandler` (the multiproc workers
subclass it).  Every front end implements the same tiny contract
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

import os
import socket
from typing import Optional, Protocol, Tuple

from repro.common.errors import ReproError
from repro.common.registry import Registry
from repro.service.router import Router
from repro.service.server import F0Server

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
# Registry population


def _threading_factory(address: Address, router: Router,
                       verbose: bool = False, **_options) -> F0Server:
    return F0Server(address, router=router, verbose=verbose)


register_frontend(
    "threading", _threading_factory,
    "one OS thread per request (http.server.ThreadingHTTPServer)")

# Imported at the bottom: multiproc needs this module's resolution
# helpers, so registering it first would be a circular import.
from repro.service.multiproc import MultiprocFrontend  # noqa: E402

register_frontend(
    "multiproc", MultiprocFrontend,
    "N pre-forked SO_REUSEPORT workers reconciling through the "
    "frame-delta log (shared-nothing, scales past one core)",
    available=hasattr(socket, "SO_REUSEPORT"),
    unavailable_reason="this platform has no SO_REUSEPORT")

__all__ = [
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
