"""A long-lived F0 counting service over the sketch store.

The streaming sketches are tiny, mergeable summaries -- exactly the
objects a service should hold, merge, and answer from.  This package is
the deployment shell around :class:`repro.store.SketchStore`, split
into a transport-independent core and pluggable transports:

* :mod:`repro.service.router` -- :class:`Router`, the whole service API
  as a pure ``(method, path, body) -> Response`` function over one
  store: create / ingest-batch / merge / batched-frames / estimate /
  snapshot endpoints, unit-testable without a socket;
* :mod:`repro.service.frontends` -- the front-end registry
  (``threading`` = one OS thread per request, ``multiproc`` = N
  pre-forked ``SO_REUSEPORT`` workers reconciling via the frame-delta
  log) selected by ``repro serve --frontend`` or ``REPRO_FRONTEND``;
* :mod:`repro.service.server` -- the one HTTP handler both front ends
  speak through, the threading front end (:class:`F0Server`) and the
  graceful-shutdown :func:`serve` shell (SIGTERM/SIGINT, optional
  snapshot-on-exit);
* :mod:`repro.service.client` -- a thin ``urllib``-based client whose
  sketch payloads ride the versioned wire format of
  :mod:`repro.store.serialize`.

The CLI verbs ``python -m repro serve`` / ``repro push`` / ``repro
query`` are thin shells over these; ``examples/service_quickstart.py``
walks the full create -> shard-push -> query -> snapshot -> restore
loop in one script.  For the multi-node story (consistent hashing,
replication, fail-over) see :mod:`repro.distributed.cluster`.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.frontends import (
    DEFAULT_FRONTEND,
    DEFAULT_PROCS,
    MultiprocFrontend,
    create_frontend,
    frontend_info,
    frontend_names,
    register_frontend,
    resolve_frontend_name,
    resolve_procs,
    set_default_frontend,
    set_default_procs,
)
from repro.service.router import Response, Router
from repro.service.server import F0Server, serve

__all__ = [
    "DEFAULT_FRONTEND",
    "DEFAULT_PROCS",
    "F0Server",
    "MultiprocFrontend",
    "Response",
    "Router",
    "ServiceClient",
    "ServiceError",
    "create_frontend",
    "frontend_info",
    "frontend_names",
    "register_frontend",
    "resolve_frontend_name",
    "resolve_procs",
    "serve",
    "set_default_frontend",
    "set_default_procs",
]
