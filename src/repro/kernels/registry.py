"""The compute-kernel registry: named implementations of the hot loops.

Every counter in the paper bottoms out in the same two inner loops --
NP-oracle search (watched-literal clause propagation plus watched-XOR row
evaluation in :class:`repro.sat.solver.CdclSolver`) and hash evaluation
(:meth:`repro.gf2.gf2n.GF2n.eval_poly_batch` Horner sweeps, trail-zero /
bit-length SWAR tricks; :class:`repro.hashing.base.LinearHash` hashes
through per-byte tables in plain numpy, outside the kernel).  This
registry makes *which code runs those loops* a configuration flag, like
the solver-backend registry in :mod:`repro.sat.backends`:

* ``native`` -- :func:`repro.kernels.cdcl_loops.propagate` translated
  line for line to C, compiled on first use into a per-user cache
  (:mod:`repro.kernels.native`); registered as *unavailable* when no C
  compiler is on ``PATH``.
* ``python`` -- the pure-python/numpy paths factored out of the
  original implementations; zero dependencies beyond numpy.
* ``numba`` -- the same loop sources njit-compiled (soft dependency;
  registered as *unavailable* when numba is not importable, so listings
  stay honest and selection errors stay friendly).

The default is ``native`` when that entry is available, else ``python``
(:func:`repro.kernels.register_native_kernel` sets it).

:data:`KERNELS` is a :class:`repro.common.registry.Registry`.  The
kernel is a process-wide choice: :func:`get_kernel` resolves the
:func:`set_default_kernel` override (the CLI's ``--kernel`` flag), else
``REPRO_KERNEL``, else the default, and no hash, sketch,
oracle or counter takes a kernel of its own.  Kernels are bit-identical,
so the choice changes speed, never answers.  A process pool's workers
run the kernel resolved when the pool was created
(:class:`~repro.parallel.executor.ProcessExecutor`).  Kernel entries set
the ``releases_gil`` flag the ``auto`` executor reads, and
:func:`get_kernel` adds a per-process instance cache.

A kernel is an object with the loop surface documented in DESIGN.md
(section "Compute-kernel registry"): ``propagate(state)`` over a
:class:`repro.kernels.state.SolverState`, plus the batched hashing ops
``gf2_eval_poly_batch`` / ``trail_zeros_batch`` /
``bit_length_batch``.  All registered kernels are bit-identical by
contract (``tests/test_kernels.py`` enforces it); a kernel that is merely
*approximately* right would silently break the golden-pinned determinism
tests, so the parity suite is the price of admission for a new entry.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.common.registry import Entry, Registry

#: Environment variable consulted when no explicit kernel is requested.
ENV_VAR = "REPRO_KERNEL"

#: The default becomes ``native`` when that entry registers as available
#: (:func:`repro.kernels.register_native_kernel`).
KERNELS = Registry("kernel", "python", ENV_VAR)

register_kernel = KERNELS.register
kernel_names = KERNELS.names
kernel_info = KERNELS.info
has_kernel = KERNELS.has
set_default_kernel = KERNELS.set_default
resolve_kernel_name = KERNELS.resolve

# Keyed by entry (identity-hashed), so re-registering a name with
# replace=True drops its stale instance without any bookkeeping.
_INSTANCES: Dict[Entry, object] = {}
_INSTANCE_LOCK = threading.Lock()


def get_kernel(name: Optional[str] = None) -> object:
    """Resolve and instantiate a kernel (instances are cached).

    Args:
        name: explicit kernel name, or ``None`` to follow the
            override / ``REPRO_KERNEL`` / default resolution order.

    Returns:
        The kernel instance.

    Raises:
        InvalidParameterError: an unregistered name, or a registered
            kernel whose soft dependency is missing (the error carries
            the recorded reason, e.g. "numba is not installed").
    """
    # Warm path (once per batched hash call): two dict lookups, no lock.
    # Unknown and unavailable kernels are never cached, so they always
    # reach KERNELS.get below and raise there.
    resolved = KERNELS.resolve(name)
    instance = _INSTANCES.get(KERNELS.entries.get(resolved))
    if instance is None:
        entry = KERNELS.get(resolved)
        # Thread-parallel tasks may race a cold cache; one factory call
        # wins (numba jit wrapping is not free, and callers expect the
        # cached instance to be process-unique).
        with _INSTANCE_LOCK:
            instance = _INSTANCES.get(entry)
            if instance is None:
                instance = entry.factory()
                _INSTANCES[entry] = instance
    return instance
