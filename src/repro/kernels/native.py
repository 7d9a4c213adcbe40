"""The ``native`` kernel: the CDCL search compiled from C on first use.

:mod:`repro.kernels.cdcl_loops` stays the single source of the search
semantics; ``cdcl_loops.c`` next to it is a line-for-line C translation
of every function there -- ``propagate`` and the whole ``search`` around
it (same variables, same statement order, same ``RESIZE_*``
park-and-return protocol, same return codes) -- and the parity suite in
``tests/test_kernels.py`` holds the compiled search to the python one,
``SolverStats`` counter by counter.  One ctypes call runs a whole
``solve`` or ``resume_after_block``.  The batched hashing ops are the
``python`` kernel's numpy paths, inherited unchanged.

Building is lazy and cached:

* nothing compiles at import or in :func:`~repro.kernels.get_kernel`
  (the serving and streaming paths resolve the kernel for hashing and
  must never pay for a compile); the first :meth:`NativeKernel.propagate`
  or :meth:`NativeKernel.search` call in a process loads the library,
  compiling it if the cache lacks it;
* the library is one file per user, named by :func:`cache_key` (a
  sha256 of the C source, :data:`CFLAGS` and ``platform.machine()``),
  in :func:`cache_dir` (``$XDG_CACHE_HOME/repro/native``, else
  ``~/.cache/repro/native``), created ``0o700``; a location that cannot
  be created or written falls back to a private per-process temp
  directory;
* the compiler writes a temporary name that :func:`os.replace` moves
  into place, so pool workers racing a cold cache each load a whole
  library;
* a cache directory or library file that the current user does not own
  is refused (:class:`NativeKernelError`), never loaded;
* a failed compile raises :class:`NativeKernelError` with the
  compiler's stderr; there is no silent fallback (``REPRO_KERNEL=python``
  is the way out).

Both functions are called through :mod:`ctypes` with one argument, the
state's cached pointer array (:meth:`SolverState.args_native`), and
``ctypes.CDLL`` drops the GIL for the call, so a count holds the GIL
only for its python glue (oracle, hashing, cell search).  The registry
still declares ``releases_gil=False``, from measurement: see DESIGN.md,
"Free-threaded repetitions".
"""

from __future__ import annotations

import atexit
import hashlib
import os
import platform
import shutil
import tempfile
from typing import Optional

from repro.common.errors import ReproError
from repro.kernels.cdcl_loops import R_SPHASE
from repro.kernels.python import PythonKernel

#: The C translation of :mod:`repro.kernels.cdcl_loops`.
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cdcl_loops.c")

#: Compiler flags; part of the cache key.  No ``-march=native``: a cached
#: library must run on every host of the same machine type.
#: ``-ffp-contract=off``: no fused multiply-add anywhere, so the activity
#: arithmetic rounds exactly as python's floats do.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: Compiler names looked up on ``PATH``, in order.
COMPILERS = ("cc", "gcc", "clang")

#: The registry's unavailability reason when no compiler is found.
NO_COMPILER = ("no C compiler on PATH (looked for "
               + ", ".join(COMPILERS) + ")")


class NativeKernelError(ReproError):
    """The native library could not be built or was refused.

    ``stderr`` holds the compiler's output when a compile failed.
    """

    def __init__(self, message: str, stderr: str = "") -> None:
        super().__init__(message)
        self.stderr = stderr


def find_compiler() -> Optional[str]:
    """The first of :data:`COMPILERS` on ``PATH``, or ``None``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_key() -> str:
    """sha256 over the C source, :data:`CFLAGS` and the machine type."""
    digest = hashlib.sha256()
    with open(SOURCE, "rb") as f:
        digest.update(f.read())
    digest.update("\0".join(CFLAGS + (platform.machine(),)).encode())
    return digest.hexdigest()


def cache_dir() -> str:
    """The per-user cache directory (may not exist yet)."""
    base = os.environ.get("XDG_CACHE_HOME") or \
        os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "native")


def _owner(path: str) -> int:
    return os.stat(path).st_uid


def _check_owner(path: str) -> None:
    uid = _owner(path)
    if uid != os.geteuid():
        raise NativeKernelError(
            f"refusing {path}: owned by uid {uid}, not by the current "
            f"user (remove it, or set REPRO_KERNEL=python)")


_PRIVATE_DIR: Optional[str] = None


def _private_dir() -> str:
    """A ``0o700`` temp directory for this process, removed at exit."""
    global _PRIVATE_DIR
    if _PRIVATE_DIR is None:
        _PRIVATE_DIR = tempfile.mkdtemp(prefix="repro-native-")
        atexit.register(shutil.rmtree, _PRIVATE_DIR, True)
    return _PRIVATE_DIR


def _build_dir() -> str:
    """:func:`cache_dir` when it can be created and written, else
    :func:`_private_dir`; a directory owned by another user is refused."""
    path = cache_dir()
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
    except OSError:
        return _private_dir()
    _check_owner(path)
    if not os.access(path, os.W_OK | os.X_OK):
        return _private_dir()
    return path


def _compile(path: str) -> None:
    """Compile :data:`SOURCE` to ``path`` via a temporary name."""
    import subprocess  # Only a cold cache pays for the import.
    compiler = find_compiler()
    if compiler is None:
        raise NativeKernelError(NO_COMPILER)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so",
                               dir=os.path.dirname(path))
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *CFLAGS, "-o", tmp, SOURCE],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise NativeKernelError(
                f"compiling {SOURCE} with {compiler} failed (exit "
                f"{proc.returncode}):\n{proc.stderr}", stderr=proc.stderr)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def library_path() -> str:
    """The cached library, compiled first if the cache lacks it."""
    path = os.path.join(_build_dir(), f"cdcl_loops-{cache_key()}.so")
    if not os.path.exists(path):
        _compile(path)
    _check_owner(path)
    return path


def load_library():
    """The compiled library, with ``propagate`` and ``search`` typed.

    Threads racing a first call may each build and load; ``os.replace``
    keeps the file whole and the loader maps one library.
    """
    import ctypes
    lib = ctypes.CDLL(library_path())
    for fn in (lib.propagate, lib.search):
        fn.restype = ctypes.c_int64
        fn.argtypes = (ctypes.c_void_p,)
    return lib


class NativeKernel(PythonKernel):
    """C search; the ``python`` kernel's hashing ops."""

    name = "native"

    #: The C search drops the GIL, but threads lost to processes on
    #: counting and on ingestion when measured, so ``auto`` keeps
    #: choosing processes (DESIGN.md, "Free-threaded repetitions").
    releases_gil = False

    def __init__(self) -> None:
        self._lib = None

    def _library(self):
        if self._lib is None:
            self._lib = load_library()
        return self._lib

    def propagate(self, state) -> int:
        """Run propagation to fixpoint on ``state``; grows arenas on
        ``RESIZE_*`` and re-enters, same as the ``python`` kernel."""
        fn = self._library().propagate
        while True:
            code = fn(state.args_native())
            if not state.grow_for(code):
                return code

    def search(self, state, mode: int) -> int:
        """Run one search entry point in C; same protocol as the
        ``python`` kernel's :meth:`~repro.kernels.python.PythonKernel.search`."""
        fn = self._library().search
        state.regs[R_SPHASE] = mode
        while True:
            code = fn(state.args_native())
            if not state.grow_for(code):
                return code
