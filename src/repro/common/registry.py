"""One generic name -> factory registry for every swappable part.

The paper's recipe is one algorithmic skeleton with swappable parts; the
repo picks four of them by name -- the NP-oracle backend
(:mod:`repro.sat.backends`), the compute kernel
(:mod:`repro.kernels.registry`), the executor
(:mod:`repro.parallel.registry`) and the service front end
(:mod:`repro.service.frontends`).  Each of those modules is a short
declaration on top of one :class:`Registry`, which owns everything they
share:

* entries (:class:`Entry`): name, factory, description, availability
  (with the reason an entry is unusable on this host) and the
  ``releases_gil`` capability flag;
* :meth:`Registry.register`, refusing a duplicate name unless
  ``replace=True``;
* :meth:`Registry.names` (default first, rest alphabetical),
  :meth:`Registry.info` (unknown names raise an error listing the
  registered ones) and :meth:`Registry.has`;
* name resolution, :meth:`Registry.resolve`: an explicit name, else the
  process-wide override (:meth:`Registry.set_default`, validated
  eagerly), else the environment variable (validated here, so a typo
  fails with an error naming the variable), else the default;
* :meth:`Registry.get`, which resolves and refuses a registered but
  unavailable entry with its reason;
* :meth:`Registry.arg_type`, the argparse ``type=`` validator the CLI
  uses for ``--oracle``/``--kernel``/``--executor``/``--frontend``.

Every error is an :class:`~repro.common.errors.InvalidParameterError`.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import InvalidParameterError


@dataclass(frozen=True, eq=False)
class Entry:
    """One registered implementation.

    ``available`` is False when a soft dependency is missing on this host
    (the ``numba`` kernel on a bare container); the entry stays listed so
    ``repro list`` can say why, but :meth:`Registry.get` refuses it with
    ``unavailable_reason``.  ``releases_gil`` is the capability flag the
    executor auto-pick reads: True means the entry's hot loops drop the
    GIL for their whole run (only compute kernels set it).

    Entries compare and hash by identity, so a cache keyed on an entry is
    invalidated by re-registering its name.
    """

    name: str
    factory: Callable[..., Any]
    description: str = ""
    available: bool = True
    unavailable_reason: str = ""
    releases_gil: bool = False


class Registry:
    """Named entries of one kind (see the module docstring).

    Args:
        kind: what an entry is, for error messages ("kernel",
            "front end", ...).
        default: the name :meth:`resolve` falls back to.
        env_var: environment variable consulted after the override, or
            ``None`` for a registry without one.
    """

    def __init__(self, kind: str, default: str,
                 env_var: Optional[str] = None) -> None:
        self.kind = kind
        self.default = default
        self.env_var = env_var
        #: Registered entries by name; read it, change it via register().
        self.entries: Dict[str, Entry] = {}
        #: The process-wide override set by :meth:`set_default`.
        self.override: Optional[str] = None

    def register(self, name: str, factory: Callable[..., Any],
                 description: str = "", available: bool = True,
                 unavailable_reason: str = "", releases_gil: bool = False,
                 replace: bool = False) -> Entry:
        """Add an entry; ``replace=False`` refuses to shadow a name, so a
        typo in a plugin cannot silently hijack a built-in."""
        if not replace and name in self.entries:
            raise InvalidParameterError(
                f"{self.kind} {name!r} already registered")
        entry = Entry(name, factory, description, available,
                      unavailable_reason, releases_gil)
        self.entries[name] = entry
        return entry

    def names(self) -> List[str]:
        """Registered names, default first, rest alphabetical."""
        names = sorted(self.entries)
        if self.default in names:
            names.remove(self.default)
            names.insert(0, self.default)
        return names

    def has(self, name: str) -> bool:
        """Whether ``name`` is registered (available or not)."""
        return name in self.entries

    def info(self, name: str) -> Entry:
        """The entry for ``name``; unknown names raise an error listing
        the registered ones."""
        try:
            return self.entries[name]
        except KeyError:
            raise InvalidParameterError(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(self.names())}") from None

    def set_default(self, name: Optional[str]) -> None:
        """Set (or with ``None`` clear) the process-wide override.

        Validated eagerly, so a typo fails at the flag, not at first use.
        """
        if name is not None:
            self.info(name)
        self.override = name

    def resolve(self, name: Optional[str] = None) -> str:
        """The name an optional explicit ``name`` resolves to: explicit,
        else override, else the environment variable, else the default.

        An environment value naming no entry raises an error naming the
        variable (explicit and override values are checked at their
        source).
        """
        if name:
            return name
        if self.override:
            return self.override
        if self.env_var:
            env = os.environ.get(self.env_var)
            if env:
                if env not in self.entries:
                    raise InvalidParameterError(
                        f"{self.env_var}={env!r} names an unknown "
                        f"{self.kind}; registered: "
                        f"{', '.join(self.names())}")
                return env
        return self.default

    def source(self) -> str:
        """Where :meth:`resolve` without a name takes its answer from."""
        if self.override:
            return "override"
        if self.env_var and os.environ.get(self.env_var):
            return f"from {self.env_var}"
        return "default"

    def get(self, name: Optional[str] = None) -> Entry:
        """Resolve ``name`` and return its entry, refusing a registered
        but unavailable one with the recorded reason."""
        return self._usable(self.info(self.resolve(name)))

    def _usable(self, entry: Entry) -> Entry:
        if not entry.available:
            raise InvalidParameterError(
                f"{self.kind} {entry.name!r} is registered but "
                f"unavailable: {entry.unavailable_reason}")
        return entry

    def arg_type(self, text: str) -> str:
        """argparse ``type=`` validator: a usable registered name, or a
        one-line usage error saying what is registered or why not."""
        try:
            self._usable(self.info(text))
        except InvalidParameterError as exc:
            hint = (f"; ${self.env_var} sets the session default"
                    if self.env_var else "")
            raise argparse.ArgumentTypeError(
                f"{exc} (see `repro list`{hint})") from None
        return text
