"""The one registry contract, run against all four registries.

Oracle backends, compute kernels, executors and service front ends are
each a :class:`repro.common.registry.Registry`; every behaviour the four
share is pinned here once, parametrised over the live instances:
default-first listings and friendly unknown-name errors, duplicate and
unavailable-entry refusal, explicit > override > env > default
resolution, env values validated with an error naming the variable,
eager override validation, and the argparse validator's messages.
"""

import argparse

import pytest

from repro.common.errors import InvalidParameterError
from repro.kernels import KERNELS
from repro.parallel import EXECUTORS
from repro.sat.backends import BACKENDS
from repro.service.frontends import FRONTENDS

REGISTRIES = {
    "backend": BACKENDS,
    "kernel": KERNELS,
    "executor": EXECUTORS,
    "frontend": FRONTENDS,
}


@pytest.fixture(params=list(REGISTRIES))
def registry(request, monkeypatch):
    """A live registry whose entries and override are restored after the
    test, with its environment variable (if any) cleared."""
    reg = REGISTRIES[request.param]
    monkeypatch.setattr(reg, "entries", dict(reg.entries))
    monkeypatch.setattr(reg, "override", None)
    if reg.env_var:
        monkeypatch.delenv(reg.env_var, raising=False)
    return reg


def _dummy(*args, **kwargs):
    return None


class TestRegistryContract:
    def test_names_default_first(self, registry):
        names = registry.names()
        assert names[0] == registry.default
        assert names[1:] == sorted(names[1:])
        assert registry.has(registry.default)
        assert registry.info(registry.default).available

    def test_unknown_name_lists_names_default_first(self, registry):
        with pytest.raises(InvalidParameterError) as exc:
            registry.info("no-such-entry")
        message = str(exc.value)
        assert f"unknown {registry.kind} 'no-such-entry'" in message
        assert f"registered: {', '.join(registry.names())}" in message
        assert not registry.has("no-such-entry")
        with pytest.raises(InvalidParameterError, match="registered:"):
            registry.get("no-such-entry")

    def test_duplicate_refused_unless_replaced(self, registry):
        with pytest.raises(InvalidParameterError,
                           match="already registered"):
            registry.register(registry.default, _dummy)
        first = registry.register("test-entry", _dummy, "first")
        second = registry.register("test-entry", _dummy, "second",
                                   replace=True)
        assert registry.info("test-entry") is second is not first

    def test_unavailable_entry_refused_with_reason(self, registry):
        registry.register("test-missing-dep", _dummy, available=False,
                          unavailable_reason="dependency not installed")
        assert registry.has("test-missing-dep")
        assert "test-missing-dep" in registry.names()
        with pytest.raises(InvalidParameterError,
                           match="registered but unavailable: "
                                 "dependency not installed"):
            registry.get("test-missing-dep")

    def test_resolution_order(self, registry, monkeypatch):
        registry.register("test-override", _dummy)
        registry.register("test-env", _dummy)
        assert registry.resolve() == registry.default
        assert registry.source() == "default"
        if registry.env_var:
            monkeypatch.setenv(registry.env_var, "test-env")
            assert registry.resolve() == "test-env"
            assert registry.source() == f"from {registry.env_var}"
        registry.set_default("test-override")
        assert registry.resolve() == "test-override"
        assert registry.source() == "override"
        assert registry.resolve("explicit") == "explicit"
        registry.set_default(None)
        expected = "test-env" if registry.env_var else registry.default
        assert registry.resolve() == expected

    def test_bad_env_value_names_the_variable(self, registry, monkeypatch):
        if not registry.env_var:
            pytest.skip(f"the {registry.kind} registry has no env var")
        monkeypatch.setenv(registry.env_var, "bogus")
        with pytest.raises(InvalidParameterError) as exc:
            registry.resolve()
        message = str(exc.value)
        assert f"{registry.env_var}='bogus'" in message
        assert f"registered: {', '.join(registry.names())}" in message
        with pytest.raises(InvalidParameterError, match=registry.env_var):
            registry.get()
        # An explicit name or an override never consults the variable.
        assert registry.resolve(registry.default) == registry.default
        registry.set_default(registry.default)
        assert registry.resolve() == registry.default

    def test_override_validated_eagerly(self, registry):
        with pytest.raises(InvalidParameterError, match="registered:"):
            registry.set_default("no-such-entry")
        assert registry.override is None
        assert registry.resolve() == registry.default

    def test_arg_type_messages(self, registry):
        assert registry.arg_type(registry.default) == registry.default
        with pytest.raises(argparse.ArgumentTypeError) as exc:
            registry.arg_type("bogus")
        message = str(exc.value)
        assert f"unknown {registry.kind} 'bogus'" in message
        assert "registered:" in message and "repro list" in message
        hint = f"${registry.env_var} sets the session default"
        assert (hint in message) == bool(registry.env_var)
        with pytest.raises(argparse.ArgumentTypeError, match="unknown"):
            registry.arg_type("")
        registry.register("test-missing-dep", _dummy, available=False,
                          unavailable_reason="dependency not installed")
        with pytest.raises(argparse.ArgumentTypeError,
                           match="unavailable: dependency not installed"):
            registry.arg_type("test-missing-dep")


class TestDeclarations:
    def test_kinds_and_env_vars(self):
        assert [(r.kind, r.default, r.env_var)
                for r in REGISTRIES.values()] == [
            ("oracle backend", "cdcl", None),
            ("kernel", "python", "REPRO_KERNEL"),
            ("executor", "auto", "REPRO_EXECUTOR"),
            ("front end", "threading", "REPRO_FRONTEND"),
        ]

    def test_public_names_are_registry_bindings(self):
        from repro.kernels import kernel_info, resolve_kernel_name
        from repro.parallel import executor_names, set_default_executor
        from repro.sat.backends import backend_info, register_backend
        from repro.service.frontends import (frontend_names,
                                             resolve_frontend_name)

        assert kernel_info == KERNELS.info
        assert resolve_kernel_name == KERNELS.resolve
        assert executor_names == EXECUTORS.names
        assert set_default_executor == EXECUTORS.set_default
        assert backend_info == BACKENDS.info
        assert register_backend == BACKENDS.register
        assert frontend_names == FRONTENDS.names
        assert resolve_frontend_name == FRONTENDS.resolve
