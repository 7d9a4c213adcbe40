"""Per-layer tracing: timing shims installed from outside the program.

A :class:`Tracer` replaces public functions and methods of `repro` with
shims that record a span (name, start, end, parent, op id) per call.
Module-level functions are patched at every binding site -- each loaded
``repro.*`` module whose global is the original object -- so
``from repro.gf2.matrix import rref_msb`` copies are caught too.  Methods
are patched on the class that defines them.  Uninstalling restores every
original object.

Per span name the tracer keeps ``[calls, busy seconds, self seconds]``,
where self time is the span's duration minus the time its child spans
cover.  The raw span log is kept in memory up to :data:`SPAN_CAP` entries
and written out when the run ends.  State is per thread, so the threaded
service front end traces correctly.

:data:`LAYER_METRICS` declares every per-layer metric: its unit, the
layer it measures, the workloads on which it must be nonzero, and the
end-to-end metric it should move.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter
from typing import Dict, List, NamedTuple, Tuple

#: Raw spans kept per process; aggregate counters are never capped.
SPAN_CAP = 20000

#: Span name of one whole benchmark operation (its self time is glue).
OP_SPAN = "op"

# Shim targets per span name.  ("method", module, class, attribute),
# ("function", module, name) or ("kernel", attribute) -- the method of
# whichever compute kernel `repro.kernels.get_kernel()` resolves to.
SHIMS: Dict[str, Dict[str, List[tuple]]] = {
    "count_cnf": {
        "kernels.propagate": [("kernel", "propagate")],
        "sat.solver": [
            ("method", "repro.sat.solver", "CdclSolver", "solve"),
            ("method", "repro.sat.solver", "CdclSolver",
             "resume_after_block")],
        "sat.oracle": [
            ("method", "repro.sat.oracle", "OracleSession", "solve"),
            ("method", "repro.sat.oracle", "OracleSession", "next_model")],
        "hashing.attach": [
            ("method", "repro.sat.oracle", "OracleSession",
             "new_output_var")],
        "hashing.value": [
            ("method", "repro.hashing.base", "LinearHash", "value")],
        "core.cell_search": [
            ("method", "repro.core.cell_search", "CellSearch",
             "cell_count")],
    },
    "count_dnf": {
        "core.find_min": [("function", "repro.core.find_min", "find_min")],
        "gf2.rref": [("function", "repro.gf2.matrix", "rref_msb")],
        "gf2.mat_vec": [("function", "repro.gf2.matrix", "mat_vec_mul")],
        "gf2.solve": [
            ("function", "repro.gf2.matrix", "solve_affine_system")],
        "gf2.image": [
            ("method", "repro.gf2.affine", "AffineSubspace", "image")],
    },
    "ingest": {
        "hashing.batch": [
            ("method", "repro.hashing.base", "LinearHash", "values_batch"),
            ("method", "repro.hashing.base", "LinearHash",
             "values_batch_words")],
        "streaming.chunk": [
            ("method", "repro.streaming.minimum", "MinimumF0",
             "process_batch")],
        "streaming.row": [
            ("method", "repro.streaming.minimum", "MinimumRow",
             "process_batch")],
        "streaming.insert": [
            ("method", "repro.streaming.minimum", "MinimumRow",
             "insert_values")],
    },
    "serve": {
        "service.router": [
            ("method", "repro.service.router", "Router", "handle")],
        "store.ingest": [
            ("method", "repro.store.store", "SketchStore", "ingest")],
        # In the server a sketch's estimate/space_bits run only when the
        # store rebuilds a cached view.
        "store.view.build": [
            ("method", "repro.streaming.minimum", "MinimumF0", "estimate"),
            ("method", "repro.streaming.minimum", "MinimumF0",
             "space_bits")],
        "store.serialize": [("function", "repro.store.store", "dumps")],
    },
}

#: Shim groups installed per workload.
WORKLOAD_SHIMS = {
    "count_cnf": ("count_cnf",),
    "count_dnf": ("count_dnf",),
    "f0_stream": ("ingest",),
    "serve_read": ("ingest", "serve"),
    "serve_mixed": ("ingest", "serve"),
}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str         # "lower" or "higher".
    layer: str          # What is measured, by its place in `repro`.
    nonzero_on: Tuple[str, ...]
    moves: str          # "<end-to-end metric> on <workload>".


_CNF = ("count_cnf",)
_DNF = ("count_dnf",)
_INGEST = ("f0_stream", "serve_mixed")
_SERVE = ("serve_read", "serve_mixed")
_MIXED = ("serve_mixed",)
_CNF_MOVES = "op_ms_p50 on count_cnf"
_DNF_MOVES = "op_ms_p50 on count_dnf"
_INGEST_MOVES = "ops_per_s on f0_stream, op_ms_p50 on serve_mixed"
_ROUTER_MOVES = "ops_per_s and op_ms_p50 on serve_read"
_STORE_MOVES = "ops_per_s on serve_mixed (flat on serve_read)"

LAYER_METRICS: List[LayerMetric] = [
    LayerMetric("kernels.propagate.calls", "calls/op", "lower",
                "resolved kernel .propagate", _CNF, _CNF_MOVES),
    LayerMetric("kernels.propagate.busy_s", "s/op", "lower",
                "resolved kernel .propagate", _CNF, _CNF_MOVES),
    LayerMetric("kernels.propagate.share", "ratio", "lower",
                "resolved kernel .propagate / op wall", _CNF, _CNF_MOVES),
    LayerMetric("sat.solver.calls", "calls/op", "lower",
                "repro.sat.solver.CdclSolver.solve/resume_after_block",
                _CNF, _CNF_MOVES),
    LayerMetric("sat.solver.self_s", "s/op", "lower",
                "repro.sat.solver.CdclSolver.solve/resume_after_block",
                _CNF, _CNF_MOVES),
    LayerMetric("sat.oracle.calls", "calls/op", "lower",
                "repro.sat.oracle.OracleSession.solve/next_model",
                _CNF, _CNF_MOVES + ", oracle_calls"),
    LayerMetric("sat.oracle.self_s", "s/op", "lower",
                "repro.sat.oracle.OracleSession.solve/next_model",
                _CNF, _CNF_MOVES),
    LayerMetric("hashing.attach.calls", "calls/op", "lower",
                "repro.sat.oracle.OracleSession.new_output_var",
                _CNF, _CNF_MOVES),
    LayerMetric("hashing.attach.busy_s", "s/op", "lower",
                "repro.sat.oracle.OracleSession.new_output_var",
                _CNF, _CNF_MOVES),
    LayerMetric("hashing.value.calls", "calls/op", "lower",
                "repro.hashing.base.LinearHash.value", _CNF, _CNF_MOVES),
    LayerMetric("hashing.value.busy_s", "s/op", "lower",
                "repro.hashing.base.LinearHash.value", _CNF, _CNF_MOVES),
    LayerMetric("core.cell_search.probes", "calls/op", "lower",
                "repro.core.cell_search.CellSearch.cell_count",
                _CNF, _CNF_MOVES + ", oracle_calls"),
    LayerMetric("core.cell_search.self_s", "s/op", "lower",
                "repro.core.cell_search.CellSearch.cell_count",
                _CNF, _CNF_MOVES),
    LayerMetric("core.glue_s", "s/op", "lower",
                "op wall minus every traced child span", _CNF + _DNF,
                _CNF_MOVES + ", " + _DNF_MOVES),
    LayerMetric("core.find_min.calls", "calls/op", "lower",
                "repro.core.find_min.find_min", _DNF, _DNF_MOVES),
    LayerMetric("core.find_min.self_s", "s/op", "lower",
                "repro.core.find_min.find_min", _DNF, _DNF_MOVES),
    LayerMetric("gf2.rref.calls", "calls/op", "lower",
                "repro.gf2.matrix.rref_msb", _DNF, _DNF_MOVES),
    LayerMetric("gf2.rref.busy_s", "s/op", "lower",
                "repro.gf2.matrix.rref_msb", _DNF, _DNF_MOVES),
    LayerMetric("gf2.mat_vec.calls", "calls/op", "lower",
                "repro.gf2.matrix.mat_vec_mul", _DNF, _DNF_MOVES),
    LayerMetric("gf2.mat_vec.busy_s", "s/op", "lower",
                "repro.gf2.matrix.mat_vec_mul", _DNF, _DNF_MOVES),
    LayerMetric("gf2.solve.calls", "calls/op", "lower",
                "repro.gf2.matrix.solve_affine_system", _DNF, _DNF_MOVES),
    LayerMetric("gf2.solve.busy_s", "s/op", "lower",
                "repro.gf2.matrix.solve_affine_system", _DNF, _DNF_MOVES),
    LayerMetric("gf2.image.self_s", "s/op", "lower",
                "repro.gf2.affine.AffineSubspace.image", _DNF, _DNF_MOVES),
    LayerMetric("hashing.batch.calls", "calls/op", "lower",
                "repro.hashing.base.LinearHash.values_batch[_words]",
                _INGEST, _INGEST_MOVES),
    LayerMetric("hashing.batch.busy_s", "s/op", "lower",
                "repro.hashing.base.LinearHash.values_batch[_words]",
                _INGEST, _INGEST_MOVES),
    LayerMetric("streaming.chunk.calls", "calls/op", "lower",
                "repro.streaming.minimum.MinimumF0.process_batch",
                _INGEST, _INGEST_MOVES),
    LayerMetric("streaming.chunk.busy_s", "s/op", "lower",
                "repro.streaming.minimum.MinimumF0.process_batch",
                _INGEST, _INGEST_MOVES),
    LayerMetric("streaming.chunk.self_s", "s/op", "lower",
                "repro.streaming.minimum.MinimumF0.process_batch",
                _INGEST, _INGEST_MOVES),
    LayerMetric("streaming.row.self_s", "s/op", "lower",
                "repro.streaming.minimum.MinimumRow.process_batch",
                _INGEST, _INGEST_MOVES),
    LayerMetric("streaming.insert.busy_s", "s/op", "lower",
                "repro.streaming.minimum.MinimumRow.insert_values",
                _INGEST, _INGEST_MOVES),
    LayerMetric("service.router.calls", "calls/op", "lower",
                "repro.service.router.Router.handle", _SERVE, _ROUTER_MOVES),
    LayerMetric("service.router.self_s", "s/op", "lower",
                "repro.service.router.Router.handle", _SERVE, _ROUTER_MOVES),
    LayerMetric("service.transport_share", "ratio", "lower",
                "client latency outside Router.handle", _SERVE,
                _ROUTER_MOVES),
    LayerMetric("store.ingest.self_s", "s/op", "lower",
                "repro.store.store.SketchStore.ingest (entry-lock wait)",
                _MIXED, _STORE_MOVES),
    LayerMetric("store.view.builds", "count/op", "lower",
                "/healthz view_metrics.builds delta", _MIXED, _STORE_MOVES),
    LayerMetric("store.view.hits", "count/op", "higher",
                "/healthz view_metrics.hits delta", _SERVE, _STORE_MOVES),
    LayerMetric("store.view.serializations", "count/op", "lower",
                "/healthz view_metrics.serializations delta", _MIXED,
                _STORE_MOVES),
    LayerMetric("store.view.build_s", "s/op", "lower",
                "MinimumF0.estimate/space_bits under a view rebuild",
                _MIXED, _STORE_MOVES),
    LayerMetric("store.serialize.calls", "calls/op", "lower",
                "repro.store.store.dumps", _MIXED, _STORE_MOVES),
    LayerMetric("store.serialize.busy_s", "s/op", "lower",
                "repro.store.store.dumps", _MIXED, _STORE_MOVES),
    LayerMetric("trace_overhead_pct", "%", "lower",
                "traced minus untraced op time, same inputs", (),
                "none (how far the traced split is from the real run)"),
]


class Tracer:
    """Installs timing shims and aggregates their spans per name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, list]] = []
        self._patches: List[tuple] = []
        self.spans: List[tuple] = []
        self.op_id = 0

    # -- span recording ------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name: str, fn):
        """``fn`` wrapped so every call records a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack, table = tracer._thread_state()
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # [name, time covered by child spans]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (name, start, end,
                         parent[0] if parent is not None else None,
                         tracer.op_id))
        return shim

    def totals(self) -> Dict[str, list]:
        """``{span name: [calls, busy_s, self_s]}`` over all threads."""
        merged: Dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, busy, self_s) in list(table.items()):
                row = merged.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += busy
                row[2] += self_s
        return merged

    # -- installation --------------------------------------------------

    def install(self, groups) -> None:
        """Patch every target of the named :data:`SHIMS` groups."""
        for group in groups:
            for name, targets in SHIMS[group].items():
                for target in targets:
                    self._patch(name, target)

    def _patch(self, name: str, target: tuple) -> None:
        kind = target[0]
        if kind == "kernel":
            from repro.kernels import get_kernel
            owner, attr = type(get_kernel()), target[1]
        elif kind == "method":
            module = importlib.import_module(target[1])
            owner, attr = getattr(module, target[2]), target[3]
        else:
            self._patch_function(name, target[1], target[2])
            return
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def _patch_function(self, name: str, module_name: str,
                        attr: str) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        shim = self.wrap(name, original)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, shim)

    def uninstall(self) -> None:
        """Restore every patched object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        """The raw span log as JSON lines."""
        with open(path, "w") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op": op_id}) + "\n")


def layer_values(totals: Dict[str, list], ops: int, op_wall_s: float,
                 extra: Dict[str, float]) -> Dict[str, float]:
    """Every declared per-layer metric from span totals.

    ``ops`` traced operations took ``op_wall_s`` seconds in total; counts
    and times are reported per operation.  ``extra`` supplies the values
    no span gives (view-counter deltas, transport share, overhead).
    Layers the workload does not reach read 0.
    """
    def per_op(name: str, column: int) -> float:
        row = totals.get(name)
        return row[column] / ops if row and ops else 0.0

    values: Dict[str, float] = {}
    for metric in LAYER_METRICS:
        name = metric.name
        if name in extra:
            values[name] = extra[name]
        elif name == "kernels.propagate.share":
            row = totals.get("kernels.propagate")
            values[name] = row[1] / op_wall_s if row and op_wall_s else 0.0
        elif name == "core.glue_s":
            values[name] = per_op(OP_SPAN, 2)
        elif name == "core.cell_search.probes":
            values[name] = per_op("core.cell_search", 0)
        elif name == "store.view.build_s":
            values[name] = per_op("store.view.build", 1)
        else:
            span, _, column = name.rpartition(".")
            index = {"calls": 0, "busy_s": 1, "self_s": 2}.get(column)
            # The rest (transport share, view counters) only a service
            # run supplies through ``extra``.
            values[name] = per_op(span, index) if index is not None else 0.0
    return values
