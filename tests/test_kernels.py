"""Parity contract for the compute-kernel registry.

Every registered kernel must be **bit-identical** through every surface
it serves: same model sequences and oracle-call counts out of the CDCL
solver, same GF(2^n) polynomial evaluations, same packed-row affine hash
values, same trail-zero/bit-length answers -- and therefore the same
sketches and estimates out of the counters.  A kernel that is merely
*approximately* right would silently break the golden-pinned determinism
tests elsewhere in the suite, so this file is the price of admission for
a registry entry.

Kernels are a process-wide choice, so every parity case selects its
kernel with :func:`set_default_kernel` (:func:`using_kernel`) and
clears it afterwards.  The reference is always the ``python`` kernel,
which runs :mod:`repro.kernels.cdcl_loops` itself: that module is the
specification the ``native`` C translation is held to.

Beyond models and calls, every ``SolverStats`` counter (decisions,
conflicts, restarts, propagations, learnt and deleted clauses, DB
reductions) must match field by field: the whole search runs inside the
kernel, so the counters are the cheapest witness that two kernels took
the same search tree, including the rare paths (learnt-DB reduction,
activity rescaling, pool growth in the middle of a search).

The ``numba`` kernel is a soft dependency: its cross-kernel cases are
skipped when it is not importable.  The CI job that installs it exports
``REQUIRE_NUMBA=1`` so a silently missing registration fails loudly
there (mirroring ``REQUIRE_PYSAT`` for the solver backends).
"""

import contextlib
import ctypes
import dataclasses
import os
import pickle
import random
import shutil
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitvec import (
    bit_length_batch,
    trailing_zeros,
    trailing_zeros_batch,
)
from repro.common.errors import InvalidParameterError
from repro.core.approxmc import approx_mc
from repro.formulas.cnf import CnfFormula
from repro.formulas.generators import fixed_count_cnf, random_k_cnf
from repro.formulas.xor_constraint import XorConstraint
from repro.gf2.gf2n import GF2n
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.kernels import (
    DEFAULT_KERNEL,
    KERNELS,
    get_kernel,
    has_kernel,
    kernel_info,
    kernel_names,
    register_kernel,
    register_native_kernel,
    resolve_kernel_name,
    set_default_kernel,
)
from repro.kernels import batch_loops, native
from repro.kernels import state as kstate
from repro.kernels.cdcl_loops import (
    F_VAR_DECAY,
    F_VAR_INC,
    R_NUM_LEARNTS,
    RESIZE_CLAUSES,
    RESIZE_LITS,
    RESIZE_WATCH,
)
from repro.sat.backends import create_solver
from repro.sat.bruteforce import brute_force_models
from repro.sat.oracle import NpOracle
from repro.sat.solver import CdclSolver
from repro.streaming.base import SketchParams

np = pytest.importorskip("numpy")

#: Kernels whose soft dependencies are importable here.
AVAILABLE = [n for n in kernel_names() if kernel_info(n).available]

#: The kernel every other one must match: the loop source, interpreted.
REFERENCE = "python"


@contextlib.contextmanager
def using_kernel(kernel):
    """Make ``kernel`` the process-wide kernel for the block."""
    set_default_kernel(kernel)
    try:
        yield
    finally:
        set_default_kernel(None)


def corpus():
    """Small CNFs spanning the degenerate shapes; (name, formula, xors)."""
    rng = random.Random(9)
    return [
        ("rand3cnf", random_k_cnf(rng, 8, 18, k=3), ()),
        ("fixed_count", fixed_count_cnf(8, 5), ()),
        ("empty_clause", CnfFormula(3, [[]]), ()),
        ("unit_only", CnfFormula(4, [[1], [-2], [3]]), ()),
        ("clause_free", CnfFormula(4, []), ()),
        ("pure_xor", CnfFormula(4, []),
         (XorConstraint(0b0110, 1), XorConstraint(0b1001, 0))),
        ("cnf_plus_xor", random_k_cnf(random.Random(10), 6, 12, k=3),
         (XorConstraint(0b000111, 1),)),
    ]


CORPUS = corpus()
CASES = [pytest.param(kernel, name, formula, xors, id=f"{kernel}-{name}")
         for kernel in AVAILABLE
         for name, formula, xors in CORPUS]


@st.composite
def cnf_xor_instance(draw):
    num_vars = draw(st.integers(1, 8))
    clauses = draw(st.lists(
        st.lists(st.integers(-num_vars, num_vars).filter(lambda l: l != 0),
                 min_size=1, max_size=4),
        max_size=12))
    xors = draw(st.lists(
        st.tuples(st.integers(1, (1 << num_vars) - 1), st.integers(0, 1)),
        max_size=4))
    return (CnfFormula(num_vars, clauses),
            [XorConstraint(mask, rhs) for mask, rhs in xors])


def _enumerate(formula, xors, kernel):
    with using_kernel(kernel):
        oracle = NpOracle(formula)
        models = oracle.enumerate_models(xors)
    return models, oracle.calls


def _trace(formula, xors, kernel, assumptions=()):
    """Drive one solver through both enumeration styles and return every
    model, its decision literals, the final ``SolverStats`` fields and
    the surviving learnt clauses (which DB reductions chose to keep).

    First ``resume_after_block`` continuation under ``assumptions``, then
    fresh solves without assumptions, each model excluded by an added
    blocking clause."""
    steps = []
    with using_kernel(kernel):
        solver = CdclSolver.from_cnf(formula, xors)
        sat = solver.solve(assumptions)
        while sat:
            steps.append((solver.model_int(),
                          tuple(solver.decision_literals())))
            sat = solver.resume_after_block()
        sat = solver.solve()
        while sat:
            decisions = solver.decision_literals()
            steps.append((solver.model_int(), tuple(decisions)))
            solver.add_clause([-d for d in decisions])
            sat = solver.solve()
    state = solver._state
    learnts = state.learnts[:state.regs[R_NUM_LEARNTS]].tolist()
    return steps, dataclasses.asdict(solver.stats), learnts


def _hard_instance():
    """Random 3-CNF with two parity rows and 67 models: enough conflicts
    for learning, restarts and DB reductions to matter."""
    formula = random_k_cnf(random.Random(1), 20, 70, k=3)
    xors = (XorConstraint(0b100010011001011011, 0),
            XorConstraint(0b11110100101111101010, 1))
    return formula, xors


class TestSolverParity:
    """The solver must not merely agree across kernels -- the *sequence*
    of models and the call count must be identical (golden pins depend
    on both)."""

    @pytest.mark.parametrize("kernel,name,formula,xors", CASES)
    def test_models_and_calls_match_reference_kernel(self, kernel, name,
                                                     formula, xors):
        reference = _enumerate(formula, xors, REFERENCE)
        assert _enumerate(formula, xors, kernel) == reference
        assert sorted(reference[0]) == brute_force_models(formula, xors)

    @pytest.mark.parametrize("kernel,name,formula,xors", CASES)
    def test_search_trace_and_stats_match_reference_kernel(
            self, kernel, name, formula, xors):
        assumptions = [1] if formula.num_vars else []
        reference = _trace(formula, xors, REFERENCE, assumptions)
        assert _trace(formula, xors, kernel, assumptions) == reference
        models = sorted(model for model, _ in reference[0])
        assert models == brute_force_models(formula, xors)

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_solver_records_resolved_kernel_name(self, kernel):
        # The solver resolves the process-wide kernel once, at
        # construction; clearing the override later does not move it.
        with using_kernel(kernel):
            solver = CdclSolver(2)
            backend_solver = create_solver("cdcl", CnfFormula(2, [[1]]))
        assert solver.kernel_name == kernel
        assert solver._kernel is get_kernel(kernel)
        assert backend_solver.kernel_name == kernel

    @given(cnf_xor_instance())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_parity_across_kernels(self, instance):
        formula, xors = instance
        reference = _enumerate(formula, xors, REFERENCE)
        assert sorted(reference[0]) == brute_force_models(formula, xors)
        trace = _trace(formula, xors, REFERENCE, [-formula.num_vars])
        for kernel in AVAILABLE:
            assert _enumerate(formula, xors, kernel) == reference
            assert _trace(formula, xors, kernel,
                          [-formula.num_vars]) == trace


class TestSearchPaths:
    """The rare search paths, forced, under every kernel: each run must
    match the reference field by field, and must have taken the path."""

    @pytest.mark.parametrize("kernel", AVAILABLE)
    @pytest.mark.parametrize("clause_decay", [0.999, 1.0])
    def test_forced_db_reductions(self, kernel, clause_decay, monkeypatch):
        # Without decay every unbumped learnt clause has activity 1.0:
        # the reduction's stable sort alone decides which of them go.
        monkeypatch.setattr(CdclSolver, "CLAUSE_DECAY", clause_decay)
        monkeypatch.setattr(CdclSolver, "LEARNT_BASE", 8)
        monkeypatch.setattr(CdclSolver, "LEARNT_GROWTH", 1.05)
        formula, xors = _hard_instance()
        reference = _trace(formula, xors, REFERENCE, [2, -5])
        assert reference[1]["db_reductions"] > 0
        assert reference[1]["deleted_clauses"] > 0
        assert _trace(formula, xors, kernel, [2, -5]) == reference
        models = sorted(model for model, _ in reference[0])
        assert models == brute_force_models(formula, xors)

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_forced_activity_rescale(self, kernel, monkeypatch):
        # 3 is not a power of two, so a rescale rounds activities.
        monkeypatch.setattr(CdclSolver, "ACTIVITY_RESCALE", 3.0)
        formula, xors = _hard_instance()
        reference = _trace(formula, xors, REFERENCE)
        assert _trace(formula, xors, kernel) == reference
        with using_kernel(kernel):
            solver = CdclSolver.from_cnf(formula, xors)
            while solver.solve():
                solver.add_clause([-d for d in solver.decision_literals()])
        # Without a rescale the bump would be exactly 1 / decay^conflicts.
        unscaled = 1.0
        for _ in range(solver.stats.conflicts):
            unscaled /= solver._state.fregs[F_VAR_DECAY]
        assert solver._state.fregs[F_VAR_INC] < unscaled

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_long_resume_enumeration_under_assumptions(self, kernel):
        formula = random_k_cnf(random.Random(4), 14, 24, k=3)
        xors = (XorConstraint(0b10110011100101, 1),)
        # A repeated and an implied-looking assumption exercise the dummy
        # decision levels the blocking step deduplicates.
        assumptions = [3, -7, 3, 12]
        reference = _trace(formula, xors, REFERENCE, assumptions)
        assert _trace(formula, xors, kernel, assumptions) == reference
        # The resumed enumeration comes first and is exactly the models
        # that satisfy the assumptions; blocking-clause solves find the
        # rest.
        under = [m for m in brute_force_models(formula, xors)
                 if m & 0b100 and not m & 0b1000000 and m & (1 << 11)]
        assert len(under) > 40
        models = [model for model, _ in reference[0]]
        assert sorted(models[:len(under)]) == under
        assert sorted(models) == brute_force_models(formula, xors)


class TestForcedPoolResizes:
    """Tiny initial arenas force every in-kernel RESIZE exit and every
    doubling path; results must not depend on pool sizing."""

    TINY = {"INITIAL_VARS": 2, "INITIAL_CLAUSES": 1,
            "INITIAL_CLAUSE_LITS": 2, "INITIAL_WATCH_POOL": 2,
            "INITIAL_XOR_ROWS": 1, "INITIAL_XOR_VARS": 2,
            "INITIAL_XWATCH_POOL": 2, "INITIAL_ASSUMPTIONS": 1}

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_results_independent_of_initial_capacity(self, kernel,
                                                     monkeypatch):
        baselines = [_enumerate(formula, xors, kernel)
                     for _name, formula, xors in CORPUS]
        for attr, value in self.TINY.items():
            monkeypatch.setattr(kstate, attr, value)
        for (_name, formula, xors), baseline in zip(CORPUS, baselines):
            assert _enumerate(formula, xors, kernel) == baseline

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_pools_exhausted_mid_search(self, kernel, monkeypatch):
        monkeypatch.setattr(CdclSolver, "LEARNT_BASE", 8)
        monkeypatch.setattr(CdclSolver, "RESTART_BASE", 2)
        formula, xors = _hard_instance()
        reference = _trace(formula, xors, REFERENCE, [2, -5, 2])
        assert reference[1]["restarts"] > 0
        for attr, value in self.TINY.items():
            monkeypatch.setattr(kstate, attr, value)
        # Clause pools exactly as large as the formula: the first learnt
        # or blocking clause of the search finds them full.
        monkeypatch.setattr(kstate, "INITIAL_CLAUSES",
                            len(formula.clauses))
        monkeypatch.setattr(kstate, "INITIAL_CLAUSE_LITS",
                            sum(len(c) for c in formula.clauses))
        codes = []
        grow_for = kstate.SolverState.grow_for

        def recording_grow_for(state, code):
            codes.append(code)
            return grow_for(state, code)

        monkeypatch.setattr(kstate.SolverState, "grow_for",
                            recording_grow_for)
        assert _trace(formula, xors, kernel, [2, -5, 2]) == reference
        # Learnt clauses outgrew every clause pool inside the search.
        assert {RESIZE_CLAUSES, RESIZE_LITS, RESIZE_WATCH} <= set(codes)


class TestHashingParity:
    """Batched hash paths vs the scalar ground truth, per kernel."""

    @pytest.mark.parametrize("kernel", AVAILABLE)
    @pytest.mark.parametrize("n", [1, 8, 13, 32, 63])
    def test_gf2_eval_poly_batch(self, kernel, n):
        rng = random.Random(n)
        field = GF2n(n)
        coeffs = [rng.getrandbits(n) for _ in range(5)]
        xs = np.array([rng.getrandbits(n) for _ in range(64)],
                      dtype=np.uint64)
        with using_kernel(kernel):
            got = field.eval_poly_batch(coeffs, xs)
        expected = [field.eval_poly(coeffs, int(x)) for x in xs]
        assert [int(v) for v in got] == expected

    @pytest.mark.parametrize("kernel", AVAILABLE)
    @pytest.mark.parametrize("out_bits", [1, 20, 64, 70, 130])
    def test_linear_hash_batches(self, kernel, out_bits):
        rng = random.Random(out_bits)
        h = ToeplitzHashFamily(20, out_bits).sample(rng)
        xs = np.array([rng.getrandbits(20) for _ in range(64)],
                      dtype=np.uint64)
        expected = [h.value(int(x)) for x in xs]
        with using_kernel(kernel):
            if out_bits <= 64:
                values = h.values_batch(xs)
                assert [int(v) for v in values] == expected
            else:
                words = h.values_batch_words(xs)
                assert [h.words_to_int(row) for row in words] == expected
            tz = h.trail_zeros_batch(xs)
        assert [int(t) for t in tz] == \
            [trailing_zeros(h.value(int(x)), out_bits) for x in xs]

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_bitvec_batches(self, kernel):
        rng = random.Random(3)
        values = np.array([0, 1, 2, 3] +
                          [rng.getrandbits(64) for _ in range(60)],
                          dtype=np.uint64)
        with using_kernel(kernel):
            tz = trailing_zeros_batch(values, 64)
            bl = bit_length_batch(values)
        assert [int(t) for t in tz] == \
            [trailing_zeros(int(v), 64) for v in values]
        assert [int(b) for b in bl] == [int(v).bit_length() for v in values]

    @pytest.mark.parametrize("n", [1, 8, 13, 63])
    def test_batch_loops_uncompiled_match_python_kernel(self, n):
        """The loop sources the numba kernel compiles, run as plain
        python, agree with the python kernel's vectorised paths -- so
        those sources are covered where numba is absent."""
        rng = random.Random(100 + n)
        field = GF2n(n)
        python = get_kernel("python")
        coeffs = np.array([rng.getrandbits(n) for _ in range(4)],
                          dtype=np.uint64)
        xs = np.array([0, 1] + [rng.getrandbits(n) for _ in range(30)],
                      dtype=np.uint64)
        top = np.uint64(n - 1 if n > 1 else 0)
        mask = np.uint64((1 << n) - 1)
        mod_low = np.uint64(field.modulus & ((1 << n) - 1))
        got = batch_loops.gf2_eval_poly(coeffs, xs, np.empty_like(xs),
                                        top, mask, mod_low)
        assert got.tolist() == python.gf2_eval_poly_batch(
            coeffs, xs, n, field.modulus).tolist()
        values = np.array([0, 1, 1 << 63] +
                          [rng.getrandbits(64) for _ in range(29)],
                          dtype=np.uint64)
        out = np.empty(values.shape, dtype=np.int64)
        assert batch_loops.trail_zeros(values, n, out).tolist() == \
            python.trail_zeros_batch(values, n).tolist()
        out = np.empty(values.shape, dtype=np.int64)
        assert batch_loops.bit_length(values, out).tolist() == \
            python.bit_length_batch(values).tolist()

    def test_linear_hash_pickle_round_trip(self):
        h = ToeplitzHashFamily(8, 8).sample(random.Random(1))
        clone = pickle.loads(pickle.dumps(h))
        assert clone.value(0b1011) == h.value(0b1011)


class TestCounterParity:
    """End-to-end: the counters produce identical results per kernel."""

    PARAMS = SketchParams(eps=0.8, delta=0.3, thresh_constant=24.0,
                          repetitions_constant=3.0)

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_approx_mc_estimate_and_calls(self, kernel):
        formula = random_k_cnf(random.Random(5), 10, 25, k=3)
        with using_kernel(REFERENCE):
            reference = approx_mc(formula, self.PARAMS, random.Random(0))
        with using_kernel(kernel):
            result = approx_mc(formula, self.PARAMS, random.Random(0))
        assert result.estimate == reference.estimate
        assert result.oracle_calls == reference.oracle_calls
        assert result.iteration_sketches == reference.iteration_sketches


class TestRegistry:
    def test_default_first_and_known_kernels(self):
        names = kernel_names()
        assert names[0] == DEFAULT_KERNEL
        assert DEFAULT_KERNEL == ("native" if kernel_info("native").available
                                  else "python")
        # Registered even when unavailable.
        assert has_kernel("numba") and has_kernel("native")
        assert kernel_info(DEFAULT_KERNEL).available

    def test_numba_available_when_required(self):
        # The CI job that pip-installs numba exports REQUIRE_NUMBA=1 so
        # a silently missing registration fails loudly there.
        if os.environ.get("REQUIRE_NUMBA"):
            assert kernel_info("numba").available, \
                "numba installed but kernel registered as unavailable"

    def test_duplicate_registration_refused(self):
        with pytest.raises(InvalidParameterError):
            register_kernel("python", lambda: None)

    def test_unknown_kernel_friendly_error(self):
        with pytest.raises(InvalidParameterError, match="registered:"):
            kernel_info("no-such-kernel")
        with pytest.raises(InvalidParameterError, match="registered:"):
            get_kernel("no-such-kernel")

    def test_unavailable_kernel_error_carries_reason(self, monkeypatch):
        monkeypatch.setattr(KERNELS, "entries", dict(KERNELS.entries))
        register_kernel("test-missing-dep", lambda: None,
                        available=False,
                        unavailable_reason="dependency not installed")
        with pytest.raises(InvalidParameterError,
                           match="dependency not installed"):
            get_kernel("test-missing-dep")

    def test_resolution_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        assert resolve_kernel_name("explicit") == "explicit"
        assert resolve_kernel_name(None) == "numba"
        set_default_kernel(DEFAULT_KERNEL)
        try:
            assert resolve_kernel_name(None) == DEFAULT_KERNEL
        finally:
            set_default_kernel(None)
        monkeypatch.delenv("REPRO_KERNEL")
        assert resolve_kernel_name(None) == DEFAULT_KERNEL

    def test_set_default_kernel_validates_eagerly(self):
        before = resolve_kernel_name(None)
        with pytest.raises(InvalidParameterError, match="registered:"):
            set_default_kernel("no-such-kernel")
        assert resolve_kernel_name(None) == before

    def test_instances_cached(self):
        assert get_kernel(DEFAULT_KERNEL) is get_kernel(DEFAULT_KERNEL)


class TestCli:
    @pytest.fixture
    def cnf_path(self, tmp_path):
        path = tmp_path / "t.cnf"
        path.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
        return str(path)

    def test_count_with_explicit_kernel(self, cnf_path, capsys):
        from repro.cli import main
        before = resolve_kernel_name(None)
        assert main(["count", cnf_path, "--kernel", DEFAULT_KERNEL]) == 0
        assert resolve_kernel_name(None) == before  # No leak.
        assert capsys.readouterr().out.strip() == "4"

    def test_unknown_kernel_flag_is_friendly(self, cnf_path, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["count", cnf_path, "--kernel", "no-such-kernel"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown kernel" in err and "repro list" in err

    def test_kernel_flag_rejected_for_exact(self, cnf_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="--kernel has no effect"):
            main(["count", cnf_path, "--algorithm", "exact",
                  "--kernel", DEFAULT_KERNEL])


NEEDS_COMPILER = pytest.mark.skipif(
    not kernel_info("native").available,
    reason=kernel_info("native").unavailable_reason)


class TestNativeBuild:
    """The ``native`` kernel's compile-on-first-use cache."""

    @pytest.fixture
    def cache_home(self, tmp_path, monkeypatch):
        home = tmp_path / "cache-home"
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        return home

    @NEEDS_COMPILER
    def test_hashing_never_compiles(self, cache_home):
        kernel = native.NativeKernel()
        values = np.array([0, 1, 12], dtype=np.uint64)
        assert kernel.trail_zeros_batch(values, 8).tolist() == [8, 0, 2]
        assert not cache_home.exists()

    @NEEDS_COMPILER
    def test_cold_compiles_race_to_one_library(self, cache_home):
        # Both children import first, then start together; each compiles
        # to its own temporary name and os.replace publishes one file.
        start = time.time() + 2.0
        script = (
            "import time\n"
            "from repro.kernels import native\n"
            f"time.sleep(max(0.0, {start!r} - time.time()))\n"
            "native.load_library()\n"
            "print(native.library_path())\n")
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            native.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        children = [subprocess.Popen([sys.executable, "-c", script],
                                     env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
                    for _ in range(2)]
        outputs = [child.communicate(timeout=120) for child in children]
        assert [child.returncode for child in children] == [0, 0], outputs
        paths = {out.strip() for out, _err in outputs}
        assert len(paths) == 1
        (path,) = paths
        assert os.listdir(os.path.dirname(path)) == \
            [os.path.basename(path)]
        assert path.startswith(str(cache_home))
        assert os.stat(os.path.dirname(path)).st_mode & 0o777 == 0o700

    @NEEDS_COMPILER
    @pytest.mark.parametrize("how", ["path is a file", "not writable"])
    def test_unwritable_cache_falls_back_to_private_dir(
            self, cache_home, tmp_path, monkeypatch, how):
        usual = native.cache_dir()
        if how == "path is a file":
            cache_home.write_text("")
        else:
            real_access = os.access
            monkeypatch.setattr(
                os, "access",
                lambda p, mode: False if str(p) == usual
                else real_access(p, mode))
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.setattr(native, "_PRIVATE_DIR", None)
        path = native.library_path()
        private = os.path.dirname(path)
        assert private == native._PRIVATE_DIR
        assert os.path.dirname(private) == str(scratch)
        assert os.stat(private).st_mode & 0o777 == 0o700
        assert ctypes.CDLL(path).propagate is not None

    @NEEDS_COMPILER
    @pytest.mark.parametrize("foreign", ["file", "directory"])
    def test_cache_owned_by_someone_else_is_refused(self, cache_home,
                                                    monkeypatch, foreign):
        path = native.library_path()
        target = path if foreign == "file" else os.path.dirname(path)
        real_owner = native._owner
        monkeypatch.setattr(
            native, "_owner",
            lambda p: os.geteuid() + 1 if p == target else real_owner(p))
        with pytest.raises(native.NativeKernelError,
                           match="not by the current user"):
            native.library_path()

    @NEEDS_COMPILER
    def test_failing_compile_raises_with_compiler_stderr(
            self, cache_home, tmp_path, monkeypatch):
        broken = tmp_path / "broken.c"
        broken.write_text("int propagate(void) { return }\n")
        monkeypatch.setattr(native, "SOURCE", str(broken))
        with pytest.raises(native.NativeKernelError) as exc:
            native.library_path()
        assert "error" in exc.value.stderr
        assert exc.value.stderr in str(exc.value)
        assert os.listdir(native.cache_dir()) == []  # No temp left.

    def test_no_compiler_means_unavailable_and_python_default(
            self, monkeypatch):
        monkeypatch.setattr(KERNELS, "entries", dict(KERNELS.entries))
        monkeypatch.setattr(KERNELS, "default", KERNELS.default)
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.setattr(shutil, "which", lambda name: None)
        register_native_kernel()
        info = kernel_info("native")
        assert not info.available
        assert info.unavailable_reason == native.NO_COMPILER
        assert "no C compiler" in info.unavailable_reason
        assert resolve_kernel_name(None) == "python"
        assert kernel_names()[0] == "python"
        with pytest.raises(InvalidParameterError, match="no C compiler"):
            get_kernel("native")
