"""Parity contract for the compute-kernel registry.

Every registered kernel must be **bit-identical** through every surface
it serves: same model sequences and oracle-call counts out of the CDCL
solver, same GF(2^n) polynomial evaluations, same packed-row affine hash
values, same trail-zero/bit-length answers -- and therefore the same
sketches and estimates out of the counters.  A kernel that is merely
*approximately* right would silently break the golden-pinned determinism
tests elsewhere in the suite, so this file is the price of admission for
a registry entry.

The ``numba`` kernel is a soft dependency: its cross-kernel cases are
skipped when it is not importable.  The CI job that installs it exports
``REQUIRE_NUMBA=1`` so a silently missing registration fails loudly
there (mirroring ``REQUIRE_PYSAT`` for the solver backends).
"""

import os
import pickle
import random

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
    resolve_kernel_name,
    set_default_kernel,
)
from repro.kernels import state as kstate
from repro.sat.bruteforce import brute_force_models
from repro.sat.oracle import NpOracle
from repro.sat.solver import CdclSolver
from repro.streaming.base import SketchParams

np = pytest.importorskip("numpy")

#: Kernels whose soft dependencies are importable here.
AVAILABLE = [n for n in kernel_names() if kernel_info(n).available]


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
    oracle = NpOracle(formula, kernel=kernel)
    models = oracle.enumerate_models(xors)
    return models, oracle.calls


class TestSolverParity:
    """The solver must not merely agree across kernels -- the *sequence*
    of models and the call count must be identical (golden pins depend
    on both)."""

    @pytest.mark.parametrize("kernel,name,formula,xors", CASES)
    def test_models_and_calls_match_reference_kernel(self, kernel, name,
                                                     formula, xors):
        reference = _enumerate(formula, xors, DEFAULT_KERNEL)
        assert _enumerate(formula, xors, kernel) == reference
        assert sorted(reference[0]) == brute_force_models(formula, xors)

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_solver_records_resolved_kernel_name(self, kernel):
        solver = CdclSolver(2, kernel=kernel)
        assert solver.kernel_name == kernel
        oracle = NpOracle(CnfFormula(2, [[1]]), kernel=kernel)
        assert oracle.kernel == kernel

    @given(cnf_xor_instance())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_parity_across_kernels(self, instance):
        formula, xors = instance
        reference = _enumerate(formula, xors, DEFAULT_KERNEL)
        assert sorted(reference[0]) == brute_force_models(formula, xors)
        for kernel in AVAILABLE:
            assert _enumerate(formula, xors, kernel) == reference


class TestForcedPoolResizes:
    """Tiny initial arenas force every in-kernel RESIZE exit and every
    doubling path; results must not depend on pool sizing."""

    TINY = {"INITIAL_VARS": 2, "INITIAL_CLAUSES": 1,
            "INITIAL_CLAUSE_LITS": 2, "INITIAL_WATCH_POOL": 2,
            "INITIAL_XOR_ROWS": 1, "INITIAL_XOR_VARS": 2,
            "INITIAL_XWATCH_POOL": 2}

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_results_independent_of_initial_capacity(self, kernel,
                                                     monkeypatch):
        baselines = [_enumerate(formula, xors, kernel)
                     for _name, formula, xors in CORPUS]
        for attr, value in self.TINY.items():
            monkeypatch.setattr(kstate, attr, value)
        for (_name, formula, xors), baseline in zip(CORPUS, baselines):
            assert _enumerate(formula, xors, kernel) == baseline


class TestHashingParity:
    """Batched hash paths vs the scalar ground truth, per kernel."""

    @pytest.mark.parametrize("kernel", AVAILABLE)
    @pytest.mark.parametrize("n", [1, 8, 13, 32, 63])
    def test_gf2_eval_poly_batch(self, kernel, n):
        rng = random.Random(n)
        field = GF2n(n, kernel=kernel)
        coeffs = [rng.getrandbits(n) for _ in range(5)]
        xs = np.array([rng.getrandbits(n) for _ in range(64)],
                      dtype=np.uint64)
        got = field.eval_poly_batch(coeffs, xs)
        expected = [field.eval_poly(coeffs, int(x)) for x in xs]
        assert [int(v) for v in got] == expected

    @pytest.mark.parametrize("kernel", AVAILABLE)
    @pytest.mark.parametrize("out_bits", [1, 20, 64, 70, 130])
    def test_linear_hash_batches(self, kernel, out_bits):
        rng = random.Random(out_bits)
        h = ToeplitzHashFamily(20, out_bits, kernel=kernel).sample(rng)
        xs = np.array([rng.getrandbits(20) for _ in range(64)],
                      dtype=np.uint64)
        expected = [h.value(int(x)) for x in xs]
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
        tz = trailing_zeros_batch(values, 64, kernel=kernel)
        assert [int(t) for t in tz] == \
            [trailing_zeros(int(v), 64) for v in values]
        bl = bit_length_batch(values, kernel=kernel)
        assert [int(b) for b in bl] == [int(v).bit_length() for v in values]

    def test_linear_hash_pickles_with_kernel(self):
        h = ToeplitzHashFamily(8, 8, kernel=DEFAULT_KERNEL).sample(
            random.Random(1))
        clone = pickle.loads(pickle.dumps(h))
        assert clone.kernel == DEFAULT_KERNEL
        assert clone.value(0b1011) == h.value(0b1011)


class TestCounterParity:
    """End-to-end: the counters produce identical results per kernel."""

    PARAMS = SketchParams(eps=0.8, delta=0.3, thresh_constant=24.0,
                          repetitions_constant=3.0)

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_approx_mc_estimate_and_calls(self, kernel):
        formula = random_k_cnf(random.Random(5), 10, 25, k=3)
        reference = approx_mc(formula, self.PARAMS, random.Random(0),
                              kernel=DEFAULT_KERNEL)
        result = approx_mc(formula, self.PARAMS, random.Random(0),
                           kernel=kernel)
        assert result.estimate == reference.estimate
        assert result.oracle_calls == reference.oracle_calls
        assert result.iteration_sketches == reference.iteration_sketches


class TestRegistry:
    def test_default_first_and_known_kernels(self):
        names = kernel_names()
        assert names[0] == DEFAULT_KERNEL == "python"
        assert has_kernel("numba")  # Registered even when unavailable.
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
        with pytest.raises(InvalidParameterError, match="registered:"):
            set_default_kernel("no-such-kernel")
        assert resolve_kernel_name(None) == DEFAULT_KERNEL

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
        assert main(["count", cnf_path, "--kernel", DEFAULT_KERNEL]) == 0
        assert resolve_kernel_name(None) == DEFAULT_KERNEL  # No leak.
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
