"""End-to-end tests for the three model counters and the baselines.

Guarantee checks use fixed seeds with generous success budgets: the
(eps, delta) statements are probabilistic, so we require "most of N seeded
runs in tolerance" -- deterministic, yet sensitive to real regressions."""

import random

import pytest

from repro.baselines.karp_luby import (
    karp_luby_count,
    karp_luby_optimal_stopping,
)
from repro.common.stats import within_factor, within_relative_tolerance
from repro.core.approxmc import approx_mc, find_level
from repro.core.cell_search import cell_search_for
from repro.core.est_count import approx_model_count_est, estimate_from_levels
from repro.core.exact import exact_model_count
from repro.core.fm_count import flajolet_martin_count
from repro.core.min_count import approx_model_count_min
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.formulas.generators import (
    fixed_count_cnf,
    fixed_count_dnf,
    random_dnf,
    random_k_cnf,
)
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.sat.oracle import NpOracle
from repro.streaming.base import SketchParams

# Test-scale constants: structure identical to the paper's, sketches ~4x
# smaller so the suite stays fast.
PARAMS = SketchParams(eps=0.6, delta=0.2,
                      thresh_constant=24.0, repetitions_constant=5.0)


def _success_rate(counter, instances, trials=8):
    ok = 0
    total = 0
    for formula, truth in instances:
        for seed in range(trials):
            rng = random.Random(10_000 + 97 * seed)
            result = counter(formula, rng)
            total += 1
            if within_relative_tolerance(result.estimate, truth, PARAMS.eps):
                ok += 1
    return ok, total


def cnf_instances():
    out = []
    for log2c in (3, 6, 9):
        f = fixed_count_cnf(12, log2c)
        out.append((f, 1 << log2c))
    rng = random.Random(42)
    f = random_k_cnf(rng, 10, 18, k=3)
    out.append((f, exact_model_count(f)))
    return [(f, c) for f, c in out if c > 0]


def dnf_instances():
    out = []
    for log2c in (3, 6, 9):
        f = fixed_count_dnf(12, log2c)
        out.append((f, 1 << log2c))
    rng = random.Random(43)
    f = random_dnf(rng, 12, 6, width=5)
    out.append((f, exact_model_count(f)))
    return out


class TestApproxMc:
    def test_cnf_guarantee(self):
        ok, total = _success_rate(
            lambda f, rng: approx_mc(f, PARAMS, rng), cnf_instances())
        assert ok / total >= 0.8, f"only {ok}/{total} within tolerance"

    def test_dnf_guarantee(self):
        ok, total = _success_rate(
            lambda f, rng: approx_mc(f, PARAMS, rng), dnf_instances())
        assert ok / total >= 0.8

    def test_dnf_runs_without_oracle(self):
        result = approx_mc(fixed_count_dnf(10, 5), PARAMS, random.Random(0))
        assert result.oracle_calls == 0

    def test_unsat_returns_zero(self):
        cnf = CnfFormula(6, [[1], [-1]])
        result = approx_mc(cnf, PARAMS, random.Random(1))
        assert result.estimate == 0.0

    def test_sketches_are_threshold_crossings(self):
        # Later repetitions start their level search next to repetition
        # 0's level; each must still stop at the smallest level whose
        # cell holds fewer than thresh models (Algorithm 5's answer).
        rng = random.Random(2)
        formula = fixed_count_dnf(12, 8)
        family = ToeplitzHashFamily(12, 12)
        hashes = [family.sample(rng) for _ in range(PARAMS.repetitions)]
        result = approx_mc(formula, PARAMS, random.Random(3), hashes=hashes)
        models = list(formula.solutions_bruteforce())
        for (count, level), h in zip(result.iteration_sketches, hashes):
            sizes = [sum(1 for x in models if h.prefix_value(x, m) == 0)
                     for m in range(h.out_bits + 1)]
            assert count == min(PARAMS.thresh, sizes[level])
            assert all(size >= PARAMS.thresh for size in sizes[:level])
            assert count < PARAMS.thresh or level == h.out_bits

    def test_binary_search_uses_fewer_oracle_calls(self):
        # Bisection over the levels (approx_mc's former binary search,
        # kept here as a reference) beats Algorithm 5's climb from level
        # 0 on every repetition, and finds the same crossing; approx_mc's
        # seeded search must beat that climb too on the same hashes.
        # It need not beat bisection: repetition 0 still climbs from
        # level 0, and on this shallow crossing (level 4) the seeded
        # repetitions save nothing over bisection to make up for it.
        formula = fixed_count_cnf(14, 10)
        family = ToeplitzHashFamily(14, 14)
        rng = random.Random(4)
        hashes = [family.sample(rng) for _ in range(PARAMS.repetitions)]

        def bisect(cells):
            lo, hi = 0, cells.out_bits
            while lo < hi:
                mid = (lo + hi) // 2
                if cells.cell_count(mid) < cells.thresh:
                    hi = mid
                else:
                    lo = mid + 1
            return cells.cell_count(lo), lo

        calls = {"linear": 0, "binary": 0}
        for h in hashes:
            found = {}
            for name, search in (("linear", find_level), ("binary", bisect)):
                oracle = NpOracle(formula)
                found[name] = search(
                    cell_search_for(formula, h, PARAMS.thresh, oracle))
                calls[name] += oracle.calls
            assert found["binary"] == found["linear"]
        seeded = approx_mc(formula, PARAMS, random.Random(0), hashes=hashes)
        assert calls["binary"] < calls["linear"]
        assert seeded.oracle_calls < calls["linear"]


class TestMinCount:
    def test_cnf_guarantee(self):
        # FindMin on CNF costs Theta(p * m) oracle calls per repetition, so
        # this test runs at a lighter scale than the DNF variant (the full
        # sweep is benchmark E2).
        light = SketchParams(eps=0.9, delta=0.25,
                             thresh_constant=24.0, repetitions_constant=4.0)
        instances = [(fixed_count_cnf(10, c), 1 << c) for c in (4, 8)]
        ok = 0
        total = 0
        for formula, truth in instances:
            for seed in range(3):
                rng = random.Random(70_000 + seed)
                result = approx_model_count_min(formula, light, rng)
                total += 1
                if within_relative_tolerance(result.estimate, truth,
                                             light.eps):
                    ok += 1
        assert ok / total >= 0.8, f"only {ok}/{total} within tolerance"

    def test_dnf_guarantee(self):
        ok, total = _success_rate(
            lambda f, rng: approx_model_count_min(f, PARAMS, rng),
            dnf_instances())
        assert ok / total >= 0.8

    def test_small_count_exact(self):
        # Under-full sketches report the exact count.
        formula = fixed_count_dnf(12, 2)  # 4 solutions << thresh.
        result = approx_model_count_min(formula, PARAMS, random.Random(5))
        assert result.estimate == 4.0

    def test_dnf_no_oracle_calls(self):
        result = approx_model_count_min(fixed_count_dnf(10, 6), PARAMS,
                                        random.Random(6))
        assert result.oracle_calls == 0

    def test_sketch_contents_are_sorted_values(self):
        result = approx_model_count_min(fixed_count_dnf(8, 3), PARAMS,
                                        random.Random(7))
        for sketch in result.iteration_sketches:
            assert list(sketch) == sorted(sketch)
            assert len(sketch) == 8  # All 2^3 values (underfull).


class TestEstCount:
    @pytest.mark.slow
    def test_cnf_guarantee_given_good_r(self):
        ok = 0
        trials = 10
        truth = 1 << 7
        formula = fixed_count_cnf(12, 7)
        r = 9  # 2^9 = 4 * truth: inside [2 F0, 50 F0].
        for seed in range(trials):
            result = approx_model_count_est(
                formula, PARAMS, random.Random(20_000 + seed), r=r)
            if within_relative_tolerance(result.estimate, truth, PARAMS.eps):
                ok += 1
        assert ok >= 7

    def test_self_supplied_r(self):
        truth = 1 << 6
        formula = fixed_count_cnf(10, 6)
        ok = 0
        for seed in range(8):
            result = approx_model_count_est(
                formula, PARAMS, random.Random(30_000 + seed))
            if within_relative_tolerance(result.estimate, truth, PARAMS.eps):
                ok += 1
        assert ok >= 5

    def test_unsat_returns_zero(self):
        cnf = CnfFormula(6, [[1], [-1]])
        result = approx_model_count_est(cnf, PARAMS, random.Random(8))
        assert result.estimate == 0.0

    def test_dnf_via_enumeration_backend(self):
        formula = fixed_count_dnf(10, 5)
        result = approx_model_count_est(formula, PARAMS, random.Random(9),
                                        r=7)
        assert within_factor(result.estimate, 32, 3.0)

    def test_estimate_from_levels_edge_cases(self):
        assert estimate_from_levels([5, 5, 5], 3) == float("inf")
        assert estimate_from_levels([0, 0, 0], 3) == 0.0
        mid = estimate_from_levels([5, 0, 0, 0], 3)
        assert 0 < mid < float("inf")


class TestFlajoletMartinCount:
    def test_factor5_majority_cnf(self):
        truth = 1 << 8
        formula = fixed_count_cnf(12, 8)
        ok = 0
        trials = 15
        for seed in range(trials):
            result = flajolet_martin_count(formula,
                                           random.Random(40_000 + seed))
            if within_factor(result.estimate, truth, 5.0):
                ok += 1
        assert ok >= 8  # AMS: success probability >= 3/5.

    def test_dnf_poly_path_no_oracle(self):
        formula = fixed_count_dnf(10, 6)
        result = flajolet_martin_count(formula, random.Random(10),
                                       repetitions=9)
        assert result.oracle_calls == 0
        assert within_factor(result.estimate, 64, 8.0)

    def test_logarithmic_oracle_calls(self):
        formula = fixed_count_cnf(12, 8)
        result = flajolet_martin_count(formula, random.Random(11))
        # Binary search: <= 1 + ceil(log2(12)) + 1 calls.
        assert result.oracle_calls <= 6

    def test_unsat(self):
        cnf = CnfFormula(4, [[1], [-1]])
        result = flajolet_martin_count(cnf, random.Random(12))
        assert result.estimate == 0.0

    def test_rough_r_window(self):
        truth = 1 << 8
        formula = fixed_count_cnf(12, 8)
        hits = 0
        for seed in range(10):
            result = flajolet_martin_count(
                formula, random.Random(50_000 + seed), repetitions=9)
            r = result.rough_r(12)
            if 2 * truth <= 2 ** r <= 50 * truth:
                hits += 1
        assert hits >= 7


class TestKarpLuby:
    @pytest.mark.parametrize("runner", [
        karp_luby_count, karp_luby_optimal_stopping])
    def test_guarantee(self, runner):
        rng0 = random.Random(44)
        formula = random_dnf(rng0, 12, 8, width=4)
        truth = exact_model_count(formula)
        ok = 0
        for seed in range(10):
            result = runner(formula, 0.3, 0.2, random.Random(60_000 + seed))
            if within_relative_tolerance(result.estimate, truth, 0.3):
                ok += 1
        assert ok >= 8

    def test_unbiasedness(self):
        rng0 = random.Random(45)
        formula = random_dnf(rng0, 10, 5, width=3)
        truth = exact_model_count(formula)
        rng = random.Random(46)
        estimates = [karp_luby_count(formula, 0.5, 0.5, rng,
                                     samples=200).estimate
                     for _ in range(50)]
        mean = sum(estimates) / len(estimates)
        assert within_relative_tolerance(mean, truth, 0.15)

    def test_contradictory_only_dnf(self):
        formula = DnfFormula(4, [[1, -1]])
        assert karp_luby_count(formula, 0.5, 0.5,
                               random.Random(0)).estimate == 0.0
        assert karp_luby_optimal_stopping(formula, 0.5, 0.5,
                                          random.Random(0)).estimate == 0.0

    def test_single_term(self):
        formula = fixed_count_dnf(8, 4)
        result = karp_luby_count(formula, 0.2, 0.2, random.Random(1))
        assert result.estimate == 16.0  # Coverage estimator is exact here.

    def test_optimal_stopping_adapts_samples(self):
        # Dense formula (high mu) needs far fewer samples than the fixed
        # worst-case bound.
        rng0 = random.Random(47)
        dense = random_dnf(rng0, 12, 8, width=2)
        fixed = karp_luby_count(dense, 0.3, 0.2, random.Random(2))
        adaptive = karp_luby_optimal_stopping(dense, 0.3, 0.2,
                                              random.Random(3))
        assert adaptive.samples < fixed.samples

    def test_parameter_validation(self):
        formula = fixed_count_dnf(4, 2)
        with pytest.raises(Exception):
            karp_luby_count(formula, -0.1, 0.5, random.Random(0))
        with pytest.raises(Exception):
            karp_luby_count(formula, 0.5, 1.5, random.Random(0))
