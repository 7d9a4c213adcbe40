"""Tests for the unified repetition engine.

Two pillars:

* **Regression vs. the pre-engine counters** -- the four hand-rolled
  repetition loops were replaced by strategy classes over one
  :class:`RepetitionEngine`; the goldens below were recorded by running
  the pre-refactor ``main`` with the same seeds, and every counter must
  reproduce them bit-for-bit (estimate, oracle-call total, and a digest
  covering the per-repetition raw estimates and sketches) at
  ``workers=1`` *and* ``workers=4``.
* **Engine contract** -- parent-side sampling order, task-order
  gathering, per-repetition call accounting, shared-payload dispatch,
  and ``ApproxCountResult.from_repetitions`` assembly.
"""

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import List

import pytest

from repro.common.errors import InvalidParameterError
from repro.core.approxmc import approx_mc
from repro.core.engine import CounterStrategy, RepetitionEngine, run_strategy
from repro.core.est_count import approx_model_count_est
from repro.core.fm_count import flajolet_martin_count
from repro.core.min_count import MinimumStrategy, approx_model_count_min
from repro.core.results import ApproxCountResult
from repro.formulas.generators import (fixed_count_dnf, random_dnf,
                                       random_k_cnf)
from repro.parallel.executor import ProcessExecutor
from repro.streaming.base import SketchParams

# Recorded by running the four counters on the pre-engine ``main``
# (commit 81830ac) with exactly these formulas and seeds:
# (estimate, oracle_calls, sha256[:16] of
#  repr((estimate, oracle_calls, raw_estimates, sketches))).
# ``amc_cnf``'s oracle calls were re-recorded (198 -> 116) when
# repetition 0's level started seeding the other repetitions' searches;
# its estimate and sketches stay pinned by AMC_CNF_SKETCHES below.
GOLDEN = {
    "amc_cnf": (80.0, 116, "0da0587c055766cf"),
    "amc_dnf": (64.0, 0, "fa6c3f7f37ea936d"),
    "min_cnf": (88.36082605444275, 4450, "19e034de34e59b78"),
    "min_dnf": (64.72162783443589, 0, "a3e478436b894abb"),
    "est_cnf": (87.90137842021811, 493, "275e0db2e4a050de"),
    "est_dnf": (60.397255695274055, 441, "7fa9e7af0110a348"),
    "fm_cnf": (64.0, 32, "5b0884be18e60df7"),
    "fm_dnf": (256.0, 0, "9e299ebe4c1e54fa"),
    # Multi-term DNF with 3n = 120-bit Minimum hashes, recorded before
    # the GF(2) layer moved to leading-bit RREF and column-form images.
    "min_dnf_wide": (98274634337.378, 0, "61d32a81f62dfce6"),
    "fm_dnf_wide": (137438953472.0, 0, "984ad08f28cc7f53"),
}

#: ``amc_cnf``'s per-repetition (count, level), as the pre-engine
#: counter produced them.
AMC_CNF_SKETCHES = [(8, 3), (13, 3), (12, 3), (9, 3), (10, 3)]

PARAMS = SketchParams(eps=0.8, delta=0.3,
                      thresh_constant=12.0, repetitions_constant=4.0)


def _cnf():
    return random_k_cnf(random.Random(3), 12, 30, k=3)


def _dnf():
    return fixed_count_dnf(10, 6)


def _wide_dnf():
    return random_dnf(random.Random(5), 40, 6, 6)


def _digest(result, sketches):
    blob = repr((result.estimate, result.oracle_calls,
                 tuple(result.raw_estimates), tuple(sketches)))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _run_counter(key, **kwargs):
    if key == "amc_cnf":
        r = approx_mc(_cnf(), PARAMS, random.Random(7), **kwargs)
        assert (r.estimate, r.iteration_sketches) == (80.0, AMC_CNF_SKETCHES)
    elif key == "amc_dnf":
        r = approx_mc(_dnf(), PARAMS, random.Random(7), **kwargs)
    elif key == "min_cnf":
        r = approx_model_count_min(_cnf(), PARAMS, random.Random(11),
                                   **kwargs)
    elif key == "min_dnf":
        r = approx_model_count_min(_dnf(), PARAMS, random.Random(11),
                                   **kwargs)
    elif key == "min_dnf_wide":
        r = approx_model_count_min(_wide_dnf(), PARAMS, random.Random(11),
                                   **kwargs)
    elif key == "est_cnf":
        r = approx_model_count_est(_cnf(), PARAMS, random.Random(13),
                                   **kwargs)
    elif key == "est_dnf":
        r = approx_model_count_est(_dnf(), PARAMS, random.Random(13),
                                   **kwargs)
    elif key == "fm_cnf":
        r = flajolet_martin_count(_cnf(), random.Random(17),
                                  repetitions=7, **kwargs)
    elif key == "fm_dnf":
        r = flajolet_martin_count(_dnf(), random.Random(17),
                                  repetitions=7, **kwargs)
    else:
        r = flajolet_martin_count(_wide_dnf(), random.Random(17),
                                  repetitions=7, **kwargs)
    if key.startswith("fm"):
        blob = repr((r.estimate, r.oracle_calls, tuple(r.max_levels)))
        return (r.estimate, r.oracle_calls,
                hashlib.sha256(blob.encode()).hexdigest()[:16])
    return (r.estimate, r.oracle_calls, _digest(r, r.iteration_sketches))


@pytest.fixture(scope="module")
def pool():
    executor = ProcessExecutor(4)
    yield executor
    executor.close()


class TestPreRefactorGoldens:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_serial_bit_identical(self, key):
        assert _run_counter(key) == GOLDEN[key]

    @pytest.mark.parametrize("key", ["amc_cnf", "min_cnf", "est_cnf",
                                     "fm_cnf", "min_dnf_wide",
                                     "fm_dnf_wide"])
    def test_four_workers_bit_identical(self, key, pool):
        assert _run_counter(key, executor=pool) == GOLDEN[key]


# ----------------------------------------------------------------------
# Engine contract, exercised through a transparent toy strategy
# ----------------------------------------------------------------------

@dataclass
class _ToyStrategy(CounterStrategy):
    """Sketch = (task index, derived value); raw estimate = value."""

    repetitions: int
    calls_per_rep: int = 3
    sampled: List[int] = field(default_factory=list)

    def sample_hashes(self, rng):
        self.sampled = [rng.getrandbits(8) for _ in range(self.repetitions)]
        return list(enumerate(self.sampled))

    def run_repetition(self, task):
        index, value = task
        return (index, value), self.calls_per_rep

    def aggregate(self, tasks, sketches, oracle_calls):
        assert [t[0] for t in tasks] == [s[0] for s in sketches], \
            "sketches must arrive in task order"
        raw = [float(value) for _index, value in sketches]
        return ApproxCountResult.from_repetitions(raw, sketches,
                                                  oracle_calls)


@dataclass
class _SeededToy(_ToyStrategy):
    """Repetitions after the first charge repetition 0's value as calls."""

    def seed_rest(self, first_sketch):
        return replace(self, calls_per_rep=first_sketch[1])


class TestEngineContract:
    def test_parent_side_sampling_is_serial_order(self):
        strategy = _ToyStrategy(repetitions=5)
        result = RepetitionEngine(strategy).run(random.Random(42))
        reference = random.Random(42)
        assert strategy.sampled == [reference.getrandbits(8)
                                    for _ in range(5)]
        assert [s[1] for s in result.iteration_sketches] == strategy.sampled

    def test_oracle_calls_summed_across_repetitions(self):
        result = run_strategy(_ToyStrategy(repetitions=4, calls_per_rep=7),
                              random.Random(0))
        assert result.oracle_calls == 4 * 7

    def test_parallel_matches_serial(self, pool):
        serial = run_strategy(_ToyStrategy(repetitions=9), random.Random(5))
        parallel = run_strategy(_ToyStrategy(repetitions=9),
                                random.Random(5), executor=pool)
        assert (serial.estimate, serial.raw_estimates,
                serial.iteration_sketches, serial.oracle_calls) == \
               (parallel.estimate, parallel.raw_estimates,
                parallel.iteration_sketches, parallel.oracle_calls)

    def test_rest_runs_under_seed_rest_strategy(self, pool):
        first = random.Random(5).getrandbits(8)
        for executor in (None, pool):
            result = run_strategy(_SeededToy(repetitions=6),
                                  random.Random(5), executor=executor)
            assert result.oracle_calls == 3 + 5 * first

    def test_strategies_validate_before_consuming_rng(self):
        strategy = MinimumStrategy(formula=_cnf(), thresh=5, repetitions=3,
                                   hashes=[])
        with pytest.raises(InvalidParameterError):
            RepetitionEngine(strategy).run(random.Random(0))


class TestResultAssembly:
    def test_from_repetitions_median_and_fields(self):
        result = ApproxCountResult.from_repetitions(
            [4.0, 1.0, 9.0], sketches=[(1,), (2,), (3,)], oracle_calls=12)
        assert result.estimate == 4.0  # Lower median.
        assert result.raw_estimates == [4.0, 1.0, 9.0]
        assert result.iteration_sketches == [(1,), (2,), (3,)]
        assert result.oracle_calls == 12

    def test_spread_accessors(self):
        result = ApproxCountResult.from_repetitions([4.0, 1.0, 9.0])
        assert result.min_estimate == 1.0
        assert result.max_estimate == 9.0
        assert result.spread == 8.0
        empty = ApproxCountResult(estimate=3.0)
        assert empty.min_estimate == empty.max_estimate == 3.0
        assert empty.spread == 0.0


class TestBackendKnobOnCounters:
    """The counters accept ``backend=`` and produce identical sketches on
    every registered backend (small instance; the full contract suite
    lives in test_backends.py)."""

    def test_approx_mc_backend_bruteforce_identical(self):
        cnf = random_k_cnf(random.Random(21), 8, 20, k=3)
        a = approx_mc(cnf, PARAMS, random.Random(1), backend="cdcl")
        b = approx_mc(cnf, PARAMS, random.Random(1), backend="bruteforce")
        assert a.estimate == b.estimate
        assert a.iteration_sketches == b.iteration_sketches
