"""Tests for the incremental cell-search engine (`repro.core.cell_search`).

The engine must be *indistinguishable* from one-shot BoundedSAT probes
(:func:`bounded_sat_cnf`) in everything except cost: identical counts,
identical ApproxMC sketches across all three search strategies on CNF and
DNF, oracle-call counts no worse than replaying the same probes one-shot,
and strict probe discipline (level 0 exactly once per repetition)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidParameterError
from repro.core.approxmc import _STRATEGIES, approx_mc
from repro.core.bounded_sat import bounded_sat_cnf, bounded_sat_dnf
from repro.core.cell_search import (
    CellSearchEngine,
    DnfCellSearch,
    HashedSession,
    cell_search_for,
)
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.formulas.generators import fixed_count_cnf, random_k_cnf
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.sat.oracle import NpOracle
from repro.streaming.base import SketchParams

PARAMS = SketchParams(eps=0.6, delta=0.2,
                      thresh_constant=24.0, repetitions_constant=5.0)


@st.composite
def cnf_with_hash(draw):
    n = draw(st.integers(2, 7))
    cnf = CnfFormula(n, draw(st.lists(
        st.lists(st.integers(-n, n).filter(lambda l: l != 0),
                 min_size=1, max_size=3), max_size=8)))
    seed = draw(st.integers(0, 2**16))
    h = ToeplitzHashFamily(n, n).sample(random.Random(seed))
    return cnf, h


class TestEngineCounts:
    @given(cnf_with_hash(), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_one_shot_at_every_level(self, data, thresh):
        cnf, h = data
        engine = CellSearchEngine(cnf, h, thresh, NpOracle(cnf))
        for m in range(h.out_bits + 1):
            expected = len(bounded_sat_cnf(NpOracle(cnf), h, m, thresh))
            assert engine.cell_count(m) == expected, f"level {m}"

    @given(cnf_with_hash(), st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_counts_match_in_any_probe_order(self, data, thresh):
        cnf, h = data
        engine = CellSearchEngine(cnf, h, thresh, NpOracle(cnf))
        levels = list(range(h.out_bits + 1))
        random.Random(0).shuffle(levels)
        for m in levels:
            expected = len(bounded_sat_cnf(NpOracle(cnf), h, m, thresh))
            assert engine.cell_count(m) == expected, f"level {m}"

    @given(cnf_with_hash(), st.integers(1, 10), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_models_match_cell_with_target(self, data, p, m):
        cnf, h = data
        m = min(m, h.out_bits)
        for target_full in (0, (1 << h.out_bits) - 1):
            engine = CellSearchEngine(cnf, h, p, NpOracle(cnf),
                                      target=target_full)
            prefix = engine.target_prefix(m)
            expected = sorted(
                x for x in cnf.solutions_bruteforce()
                if h.prefix_value(x, m) == prefix)
            got = engine.models(m, p)
            assert len(got) == len(set(got)), "duplicate models"
            if len(expected) <= p:
                assert sorted(got) == expected
            else:
                assert len(got) == p
                assert set(got) <= set(expected)

    def test_deeper_levels_free_after_exhaustion(self):
        cnf = fixed_count_cnf(10, 4)  # 16 models.
        oracle = NpOracle(cnf)
        h = ToeplitzHashFamily(10, 10).sample(random.Random(1))
        engine = CellSearchEngine(cnf, h, 64, oracle)
        engine.cell_count(0)  # Exhausts the whole solution set.
        calls = oracle.calls
        for m in range(1, 11):
            expected = len(bounded_sat_cnf(NpOracle(cnf), h, m, 64))
            assert engine.cell_count(m) == expected
        assert oracle.calls == calls, "post-exhaustion probes must be free"

    def test_requires_oracle_for_cnf(self):
        cnf = CnfFormula(2, [[1]])
        h = ToeplitzHashFamily(2, 2).sample(random.Random(0))
        with pytest.raises(InvalidParameterError):
            cell_search_for(cnf, h, 4, oracle=None)

    def test_dispatcher_picks_implementations(self):
        h = ToeplitzHashFamily(3, 3).sample(random.Random(0))
        cnf = CnfFormula(3, [[1]])
        dnf = DnfFormula(3, [[1]])
        oracle = NpOracle(cnf)
        assert isinstance(cell_search_for(cnf, h, 4, oracle),
                          CellSearchEngine)
        assert isinstance(cell_search_for(dnf, h, 4), DnfCellSearch)

    def test_dnf_cell_search_matches_bounded_sat(self):
        dnf = DnfFormula(6, [[1, 2], [-3, 4], [5]])
        h = ToeplitzHashFamily(6, 6).sample(random.Random(2))
        cells = DnfCellSearch(dnf, h, 5)
        for m in range(7):
            assert cells.cell_count(m) == \
                len(bounded_sat_dnf(dnf, h, m, 5))


# Shared fixtures for the strategy-level comparisons: instances with a
# deep threshold crossing (the regime the sub-linear strategies target).
def _cnf_instance():
    return fixed_count_cnf(14, 12)


def _cnf_hashes(reps):
    family = ToeplitzHashFamily(14, 14)
    return [family.sample(random.Random(500 + i)) for i in range(reps)]


class TestStrategyEquivalence:
    def test_incremental_matches_one_shot_all_strategies_cnf(self):
        # Each repetition's (count, level) is what one-shot BoundedSAT
        # reports at that level, and the level is the threshold crossing.
        formula = _cnf_instance()
        hashes = _cnf_hashes(PARAMS.repetitions)
        thresh = PARAMS.thresh

        def one_shot(h, m):
            return len(bounded_sat_cnf(NpOracle(formula), h, m, thresh))

        for strategy in ("linear", "binary", "galloping"):
            result = approx_mc(formula, PARAMS, random.Random(3),
                               search=strategy, hashes=hashes)
            for (count, level), h in zip(result.iteration_sketches, hashes):
                assert count == one_shot(h, level), strategy
                assert count < thresh or level == h.out_bits, strategy
                if level:
                    assert one_shot(h, level - 1) >= thresh, strategy

    def test_all_strategies_identical_sketches_cnf(self):
        formula = _cnf_instance()
        hashes = _cnf_hashes(PARAMS.repetitions)
        sketches = [
            approx_mc(formula, PARAMS, random.Random(4), search=s,
                      hashes=hashes).iteration_sketches
            for s in ("linear", "binary", "galloping")
        ]
        assert sketches[0] == sketches[1] == sketches[2]

    def test_all_strategies_identical_sketches_dnf(self):
        rng = random.Random(5)
        formula = DnfFormula(12, [[1, 2], [-3, 4, 5], [6, -7], [8]])
        family = ToeplitzHashFamily(12, 12)
        hashes = [family.sample(rng) for _ in range(PARAMS.repetitions)]
        sketches = [
            approx_mc(formula, PARAMS, random.Random(6), search=s,
                      hashes=hashes).iteration_sketches
            for s in ("linear", "binary", "galloping")
        ]
        assert sketches[0] == sketches[1] == sketches[2]


class TestOracleCallAccounting:
    def test_incremental_no_worse_than_one_shot(self):
        # Replay each repetition's distinct probes through one-shot
        # BoundedSAT on a separate oracle: the engine never pays more.
        formula = _cnf_instance()
        for strategy, find_level in _STRATEGIES.items():
            for h in _cnf_hashes(PARAMS.repetitions):
                oracle = NpOracle(formula)
                cells = cell_search_for(formula, h, PARAMS.thresh, oracle)
                find_level(cells)
                replay = NpOracle(formula)
                for m in dict.fromkeys(cells.request_log):
                    bounded_sat_cnf(replay, h, m, PARAMS.thresh)
                assert oracle.calls <= replay.calls, strategy

    def test_sublinear_strategies_beat_linear(self):
        # Proposition 1 accounting: with memoised probes, binary and
        # galloping must not exceed linear on the same hashes (deep
        # crossing -- the regime they are designed for).
        formula = _cnf_instance()
        hashes = _cnf_hashes(PARAMS.repetitions)
        calls = {
            s: approx_mc(formula, PARAMS, random.Random(8), search=s,
                         hashes=hashes).oracle_calls
            for s in ("linear", "binary", "galloping")
        }
        assert calls["binary"] <= calls["linear"]
        assert calls["galloping"] <= calls["linear"]
        assert calls["binary"] < calls["linear"]  # Strict on deep crossing.

    def test_level_zero_probed_exactly_once_per_repetition(self):
        # Regression: binary search used to issue the level-0 probe twice.
        formula = _cnf_instance()
        h = _cnf_hashes(1)[0]
        oracle = NpOracle(formula)
        for strategy, find_level in _STRATEGIES.items():
            engine = CellSearchEngine(formula, h, PARAMS.thresh, oracle)
            find_level(engine)
            assert engine.request_log.count(0) == 1, strategy

    def test_no_level_charged_twice_per_repetition(self):
        # Memoisation: within a repetition every level is *charged* at
        # most once, whatever the probe sequence requests.
        formula = _cnf_instance()
        h = _cnf_hashes(1)[0]
        oracle = NpOracle(formula)
        for strategy, find_level in _STRATEGIES.items():
            engine = CellSearchEngine(formula, h, PARAMS.thresh, oracle)
            find_level(engine)
            count0 = engine.cell_count(0)
            calls = oracle.calls
            assert engine.cell_count(0) == count0
            assert oracle.calls == calls, strategy


class TestHashedSession:
    def test_lazy_rows_attach_on_demand(self):
        cnf = random_k_cnf(random.Random(9), 8, 12, k=3)
        h = ToeplitzHashFamily(8, 8).sample(random.Random(10))
        hashed = HashedSession(NpOracle(cnf), h, lazy=True)
        assert hashed.y_vars == []
        hashed.prefix_assumptions(3)
        assert len(hashed.y_vars) == 3
        hashed.prefix_assumptions(1)
        assert len(hashed.y_vars) == 3  # Never shrinks.
        with pytest.raises(InvalidParameterError):
            hashed.ensure_rows(9)

    def test_eager_session_matches_hash(self):
        cnf = CnfFormula(5, [[1, 2, 3]])
        h = ToeplitzHashFamily(5, 6).sample(random.Random(11))
        hashed = HashedSession(NpOracle(cnf), h)
        assert len(hashed.y_vars) == 6
        assert hashed.session.solve(hashed.prefix_assumptions(2, 0b10))
        model = hashed.session.model_int() & 0b11111
        assert h.prefix_value(model, 2) == 0b10
