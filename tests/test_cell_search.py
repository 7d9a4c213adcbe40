"""Tests for the incremental cell-search engine (`repro.core.cell_search`).

The engine must be *indistinguishable* from one-shot BoundedSAT probes
(:func:`bounded_sat_cnf`) in everything except cost: identical counts,
the brute-force threshold crossing from every level-search start on CNF
and DNF, oracle-call counts no worse than replaying the same probes
one-shot, and strict probe discipline (no level requested twice per
repetition)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidParameterError
from repro.core.approxmc import approx_mc, find_level
from repro.core.bounded_sat import bounded_sat_cnf, bounded_sat_dnf
from repro.core.cell_search import (
    CellSearchEngine,
    DnfCellSearch,
    HashedSession,
    cell_search_for,
)
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.formulas.generators import (fixed_count_cnf, fixed_count_dnf,
                                       random_k_cnf)
from repro.hashing.base import LinearHash
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


# Shared fixtures for the ApproxMC-level checks: an instance with a deep
# threshold crossing (the regime where the start hint saves most).
def _cnf_instance():
    return fixed_count_cnf(14, 12)


def _cnf_hashes(reps):
    family = ToeplitzHashFamily(14, 14)
    return [family.sample(random.Random(500 + i)) for i in range(reps)]


def _crossing(formula, h, thresh):
    """``(min(thresh, |cell(m)|), m)`` at the smallest level ``m`` whose
    cell holds fewer than ``thresh`` models (``n`` if none does), by
    enumerating every assignment."""
    models = list(formula.solutions_bruteforce())
    for m in range(h.out_bits + 1):
        size = sum(1 for x in models if h.prefix_value(x, m) == 0)
        if size < thresh:
            return size, m
    return thresh, h.out_bits


def _toeplitz(n, seed):
    return ToeplitzHashFamily(n, n).sample(random.Random(seed))


# Offset 0 maps 0 to 0^6, so the all-true formula's level-n cell is
# non-empty under it: full at thresh 1.
_LINEAR = LinearHash(6, _toeplitz(6, 5).rows, [0] * 6)

# (formula, hash, thresh): a mid-level crossing, fewer than thresh models
# (crossing at level 0), and a level-n cell that is still full.
FIND_LEVEL_CASES = {
    "cnf-mid": (random_k_cnf(random.Random(3), 10, 20, k=3),
                _toeplitz(10, 1), 8),
    "cnf-level0": (fixed_count_cnf(8, 2), _toeplitz(8, 2), 8),
    "cnf-full": (CnfFormula(6, []), _LINEAR, 1),
    "dnf-mid": (DnfFormula(10, [[1, 2], [-3, 4, 5], [6, -7], [8]]),
                _toeplitz(10, 3), 8),
    "dnf-level0": (fixed_count_dnf(8, 2), _toeplitz(8, 4), 8),
    "dnf-full": (DnfFormula(6, [[]]), _LINEAR, 1),
}


class TestFindLevel:
    @pytest.mark.parametrize("case", sorted(FIND_LEVEL_CASES))
    def test_every_start_finds_the_brute_force_crossing(self, case):
        formula, h, thresh = FIND_LEVEL_CASES[case]
        n = h.out_bits
        expected = _crossing(formula, h, thresh)
        if case.endswith("level0"):
            assert expected[1] == 0
        elif case.endswith("full"):
            assert expected == (thresh, n)
        calls = []
        for start in range(n + 1):
            oracle = (NpOracle(formula) if isinstance(formula, CnfFormula)
                      else None)
            cells = cell_search_for(formula, h, thresh, oracle)
            assert find_level(cells, start) == expected, f"start {start}"
            assert len(set(cells.request_log)) == len(cells.request_log), \
                f"start {start} requested a level twice"
            calls.append(oracle.calls if oracle is not None else 0)
        # The start approx_mc hands later repetitions never costs more
        # than Algorithm 5's climb from level 0.
        assert calls[max(expected[1] - 1, 0)] <= calls[0]

    def test_approx_mc_matches_one_shot_cnf(self):
        # Each repetition's (count, level) is what one-shot BoundedSAT
        # reports at that level, and the level is the threshold crossing,
        # although repetitions 1..t-1 start next to repetition 0's level.
        formula = _cnf_instance()
        hashes = _cnf_hashes(PARAMS.repetitions)
        thresh = PARAMS.thresh

        def one_shot(h, m):
            return len(bounded_sat_cnf(NpOracle(formula), h, m, thresh))

        result = approx_mc(formula, PARAMS, random.Random(3), hashes=hashes)
        for (count, level), h in zip(result.iteration_sketches, hashes):
            assert count == one_shot(h, level)
            assert count < thresh or level == h.out_bits
            if level:
                assert one_shot(h, level - 1) >= thresh


class TestOracleCallAccounting:
    def test_incremental_no_worse_than_one_shot(self):
        # Replay each repetition's distinct probes through one-shot
        # BoundedSAT on a separate oracle: the engine never pays more,
        # whether the search walks up from level 0 or down from deep.
        formula = _cnf_instance()
        for start in (0, 7, 14):
            for h in _cnf_hashes(PARAMS.repetitions):
                oracle = NpOracle(formula)
                cells = cell_search_for(formula, h, PARAMS.thresh, oracle)
                find_level(cells, start)
                replay = NpOracle(formula)
                for m in dict.fromkeys(cells.request_log):
                    bounded_sat_cnf(replay, h, m, PARAMS.thresh)
                assert oracle.calls <= replay.calls, start

    def test_sublinear_strategies_beat_linear(self):
        # Proposition 1 accounting: approx_mc starts repetitions 1..t-1
        # one level above repetition 0's crossing; on a deep crossing
        # that must cost fewer calls than Algorithm 5's linear climb from
        # level 0 in every repetition, on the same hashes.
        formula = _cnf_instance()
        hashes = _cnf_hashes(PARAMS.repetitions)
        from_zero = 0
        for h in hashes:
            oracle = NpOracle(formula)
            find_level(cell_search_for(formula, h, PARAMS.thresh, oracle))
            from_zero += oracle.calls
        seeded = approx_mc(formula, PARAMS, random.Random(8),
                           hashes=hashes).oracle_calls
        assert seeded < from_zero

    def test_level_zero_probed_exactly_once_per_repetition(self):
        # Regression: an earlier binary search issued the level-0 probe
        # twice.
        formula = _cnf_instance()
        h = _cnf_hashes(1)[0]
        engine = CellSearchEngine(formula, h, PARAMS.thresh,
                                  NpOracle(formula))
        find_level(engine)
        assert engine.request_log.count(0) == 1

    def test_no_level_charged_twice_per_repetition(self):
        # Memoisation: within a repetition every level is *charged* at
        # most once, whatever the probe sequence requests.
        formula = _cnf_instance()
        h = _cnf_hashes(1)[0]
        oracle = NpOracle(formula)
        for start in (0, h.out_bits):
            engine = CellSearchEngine(formula, h, PARAMS.thresh, oracle)
            find_level(engine, start)
            count0 = engine.cell_count(0)
            calls = oracle.calls
            assert engine.cell_count(0) == count0
            assert oracle.calls == calls, start


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
