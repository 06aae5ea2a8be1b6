import io
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

import oracles
from ionsampler.detection import (
    DetectionParams,
    measure_chain,
    measure_mode,
    measure_modes,
    prepare_mode_distribution,
    prepare_occupations,
    readouts_to_csv,
)

PERFECT = DetectionParams(readout_fidelity=1.0, prep_error=0.0)


def reported_frequencies(true_n, params, trials, seed):
    rng = np.random.default_rng(seed)
    counts = Counter(measure_mode(true_n, params, rng).reported_n for _ in range(trials))
    return {n: c / trials for n, c in counts.items()}


class _ScriptedRng:
    """Stand-in generator that replays a fixed honest/dishonest script."""

    def __init__(self, honest_script, fidelity):
        self._coins = iter(honest_script)
        self._f = fidelity

    def _draw(self):
        # any value below f reads as an honest readout inside measure_mode
        return self._f / 2 if next(self._coins) else (1 + self._f) / 2

    def random(self, size=None):
        if size is None:
            return self._draw()
        return np.array([self._draw() for _ in range(size)])


def pmf_by_path_enumeration(true_n, params):
    """Exact reported-n distribution of measure_mode itself.

    Drives the real implementation down every 2^max_repetitions readout
    script and accumulates the script weights, so agreement with the
    closed-form oracle is a distribution-level identity, not a Monte
    Carlo bound.
    """
    f = params.readout_fidelity
    pmf: dict[int, float] = {}
    for script in product([True, False], repeat=params.max_repetitions):
        weight = 1.0
        for honest in script:
            weight *= f if honest else 1.0 - f
        readout = measure_mode(true_n, params, _ScriptedRng(script, f))
        pmf[readout.reported_n] = pmf.get(readout.reported_n, 0.0) + weight
    return pmf


class TestPreparation:
    def test_no_error_is_point_mass(self):
        assert prepare_mode_distribution(1, 0.0) == {1: 1.0}

    def test_symmetric_leak(self):
        dist = prepare_mode_distribution(1, 0.02)
        assert dist == pytest.approx({0: 0.01, 1: 0.98, 2: 0.01})

    def test_ground_state_folds_downward_leak(self):
        dist = prepare_mode_distribution(0, 0.02)
        assert dist == pytest.approx({0: 0.99, 1: 0.01})

    @given(
        n=st.integers(0, 6),
        eps=st.floats(0.0, 0.5, exclude_max=True),
    )
    @settings(max_examples=40)
    def test_normalized(self, n, eps):
        dist = prepare_mode_distribution(n, eps)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in dist.values())
        assert all(k >= 0 for k in dist)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            prepare_mode_distribution(1, 1.0)

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.01, 0.3, 0.999])
    @pytest.mark.parametrize("shape", [(5000,), (400, 13), (0,), (0, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_sampler_matches_per_value_search(self, eps, shape, seed):
        targets = np.random.default_rng(seed + 100).integers(0, 13, size=shape)  # targets 0-12
        got = prepare_occupations(targets, eps, np.random.default_rng(seed))
        expected = oracles.prepare_by_search(
            targets, lambda n: prepare_mode_distribution(n, eps), np.random.default_rng(seed)
        )
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("targets, eps, message", [
        ([[1, 0], [-1, 2]], 0.01, "n_target must be >= 0"),
        ([1, 2], 1.0, r"eps must be in \[0, 1\)"),
        ([1, 2], -0.1, r"eps must be in \[0, 1\)"),
    ])
    def test_sampler_rejects_bad_input(self, targets, eps, message):
        with pytest.raises(ValueError, match=message):
            prepare_occupations(targets, eps, np.random.default_rng(0))

    def test_sampler_matches_distribution(self):
        rng = np.random.default_rng(17)
        trials = 20_000
        counts = Counter(prepare_occupations(np.ones(trials, dtype=int), 0.3, rng).tolist())
        for value, p in prepare_mode_distribution(1, 0.3).items():
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(counts[value] / trials - p) < 3 * sigma + 1e-9


class TestMeasureMode:
    @given(n=st.integers(0, 9))
    @settings(max_examples=20)
    def test_perfect_readout_is_identity(self, n):
        readout = measure_mode(n, PERFECT, np.random.default_rng(0))
        assert readout.reported_n == n
        assert readout.repetitions == n
        assert not readout.overflow

    def test_two_quanta_need_two_dark_rounds(self):
        readout = measure_mode(2, PERFECT, np.random.default_rng(1))
        assert (readout.reported_n, readout.repetitions) == (2, 2)

    def test_overflow_at_cap(self):
        params = DetectionParams(readout_fidelity=1.0, max_repetitions=4)
        readout = measure_mode(9, params, np.random.default_rng(2))
        assert readout.overflow
        assert readout.reported_n == 4

    def test_empty_mode_error_rate(self):
        params = DetectionParams(readout_fidelity=0.99)
        freq = reported_frequencies(0, params, 100_000, seed=5)
        sigma = np.sqrt(0.99 * 0.01 / 100_000)
        assert abs(freq[0] - 0.99) < 3 * sigma

    @pytest.mark.parametrize("true_n", [0, 1, 2, 5, 11])
    def test_exact_distribution_matches_oracle(self, true_n):
        # full path enumeration: no sampling noise anywhere
        params = DetectionParams(readout_fidelity=0.93, max_repetitions=8)
        pmf = pmf_by_path_enumeration(true_n, params)
        expected = oracles.reported_n_pmf(true_n, 0.93, 8)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
        for value in set(pmf) | set(expected):
            assert pmf.get(value, 0.0) == pytest.approx(
                expected.get(value, 0.0), abs=1e-12
            )

    @pytest.mark.parametrize("true_n", [0, 1, 3])
    def test_matches_markov_oracle(self, true_n):
        params = DetectionParams(readout_fidelity=0.9, max_repetitions=6)
        trials = 30_000
        freq = reported_frequencies(true_n, params, trials, seed=true_n)
        pmf = oracles.reported_n_pmf(true_n, 0.9, 6)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
        for value, p in pmf.items():
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(freq.get(value, 0.0) - p) < 3 * sigma + 1e-9

    def test_error_rate_monotone_in_fidelity(self):
        trials = 20_000
        rates = []
        for f in (0.9, 0.95, 0.99, 1.0):
            params = DetectionParams(readout_fidelity=f)
            freq = reported_frequencies(1, params, trials, seed=42)
            rates.append(1.0 - freq.get(1, 0.0))
        assert rates == sorted(rates, reverse=True)
        assert rates[-1] == 0.0

    def test_fidelity_range_enforced(self):
        with pytest.raises(ValueError):
            DetectionParams(readout_fidelity=0.5)
        with pytest.raises(ValueError):
            DetectionParams(readout_fidelity=1.01)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            measure_mode(-1, PERFECT, np.random.default_rng(0))


class TestMeasureModes:
    def test_perfect_readout_reproduces_array(self):
        true_n = np.arange(12).reshape(3, 4) % 10
        reported = measure_modes(true_n, PERFECT, np.random.default_rng(0))
        np.testing.assert_array_equal(reported, true_n)

    def test_overflow_at_cap(self):
        # with a perfect readout a mode overflows exactly when n >= cap
        params = DetectionParams(readout_fidelity=1.0, max_repetitions=4)
        true_n = np.arange(8)
        reported = measure_modes(true_n, params, np.random.default_rng(2))
        np.testing.assert_array_equal(reported, np.minimum(true_n, 4))
        np.testing.assert_array_equal(reported == 4, true_n >= 4)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            measure_modes([1, -1], PERFECT, np.random.default_rng(0))


class TestMeasureChain:
    def test_perfect_readout_reproduces_vector(self):
        occ = (1, 0, 2, 1)
        readouts = measure_chain(occ, PERFECT, seed=3)
        assert [r.reported_n for r in readouts] == list(occ)
        assert [r.repetitions for r in readouts] == list(occ)

    def test_seed_determinism(self):
        params = DetectionParams(readout_fidelity=0.95)
        a = measure_chain((1, 2, 0), params, seed=11)
        b = measure_chain((1, 2, 0), params, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        params = DetectionParams(readout_fidelity=0.7 + 0.05)
        runs = {tuple(r.reported_n for r in measure_chain((3, 3, 3), params, seed=s)) for s in range(40)}
        assert len(runs) > 1

    def test_modes_are_independent(self):
        # joint reported-n table over two modes should factorize
        params = DetectionParams(readout_fidelity=0.9, max_repetitions=5)
        trials = 30_000
        table = np.zeros((6, 6))
        for s in range(trials):
            a, b = measure_chain((1, 1), params, seed=s)
            table[a.reported_n, b.reported_n] += 1
        # pool reported_n >= 2 (9% per mode) so that every expected cell is
        # >= 5, where the chi-square approximation behind p_value holds
        pooled = np.add.reduceat(np.add.reduceat(table, [0, 1, 2], axis=0), [0, 1, 2], axis=1)
        _, p_value, _, expected = chi2_contingency(pooled)
        assert expected.min() >= 5
        assert p_value > 0.001

    def test_superposition_weights_survive_to_reports(self):
        # prepare from a spread distribution, then read out noiselessly:
        # reported-n frequencies must reproduce the preparation weights
        trials = 20_000
        rng = np.random.default_rng(23)
        prepared = prepare_occupations(np.ones(trials, dtype=int), 0.3, rng)
        counts = Counter(measure_modes(prepared, PERFECT, rng).tolist())
        for value, p in prepare_mode_distribution(1, 0.3).items():
            sigma = np.sqrt(p * (1 - p) / trials)
            assert abs(counts[value] / trials - p) < 3 * sigma + 1e-9


def test_csv_format():
    true_n = np.array([[2, 0], [5, 0]])
    reported = np.array([[2, 1], [4, 0]])
    buf = io.StringIO()
    readouts_to_csv(true_n, reported, 4, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "trial,mode,true_n,reported_n,repetitions,overflow_flag"
    assert lines[1] == "0,1,2,2,2,0"
    assert lines[3] == "1,1,5,4,4,1"


def _readout_cases():
    rng = np.random.default_rng(17)
    # 10 001 trials of 8 modes: trial indices past 10^4, true_n past 10, and
    # more lines than one write block
    many = rng.integers(0, 14, size=(10_001, 8))
    yield many, np.minimum(many + rng.integers(-1, 2, size=many.shape), 10).clip(0), 10
    yield np.array([[3], [0], [12]]), np.array([[3], [1], [6]]), 6  # M = 1
    yield np.zeros((0, 4), dtype=int), np.zeros((0, 4), dtype=int), 10  # zero rows
    overflow = rng.integers(0, 6, size=(50, 3))
    yield overflow, np.full(overflow.shape, 4), 4  # every readout overflows
    wide = rng.integers(0, 13, size=(40, 40))
    yield wide, wide, 12  # M = 40, entries up to 12
    past_cap = rng.integers(0, 9, size=(30, 5))
    yield past_cap, past_cap + 3, 6  # reported above max_repetitions
    yield np.array([[4, 0, 1, 2]]), np.array([[3, 0, 1, 10]]), 10  # a single trial
    zero_column = rng.integers(0, 5, size=(25, 3))
    zero_column[:, 1] = 0
    yield zero_column, np.minimum(zero_column, 4), 4  # one mode's true_n all zero
    yield np.array([[-2, 105], [0, -7]]), np.array([[-1, 3], [120, -4]]), 3  # negative and >= 100


@pytest.mark.parametrize("true_n, reported, cap", list(_readout_cases()))
def test_csv_matches_row_writer(true_n, reported, cap):
    buf = io.StringIO()
    readouts_to_csv(true_n, reported, cap, buf)
    assert buf.getvalue() == oracles.readouts_csv_text(true_n, reported, cap)
