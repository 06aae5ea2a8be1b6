import io
import itertools
import json
import re
import tracemalloc
from collections import Counter
from math import comb, factorial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ionsampler import boson_stats
from ionsampler.boson_stats import (
    OUTCOME_MAX_COUNT,
    RYSER_CHUNK_ELEMENTS,
    check_samples,
    distribution_from_json,
    distribution_to_json,
    empirical_distribution,
    enumerate_outcomes,
    exact_distribution,
    fock_generator_entries,
    fock_oracle_distribution,
    fock_oracle_refusal,
    outcome_probability,
    permanent_ryser,
    sample_outcomes,
    samples_from_csv,
    samples_to_csv,
    total_variation_distance,
)
from ionsampler.linear_optics import beam_splitter_unitary, evolve_modes, haar_unitary

BALANCED = beam_splitter_unitary(1, np.pi / 4, 2)


class TestPermanents:
    def test_two_by_two(self):
        assert permanent_ryser([[1, 2], [3, 4]]) == pytest.approx(10)

    def test_one_by_one(self):
        assert permanent_ryser([[3.5 + 1j]]) == pytest.approx(3.5 + 1j)

    def test_identity_has_unit_permanent(self):
        for n in range(1, 7):
            assert permanent_ryser(np.eye(n)) == pytest.approx(1.0)

    def test_all_ones_gives_factorial(self):
        assert permanent_ryser(np.ones((3, 3))) == pytest.approx(6)

    def test_empty_matrix_permanent_is_one(self):
        assert permanent_ryser(np.zeros((0, 0))) == pytest.approx(1.0)

    def test_against_reference_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            expected = oracles.permanent_reference(a)
            assert permanent_ryser(a) == pytest.approx(expected, rel=1e-10)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5))
    @settings(max_examples=50)
    def test_row_permutation_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        shuffled = a[rng.permutation(n), :]
        assert permanent_ryser(shuffled) == pytest.approx(
            permanent_ryser(a), rel=1e-10, abs=1e-12
        )

    # Odd and even sizes with more than RYSER_CHUNK_ELEMENTS column subsets,
    # so the kernel sums several chunks; the expected values are closed forms.
    CHUNKED = {15: (5, 5, 5), 20: (7, 7, 6)}

    @pytest.mark.parametrize("n", sorted(CHUNKED))
    def test_chunked_all_ones_gives_factorial(self, n):
        assert 2**n > RYSER_CHUNK_ELEMENTS
        # Ryser's terms for the all-ones matrix are C(n,k) k^n with alternating
        # signs; they add in magnitude to cond * n!, so rounding alone gives a
        # relative error of order eps * cond (4e-9 at n = 15, 2e-6 at n = 20).
        cond = sum(comb(n, k) * k**n for k in range(n + 1)) / factorial(n)
        assert permanent_ryser(np.ones((n, n))) == pytest.approx(
            factorial(n), rel=16 * np.finfo(float).eps * cond
        )

    @pytest.mark.parametrize("n", sorted(CHUNKED))
    def test_chunked_rank_one(self, n):
        rng = np.random.default_rng(n)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = factorial(n) * np.prod(u) * np.prod(v)
        assert permanent_ryser(np.outer(u, v)) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", sorted(CHUNKED))
    def test_chunked_block_diagonal(self, n):
        rng = np.random.default_rng(100 + n)
        blocks = [
            rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)) for k in self.CHUNKED[n]
        ]
        expected = np.prod([oracles.permanent_reference(b) for b in blocks])
        got = permanent_ryser(scipy.linalg.block_diag(*blocks))
        assert got == pytest.approx(expected, rel=1e-10)

    # Every row-index tuple of 4 rows out of 6, in lexicographic order: the
    # kernel's chunk of 1024 permanents at n = 4 ends between (4,4,2,3) and
    # (4,4,2,4), so a shared prefix straddles the seam.  Shuffled, reversed
    # and repeated rows show that sharing never relies on that order.
    ROW_ORDERS = {
        "lexicographic": lambda rows, rng: rows,
        "shuffled": lambda rows, rng: rows[rng.permutation(len(rows))],
        "reversed": lambda rows, rng: rows[::-1],
        "repeated": lambda rows, rng: np.repeat(rows[rng.choice(len(rows), 300)], 4, axis=0),
    }

    @pytest.mark.parametrize("order", sorted(ROW_ORDERS))
    def test_batched_rows_match_reference(self, order):
        rng = np.random.default_rng(11)
        cols = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        lexicographic = np.array(list(itertools.product(range(6), repeat=4)))
        assert tuple(lexicographic[RYSER_CHUNK_ELEMENTS // 16 - 1]) == (4, 4, 2, 3)
        rows = self.ROW_ORDERS[order](lexicographic, rng)
        reference = {
            tuple(r): oracles.permanent_reference(cols[list(r)]) for r in lexicographic
        }
        got = boson_stats._ryser_sums(cols, rows)
        expected = np.array([reference[tuple(r)] for r in rows.tolist()])
        assert got == pytest.approx(expected, rel=1e-10)

    def test_guards(self):
        with pytest.raises(ValueError):
            permanent_ryser(np.ones((31, 31)))
        with pytest.raises(ValueError):
            permanent_ryser(np.ones((2, 3)))


class TestOutcomeProbability:
    def test_single_boson_is_square_modulus(self):
        a = haar_unitary(4, seed=8)
        for i in range(4):
            for j in range(4):
                t = tuple(int(x == i) for x in range(4))
                s = tuple(int(x == j) for x in range(4))
                assert outcome_probability(a, s, t) == pytest.approx(
                    abs(a[j, i]) ** 2, abs=1e-12
                )

    def test_balanced_splitter_pair(self):
        expected = oracles.balanced_splitter_pair_distribution()
        for s, p in expected.items():
            assert outcome_probability(BALANCED, s, (1, 1)) == pytest.approx(p, abs=1e-12)

    def test_identity_is_point_mass(self):
        assert outcome_probability(np.eye(3), (0, 2, 1), (0, 2, 1)) == pytest.approx(1.0)
        assert outcome_probability(np.eye(3), (1, 1, 1), (0, 2, 1)) == pytest.approx(0.0)

    def test_matches_reference_on_replicated_submatrix(self):
        # rows follow the outcome and columns the inputs, each index repeated
        # by its occupation; bunched and unbunched outcomes at M = 5 and 8
        cases = [
            (5, (1, 1, 1, 0, 0), [(1, 1, 1, 0, 0), (0, 2, 0, 1, 0), (3, 0, 0, 0, 0)]),
            (5, (2, 1, 0, 0, 0), [(0, 1, 1, 0, 1), (1, 0, 0, 0, 2), (0, 0, 3, 0, 0)]),
            (8, (1, 1, 1, 1, 0, 0, 0, 1), [(0, 1, 0, 1, 1, 0, 1, 1), (2, 0, 0, 2, 0, 0, 0, 1)]),
            (8, (0, 3, 0, 0, 2, 0, 0, 0), [(1, 1, 1, 1, 1, 0, 0, 0), (0, 0, 0, 5, 0, 0, 0, 0)]),
        ]
        for m, t, outcomes in cases:
            a = haar_unitary(m, seed=m)
            for s in outcomes:
                sub = np.repeat(np.repeat(a, s, axis=0), t, axis=1)
                norm = np.prod([factorial(x) for x in s + t])
                expected = abs(oracles.permanent_reference(sub)) ** 2 / norm
                assert outcome_probability(a, s, t) == pytest.approx(expected, rel=1e-10)

    def test_bad_occupations_rejected(self):
        with pytest.raises(ValueError, match="totals differ"):
            outcome_probability(np.eye(2), (2, 0), (1, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            outcome_probability(np.eye(2), (2, -1), (1, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            outcome_probability(np.eye(2), (1, 0), (2, -1))

    def test_relabeling_covariance(self):
        a = haar_unitary(4, seed=13)
        perm = [2, 0, 3, 1]
        s, t = (1, 0, 2, 0), (0, 1, 1, 1)
        p = outcome_probability(a, s, t)
        # permuting output rows relabels the outcome
        rows = a[perm, :]
        assert outcome_probability(rows, tuple(np.array(s)[perm]), t) == pytest.approx(
            p, abs=1e-12
        )
        # permuting input columns relabels the inputs
        cols = a[:, perm]
        assert outcome_probability(cols, s, tuple(np.array(t)[perm])) == pytest.approx(
            p, abs=1e-12
        )


class TestEnumeration:
    def test_two_mode_order(self):
        assert enumerate_outcomes(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_counts_match_stars_and_bars(self):
        assert len(enumerate_outcomes(4, 3)) == 20
        for m, n in [(1, 5), (3, 0), (5, 4)]:
            outs = enumerate_outcomes(m, n)
            assert len(outs) == comb(n + m - 1, m - 1)
            assert len(set(outs)) == len(outs)
            assert all(sum(o) == n for o in outs)

    def test_single_mode(self):
        assert enumerate_outcomes(1, 5) == [(5,)]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_rank_is_the_enumeration_order(self, m):
        for n in range(8):
            outs = enumerate_outcomes(m, n)
            shuffled = np.random.default_rng(m * 8 + n).permutation(len(outs))
            rows = np.array(outs, dtype=np.int64).reshape(len(outs), m)[shuffled]
            assert boson_stats._outcome_rank(rows, n).tolist() == shuffled.tolist()


class TestOutcomeTable:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_table_is_the_tuple_recursion(self, m):
        for n in range(8):
            table = boson_stats._outcome_table(m, n)
            assert table.shape == (comb(n + m - 1, n), m)
            assert list(map(tuple, table.tolist())) == oracles.outcome_tuples(m, n)

    @pytest.mark.parametrize("n, dtype", [(0, np.uint8), (255, np.uint8), (256, np.uint16)])
    def test_dtype_is_the_smallest_that_holds_n(self, n, dtype):
        assert boson_stats._outcome_table(2, n).dtype == dtype

    def test_distribution_holds_the_table_and_tuples_on_demand(self):
        dist = exact_distribution(haar_unitary(4, seed=3), (2, 1, 0, 0))
        assert dist.table.dtype == np.uint8
        np.testing.assert_array_equal(dist.table, np.array(oracles.outcome_tuples(4, 3)))
        assert dist.outcomes == tuple(oracles.outcome_tuples(4, 3))
        assert all(type(s) is tuple and all(type(x) is int for x in s) for s in dist.outcomes)

    def test_samples_are_int64(self):
        dist = exact_distribution(haar_unitary(3, seed=1), (1, 1, 0))
        assert sample_outcomes(dist, 50, seed=2).dtype == np.int64

    def test_oracle_hands_over_the_same_table(self):
        u = haar_unitary(5, seed=4)
        oracle = fock_oracle_distribution(u, (0, 2, 1, 0, 1))
        np.testing.assert_array_equal(oracle.table, boson_stats._outcome_table(5, 4))

    def test_tvd_refuses_tables_that_differ(self):
        a = exact_distribution(BALANCED, (1, 1))
        b = boson_stats.OutcomeDistribution(2, 2, "exact", a.table[::-1], a.probabilities)
        with pytest.raises(ValueError, match="outcome orders differ"):
            total_variation_distance(a, b)


class TestDistributions:
    def test_identity_point_mass(self):
        dist = exact_distribution(np.eye(3), (1, 0, 2))
        probs = dict(zip(dist.outcomes, dist.probabilities))
        assert probs[(1, 0, 2)] == pytest.approx(1.0, abs=1e-12)

    def test_balanced_splitter_table(self):
        dist = exact_distribution(BALANCED, (1, 1))
        expected = oracles.balanced_splitter_pair_distribution()
        for s, p in zip(dist.outcomes, dist.probabilities):
            assert p == pytest.approx(expected[s], abs=1e-12)

    def test_haar_matches_fock_oracle(self):
        # unbunched, then bunched inputs (repeated columns of the permanent)
        for inputs in [(1, 1, 1, 0), (2, 1, 0, 0, 0), (0, 3, 0, 1)]:
            u = haar_unitary(len(inputs), seed=21)
            exact = exact_distribution(u, inputs)
            oracle = fock_oracle_distribution(u, inputs)
            assert total_variation_distance(exact, oracle) < 1e-8

    def test_generator_route_matches_evolved_unitary(self):
        rng = np.random.default_rng(4)
        k = rng.normal(size=(3, 3))
        k = (k + k.T) / 2
        np.fill_diagonal(k, 0.0)
        t = 0.8
        exact = exact_distribution(evolve_modes(k, t), (1, 2, 0))
        oracle = fock_oracle_distribution(k, (1, 2, 0), duration=t)
        assert total_variation_distance(exact, oracle) < 1e-8

    @pytest.mark.parametrize(
        "inputs, duration",
        [((1, 1, 1, 0), None), ((1, 1, 1, 1, 0, 0), None), ((2, 1, 0, 0, 0), None),
         ((0, 3, 0, 1), None), ((1, 2, 0, 1), 0.8), ((2, 0, 1), 1.7)],
        ids=["unbunched", "unbunched-126-states", "bunched", "bunched-triple",
             "duration", "duration-bunched"],
    )
    def test_fock_oracle_matches_dense_evolution(self, inputs, duration):
        # a third route: the lifted generator as a dense matrix, exponentiated
        m = len(inputs)
        if duration is None:
            operator = haar_unitary(m, seed=11 + m)
        else:
            rng = np.random.default_rng(m)
            k = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            operator = (k + k.conj().T) / 2
        oracle = fock_oracle_distribution(operator, inputs, duration=duration)
        expected = oracles.fock_evolution_distribution(operator, inputs, duration)
        assert list(oracle.outcomes) == oracles.fock_basis(m, sum(inputs))
        assert 0.5 * np.abs(oracle.probabilities - expected).sum() < 1e-12

    @pytest.mark.parametrize("inputs", [(1, 1, 0), (1, 1, 0, 0, 0)], ids=["fewer", "more"])
    @pytest.mark.parametrize("duration", [None, 0.8], ids=["unitary", "duration"])
    def test_fock_oracle_dimension_mismatch(self, inputs, duration):
        k = np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=float)
        operator = k if duration is not None else evolve_modes(k, 0.8)
        with pytest.raises(ValueError, match="operator dimension does not match occupations"):
            fock_oracle_distribution(operator, inputs, duration=duration)

    def test_nan_probabilities_fail_the_normalization_check(self, monkeypatch):
        # a NaN sum compares False against any tolerance; the check must not
        # pass it (the Fock lift overflows to inf and NaN at thousands of
        # bosons in two modes)
        monkeypatch.setattr(boson_stats, "_probabilities", lambda u, table, t: np.full(len(table), np.nan))
        with pytest.raises(RuntimeError, match="sums to 1[+]nan"):
            exact_distribution(np.eye(2), (1, 0))

    def test_nan_matrix_fails_the_unitarity_check(self):
        with pytest.raises(ValueError, match=re.escape("not unitary: max |U^dag U - I| = nan")):
            exact_distribution(np.full((2, 2), np.nan), (1, 0))

    def test_fock_identity_point_mass(self):
        dist = fock_oracle_distribution(np.eye(3), (0, 2, 1))
        probs = dict(zip(dist.outcomes, dist.probabilities))
        assert probs[(0, 2, 1)] == pytest.approx(1.0, abs=1e-10)

    def test_haar_matches_fock_oracle_at_pipeline_size(self):
        # the 8-ion pipeline's target and input: a 1716-state Fock basis
        u = haar_unitary(8, seed=3)
        inputs = (1, 1, 1, 1, 1, 1, 0, 0)
        exact = exact_distribution(u, inputs)
        oracle = fock_oracle_distribution(u, inputs)
        assert len(oracle.outcomes) == 1716
        assert total_variation_distance(exact, oracle) < 1e-8

    def test_outcomes_past_one_chunk_match_reference(self):
        # 18 564 outcomes take two chunks of row indices: check both sides of
        # the seam and the last outcome against the O(n!) permanent
        u = haar_unitary(13, seed=5)
        t = (1,) * 6 + (0,) * 7
        dist = exact_distribution(u, t)
        for k in (RYSER_CHUNK_ELEMENTS - 1, RYSER_CHUNK_ELEMENTS, len(dist.outcomes) - 1):
            s = dist.outcomes[k]
            sub = np.repeat(np.repeat(u, s, axis=0), t, axis=1)
            norm = np.prod([factorial(x) for x in s])
            expected = abs(oracles.permanent_reference(sub)) ** 2 / norm
            assert dist.probabilities[k] == pytest.approx(expected, rel=1e-10)

    def test_zero_bosons_point_mass(self):
        dist = exact_distribution(np.eye(3), (0, 0, 0))
        assert dist.outcomes == ((0, 0, 0),)
        assert dist.probabilities == pytest.approx([1.0])

    def test_permanent_guard_before_subset_tables(self):
        # 31 bosons make 31 x 31 permanents, over the Ryser guard; the subset
        # tables at n = 31 would take tens of MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds limit 30"):
                exact_distribution(np.eye(2), (31, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_outcome_guard_refuses_before_enumerating(self):
        # M = 20, N = 10 has C(29, 10) ~ 2.0e7 outcomes
        assert comb(29, 10) > OUTCOME_MAX_COUNT
        u = haar_unitary(20, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceed the outcome guard"):
                exact_distribution(u, (1,) * 10 + (0,) * 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_fock_dimension_guard(self, monkeypatch):
        # (2, 2, 2): 28 states and 6 * C(7, 5) + 28 = 154 generator entries
        monkeypatch.setattr(boson_stats, "FOCK_MAX_ENTRIES", 153)
        with pytest.raises(ValueError, match="154 entries .28 states., which exceeds guard 153"):
            fock_oracle_distribution(np.eye(3), (2, 2, 2))
        monkeypatch.setattr(boson_stats, "FOCK_MAX_ENTRIES", 154)
        assert fock_oracle_distribution(np.eye(3), (2, 2, 2)).total == pytest.approx(1.0)

    def test_generator_entries_closed_form(self):
        for m, n in ((4, 4), (8, 6), (6, 8), (12, 3), (5, 1), (1, 3)):
            h = scipy.linalg.logm(haar_unitary(m, seed=m + n)) * 1j
            h = (h + h.conj().T) / 2
            lifted = oracles.lifted_generator(h, oracles.fock_basis(m, n))
            assert np.count_nonzero(lifted) == fock_generator_entries(m, n), (m, n)

    def test_entry_guard_admits_the_old_basis_guard_up_to_20_modes(self):
        # every basis the former 5e4-state guard admitted on up to 20 modes
        for m in range(1, 21):
            for n in range(0, 60):
                if comb(n + m - 1, n) <= 50_000:
                    assert fock_oracle_refusal(m, n) is None, (m, n)
        assert fock_oracle_refusal(8, 6) is None  # haar8 and demo4 still run the oracle
        assert fock_oracle_refusal(30, 4) is not None  # 40 920 states, 4.36e6 entries

    def test_fock_guard_refuses_before_allocating(self):
        # M = N = 20 has C(39, 19) ~ 6.9e10 states, and M = 30, N = 4 only
        # 40 920 but 4.36e6 generator entries; the guard must trip on the
        # count alone, before any basis, generator or import is built
        for m, n in ((20, 20), (30, 4)):
            u = haar_unitary(m, seed=0)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="exceeds guard"):
                    fock_oracle_distribution(u, (1,) * n + (0,) * (m - n))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    @given(seed=st.integers(0, 5_000), dim=st.integers(2, 4), bosons=st.integers(1, 3))
    @settings(max_examples=30)
    def test_distribution_well_formed(self, seed, dim, bosons):
        t = [0] * dim
        t[0] = bosons
        dist = exact_distribution(haar_unitary(dim, seed), tuple(t))
        assert np.all(dist.probabilities >= -1e-15)
        assert dist.total == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_point_mass_samples_constant(self):
        dist = exact_distribution(np.eye(3), (1, 0, 2))
        samples = sample_outcomes(dist, 50, seed=9)
        assert np.all(samples == [1, 0, 2])

    def test_same_seed_same_samples(self):
        dist = exact_distribution(BALANCED, (1, 1))
        a = sample_outcomes(dist, 1000, seed=31)
        b = sample_outcomes(dist, 1000, seed=31)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        dist = exact_distribution(BALANCED, (1, 1))
        a = sample_outcomes(dist, 1000, seed=1)
        b = sample_outcomes(dist, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_empirical_close_to_exact(self):
        dist = exact_distribution(BALANCED, (1, 1))
        samples = sample_outcomes(dist, 20_000, seed=12)
        emp = empirical_distribution(samples, 2, 2)
        assert total_variation_distance(emp, dist) < 0.02

    def test_empirical_matches_counting_each_row(self):
        dist = exact_distribution(haar_unitary(5, seed=2), (2, 1, 1, 0, 0))
        samples = sample_outcomes(dist, 3000, seed=8)
        counts = Counter(map(tuple, samples.tolist()))
        expected = [counts[s] / len(samples) for s in dist.outcomes]
        emp = empirical_distribution(samples, 5, 4)
        assert emp.probabilities.tolist() == expected  # bit for bit

    @pytest.mark.parametrize("row, bad", [
        ((1, 2, 0), "sample 0 (1, 2, 0)"),  # three modes, not four
        ((0, 4, -1, 0), "sample 2 (0, 4, -1, 0)"),  # negative entry
        ((0, 2, 0, 0), "sample 2 (0, 2, 0, 0)"),  # two bosons, not three
    ])
    def test_foreign_sample_rows_rejected(self, row, bad):
        good = [(1, 1, 1, 0), (0, 0, 0, 3)]
        samples = [row] * 3 if len(row) != 4 else good + [row] + good
        with pytest.raises(ValueError, match=re.escape(bad) + " is not an outcome of 3 bosons in 4 modes"):
            empirical_distribution(samples, 4, 3)

    def test_empirical_provenance_not_samplable(self):
        dist = exact_distribution(BALANCED, (1, 1))
        emp = empirical_distribution(sample_outcomes(dist, 10, seed=0), 2, 2)
        with pytest.raises(ValueError):
            sample_outcomes(emp, 5, seed=0)


class TestComparisonAndSerialization:
    def test_tvd_zero_on_self(self):
        dist = exact_distribution(BALANCED, (1, 1))
        assert total_variation_distance(dist, dist) == 0.0

    def test_tvd_disjoint_point_masses(self):
        a = exact_distribution(np.eye(2), (2, 0))
        b = exact_distribution(np.eye(2)[::-1], (2, 0))
        assert total_variation_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_tvd_mismatched_spaces_rejected(self):
        a = exact_distribution(np.eye(2), (1, 1))
        b = exact_distribution(np.eye(3), (1, 1, 0))
        with pytest.raises(ValueError):
            total_variation_distance(a, b)

    @pytest.mark.parametrize("samples", [
        np.array([[10, 0, 3], [0, 13, 0], [10, 0, 3], [1, 1, 11]] * 3),  # multi-digit entries
        np.array([[4], [4], [4]]),  # M = 1
        np.zeros((0, 3), dtype=int),  # zero rows
        np.random.default_rng(3).integers(0, 13, size=(300, 40)),  # M = 40, entries up to 12
        np.array([[100, 0], [7, 1234], [0, 99]] * 4),  # entries of 100 and more
        np.array([[-3, 5, 0], [2, -1, 1], [0, 0, -12]] * 4),  # negative entries
    ])
    @pytest.mark.parametrize("block", [boson_stats.CSV_BLOCK_LINES, 7])
    def test_samples_csv_matches_row_writer(self, samples, block, monkeypatch):
        monkeypatch.setattr(boson_stats, "CSV_BLOCK_LINES", block)
        buf = io.StringIO()
        samples_to_csv(samples, buf)
        assert buf.getvalue() == oracles.samples_csv_text(samples)
        if len(samples):
            buf.seek(0)
            np.testing.assert_array_equal(samples_from_csv(buf), samples)

    def test_samples_from_csv_skips_blank_lines(self):
        for text in ("1,0,2\n\n0,3,0\n", "\n  \n1,0,2\n\t \n0,3,0", "1,0,2\r\n \r\n0,3,0\n\n\n"):
            np.testing.assert_array_equal(samples_from_csv(io.StringIO(text)), [[1, 0, 2], [0, 3, 0]])
        assert samples_from_csv(io.StringIO(" \n\n")).size == 0

    @pytest.mark.parametrize("text", ["1,0,2\n0,x,3\n", "1,0,2\n0,3\n", "1,0,2\n0,1,1,1\n", "1,,2\n"])
    def test_samples_from_csv_rejects_malformed_lines(self, text):
        with pytest.raises(ValueError):
            samples_from_csv(io.StringIO(text))

    def test_samples_csv_round_trip(self):
        dist = exact_distribution(BALANCED, (1, 1))
        samples = sample_outcomes(dist, 25, seed=6)
        buf = io.StringIO()
        samples_to_csv(samples, buf)
        buf.seek(0)
        np.testing.assert_array_equal(samples_from_csv(buf), samples)

    def test_distribution_json_round_trip(self):
        dist = exact_distribution(haar_unitary(3, seed=5), (1, 0, 1))
        back = distribution_from_json(json.loads(json.dumps(distribution_to_json(dist))))
        np.testing.assert_array_equal(back.table, dist.table)
        assert back.table.dtype == dist.table.dtype
        assert back.probabilities.tolist() == dist.probabilities.tolist()
        assert total_variation_distance(back, dist) == 0.0

    @pytest.mark.parametrize("row, bad", [
        ([1.5, 0.5], "outcome 1 (1.5, 0.5)"),  # not integers
        ([3, -1], "outcome 1 (3, -1)"),  # negative entry
        ([1, 0], "outcome 1 (1, 0)"),  # one boson, not two
    ])
    def test_distribution_rows_that_are_not_outcomes_rejected(self, row, bad):
        data = distribution_to_json(exact_distribution(BALANCED, (1, 1)))
        data["outcomes"][1]["s"] = row
        with pytest.raises(ValueError, match=re.escape(bad) + " is not an outcome of 2 bosons in 2 modes"):
            distribution_from_json(data)

    def test_distribution_row_of_another_length_named(self):
        data = distribution_to_json(exact_distribution(BALANCED, (1, 1)))
        data["outcomes"][2]["s"] = [0, 2, 0]
        with pytest.raises(ValueError, match=re.escape("outcome 2 (0, 2, 0) is not an outcome")):
            distribution_from_json(data)

    def test_non_integer_samples_rejected(self):
        with pytest.raises(ValueError, match=re.escape("sample 1 (0.5, 1.5) is not an outcome")):
            check_samples([[1.0, 1.0], [0.5, 1.5]], 2, 2)
        assert check_samples([[1.0, 1.0]], 2, 2).dtype == np.int64
