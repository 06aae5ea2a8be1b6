import dataclasses
import io
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
    fock_oracle_distribution,
    fock_oracle_refusal,
    outcome_probability,
    permanent_ryser,
    sample_outcomes,
    samples_from_csv,
    samples_to_csv,
    text_fields,
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

    # Odd and even sizes with more than RYSER_CHUNK_ELEMENTS sign vectors
    # (2^(n-1)), so the kernel sums several chunks; the expected values are
    # closed forms.
    CHUNKED = {17: (6, 6, 5), 20: (7, 7, 6)}

    @pytest.mark.parametrize("n", sorted(CHUNKED))
    def test_chunked_all_ones_gives_factorial(self, n):
        assert 2 ** (n - 1) > RYSER_CHUNK_ELEMENTS
        # Glynn's terms for the all-ones matrix are C(n-1,k) (n-2k)^n / 2^(n-1)
        # with alternating signs; they add in magnitude to cond * n!, so
        # rounding alone gives a relative error of order eps * cond (4e-14 at
        # n = 17, 1e-13 at n = 20).
        cond = sum(comb(n - 1, k) * abs(n - 2 * k) ** n for k in range(n)) / (
            2 ** (n - 1) * factorial(n)
        )
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

    # (modes, input occupations): odd and even M, M = 1 (the first half has
    # no modes), N = 0 and N = 1, bunched inputs (repeated columns), and all
    # 210 outcomes of 4 single bosons in 7 modes
    KERNEL_CASES = [(5, (1, 1, 1, 0, 0)), (4, (2, 0, 1, 1)), (7, (0, 3, 0, 0, 1, 0, 1)),
                    (6, (2, 2, 0, 0, 0, 0)), (1, (4,)), (1, (1,)), (3, (0, 0, 0)), (2, (0, 1)),
                    (3, (1, 0, 0)), (7, (1, 1, 1, 1, 0, 0, 0))]

    @pytest.mark.parametrize("m, t", KERNEL_CASES)
    def test_kernel_matches_reference_on_every_outcome(self, m, t):
        # every outcome, bunched ones (repeated rows) among them, against the
        # O(n!) permanent of the matrix with rows and columns repeated
        rng = np.random.default_rng(m * 10 + sum(t))
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        table = np.array(enumerate_outcomes(m, sum(t)), dtype=np.uint8).reshape(-1, m)
        got = boson_stats._glynn_sums(np.repeat(a, t, axis=1))
        expected = [oracles.permanent_reference(np.repeat(np.repeat(a, s, axis=0), t, axis=1))
                    if sum(t) else 1.0 for s in table.tolist()]
        assert got == pytest.approx(np.array(expected), rel=1e-10, abs=1e-12)
        squared = boson_stats._glynn_sums(np.repeat(a, t, axis=1), squared=True)
        norms = [np.prod([factorial(x) for x in s]) for s in table.tolist()]
        assert squared == pytest.approx(np.abs(expected) ** 2 / norms, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("m, t", KERNEL_CASES)
    def test_kernel_takes_each_outcome_alone(self, m, t):
        # one outcome per call, as outcome_probability passes it: each half is
        # then one row, taken by view
        rng = np.random.default_rng(m)
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        cols = np.repeat(a, t, axis=1)
        table = np.array(enumerate_outcomes(m, sum(t)), dtype=np.uint8).reshape(-1, m)
        together = boson_stats._glynn_sums(cols)
        alone = [boson_stats._glynn_sums(cols, table[k])[0] for k in range(len(table))]
        assert np.array(alone) == pytest.approx(together, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [16, 17])
    def test_kernel_past_one_sign_chunk_on_rank_one_matrices(self, n):
        # 2^(n-1) sign vectors take several chunks, for all 153 or 171
        # outcomes at once; a rank-one u v^T repeated by s has permanent
        # n! prod_r u_r^s_r prod_j v_j
        assert 2 ** (n - 1) > RYSER_CHUNK_ELEMENTS
        rng = np.random.default_rng(n)
        u, v = rng.uniform(0.5, 1.5, 3) * np.exp(1j * rng.uniform(0, 6, 3)), rng.uniform(0.5, 1.5, n)
        table = np.array(enumerate_outcomes(3, n), dtype=np.uint8)
        got = boson_stats._glynn_sums(np.outer(u, v))
        expected = factorial(n) * np.prod(u ** table, axis=1) * np.prod(v)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_kernel_chunks_narrower_than_the_low_half(self, monkeypatch):
        # tall half tables (84 rows) shrink a chunk of sign vectors below the
        # low half's 2^(n // 2), so each chunk takes part of a row of them; the
        # 462 outcomes are gathered 8 at a time
        monkeypatch.setattr(boson_stats, "RYSER_CHUNK_ELEMENTS", 8)
        u = haar_unitary(6, seed=9)
        inputs = (1, 2, 0, 1, 1, 1)
        exact = exact_distribution(u, inputs)
        assert total_variation_distance(exact, fock_oracle_distribution(u, inputs)) < 1e-12

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

    def test_fractional_occupations_rejected(self):
        # int() would truncate them: (0.5, 1.5) became a one-boson input
        u = haar_unitary(2, seed=1)
        with pytest.raises(ValueError, match=re.escape("must be nonnegative integers, got (0.5, 1.5)")):
            exact_distribution(u, (0.5, 1.5))
        with pytest.raises(ValueError, match="must be nonnegative integers, got .1.7, 0"):
            outcome_probability(u, (1.7, 0), (1, 0))
        with pytest.raises(ValueError, match="must be nonnegative integers, got .1, nan"):
            fock_oracle_distribution(u, (1, float("nan")))
        with pytest.raises(ValueError, match="must be nonnegative integers, got .inf, 1"):
            exact_distribution(u, (float("inf"), 1))
        # integral floats and numpy integers are occupations, as check_samples takes them
        assert outcome_probability(u, (1.0, np.int64(1)), np.array([2.0, 0.0])) == outcome_probability(
            u, (1, 1), (2, 0))
        np.testing.assert_array_equal(exact_distribution(u, (np.uint8(1), 1.0)).probabilities,
                                      exact_distribution(u, (1, 1)).probabilities)

    def test_memory_follows_the_occupied_modes(self):
        # 13 bosons in 400 modes: the kernel's row sums over all 400 rows
        # would take 54 MB, over the 13 occupied output modes about 2.5 MB
        u = haar_unitary(400, seed=2)
        s, t = (1,) * 13 + (0,) * 387, (0,) * 387 + (1,) * 13
        tracemalloc.start()
        try:
            p = outcome_probability(u, s, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert p == pytest.approx(abs(permanent_ryser(u[:13, 387:])) ** 2, rel=1e-10)

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

    def test_table_is_built_once_and_read_only(self):
        table = boson_stats._outcome_table(6, 3)
        assert boson_stats._outcome_table(6, 3) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_distributions_share_the_table_and_record_only_m_and_n(self):
        u = haar_unitary(5, seed=4)
        oracle = fock_oracle_distribution(u, (0, 2, 1, 0, 1))
        assert [f.name for f in dataclasses.fields(boson_stats.OutcomeDistribution)] == [
            "num_modes", "num_bosons", "provenance", "probabilities"]
        assert oracle.table is exact_distribution(u, (0, 2, 1, 0, 1)).table
        assert oracle.table is boson_stats._outcome_table(5, 4)

    @pytest.mark.parametrize("inputs", [(1, 1, 0, 1, 0), (1,) * 6 + (0,) * 2])
    def test_distribution_builds_no_table_of_its_own(self, monkeypatch, inputs):
        # the kernel reads the half tables of w + 1 modes; the (M, N) table
        # is first built when the distribution's table is read
        m, n = len(inputs), sum(inputs)
        built, table = [], boson_stats._outcome_table
        table.cache_clear()
        monkeypatch.setattr(boson_stats, "_outcome_table", lambda *key: built.append(key) or table(*key))
        dist = exact_distribution(haar_unitary(m, seed=2), inputs)
        assert built and (m, n) not in built
        assert dist.table.shape == (comb(n + m - 1, n), m)
        assert built[-1] == (m, n) and table.cache_info().misses == len(set(built))

    @pytest.mark.parametrize("m, n, size", [(2, 2, 2), (3, 2, 7), (1, 4, 0)])
    def test_probabilities_must_cover_every_outcome(self, m, n, size):
        with pytest.raises(ValueError, match="length mismatch"):
            boson_stats.OutcomeDistribution(m, n, "exact", np.full(size, 1.0 / max(size, 1)))


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
        # (5, 5, 4) has n = 14, one permanent per kernel chunk
        for inputs in [(1, 1, 1, 0), (2, 1, 0, 0, 0), (0, 3, 0, 1), (1,) * 8, (4, 4, 4, 0),
                       (5, 5, 4)]:
            u = haar_unitary(len(inputs), seed=21)
            exact = exact_distribution(u, inputs)
            oracle = fock_oracle_distribution(u, inputs)
            assert total_variation_distance(exact, oracle) < 1e-8

    @pytest.mark.parametrize("inputs", [(1,) * 8, (1,) * 5 + (0,) * 4, (2, 1, 0, 0, 3)],
                             ids=["M8-N8", "M9-N5", "bunched"])
    def test_haar_matches_fock_oracle_to_rounding(self, inputs):
        # the two routes share nothing but the outcome order: 6435, 1287 and
        # 210 outcomes agree to rounding
        u = haar_unitary(len(inputs), seed=len(inputs) + 30)
        exact = exact_distribution(u, inputs)
        assert total_variation_distance(exact, fock_oracle_distribution(u, inputs)) < 1e-12

    def test_generator_route_matches_evolved_unitary(self):
        rng = np.random.default_rng(4)
        k = rng.normal(size=(3, 3))
        k = (k + k.T) / 2
        np.fill_diagonal(k, 0.0)
        t = 0.8
        exact = exact_distribution(evolve_modes(k, t), (1, 2, 0))
        oracle = fock_oracle_distribution(evolve_modes(k, t), (1, 2, 0))
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
        u = operator if duration is None else evolve_modes(operator, duration)
        oracle = fock_oracle_distribution(u, inputs)
        expected = oracles.fock_evolution_distribution(operator, inputs, duration)
        assert list(oracle.outcomes) == oracles.fock_basis(m, sum(inputs))
        assert 0.5 * np.abs(oracle.probabilities - expected).sum() < 1e-12

    @pytest.mark.parametrize("inputs", [(1, 1, 0), (1, 1, 0, 0, 0)], ids=["fewer", "more"])
    def test_fock_oracle_dimension_mismatch(self, inputs):
        k = np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], dtype=float)
        with pytest.raises(ValueError, match="operator dimension does not match occupations"):
            fock_oracle_distribution(evolve_modes(k, 0.8), inputs)

    def test_nan_probabilities_fail_the_normalization_check(self, monkeypatch):
        # a NaN sum compares False against any tolerance; the check must not
        # pass it (the Fock lift overflows to inf and NaN at thousands of
        # bosons in two modes)
        monkeypatch.setattr(boson_stats, "_probabilities", lambda u, t, outcome=None: np.full(2, np.nan))
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

    def test_bunched_twenty_bosons_match_fock_oracle(self):
        # n = 20 permanents with rows and columns repeated 9 and 11 times: an
        # alternating sum over all 2^20 column subsets lost seven digits here,
        # past the 1e-9 normalization check that exact_distribution applies
        u = haar_unitary(2, seed=22)
        exact = exact_distribution(u, (9, 11))
        oracle = fock_oracle_distribution(u, (9, 11))
        assert total_variation_distance(exact, oracle) < 1e-12

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
        # 31 bosons make 31 x 31 permanents, over the permanent guard; the sign
        # vector tables at n = 31 would take tens of MB
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

    def test_outcome_guard_bounds_the_table_entries(self):
        # M = 700, N = 2: 245 350 outcomes, under OUTCOME_MAX_COUNT, but a
        # table of 1.7e8 entries; exact_distribution refuses them before its
        # unitarity check (U^dag U alone is 7.8 MB) and its half tables
        assert comb(701, 2) <= OUTCOME_MAX_COUNT
        u = np.eye(700, dtype=complex)
        tracemalloc.start()
        try:
            entries = re.escape(f"245350 outcomes of 2 bosons in 700 modes exceed the outcome guard "
                                f"{OUTCOME_MAX_COUNT} (or {16 * OUTCOME_MAX_COUNT} table entries)")
            with pytest.raises(ValueError, match=entries):
                enumerate_outcomes(700, 2)
            with pytest.raises(ValueError, match=entries):
                exact_distribution(u, (1, 1) + (0,) * 698)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_outcome_guard_admits_the_measured_point(self):
        # M = 16, N = 8, the point the guard's table bound is taken from
        try:
            assert boson_stats._outcome_table(16, 8).shape == (comb(23, 8), 16)
        finally:
            boson_stats._outcome_table.cache_clear()  # frees the 7.8 MB table

    def test_fock_dimension_guard(self, monkeypatch):
        # (2, 2, 2): 28 states, and the last step raises each of the C(7, 5)
        # states of 5 bosons in 3 ways, 9 * 21 = 189 entries
        monkeypatch.setattr(boson_stats, "FOCK_MAX_ENTRIES", 188)
        with pytest.raises(ValueError, match="189 entries in its last step .28 states., which "
                           "exceeds guard 188"):
            fock_oracle_distribution(np.eye(3), (2, 2, 2))
        monkeypatch.setattr(boson_stats, "FOCK_MAX_ENTRIES", 189)
        assert fock_oracle_distribution(np.eye(3), (2, 2, 2)).total == pytest.approx(1.0)

    def test_entry_guard_admits_the_old_basis_guard_up_to_20_modes(self):
        # every basis the former 5e4-state guard admitted on up to 20 modes
        for m in range(1, 21):
            for n in range(0, 60):
                if comb(n + m - 1, n) <= 50_000:
                    assert fock_oracle_refusal(m, n) is None, (m, n)
        assert fock_oracle_refusal(8, 6) is None  # haar8 and demo4 still run the oracle
        assert fock_oracle_refusal(30, 4) is not None  # 40 920 states, 4.46e6 entries

    def test_fock_guard_refuses_before_allocating(self):
        # M = N = 20 has C(39, 19) ~ 6.9e10 states, and M = 30, N = 4 only
        # 40 920 but 4.46e6 raised entries; the guard must trip on the
        # count alone, before any state table is built
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

    @pytest.mark.parametrize("dist", [
        exact_distribution(np.fft.fft(np.eye(4)) / 2, (1, 1, 1, 1)),  # runs of zero probability
        exact_distribution(haar_unitary(8, seed=3), (1,) * 6 + (0, 0)),
        exact_distribution(haar_unitary(8, seed=4), (1,) * 8),
    ], ids=["fourier-4-4", "haar-8-6", "haar-8-8"])
    def test_guide_search_is_searchsorted(self, dist):
        cdf = np.cumsum(dist.probabilities)
        cdf[-1] = 1.0
        count = len(cdf)
        keys = np.concatenate([
            np.random.default_rng(5).random(20_000),
            cdf, np.nextafter(cdf, 0),  # at each cdf value and just below it
            np.arange(count) / count, np.nextafter(np.arange(1, count + 1) / count, 0),  # bucket edges
            [0.0, np.nextafter(1.0, 0)],
        ])
        keys = keys[(keys >= 0) & (keys < 1)]
        np.testing.assert_array_equal(boson_stats._guide_search(cdf, keys),
                                      np.searchsorted(cdf, keys, side="right"))

    @pytest.mark.parametrize("m, inputs", [(4, (1, 1, 1, 1)), (5, (2, 1, 0, 0, 3)), (8, (1,) * 6 + (0, 0))])
    def test_draws_are_the_searchsorted_draws(self, m, inputs):
        dist = exact_distribution(haar_unitary(m, seed=9), inputs)
        cdf = np.cumsum(dist.probabilities)
        cdf[-1] = 1.0
        index = np.searchsorted(cdf, np.random.default_rng(21).random(5000), side="right")
        np.testing.assert_array_equal(sample_outcomes(dist, 5000, seed=21),
                                      dist.table[np.minimum(index, len(cdf) - 1)])

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

    @pytest.mark.parametrize("samples, message", [
        ([[1, 1], [3, -1], [0, 2]], "sample 1 (3, -1) is not an outcome of 2 bosons in 2 modes"),
        ([[1, 1], [2, 0], [1, 0]], "sample 2 (1, 0) is not an outcome of 2 bosons in 2 modes"),
        ([[1.0, 1.0], [0.5, 1.5]], "sample 1 (0.5, 1.5) is not an outcome of 2 bosons in 2 modes"),
        ([[1.0, 1.0], [np.nan, 2.0]], "sample 1 (nan, 2.0) is not an outcome of 2 bosons in 2 modes"),
        ([[1, 1], [2, 0, 0], [0, 2]], "sample 1 (2, 0, 0) is not an outcome of 2 bosons in 2 modes"),
        ([[1, 1, 0], [2, 0, 0]], "sample 0 (1, 1, 0) is not an outcome of 2 bosons in 2 modes"),
        ([[0, 2], [4, -2], [3, -1]], "sample 1 (4, -2) is not an outcome of 2 bosons in 2 modes"),
        ([[True, True]], "samples must be integer occupations, not bool"),
        ([], "no samples"),
        ([1, 1], "samples must be rows of occupations, got shape (2,)"),
    ], ids=["negative", "total", "fractional", "nan", "ragged", "length", "negative-summing-right",
            "bool", "empty", "flat"])
    def test_check_samples_messages(self, samples, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            check_samples(samples, 2, 2)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64, np.float32, np.float64])
    def test_check_samples_accepts_every_outcome_as_int64(self, dtype):
        table = boson_stats._outcome_table(4, 5)
        checked = check_samples(table.astype(dtype), 4, 5)
        assert checked.dtype == np.int64
        np.testing.assert_array_equal(checked, table)

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
        assert "\0" not in buf.getvalue()
        if len(samples):
            buf.seek(0)
            np.testing.assert_array_equal(samples_from_csv(buf), samples)

    @pytest.mark.parametrize("modes, top", [(1, 9), (2, 9), (3, 9), (4, 9), (1, 12), (3, 12), (4, 12)])
    @pytest.mark.parametrize("block", [boson_stats.CSV_BLOCK_LINES, 7, 1])
    def test_samples_csv_short_lines_match_row_writer(self, modes, top, block, monkeypatch):
        # single digits make lines of 2, 4 and 6 bytes, filled by 1-, 2- and
        # 4-byte words, and lines of exactly 8 bytes at M = 4; entries up to 12
        # make some lines longer and pad the others
        monkeypatch.setattr(boson_stats, "CSV_BLOCK_LINES", block)
        samples = np.random.default_rng(modes + top).integers(0, top + 1, size=(50, modes))
        buf = io.StringIO()
        samples_to_csv(samples, buf)
        assert buf.getvalue() == oracles.samples_csv_text(samples)

    @pytest.mark.parametrize("m, n", [(1, 3), (3, 2), (8, 2)])
    def test_distribution_writer_is_json_dumps_in_one_row_blocks(self, m, n, monkeypatch):
        monkeypatch.setattr(boson_stats, "CSV_BLOCK_LINES", 1)
        inputs = tuple(np.bincount(np.arange(n) % m, minlength=m))
        dist = exact_distribution(haar_unitary(m, seed=m + n), inputs)
        buf = io.StringIO()
        boson_stats.write_distribution_json(dist, buf, source="simulated")
        assert buf.getvalue() == json.dumps({**distribution_to_json(dist), "source": "simulated"})

    def test_text_fields_formats_each_value_of_the_range_once(self):
        # the table runs from the least entry to the largest, gaps included,
        # and every entry of any shape gathers its value's bytes
        values = np.array([[3, -1], [0, 3], [-1, 12]])
        calls = []

        def fmt(v):
            calls.append(v)
            return f"<{v}>"

        table, index = text_fields(values, fmt)
        assert calls == list(range(-1, 13))
        assert table.tolist() == [f"<{v}>".encode() for v in range(-1, 13)]
        assert index.shape == values.shape
        assert table[index].tolist() == [[b"<3>", b"<-1>"], [b"<0>", b"<3>"], [b"<-1>", b"<12>"]]

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

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", [0, 1, 6])
    @pytest.mark.parametrize("block", [boson_stats.CSV_BLOCK_LINES, 7])
    def test_distribution_writer_is_json_dumps(self, m, n, block, monkeypatch):
        monkeypatch.setattr(boson_stats, "CSV_BLOCK_LINES", block)
        inputs = tuple(np.bincount(np.arange(n) % m, minlength=m))
        dist = exact_distribution(haar_unitary(m, seed=m + n), inputs)
        buf = io.StringIO()
        boson_stats.write_distribution_json(dist, buf, source="simulated")
        assert buf.getvalue() == json.dumps({**distribution_to_json(dist), "source": "simulated"})

    @pytest.mark.parametrize("inputs, probabilities, extra", [
        ((3, 0, 1), None, {}),  # bunched
        ((2, 0), [-0.0, -1e-13, 5e-324], {"source": "target"}),
        ((1, 1), [np.nan, np.inf, 1e300], {"source": 'quote " and \u00e9', "k": [1, 2.5]}),
    ], ids=["bunched", "hand-set", "non-finite"])
    def test_distribution_writer_matches_json_dumps_on_edge_values(self, inputs, probabilities, extra):
        dist = exact_distribution(haar_unitary(len(inputs), seed=6), inputs)
        if probabilities is not None:
            dist = boson_stats.OutcomeDistribution(len(inputs), sum(inputs), 'exact "quoted"', probabilities)
        buf = io.StringIO()
        boson_stats.write_distribution_json(dist, buf, **extra)
        assert buf.getvalue() == json.dumps({**distribution_to_json(dist), **extra})

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

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[::-1], "outcome 0 (0, 0, 2) breaks the canonical order of 2 bosons in 3 modes"),
        (lambda rows: rows[:2] + rows[3:], "outcome 2 (0, 2, 0) breaks the canonical order"),
        (lambda rows: rows[:3], "outcome 3 of 2 bosons in 3 modes is missing"),
        (lambda rows: rows[:2] + rows[1:], "outcome 2 (1, 1, 0) breaks the canonical order"),
        (lambda rows: rows + rows[-1:], "outcome 6 (0, 0, 2) breaks the canonical order"),
        (lambda rows: [], "no outcomes"),
    ], ids=["reversed", "dropped", "cut", "duplicated", "extra", "empty"])
    def test_distribution_rows_out_of_canonical_order_rejected(self, edit, message):
        data = distribution_to_json(exact_distribution(haar_unitary(3, seed=1), (1, 1, 0)))
        data["outcomes"] = edit(data["outcomes"])
        with pytest.raises(ValueError, match=re.escape(message)):
            distribution_from_json(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:70_000] + rows[70_001:70_002] + rows[70_000:70_001] + rows[70_002:],
         "outcome 70000 (0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 3, 1, 0, 0) breaks the canonical order"),
        (lambda rows: rows[:1 << 16], "outcome 65536 of 7 bosons in 14 modes is missing"),
        (lambda rows: rows + rows[:1], "outcome 77520 (7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) breaks"),
    ], ids=["swapped", "cut", "extra"])
    def test_rows_deep_in_a_large_table_are_checked(self, edit, message):
        # 77 520 rows: each fault is named at its own index, past 2^16 too
        outcomes = oracles.outcome_tuples(14, 7)
        rows = [{"s": list(s), "p": 1 / len(outcomes)} for s in outcomes]
        data = {"m": 14, "n": 7, "provenance": "exact", "outcomes": edit(rows)}
        with pytest.raises(ValueError, match=re.escape(message)):
            distribution_from_json(data)
        assert len(distribution_from_json({**data, "outcomes": rows}).probabilities) == len(outcomes)

    def test_distribution_rows_of_booleans_rejected(self):
        data = distribution_to_json(exact_distribution(BALANCED, (1, 1)))
        for row in data["outcomes"]:
            row["s"] = [bool(v) for v in row["s"]]  # [True, True] reads as [1, 1] otherwise
        with pytest.raises(ValueError, match="outcomes must be integer occupations, not bool"):
            distribution_from_json(data)

    @pytest.mark.parametrize("m, n, s, message", [
        (500_000, 1, [1, 0], "outcome 0 (1, 0) is not an outcome of 1 bosons in 500000 modes"),
        (10**8, 10**8, [1, 0], "outcome 0 (1, 0) is not an outcome"),
        (2, 10**8, [10**8, 0], f"{10**8 + 1} outcomes of {10**8} bosons in 2 modes exceed the outcome guard"),
    ], ids=["huge-m", "huge-m-and-n", "huge-n"])
    def test_distribution_m_and_n_bounded_by_the_rows(self, m, n, s, message):
        data = {"m": m, "n": n, "provenance": "exact", "outcomes": [{"s": s, "p": 1.0}]}
        with pytest.raises(ValueError, match=re.escape(message)):
            distribution_from_json(data)

    def test_reader_builds_no_outcome_table(self):
        data = distribution_to_json(exact_distribution(haar_unitary(4, seed=2), (2, 1, 0, 0)))
        boson_stats._outcome_table.cache_clear()
        assert len(distribution_from_json(data).probabilities) == len(data["outcomes"])
        assert boson_stats._outcome_table.cache_info().misses == 0

    def test_distribution_row_of_another_length_named(self):
        data = distribution_to_json(exact_distribution(BALANCED, (1, 1)))
        data["outcomes"][2]["s"] = [0, 2, 0]
        with pytest.raises(ValueError, match=re.escape("outcome 2 (0, 2, 0) is not an outcome")):
            distribution_from_json(data)

    def test_non_integer_samples_rejected(self):
        with pytest.raises(ValueError, match=re.escape("sample 1 (0.5, 1.5) is not an outcome")):
            check_samples([[1.0, 1.0], [0.5, 1.5]], 2, 2)
        assert check_samples([[1.0, 1.0]], 2, 2).dtype == np.int64
