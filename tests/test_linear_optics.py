import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ionsampler.boson_stats import fock_oracle_distribution
from ionsampler.dd_compiler import PulseSchedule, simulate_schedule
from ionsampler.linear_optics import (
    BSElement,
    ElementSequence,
    PhaseElement,
    assert_hermitian,
    assert_unitary,
    beam_splitter_unitary,
    evolve_modes,
    fourier_unitary,
    haar_unitary,
    phase_unitary,
    reck_decompose,
    recompose,
    unitary_distance,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestElementUnitaries:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(beam_splitter_unitary(2, 0.0, 4), np.eye(4))

    def test_half_pi_swaps_with_phase(self):
        u = beam_splitter_unitary(1, np.pi / 2, 2)
        np.testing.assert_allclose(u, [[0, -1j], [-1j, 0]], atol=1e-15)

    def test_balanced_block_entries(self):
        u = beam_splitter_unitary(1, np.pi / 4, 3)
        np.testing.assert_allclose(u[0, 0], INV_SQRT2, atol=1e-15)
        np.testing.assert_allclose(u[0, 1], -1j * INV_SQRT2, atol=1e-15)
        np.testing.assert_allclose(u[2, 2], 1.0)  # spectator untouched

    def test_matches_generator_exponential(self):
        theta = 0.7
        x = np.zeros((4, 4))
        x[1, 2] = x[2, 1] = 1.0
        np.testing.assert_allclose(
            beam_splitter_unitary(2, theta, 4),
            scipy.linalg.expm(-1j * theta * x),
            atol=1e-14,
        )

    def test_phase_pi_flips_one_mode(self):
        np.testing.assert_allclose(phase_unitary(2, np.pi, 3), np.diag([1, -1, 1]), atol=1e-15)

    def test_phase_composes_to_identity(self):
        u = phase_unitary(1, 1.234, 2) @ phase_unitary(1, -1.234, 2)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)

    @given(theta=st.floats(min_value=0.0, max_value=np.pi / 2))
    @settings(max_examples=40)
    def test_splitter_always_unitary(self, theta):
        assert_unitary(beam_splitter_unitary(1, theta, 3), tol=1e-12)

    def test_bad_pair_index_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter_unitary(3, 0.1, 3)
        with pytest.raises(ValueError):
            phase_unitary(0, 0.1, 3)


class TestEvolveModes:
    def test_zero_time_is_identity(self):
        k = np.array([[0.0, 2.0], [2.0, 0.0]])
        np.testing.assert_allclose(evolve_modes(k, 0.0), np.eye(2), atol=1e-15)

    def test_pair_coupling_gives_beam_splitter(self):
        k12 = 2 * np.pi * 12.5e3
        theta = 0.9
        k = np.array([[0.0, k12], [k12, 0.0]])
        np.testing.assert_allclose(
            evolve_modes(k, theta / k12),
            beam_splitter_unitary(1, theta, 2),
            atol=1e-13,
        )

    def test_agrees_with_scipy_expm(self):
        rng = np.random.default_rng(3)
        k = rng.normal(size=(5, 5))
        k = (k + k.T) / 2
        t = 0.37
        np.testing.assert_allclose(
            evolve_modes(k, t), scipy.linalg.expm(-1j * k * t), atol=1e-12
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            evolve_modes(np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0)

    @pytest.mark.parametrize(
        "consume",
        [
            lambda k: evolve_modes(k, 1.0),
            lambda k: simulate_schedule(k, PulseSchedule(2)),
            lambda k: fock_oracle_distribution(k, (1, 0), duration=1.0),
        ],
        ids=["evolve_modes", "simulate_schedule", "fock_oracle"],
    )
    def test_generator_consumers_share_hermitian_check(self, consume):
        with pytest.raises(ValueError, match="not Hermitian"):
            consume(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestReckDecomposition:
    def test_identity_gives_trivial_sequence(self):
        seq = reck_decompose(np.eye(4))
        assert all(
            (isinstance(el, BSElement) and el.theta == 0.0)
            or (isinstance(el, PhaseElement) and el.phi == 0.0)
            for el in seq.elements
        )
        np.testing.assert_allclose(recompose(seq), np.eye(4), atol=1e-12)

    def test_balanced_splitter_recovers_angle(self):
        seq = reck_decompose(beam_splitter_unitary(1, np.pi / 4, 2))
        angles = [el.theta for el in seq.elements if isinstance(el, BSElement)]
        assert angles == pytest.approx([np.pi / 4])

    def test_element_count_bound(self):
        for m in (2, 5, 8):
            seq = reck_decompose(haar_unitary(m, seed=m))
            n_bs = sum(isinstance(el, BSElement) for el in seq.elements)
            assert n_bs <= m * (m - 1) // 2

    def test_eight_mode_round_trip(self):
        u = haar_unitary(8, seed=99)
        seq = reck_decompose(u)
        assert unitary_distance(recompose(seq), u) < 1e-9

    @given(seed=st.integers(min_value=0, max_value=10_000), dim=st.integers(2, 7))
    @settings(max_examples=60)
    def test_round_trip_haar(self, seed, dim):
        u = haar_unitary(dim, seed)
        assert unitary_distance(recompose(reck_decompose(u)), u) < 1e-10

    def test_angles_stay_in_quarter_turn(self):
        seq = reck_decompose(haar_unitary(6, seed=5))
        for el in seq.elements:
            if isinstance(el, BSElement):
                assert 0.0 <= el.theta <= np.pi / 2

    def test_fourier_target_round_trip(self):
        u = fourier_unitary(5)
        assert unitary_distance(recompose(reck_decompose(u)), u) < 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            reck_decompose(np.ones((3, 3)))

    def test_nan_matrix_is_not_unitary(self):
        u = np.eye(3)
        u[1, 2] = np.nan
        with pytest.raises(ValueError, match="= nan"):
            assert_unitary(u)
        with pytest.raises(ValueError, match="= nan"):
            assert_unitary(u, tol=np.inf)

    def test_nan_generator_is_not_hermitian(self):
        k = np.zeros((3, 3))
        k[0, 1] = k[1, 0] = np.nan
        with pytest.raises(ValueError, match="not Hermitian: defect nan"):
            assert_hermitian(k)


class TestSequenceSerialization:
    def test_round_trip(self):
        seq = reck_decompose(haar_unitary(4, seed=2))
        back = ElementSequence.from_json(4, seq.to_json())
        assert back == seq

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            ElementSequence(2, (BSElement(2, 0.1),))
        with pytest.raises(ValueError):
            ElementSequence(2, (PhaseElement(3, 0.1),))

    def test_phase_stored_mod_two_pi(self):
        el = PhaseElement(1, -0.5 + 6 * np.pi)
        assert 0.0 <= el.phi < 2 * np.pi
        assert np.exp(1j * el.phi) == pytest.approx(np.exp(-0.5j), abs=1e-12)


class TestDistanceAndSampling:
    def test_distance_zero_on_self(self):
        u = haar_unitary(5, seed=1)
        assert unitary_distance(u, u) == pytest.approx(0.0, abs=1e-14)

    def test_distance_ignores_global_phase(self):
        u = haar_unitary(5, seed=1)
        assert unitary_distance(u, np.exp(0.77j) * u) == pytest.approx(0.0, abs=1e-12)

    def test_distance_positive_for_distinct(self):
        assert unitary_distance(np.eye(2), beam_splitter_unitary(1, 0.3, 2)) > 1e-3

    def test_haar_deterministic_and_unitary(self):
        u1 = haar_unitary(6, seed=123)
        u2 = haar_unitary(6, seed=123)
        np.testing.assert_array_equal(u1, u2)
        assert_unitary(u1, tol=1e-10)

    def test_fourier_entries(self):
        m = 4
        u = fourier_unitary(m)
        for j in range(m):
            for k in range(m):
                expected = np.exp(2j * np.pi * j * k / m) / 2.0
                assert u[j, k] == pytest.approx(expected, abs=1e-14)
