import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ionsampler import ion_chain
from ionsampler.ion_chain import (
    ConvergenceError,
    IonChain,
    TrapParams,
    ValidityError,
    build_chain,
    coupling_matrix,
    equilibrium_positions,
    force_residual,
)

TRAP_KHZ = TrapParams(2 * np.pi * 5e6, 2 * np.pi * 0.5e6, 2)


def stiff_trap(num_ions: int) -> TrapParams:
    """Trap stiff enough that even 20-ion chains pass the validity check."""
    return TrapParams(2 * np.pi * 10e6, 2 * np.pi * 0.3e6, num_ions)


class TestEquilibriumPositions:
    def test_single_ion_sits_at_origin(self):
        assert equilibrium_positions(1) == pytest.approx([0.0])

    def test_two_ions_quarter_cube_root(self):
        u = equilibrium_positions(2)
        ref = oracles.two_ion_position()
        assert u == pytest.approx([-ref, ref], abs=1e-10)

    def test_three_ions_outer_five_quarters(self):
        u = equilibrium_positions(3)
        ref = oracles.three_ion_outer_position()
        assert u[1] == pytest.approx(0.0, abs=1e-10)
        assert u[0] == pytest.approx(-ref, abs=1e-10)
        assert u[2] == pytest.approx(ref, abs=1e-10)

    def test_ten_ions_residual_and_order(self):
        u = equilibrium_positions(10)
        assert np.all(np.diff(u) > 0)
        assert np.max(np.abs(force_residual(u))) < 1e-10

    @given(num_ions=st.integers(min_value=1, max_value=25))
    @settings(max_examples=25)
    def test_solution_properties(self, num_ions):
        u = equilibrium_positions(num_ions)
        assert u.shape == (num_ions,)
        if num_ions > 1:
            assert np.all(np.diff(u) > 0)
        # mirror symmetry of the confining potential
        np.testing.assert_allclose(u, -u[::-1], atol=1e-11)
        assert np.max(np.abs(force_residual(u))) < 1e-11

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            equilibrium_positions(5, tol=1e-12, max_iter=1)


class TestTrapParams:
    def test_rejects_axial_stiffer_than_transverse(self):
        with pytest.raises(ValueError):
            TrapParams(2 * np.pi * 1e6, 2 * np.pi * 2e6, 3)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            TrapParams(0.0, -1.0, 3)

    @pytest.mark.parametrize("omega_x, omega_z", [(math.nan, 2 * np.pi * 0.3e6), (2 * np.pi * 1e6, math.nan),
                                                  (math.inf, 2 * np.pi * 0.3e6)],
                             ids=["nan-transverse", "nan-axial", "inf-transverse"])
    def test_rejects_nonfinite_frequency(self, omega_x, omega_z):
        # a NaN passes every comparison-based check and made NaN hopping rates
        with pytest.raises(ValueError, match="positive and finite"):
            TrapParams(omega_x, omega_z, 4)

    def test_hopping_scale_value(self):
        # omega_z^2/(2 omega_x) for 0.5 MHz axial, 5 MHz transverse
        assert TRAP_KHZ.hopping_scale == pytest.approx(2 * np.pi * 25e3, rel=1e-12)


class TestCouplingMatrix:
    def test_two_ion_rate_is_12p5_khz(self):
        # spacing cubed is exactly 2, so K12 is half the hopping scale
        chain = build_chain(TRAP_KHZ)
        k = coupling_matrix(chain)
        assert k.rates[0, 1] == pytest.approx(2 * np.pi * 12.5e3, rel=1e-10)

    def test_structure(self):
        chain = build_chain(stiff_trap(6))
        k = coupling_matrix(chain).rates
        assert np.allclose(k, k.T)
        assert np.all(np.diag(k) == 0.0)
        off = k[~np.eye(6, dtype=bool)]
        assert np.all(off > 0)

    def test_three_ion_cube_law_ratio(self):
        chain = build_chain(stiff_trap(3))
        k = coupling_matrix(chain).rates
        # equal spacings d and 2d: next-nearest rate is 1/8 of nearest
        assert k[0, 2] / k[0, 1] == pytest.approx(1.0 / 8.0, rel=1e-12)

    @given(num_ions=st.integers(min_value=2, max_value=20))
    @settings(max_examples=20)
    def test_adjacent_scale_identity(self, num_ions):
        params = stiff_trap(num_ions)
        chain = build_chain(params)
        k = coupling_matrix(chain).rates
        gaps = np.diff(chain.positions)
        for i in range(num_ions - 1):
            assert k[i, i + 1] * gaps[i] ** 3 == pytest.approx(
                params.hopping_scale, rel=1e-12
            )

    def test_cube_law_holds_for_all_pairs(self):
        chain = build_chain(stiff_trap(7))
        k = coupling_matrix(chain).rates
        u = chain.positions
        for i in range(7):
            for j in range(i + 1, 7):
                expected = k[0, 1] * (abs(u[0] - u[1]) / abs(u[i] - u[j])) ** 3
                assert k[i, j] == pytest.approx(expected, rel=1e-12)

    def test_validity_guard_trips_on_soft_trap(self):
        soft = TrapParams(2 * np.pi * 1e6, 2 * np.pi * 0.9e6, 4)
        chain = build_chain(soft)
        with pytest.raises(ValidityError, match="validity"):
            coupling_matrix(chain)

    def test_validity_guard_trips_on_nan_rates(self):
        # NaN positions give NaN rates, whose ratio a strict > would let through
        chain = IonChain(stiff_trap(3), np.array([-1.0, np.nan, 1.0]))
        with pytest.raises(ValidityError, match="validity"):
            coupling_matrix(chain)

    def test_validity_ratio_reported(self):
        chain = build_chain(stiff_trap(4))
        k = coupling_matrix(chain)
        assert 0 < k.validity_ratio < 1e-2
        assert k.validity_ratio == pytest.approx(
            k.rates.max() / stiff_trap(4).omega_x, rel=1e-12
        )

    def test_single_ion_has_empty_coupling(self):
        chain = build_chain(stiff_trap(1))
        k = coupling_matrix(chain)
        assert k.rates.shape == (1, 1)
        assert k.validity_ratio == 0.0


def test_json_round_trip():
    chain = build_chain(stiff_trap(5))
    k = coupling_matrix(chain)
    blob = json.dumps(ion_chain.to_json(chain.positions, k))
    positions, coupling = ion_chain.from_json(json.loads(blob))
    np.testing.assert_array_equal(positions, chain.positions)
    np.testing.assert_array_equal(coupling.rates, k.rates)
    assert coupling.validity_ratio == k.validity_ratio


def test_json_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        ion_chain.from_json({"positions": [0.0, 1.0], "rates_rad_per_s": [[0.0]]})
