"""Equilibrium geometry and phonon hopping rates of a linear ion chain.

Positions are dimensionless: lengths are measured in the characteristic
Coulomb length of the axial trap, which removes every species-specific
constant (charge, mass, permittivity) from the force-balance equations.
The only physical inputs are the two trap frequencies, which enter the
hopping rates through the single scale omega_z**2 / (2 * omega_x).

Transverse phonons hop between ions at a rate that falls off with the
cube of the ion spacing, so the chain behaves as a bosonic hopping model
with an all-to-all but rapidly decaying coupling matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest max(K_ij)/omega_x the weak-hopping model is trusted at.
VALIDITY_THRESHOLD = 1e-2
# Force residual the equilibrium solve must reach.
SOLVER_TOL = 1e-12

__all__ = [
    "ConvergenceError",
    "ValidityError",
    "TrapParams",
    "IonChain",
    "CouplingMatrix",
    "equilibrium_positions",
    "force_residual",
    "build_chain",
    "coupling_matrix",
    "to_json",
    "from_json",
]


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the requested residual tolerance."""


class ValidityError(ValueError):
    """Chain parameters leave the weak-hopping regime the model assumes."""


@dataclass(frozen=True)
class TrapParams:
    """Harmonic trap frequencies (rad/s) and ion count.

    The transverse frequency must dominate the axial one, otherwise the
    ions do not form a linear chain and the transverse-phonon picture
    breaks down.
    """

    omega_x: float
    omega_z: float
    num_ions: int

    def __post_init__(self):
        if not (0 < self.omega_x < np.inf and 0 < self.omega_z < np.inf):  # so that NaN fails too
            raise ValueError("trap frequencies must be positive and finite")
        if self.omega_x <= self.omega_z:
            raise ValueError(
                "transverse frequency omega_x must exceed axial omega_z"
            )
        if self.num_ions < 1:
            raise ValueError("num_ions must be >= 1")

    @property
    def hopping_scale(self) -> float:
        """Nearest-neighbour hopping rate prefactor omega_z^2/(2 omega_x), rad/s."""
        return self.omega_z**2 / (2.0 * self.omega_x)


@dataclass(frozen=True)
class IonChain:
    """Trap parameters plus the solved dimensionless equilibrium positions."""

    params: TrapParams
    positions: np.ndarray


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric phonon hopping-rate matrix (rad/s) with zero diagonal.

    ``validity_ratio`` records max(K_ij)/omega_x; the hopping model is only
    trustworthy when this is small.
    """

    rates: np.ndarray
    validity_ratio: float


def force_residual(positions) -> np.ndarray:
    """Net dimensionless force on each ion (restoring minus Coulomb).

    Zero residual defines equilibrium: u_i = sum_{j<i} 1/(u_i-u_j)^2
    - sum_{j>i} 1/(u_i-u_j)^2.
    """
    u = np.asarray(positions, dtype=float)
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, np.inf)
    return u - np.sum(np.sign(diff) / diff**2, axis=1)


def _force_jacobian(u: np.ndarray) -> np.ndarray:
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, 1.0)
    inv_cubed = 1.0 / np.abs(diff) ** 3
    np.fill_diagonal(inv_cubed, 0.0)
    jac = -2.0 * inv_cubed
    np.fill_diagonal(jac, 1.0 + 2.0 * inv_cubed.sum(axis=1))
    return jac


def equilibrium_positions(
    num_ions: int, tol: float = SOLVER_TOL, max_iter: int = 200
) -> np.ndarray:
    """Solve the force-balance equations for a linear chain of ``num_ions``.

    Damped Newton iteration starting from equispaced points spanning
    [-(M-1)/2, (M-1)/2] scaled by 0.8.  The Jacobian is symmetric and
    diagonally dominant, so the undamped step is almost always accepted;
    the backtracking line search only guards against ordering violations.

    Raises
    ------
    ConvergenceError
        If the residual has not dropped below ``tol`` after ``max_iter``
        iterations.
    """
    if num_ions < 1:
        raise ValueError("num_ions must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if num_ions == 1:
        return np.zeros(1)

    u = np.linspace(-(num_ions - 1) / 2.0, (num_ions - 1) / 2.0, num_ions) * 0.8
    for _ in range(max_iter):
        resid = force_residual(u)
        worst = np.max(np.abs(resid))
        if worst < tol:
            return u
        step = np.linalg.solve(_force_jacobian(u), resid)
        alpha = 1.0
        while alpha > 1e-8:
            trial = u - alpha * step
            if np.all(np.diff(trial) > 0) and np.max(np.abs(force_residual(trial))) < worst:
                break
            alpha *= 0.5
        u = u - alpha * step
    raise ConvergenceError(
        f"equilibrium solve for M={num_ions} stalled at residual {worst:.3e} "
        f"(tol {tol:.1e}, {max_iter} iterations)"
    )


def build_chain(params: TrapParams, tol: float = SOLVER_TOL, max_iter: int = 200) -> IonChain:
    """Solve the chain geometry for the given trap parameters."""
    return IonChain(params, equilibrium_positions(params.num_ions, tol, max_iter))


def coupling_matrix(chain: IonChain) -> CouplingMatrix:
    """Phonon hopping-rate matrix K_ij = hopping_scale / |u_i - u_j|^3.

    The perturbative phonon-hopping picture requires every rate to sit far
    below the transverse trap frequency; chains violating
    max(K_ij)/omega_x <= VALIDITY_THRESHOLD are rejected.

    Raises
    ------
    ValidityError
        If the largest hopping rate exceeds the threshold fraction of
        omega_x.
    """
    u = chain.positions
    m = u.size
    rates = np.zeros((m, m))
    if m > 1:
        diff = np.abs(u[:, None] - u[None, :])
        np.fill_diagonal(diff, np.inf)
        rates = chain.params.hopping_scale / diff**3
        np.fill_diagonal(rates, 0.0)
    ratio = float(rates.max() / chain.params.omega_x) if m > 1 else 0.0
    if not ratio <= VALIDITY_THRESHOLD:  # so that a NaN ratio fails too
        raise ValidityError(
            f"max hopping rate is {ratio:.3e} of omega_x, above the "
            f"validity threshold {VALIDITY_THRESHOLD:.1e}; increase the "
            "omega_x/omega_z ratio or shorten the chain"
        )
    return CouplingMatrix(rates=rates, validity_ratio=ratio)


def to_json(positions, coupling: CouplingMatrix) -> dict:
    """Serialize positions, rates and validity ratio:
    {"positions": [...], "rates_rad_per_s": [[...]], "validity_ratio": r}."""
    return {
        "positions": [float(x) for x in positions],
        "rates_rad_per_s": [[float(x) for x in row] for row in coupling.rates],
        "validity_ratio": float(coupling.validity_ratio),
    }


def from_json(data: dict) -> tuple[np.ndarray, CouplingMatrix]:
    """Inverse of :func:`to_json`; returns the positions and the coupling."""
    positions = np.asarray(data["positions"], dtype=float)
    rates = np.asarray(data["rates_rad_per_s"], dtype=float)
    if rates.shape != (positions.size, positions.size):
        raise ValueError("rates shape does not match positions length")
    return positions, CouplingMatrix(rates, float(data["validity_ratio"]))
