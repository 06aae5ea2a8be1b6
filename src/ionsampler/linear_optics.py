"""Mode-space transfer matrices and their decomposition into two-mode elements.

A transfer matrix acts on single-mode amplitudes as ``out = U @ in``.  The
native element set mirrors what the hardware offers: beam-splitter rotations
between *adjacent* modes (generated by the symmetric pair coupling, giving
the -i-coupled block [[cos, -i sin], [-i sin, cos]]) and instantaneous
single-mode phase shifts exp(+i phi).

Modes are numbered 1..M throughout this module, matching the serialized
element format; array storage is zero-based internally.

``reck_decompose`` factors an arbitrary unitary into a triangular sequence
of these elements by nulling the below-diagonal entries column by column,
after the classic scheme of Reck et al.  ``recompose`` applies a sequence in
execution order: the first list element acts first, i.e. the matrix product
is taken right-to-left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "assert_unitary",
    "assert_hermitian",
    "beam_splitter_unitary",
    "phase_unitary",
    "evolve_modes",
    "BSElement",
    "PhaseElement",
    "ElementSequence",
    "recompose",
    "reck_decompose",
    "unitary_distance",
    "haar_unitary",
    "fourier_unitary",
]

_TWO_PI = 2.0 * np.pi
# Largest max |U^dag U - I| a matrix may show and still count as unitary.
UNITARITY_TOL = 1e-10


def assert_unitary(matrix, tol: float = UNITARITY_TOL) -> np.ndarray:
    """Validate ``matrix`` is square and unitary; return it as complex128."""
    u = np.asarray(matrix, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if not defect <= tol:  # so that a NaN defect fails too
        raise ValueError(f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}")
    return u


def assert_hermitian(generator) -> np.ndarray:
    """Validate a square Hermitian generator (array or ``CouplingMatrix``);
    return it as an array.  The defect is judged relative to the largest entry."""
    k = np.asarray(getattr(generator, "rates", generator))
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError(f"expected a square generator, got shape {k.shape}")
    herm_defect = np.max(np.abs(k - k.conj().T))
    if not herm_defect <= 1e-10 * max(1.0, np.max(np.abs(k))):  # NaN fails too
        raise ValueError(f"generator is not Hermitian: defect {herm_defect:.3e}")
    return k


def _check_mode(i: int, dim: int) -> None:
    if not 1 <= i <= dim:
        raise ValueError(f"mode index {i} outside 1..{dim}")


def _check_pair(j: int, dim: int) -> None:
    if not 1 <= j <= dim - 1:
        raise ValueError(f"pair index {j} outside 1..{dim - 1}")


def beam_splitter_unitary(pair_index: int, theta: float, dim: int) -> np.ndarray:
    """Rotation by ``theta`` on adjacent modes (j, j+1), identity elsewhere.

    The 2x2 block is [[cos t, -i sin t], [-i sin t, cos t]], the exponential
    of -i*theta times the symmetric pair coupling.  ``theta`` may be any
    real number; negative angles give the inverse rotation.
    """
    _check_pair(pair_index, dim)
    u = np.eye(dim, dtype=complex)
    a = pair_index - 1
    c, s = np.cos(theta), np.sin(theta)
    u[a, a] = c
    u[a + 1, a + 1] = c
    u[a, a + 1] = -1j * s
    u[a + 1, a] = -1j * s
    return u


def phase_unitary(mode_index: int, phi: float, dim: int) -> np.ndarray:
    """Diagonal matrix with exp(+i phi) at ``mode_index``, 1 elsewhere."""
    _check_mode(mode_index, dim)
    u = np.eye(dim, dtype=complex)
    u[mode_index - 1, mode_index - 1] = np.exp(1j * phi)
    return u


def evolve_modes(coupling, duration: float) -> np.ndarray:
    """Free evolution exp(-i K t) under a Hermitian hopping matrix.

    ``coupling`` may be a :class:`~ionsampler.ion_chain.CouplingMatrix` or a
    plain Hermitian array.  The exponential is computed from the
    eigendecomposition, so the result is unitary to machine precision.
    """
    w, v = np.linalg.eigh(assert_hermitian(coupling))
    return (v * np.exp(-1j * w * duration)) @ v.conj().T


@dataclass(frozen=True)
class BSElement:
    """Beam splitter on modes (pair_index, pair_index+1), angle in [0, pi/2]."""

    pair_index: int
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        if not 0.0 <= self.theta <= np.pi / 2 + 1e-12:
            raise ValueError(f"theta {self.theta} outside [0, pi/2]")


@dataclass(frozen=True)
class PhaseElement:
    """Phase shift exp(+i phi) on one mode; phi stored mod 2 pi."""

    mode_index: int
    phi: float

    def __post_init__(self):
        phi = float(self.phi) % _TWO_PI  # a tiny negative phi rounds to 2 pi itself
        object.__setattr__(self, "phi", phi if phi < _TWO_PI else 0.0)


@dataclass(frozen=True)
class ElementSequence:
    """Ordered element list over ``dim`` modes; first element acts first."""

    dim: int
    elements: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        for el in self.elements:
            if isinstance(el, BSElement):
                _check_pair(el.pair_index, self.dim)
            elif isinstance(el, PhaseElement):
                _check_mode(el.mode_index, self.dim)
            else:
                raise TypeError(f"unsupported element {el!r}")

    def to_json(self) -> list[dict]:
        out = []
        for el in self.elements:
            if isinstance(el, BSElement):
                out.append({"type": "bs", "j": el.pair_index, "theta": float(el.theta)})
            else:
                out.append({"type": "phase", "i": el.mode_index, "phi": float(el.phi)})
        return out

    @classmethod
    def from_json(cls, dim: int, data: list[dict]) -> "ElementSequence":
        elements = []
        for entry in data:
            if entry["type"] == "bs":
                elements.append(BSElement(int(entry["j"]), float(entry["theta"])))
            elif entry["type"] == "phase":
                elements.append(PhaseElement(int(entry["i"]), float(entry["phi"])))
            else:
                raise ValueError(f"unknown element type {entry['type']!r}")
        return cls(dim, tuple(elements))


def recompose(seq: ElementSequence) -> np.ndarray:
    """Product of element embeddings, first element applied first."""
    u = np.eye(seq.dim, dtype=complex)
    for el in seq.elements:
        if isinstance(el, BSElement):
            u = beam_splitter_unitary(el.pair_index, el.theta, seq.dim) @ u
        else:
            u = phase_unitary(el.mode_index, el.phi, seq.dim) @ u
    return u


def reck_decompose(matrix, tol: float = UNITARITY_TOL) -> ElementSequence:
    """Factor a unitary into adjacent-pair beam splitters and phases.

    Below-diagonal entries are nulled column by column, bottom row upward,
    each with a Givens-like step on an adjacent row pair: a relative phase
    aligns the two entries and a rotation by theta = atan2(|lower|, |upper|)
    folds the lower one away, which lands every angle in [0, pi/2] for
    free.  Entries already below ``tol`` still emit a zero-angle element so
    the sequence shape depends only on the dimension.  The residual
    diagonal phases complete the factorization, making the round trip exact
    rather than merely phase-equivalent.

    Returns the sequence in execution order (see :func:`recompose`).
    """
    u = assert_unitary(matrix, tol)
    m = u.shape[0]
    u = u.copy()
    nulling = []  # (pair a (0-based upper row), theta, chi), in elimination order
    for col in range(m - 1):
        for row in range(m - 1, col, -1):
            a = row - 1
            upper, lower = u[a, col], u[row, col]
            if abs(lower) < tol:
                theta, chi = 0.0, 0.0
            else:
                theta = np.arctan2(abs(lower), abs(upper))
                chi = float(np.angle(upper) - np.angle(lower) - np.pi / 2)
            g = phase_unitary(a + 1, chi, m) @ beam_splitter_unitary(a + 1, theta, m)
            u = g.conj().T @ u
            nulling.append((a, theta, chi))
    elements: list = [PhaseElement(i + 1, float(np.angle(u[i, i]))) for i in range(m)]
    for a, theta, chi in reversed(nulling):
        elements.append(BSElement(a + 1, theta))
        elements.append(PhaseElement(a + 1, chi))
    return ElementSequence(m, tuple(elements))


def unitary_distance(u, v, tol: float = UNITARITY_TOL) -> float:
    """Global-phase-invariant distance 1 - |tr(U^dag V)| / M between two
    matrices unitary within ``tol``."""
    a = assert_unitary(u, tol)
    b = assert_unitary(v, tol)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    m = a.shape[0]
    return float(1.0 - abs(np.trace(a.conj().T @ b)) / m)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary from QR of a seeded complex Gaussian matrix.

    The R diagonal is phase-fixed so the distribution is exactly Haar and
    the output is a deterministic function of the seed.  ``seed`` may be an
    integer or a ``numpy.random.Generator``.
    """
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def fourier_unitary(dim: int) -> np.ndarray:
    """Discrete-Fourier-transform unitary, entries exp(2 pi i j k / M)/sqrt(M)."""
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
