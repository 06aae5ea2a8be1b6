"""Exact output statistics for noninteracting bosons in an M-mode network.

The probability of detecting occupations S given input occupations T is
|Per(A)|^2 / (prod s_i! prod t_j!), where A replicates row i of the
transfer matrix s_i times and column j t_j times.  Rows follow outcomes
and columns follow inputs, so for a single boson the formula reduces to
|U_ji|^2 = |(U e_i)_j|^2, the evolve-and-measure amplitude.

Two independent routes compute each distribution: the permanent route
(Ryser's inclusion-exclusion over column subsets) and a brute-force
many-body route (`fock_oracle_distribution`) that lifts the one-particle
unitary to the full bosonic Fock space and evolves the input state.  They
share nothing but the outcome enumeration, which makes their agreement a
meaningful cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod

import numpy as np
import scipy.linalg

from .linear_optics import assert_hermitian, assert_unitary

__all__ = [
    "permanent_ryser",
    "permanent_naive",
    "build_submatrix",
    "outcome_probability",
    "enumerate_outcomes",
    "OutcomeDistribution",
    "exact_distribution",
    "fock_oracle_distribution",
    "empirical_distribution",
    "sample_outcomes",
    "total_variation_distance",
    "distribution_to_json",
    "distribution_from_json",
    "samples_to_csv",
    "samples_from_csv",
]

RYSER_MAX_DIM = 30
NAIVE_MAX_DIM = 9
# The sparse lifted generator holds about dim * min(N, M) * M nonzeros and the
# oracle peaks near five copies of it: 180 MB at M = 8, N = 12 (50 388 states)
# and 290 MB at M = 20, N = 5 (42 504 states), so the guard keeps chains of up
# to 20 ions under about 350 MB.  Longer chains cost more per state.
FOCK_MAX_DIM = 50_000
# Complex entries per array in the chunked Ryser product (256 kB, cache-sized).
# The only larger arrays, the half row-sum tables, stay under 16 MB at n = 30.
RYSER_CHUNK_ELEMENTS = 1 << 14


@lru_cache(maxsize=8)
def _column_subsets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership (k, 2^k) of every subset of k columns, and its parity sign."""
    member = (np.arange(1 << k)[None, :] >> np.arange(k)[:, None]) & 1
    signs = 1.0 - 2.0 * (member.sum(axis=0) & 1)
    member = member.astype(np.complex128)
    member.flags.writeable = signs.flags.writeable = False  # shared by the cache
    return member, signs


def _ryser_sum(a: np.ndarray) -> complex:
    """Ryser's formula, meet-in-the-middle over two halves of the columns.

    Per(A) = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} a_ij.  Each subset S is
    a low-half subset joined with a high-half one, so its row sums are the
    sum of the two halves' row sums, each got by one 0/1 matrix product.
    High-half subsets are taken in chunks of RYSER_CHUNK_ELEMENTS / 2^low.
    """
    n = a.shape[0]
    low = (n + 1) // 2
    member_lo, sign_lo = _column_subsets(low)
    member_hi, sign_hi = _column_subsets(n - low)
    rows_lo = a[:, :low] @ member_lo
    rows_hi = a[:, low:] @ member_hi
    step = max(1, RYSER_CHUNK_ELEMENTS >> low)
    total = 0j
    for start in range(0, rows_hi.shape[1], step):
        hi = rows_hi[:, start:start + step, None]
        terms = hi[0] + rows_lo[0]
        row_sums = np.empty_like(terms)
        for i in range(1, n):
            np.add(hi[i], rows_lo[i], out=row_sums)
            terms *= row_sums
        total += sign_hi[start:start + step] @ (terms @ sign_lo)
    return -total if n & 1 else total


def _check_square(a: np.ndarray, guard: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} needs a square matrix, got shape {a.shape}")
    if a.shape[0] > guard:
        raise ValueError(f"{name} guard: n={a.shape[0]} exceeds limit {guard}")
    return a


def permanent_ryser(matrix) -> complex:
    """Matrix permanent by Ryser's formula over all column subsets.

    O(2^n * n) time; guarded at n <= 30 to keep runtimes bounded.
    """
    a = _check_square(matrix, RYSER_MAX_DIM, "permanent_ryser")
    if a.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(_ryser_sum(a))


def permanent_naive(matrix) -> complex:
    """Permanent as the literal sum over all n! permutations (n <= 9)."""
    a = _check_square(matrix, NAIVE_MAX_DIM, "permanent_naive")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    return complex(
        sum(prod(a[i, p[i]] for i in range(n)) for p in permutations(range(n)))
    )


def _occupation(vec, dim: int | None = None) -> tuple[int, ...]:
    occ = tuple(int(x) for x in vec)
    if any(x < 0 for x in occ):
        raise ValueError(f"occupations must be nonnegative, got {occ}")
    if dim is not None and len(occ) != dim:
        raise ValueError(f"occupation length {len(occ)} does not match dim {dim}")
    return occ


def _replicate(occ: tuple[int, ...]) -> list[int]:
    return [i for i, count in enumerate(occ) for _ in range(count)]


def build_submatrix(matrix, s, t) -> np.ndarray:
    """Replicated submatrix: column j taken s[j] times, row i taken t[i] times.

    Replication is in ascending index order with repeats adjacent, so the
    output is deterministic; any other order permutes rows/columns and
    leaves the permanent unchanged.
    """
    a = np.asarray(matrix, dtype=complex)
    s = _occupation(s, a.shape[1])
    t = _occupation(t, a.shape[0])
    if sum(s) != sum(t):
        raise ValueError(f"replication totals differ: sum(s)={sum(s)}, sum(t)={sum(t)}")
    return a[np.ix_(_replicate(t), _replicate(s))]


def outcome_probability(matrix, outcome, inputs) -> float:
    """Probability of detecting ``outcome`` given ``inputs`` through ``matrix``.

    Rows of the permanent submatrix follow the outcome, columns follow the
    inputs (see the module docstring for why this orientation is forced by
    the single-boson limit).
    """
    s = _occupation(outcome)
    t = _occupation(inputs)
    sub = build_submatrix(matrix, s=t, t=s)  # columns <- inputs, rows <- outcome
    norm = prod(factorial(x) for x in s) * prod(factorial(x) for x in t)
    return abs(permanent_ryser(sub)) ** 2 / norm


def enumerate_outcomes(num_modes: int, num_bosons: int) -> list[tuple[int, ...]]:
    """All compositions of N into M parts, first index descending.

    The order is part of the serialization contract: (2,0) before (1,1)
    before (0,2), and recursively so in the remaining modes.
    """
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    if num_bosons < 0:
        raise ValueError("num_bosons must be >= 0")
    if num_modes == 1:
        return [(num_bosons,)]
    out: list[tuple[int, ...]] = []
    for first in range(num_bosons, -1, -1):
        for rest in enumerate_outcomes(num_modes - 1, num_bosons - first):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over all occupation vectors with a fixed boson total.

    ``outcomes`` follows the :func:`enumerate_outcomes` order.  Provenance
    is one of "exact" (permanent route), "fock_oracle" (many-body route) or
    "empirical" (sample frequencies).
    """

    num_modes: int
    num_bosons: int
    provenance: str
    outcomes: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if len(self.outcomes) != p.size:
            raise ValueError("outcomes and probabilities length mismatch")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())


def _distribution_from_probs(inputs, provenance, probs, norm_tol):
    t = _occupation(inputs)
    m, n = len(t), sum(t)
    outcomes = enumerate_outcomes(m, n)
    probs = np.asarray(probs, dtype=float)
    residual = abs(probs.sum() - 1.0)
    if residual > norm_tol:
        raise RuntimeError(
            f"{provenance} distribution sums to 1{residual:+.3e}; "
            "numerical failure beyond tolerance"
        )
    return OutcomeDistribution(m, n, provenance, tuple(outcomes), probs)


def exact_distribution(matrix, inputs, norm_tol: float = 1e-9) -> OutcomeDistribution:
    """Permanent-route distribution over every outcome with the input's boson total."""
    u = assert_unitary(matrix)
    t = _occupation(inputs, u.shape[0])
    probs = [outcome_probability(u, s, t) for s in enumerate_outcomes(len(t), sum(t))]
    return _distribution_from_probs(t, "exact", probs, norm_tol)


def _lift_generator(h: np.ndarray, basis: list[tuple[int, ...]]):
    """Second-quantize a one-particle Hermitian matrix on a Fock basis, sparsely.

    H = sum_ij h_ij a_i^dag a_j = A^T (h kron 1) A, where A stacks the
    annihilators a_j, each mapping the basis onto the one with a boson fewer.
    """
    import scipy.sparse

    m, n = h.shape[0], sum(basis[0])
    fewer = {s: k for k, s in enumerate(enumerate_outcomes(m, n - 1))} if n else {}
    states = np.array(basis)
    k, j = np.nonzero(states)  # a_j acts on state k
    lowered = states[k]
    lowered[np.arange(k.size), j] -= 1
    rows = j * len(fewer) + np.array([fewer[s] for s in map(tuple, lowered.tolist())], dtype=int)
    a = scipy.sparse.csr_matrix(
        (np.sqrt(states[k, j]), (rows, k)), shape=(m * len(fewer), len(basis))
    )
    return a.T @ scipy.sparse.kron(h, scipy.sparse.identity(len(fewer))) @ a


def fock_oracle_distribution(
    operator,
    inputs,
    duration: float | None = None,
    norm_tol: float = 1e-9,
    max_dim: int = FOCK_MAX_DIM,
) -> OutcomeDistribution:
    """Distribution via explicit evolution in the many-body Fock space.

    With ``duration`` omitted, ``operator`` is a one-particle unitary whose
    Hermitian generator is recovered by a matrix logarithm; otherwise it is
    a Hermitian hopping matrix evolved for ``duration`` seconds.  The
    generator is second-quantized with the usual sqrt(n) ladder factors on
    the C(N+M-1, M-1)-dimensional number basis, and exp(-iHt) is applied
    to the input state alone (Al-Mohy & Higham's truncated Taylor series,
    ``scipy.sparse.linalg.expm_multiply``) — no permanents anywhere.
    """
    t = _occupation(inputs)
    m, n = len(t), sum(t)
    basis_dim = comb(n + m - 1, m - 1)
    if basis_dim > max_dim:
        raise ValueError(
            f"Fock basis dimension {basis_dim} exceeds guard {max_dim}"
        )
    if duration is None:
        u = assert_unitary(operator)
        if u.shape[0] != m:
            raise ValueError("operator dimension does not match occupations")
        h = 1j * scipy.linalg.logm(u)
        h = (h + h.conj().T) / 2.0
        time = 1.0
    else:
        h = np.asarray(assert_hermitian(operator), dtype=complex)
        time = float(duration)

    # scipy.sparse is imported only here, past the guard, so that importing
    # the package stays as fast as before
    from scipy.sparse.linalg import expm_multiply

    basis = enumerate_outcomes(m, n)
    start = np.zeros(len(basis), dtype=complex)
    start[basis.index(t)] = 1.0
    amps = expm_multiply(-1j * time * _lift_generator(h, basis), start)
    return _distribution_from_probs(t, "fock_oracle", np.abs(amps) ** 2, norm_tol)


def empirical_distribution(samples, num_modes: int, num_bosons: int) -> OutcomeDistribution:
    """Relative frequencies of ``samples`` over the canonical outcome order."""
    outcomes = enumerate_outcomes(num_modes, num_bosons)
    index = {s: k for k, s in enumerate(outcomes)}
    counts = np.zeros(len(outcomes))
    total = 0
    for row in np.asarray(samples, dtype=int):
        counts[index[tuple(int(x) for x in row)]] += 1
        total += 1
    if total == 0:
        raise ValueError("no samples")
    return OutcomeDistribution(
        num_modes, num_bosons, "empirical", tuple(outcomes), counts / total
    )


def sample_outcomes(dist: OutcomeDistribution, num_samples: int, seed) -> np.ndarray:
    """Inverse-CDF draws from an exact/oracle distribution; PCG64-seeded.

    Returns an (num_samples, M) integer array.  Identical seeds give
    identical arrays; the generator is numpy's default PCG64 stream.
    """
    if dist.provenance not in ("exact", "fock_oracle"):
        raise ValueError(f"refusing to sample from {dist.provenance!r} distribution")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if abs(dist.total - 1.0) > 1e-6:
        raise ValueError(f"distribution is unnormalized (sum {dist.total})")
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(num_samples), side="right")
    table = np.array(dist.outcomes, dtype=int)
    return table[np.minimum(idx, len(table) - 1)]


def total_variation_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Half the L1 distance between two distributions on the same outcome set."""
    if (p.num_modes, p.num_bosons) != (q.num_modes, q.num_bosons):
        raise ValueError("distributions live on different outcome spaces")
    if p.outcomes != q.outcomes:
        raise ValueError("outcome orders differ")
    return float(0.5 * np.abs(p.probabilities - q.probabilities).sum())


def distribution_to_json(dist: OutcomeDistribution) -> dict:
    return {
        "m": dist.num_modes,
        "n": dist.num_bosons,
        "provenance": dist.provenance,
        "outcomes": [
            {"s": list(s), "p": float(p)}
            for s, p in zip(dist.outcomes, dist.probabilities)
        ],
    }


def distribution_from_json(data: dict) -> OutcomeDistribution:
    outcomes = tuple(tuple(int(x) for x in row["s"]) for row in data["outcomes"])
    probs = np.array([row["p"] for row in data["outcomes"]], dtype=float)
    return OutcomeDistribution(int(data["m"]), int(data["n"]), data["provenance"], outcomes, probs)


def samples_to_csv(samples, fh) -> None:
    """One comma-separated occupation vector per line, no header."""
    for row in np.asarray(samples, dtype=int):
        fh.write(",".join(str(int(x)) for x in row) + "\n")


def samples_from_csv(fh) -> np.ndarray:
    rows = [
        [int(x) for x in line.strip().split(",")]
        for line in fh
        if line.strip()
    ]
    return np.array(rows, dtype=int)
