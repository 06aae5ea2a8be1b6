"""Exact output statistics for noninteracting bosons in an M-mode network.

The probability of detecting occupations S given input occupations T is
|Per(A)|^2 / (prod s_i! prod t_j!), where A replicates row i of the
transfer matrix s_i times and column j t_j times.  Rows follow outcomes
and columns follow inputs, so for a single boson the formula reduces to
|U_ji|^2 = |(U e_i)_j|^2, the evolve-and-measure amplitude.

Two independent routes compute each distribution: the permanent route
(Ryser's inclusion-exclusion over column subsets, in one batched pass
over all outcomes, since every A of one input has the same columns;
outcomes next to each other in the canonical order share their first
rows, and with them the products of those rows' subset sums) and a
brute-force many-body route (`fock_oracle_distribution`) that lifts
the one-particle unitary to the full bosonic Fock space and evolves the
input state.  They share nothing but the outcome enumeration, which
makes their agreement a meaningful cross-check.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb, factorial

import numpy as np

from .linear_optics import UNITARITY_TOL, assert_hermitian, assert_unitary

__all__ = [
    "permanent_ryser",
    "outcome_probability",
    "enumerate_outcomes",
    "OutcomeDistribution",
    "exact_distribution",
    "fock_generator_entries",
    "fock_oracle_refusal",
    "fock_oracle_distribution",
    "check_samples",
    "empirical_distribution",
    "sample_outcomes",
    "total_variation_distance",
    "distribution_to_json",
    "distribution_from_json",
    "samples_to_csv",
    "samples_from_csv",
]

RYSER_MAX_DIM = 30
# Largest |sum of probabilities - 1| a computed distribution may show.
NORMALIZATION_TOL = 1e-9
# The oracle's memory follows the stored entries of its lifted generator
# (fock_generator_entries), at about 85-105 B each: one call peaked at 360 MB
# RSS at M = 20, N = 5 (3.4e6 entries) and at 253 MB at M = 8, N = 12 (1.8e6).
# The guard keeps a call near 350 MB however the states split into modes and
# bosons; it admits every basis of up to 5e4 states on up to 20 modes.
FOCK_MAX_ENTRIES = 3_500_000
# Outcome tuples and their JSON rows cost about 0.8 kB each: at M = 16, N = 8
# (490 314 outcomes) the distribution stage alone takes 6-7.5 s and peaks at
# 404 MB RSS, of which exact_distribution is 2.2 s and 207 MB, and the verify
# stage, which parses that distribution.json, peaks at 324 MB.
OUTCOME_MAX_COUNT = 500_000
# Lines per block when a CSV artifact is written: the text of one block is
# joined and written at once, so memory does not grow with the sample count.
CSV_BLOCK_LINES = 1 << 16
_BLANK_LINES = re.compile(r"^[^\S\n]+$", re.MULTILINE)  # whitespace-only lines
# Complex entries per array in the chunked Ryser product (256 kB, cache-sized),
# and outcomes per chunk of row indices.  The only larger arrays, the subset
# row-sum tables, stay under 16 MB for a single permanent at n = 30.
RYSER_CHUNK_ELEMENTS = 1 << 14


@lru_cache(maxsize=8)
def _column_subsets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership (k, 2^k) of every subset of k columns, and its parity sign."""
    member = (np.arange(1 << k)[None, :] >> np.arange(k)[:, None]) & 1
    signs = 1.0 - 2.0 * (member.sum(axis=0) & 1)
    member = member.astype(np.complex128)
    member.flags.writeable = signs.flags.writeable = False  # shared by the cache
    return member, signs


def _prefix_levels(rows: np.ndarray, step: int):
    """The shared row prefixes of the permanents in each chunk of ``step`` rows.

    Level i holds the distinct prefixes of length i + 1 among a chunk's
    rows: a row starts a new one where it differs from the row before it in
    one of its first i + 1 entries, or where it starts the chunk, so one pass
    over the row indices finds every level.  Equal prefixes that are not
    adjacent are kept twice, which costs time but never correctness.

    Returns four things.  ``parent`` and ``index`` hold, for every prefix,
    the chunk-local index of its parent on the level before and of its last
    row among its level's distinct rows.  ``chunks`` holds per chunk its
    distinct rows (those of each level in increasing order, level after
    level) and per level the bounds of its prefixes in ``parent`` and
    ``index``, whether those end in the level's distinct rows in order, and
    the bounds of those rows.  ``full`` is the chunk-local index of each
    row's full prefix.
    """
    count, n = rows.shape
    # A chunk of one row shares nothing: each level has one prefix, so nothing
    # is gathered.  Its levels are built here without the fixed cost of the
    # pass below, a tenth of an n = 15 permanent.
    if step == 1:
        levels = [(0, 1, True, i, i + 1) for i in range(n)]
        return None, None, [(row, levels) for row in rows], np.zeros(count, dtype=np.intp)
    starts = np.zeros((-(-count // step) * step, n + 1), dtype=bool)  # column 0: empty prefix
    np.not_equal(rows[1:], rows[:-1], out=starts[1:count, 1:])
    starts[::step, 0] = True
    starts = np.logical_or.accumulate(starts, axis=1).reshape(-1, step, n + 1)
    ids = np.cumsum(starts, axis=1, dtype=np.int32).reshape(-1, n + 1) - 1
    # every prefix, grouped by chunk and then level, in row order in a group
    chunk, level, pos = np.nonzero(starts[:, :, 1:].transpose(0, 2, 1))
    group = chunk * n + level
    first_row = chunk * step + pos
    parent, key = ids[first_row, level], rows[first_row, level]
    # the distinct last rows of each group, marked in a (group, row) table of
    # chunks x n x M entries: at most 1.1e6 (10 MB with its ranks) for any
    # distribution under the outcome guard, at N = 13 in M = 10 modes
    width = int(rows.max(initial=0)) + 1
    key += group * width
    seen = np.zeros(len(starts) * n * width, dtype=bool)
    seen[key] = True
    rank = np.cumsum(seen)
    row_bounds = np.concatenate(([0], rank[width - 1::width]))
    index = rank[key] - 1 - row_bounds[group]
    # a group's last rows are its distinct rows in order where they increase
    in_order = (np.bincount(group[1:], np.diff(key) <= 0, len(row_bounds)) == 0).tolist()
    distinct = np.flatnonzero(seen) % width
    prefix_bounds = np.searchsorted(group, np.arange(len(row_bounds))).tolist()
    row_bounds = row_bounds.tolist()

    chunks = []  # bounds as plain integers: a view per level held 0.7 MB more at n = 8
    for c in range(len(starts)):
        g, base = c * n, row_bounds[c * n]
        levels = [
            (prefix_bounds[k], prefix_bounds[k + 1], in_order[k],
             row_bounds[k] - base, row_bounds[k + 1] - base)
            for k in range(g, g + n)
        ]
        chunks.append((distinct[base:row_bounds[g + n]], levels))
    return parent, index, chunks, ids[:count, n]


def _ryser_sums(cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Permanents of the n x n matrices cols[rows[b]], by Ryser's formula.

    Per(A) = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} a_ij, meet-in-the-middle:
    each column subset S is a low-half subset joined with a high-half one, so
    its row sums add the two halves' row sums.  Those are taken once for every
    row of ``cols`` by one 0/1 matrix product per half, and each permanent
    gathers its n rows from them (a repeated row index is a repeated row).
    Consecutive permanents that share their first rows share the product of
    those rows' sums: level by level, each distinct prefix (`_prefix_levels`)
    takes its parent's product times its last row's sums, which are added
    once per distinct row of the level, and the finished products are summed
    once and gathered back to the permanents.  In the canonical outcome order
    neighbours share long prefixes; any order gives the same values.  The
    products are chunked over permanents and high-half subsets, at most
    RYSER_CHUNK_ELEMENTS complex entries per array.
    """
    n = cols.shape[1]
    if n > RYSER_MAX_DIM:
        raise ValueError(f"permanent guard: n={n} exceeds limit {RYSER_MAX_DIM}")
    low = (n + 1) // 2
    member_lo, sign_lo = _column_subsets(low)
    member_hi, sign_hi = _column_subsets(n - low)
    sums_lo = cols[:, :low] @ member_lo
    sums_hi = cols[:, low:] @ member_hi
    step_hi = min(sums_hi.shape[1], max(1, RYSER_CHUNK_ELEMENTS >> low))
    step = max(1, RYSER_CHUNK_ELEMENTS // (step_hi << low))
    parent, index, chunks, full = _prefix_levels(rows, step)  # its peak before the buffers
    # the products, a spare for gathering them (which holds a level's row
    # sums gathered to its prefixes once the products are gathered) and the
    # level's row sums, reused throughout: a fresh array per level would cost
    # more than its arithmetic.  They are allocated apart: as slices of one
    # block they lie a multiple of 4 kB apart, which made n = 20 up to 10%
    # slower.  Gathers pass mode="clip" because their indices are in range
    # and the default mode would buffer the copy.
    shape = (min(step, len(rows)), step_hi, 1 << low)
    prods, spare, table = (np.empty(shape, dtype=np.complex128) for _ in range(3))
    total = np.zeros(len(rows), dtype=np.complex128)
    for first, (distinct, levels) in zip(range(0, len(rows), step), chunks):
        lo = sums_lo[distinct, None, :]
        for start in range(0, sums_hi.shape[1], step_hi):
            hi = sums_hi[distinct, start:start + step_hi, None]
            terms = prods[:1]
            terms.fill(1)
            for p0, p1, in_order, a, b in levels:
                if p1 - p0 > len(terms):  # else every prefix has one child
                    terms = np.take(terms, parent[p0:p1], axis=0, out=spare[:p1 - p0], mode="clip")
                    prods, spare = spare, prods
                row_sums = np.add(hi[a:b], lo[a:b], out=table[:b - a])
                if not in_order:
                    row_sums = np.take(
                        row_sums, index[p0:p1], axis=0, out=spare[:p1 - p0], mode="clip"
                    )
                terms *= row_sums
            sums = (terms @ sign_lo) @ sign_hi[start:start + step_hi]
            total[first:first + step] += sums[full[first:first + step]]
    return -total if n & 1 else total


def permanent_ryser(matrix) -> complex:
    """Matrix permanent by Ryser's formula over all column subsets.

    O(2^n * n) time; guarded at n <= 30 to keep runtimes bounded.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent_ryser needs a square matrix, got shape {a.shape}")
    return complex(_ryser_sums(a, np.arange(a.shape[0])[None])[0])


def _occupation(vec, dim: int | None = None) -> tuple[int, ...]:
    occ = tuple(int(x) for x in vec)
    if any(x < 0 for x in occ):
        raise ValueError(f"occupations must be nonnegative, got {occ}")
    if dim is not None and len(occ) != dim:
        raise ValueError(f"occupation length {len(occ)} does not match dim {dim}")
    return occ


def _outcome_array(outcomes, num_modes: int) -> np.ndarray:
    """The (outcomes, M) integer array of a sequence of outcome tuples.

    One flat pass over the entries takes about half the time of np.array,
    which inspects every tuple.  Every tuple must have M entries.
    """
    flat = np.fromiter(chain.from_iterable(outcomes), np.intp, len(outcomes) * num_modes)
    return flat.reshape(len(outcomes), num_modes)


def _probabilities(u: np.ndarray, outcomes, t: tuple[int, ...]) -> np.ndarray:
    """|Per(A_S)|^2 / (prod s! prod t!) for every outcome S, by batched Ryser.

    Rows of A_S follow the outcome and columns follow the inputs (see the
    module docstring), so every A_S takes its columns from the same
    U[:, inputs] and only its row indices differ.  Those are built for one
    chunk of outcomes per kernel call, so memory is set by the outcome list.
    """
    cols = np.repeat(u, t, axis=1)
    m, n = u.shape[0], cols.shape[1]
    factorials = np.array([factorial(k) for k in range(n + 1)], dtype=float)
    probs = np.empty(len(outcomes))
    for first in range(0, len(outcomes), RYSER_CHUNK_ELEMENTS):
        occ = _outcome_array(outcomes[first:first + RYSER_CHUNK_ELEMENTS], m)
        rows = np.repeat(np.tile(np.arange(m), len(occ)), occ.ravel()).reshape(len(occ), n)
        norms = factorials[occ].prod(axis=1) * factorials[list(t)].prod()
        probs[first:first + len(occ)] = np.abs(_ryser_sums(cols, rows)) ** 2 / norms
    return probs


def outcome_probability(matrix, outcome, inputs) -> float:
    """Probability of detecting ``outcome`` given ``inputs`` through ``matrix``.

    Rows of the permanent submatrix follow the outcome, columns follow the
    inputs (see the module docstring for why this orientation is forced by
    the single-boson limit).
    """
    u = np.asarray(matrix, dtype=np.complex128)
    s = _occupation(outcome, u.shape[0])
    t = _occupation(inputs, u.shape[1])
    if sum(s) != sum(t):
        raise ValueError(f"boson totals differ: outcome {sum(s)}, inputs {sum(t)}")
    return float(_probabilities(u, [s], t)[0])


def enumerate_outcomes(num_modes: int, num_bosons: int) -> list[tuple[int, ...]]:
    """All compositions of N into M parts, first index descending.

    The order is part of the serialization contract: (2,0) before (1,1)
    before (0,2), and recursively so in the remaining modes.  Refuses more
    than OUTCOME_MAX_COUNT outcomes before building any of them.
    """
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    if num_bosons < 0:
        raise ValueError("num_bosons must be >= 0")
    count = comb(num_bosons + num_modes - 1, num_bosons)
    if count > OUTCOME_MAX_COUNT:
        raise ValueError(
            f"{count} outcomes of {num_bosons} bosons in {num_modes} modes "
            f"exceed the outcome guard {OUTCOME_MAX_COUNT}"
        )
    # tails[k]: the compositions of k into the last modes, extended by one
    # mode per pass; the last pass needs only the full total
    tails = [[(k,)] for k in range(num_bosons + 1)]
    for left in range(num_modes - 1, 0, -1):
        totals = range(num_bosons + 1) if left > 1 else [num_bosons]
        tails = [[(f,) + rest for f in range(k, -1, -1) for rest in tails[k - f]] for k in totals]
    return tails[-1]


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


def _distribution_from_probs(outcomes, provenance, probs, norm_tol):
    residual = abs(probs.sum() - 1.0)
    if residual > norm_tol:
        raise RuntimeError(
            f"{provenance} distribution sums to 1{residual:+.3e}; "
            "numerical failure beyond tolerance"
        )
    m, n = len(outcomes[0]), sum(outcomes[0])
    return OutcomeDistribution(m, n, provenance, tuple(outcomes), probs)


def exact_distribution(
    matrix, inputs, norm_tol: float = NORMALIZATION_TOL, unit_tol: float = UNITARITY_TOL
) -> OutcomeDistribution:
    """Permanent-route distribution over every outcome with the input's boson total.

    ``matrix`` must be unitary within ``unit_tol`` (max |U^dag U - I|).
    """
    u = assert_unitary(matrix, unit_tol)
    t = _occupation(inputs, u.shape[0])
    outcomes = enumerate_outcomes(len(t), sum(t))
    return _distribution_from_probs(outcomes, "exact", _probabilities(u, outcomes, t), norm_tol)


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


def fock_generator_entries(num_modes: int, num_bosons: int) -> int:
    """Stored entries of the lifted generator on N bosons in M modes.

    The diagonal holds one entry per basis state, and every state with a
    boson in mode j has one off-diagonal entry per hop j -> i != j.
    """
    states = comb(num_bosons + num_modes - 1, num_bosons)
    occupied = comb(num_bosons + num_modes - 2, num_bosons - 1) if num_bosons else 0
    return num_modes * (num_modes - 1) * occupied + states


def fock_oracle_refusal(num_modes: int, num_bosons: int) -> str | None:
    """Why the Fock oracle refuses N bosons in M modes, or None if it runs them.

    The guard, FOCK_MAX_ENTRIES, bounds the generator's stored entries,
    which set the oracle's memory.
    """
    entries = fock_generator_entries(num_modes, num_bosons)
    if entries <= FOCK_MAX_ENTRIES:
        return None
    states = comb(num_bosons + num_modes - 1, num_bosons)
    return (
        f"Fock generator of {num_bosons} bosons in {num_modes} modes has {entries} "
        f"entries ({states} states), which exceeds guard {FOCK_MAX_ENTRIES}"
    )


def fock_oracle_distribution(
    operator,
    inputs,
    duration: float | None = None,
    norm_tol: float = NORMALIZATION_TOL,
    unit_tol: float = UNITARITY_TOL,
) -> OutcomeDistribution:
    """Distribution via explicit evolution in the many-body Fock space.

    With ``duration`` omitted, ``operator`` is a one-particle unitary (within
    ``unit_tol``) whose Hermitian generator is recovered by a matrix
    logarithm; otherwise it is a Hermitian hopping matrix evolved for
    ``duration`` seconds.  The generator is second-quantized with the usual
    sqrt(n) ladder factors on the C(N+M-1, M-1)-dimensional number basis,
    and exp(-iHt) is applied to the input state alone (Al-Mohy & Higham's truncated Taylor series,
    ``scipy.sparse.linalg.expm_multiply``) — no permanents anywhere.
    """
    t = _occupation(inputs)
    m, n = len(t), sum(t)
    refusal = fock_oracle_refusal(m, n)
    if refusal:
        raise ValueError(refusal)
    # scipy is imported only here, past the guard: at module level it would
    # double the time `import ionsampler` takes
    from scipy.linalg import logm
    from scipy.sparse.linalg import expm_multiply

    if duration is None:
        u = assert_unitary(operator, unit_tol)
        if u.shape[0] != m:
            raise ValueError("operator dimension does not match occupations")
        h = 1j * logm(u)
        h = (h + h.conj().T) / 2.0
        time = 1.0
    else:
        h = np.asarray(assert_hermitian(operator), dtype=complex)
        time = float(duration)

    basis = enumerate_outcomes(m, n)
    start = np.zeros(len(basis), dtype=complex)
    start[basis.index(t)] = 1.0
    amps = expm_multiply(-1j * time * _lift_generator(h, basis), start)
    return _distribution_from_probs(basis, "fock_oracle", np.abs(amps) ** 2, norm_tol)


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D integer array, in lexicographic order, and the
    count of each.

    One sort on the columns groups equal rows; a row is never packed into one
    integer key, which would overflow int64 at M = 32, N = 16.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return ordered[starts], np.diff(np.append(starts, len(rows)))


def check_samples(samples, num_modes: int, num_bosons: int) -> np.ndarray:
    """``samples`` as an integer array.  No rows, or a sample that is not an outcome
    of N bosons in M modes (wrong length, a negative entry or another total),
    raises ValueError naming the first such sample."""
    samples = np.asarray(samples, dtype=np.int64)
    if not samples.size:
        raise ValueError("no samples")
    if samples.ndim != 2:
        raise ValueError(f"samples must be rows of occupations, got shape {samples.shape}")
    foreign = (samples < 0).any(axis=1) | (samples.sum(axis=1) != num_bosons)
    foreign |= samples.shape[1] != num_modes
    if foreign.any():
        row = int(np.argmax(foreign))
        raise ValueError(
            f"sample {row} {tuple(samples[row].tolist())} is not an outcome of "
            f"{num_bosons} bosons in {num_modes} modes"
        )
    return samples


def empirical_distribution(samples, num_modes: int, num_bosons: int) -> OutcomeDistribution:
    """Relative frequencies of ``samples`` over the canonical outcome order;
    samples are checked by :func:`check_samples`."""
    samples = check_samples(samples, num_modes, num_bosons)
    distinct, counts = _group_rows(samples)
    outcomes = enumerate_outcomes(num_modes, num_bosons)
    index = {s: k for k, s in enumerate(outcomes)}
    probs = np.zeros(len(outcomes))
    probs[[index[s] for s in map(tuple, distinct.tolist())]] = counts / len(samples)
    return OutcomeDistribution(num_modes, num_bosons, "empirical", tuple(outcomes), probs)


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
    table = _outcome_array(dist.outcomes, dist.num_modes)
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
    """Inverse of :func:`distribution_to_json`; an outcome of the wrong
    length raises ValueError naming it."""
    m = int(data["m"])
    outcomes = tuple(tuple(int(x) for x in row["s"]) for row in data["outcomes"])
    for k, s in enumerate(outcomes):
        if len(s) != m:
            raise ValueError(f"outcome {k} {s} does not have {m} modes")
    probs = np.array([row["p"] for row in data["outcomes"]], dtype=float)
    return OutcomeDistribution(m, int(data["n"]), data["provenance"], outcomes, probs)


def samples_to_csv(samples, fh) -> None:
    """One comma-separated occupation vector per line, no header.

    The lines are written a block of CSV_BLOCK_LINES at a time.  In a
    block, every field is looked up in a table of the ``v,`` and ``v\n``
    strings of each value from the block's least entry to its largest.
    """
    samples = np.asarray(samples, dtype=np.int64)
    for first in range(0, len(samples), CSV_BLOCK_LINES):
        block = samples[first:first + CSV_BLOCK_LINES]
        low = int(block.min())
        values = range(low, int(block.max()) + 1)
        fields = np.array([[f"{v}," for v in values], [f"{v}\n" for v in values]], dtype=object)
        pieces = fields[0][block - low]
        pieces[:, -1:] = fields[1][block[:, -1:] - low]
        fh.write("".join(pieces.ravel().tolist()))


def samples_from_csv(fh) -> np.ndarray:
    """The (samples, M) integer array of a :func:`samples_to_csv` file.

    Blank and whitespace-only lines are skipped; a non-integer field or a
    row whose length differs from the first raises ValueError.
    """
    text = _BLANK_LINES.sub("", fh.read())
    if not text.strip():
        return np.zeros((0, 0), dtype=np.int64)
    return np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.int64, ndmin=2, comments=None)
