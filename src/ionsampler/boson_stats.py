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
many-body route (`fock_oracle_distribution`) that builds the output state
in the full bosonic Fock space, applying to the vacuum one creation
operator b_j^dag = sum_i U_ij a_i^dag per input boson.  They share
nothing but the outcome enumeration and its rank, which makes their
agreement a meaningful cross-check.  Both hold the outcomes as one (K, M)
table of the smallest unsigned dtype that holds N, rows in canonical order.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .linear_optics import UNITARITY_TOL, assert_unitary, evolve_modes

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
# The guard counts the stored entries of the lifted generator
# (fock_generator_entries), M - 1 per raised state the oracle's last step holds
# (M per state of one boson fewer), so the oracle's memory follows that count:
# one call took 62 MB above the 36 MB of the interpreter and numpy at M = 20,
# N = 5 (3.4e6 entries; 98 MB RSS peak) and 46 MB at M = 8, N = 12 (1.8e6;
# 81 MB).  It admits every basis of up to 5e4 states on up to 20 modes.
FOCK_MAX_ENTRIES = 3_500_000
# At M = 16, N = 8 (490 314 outcomes, Haar, each run alone in a fresh process
# on 2 CPUs) the outcome table is 7.8 MB and exact_distribution takes 1.3-1.5 s
# and peaks at 66 MB RSS, 30 MB above the interpreter and numpy.  The stages
# cost more, for the JSON rows of distribution.json: distribution takes 5.2 s
# and peaks at 335 MB, sample 3.8 s and 306 MB, verify 3.4 s and 307 MB.
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


def _probabilities(u: np.ndarray, table: np.ndarray, t: tuple[int, ...]) -> np.ndarray:
    """|Per(A_S)|^2 / (prod s! prod t!) for every outcome S, a row of ``table``,
    by batched Ryser.

    Rows of A_S follow the outcome and columns follow the inputs (see the
    module docstring), so every A_S takes its columns from the same
    U[:, inputs] and only its row indices differ.  Those are built for one
    chunk of outcomes per kernel call, so memory is set by the outcome table.
    """
    cols = np.repeat(u, t, axis=1)
    m, n = u.shape[0], cols.shape[1]
    factorials = np.array([factorial(k) for k in range(n + 1)], dtype=float)
    probs = np.empty(len(table))
    for first in range(0, len(table), RYSER_CHUNK_ELEMENTS):
        occ = table[first:first + RYSER_CHUNK_ELEMENTS]
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
    return float(_probabilities(u, np.array([s]), t)[0])


def _outcome_table(num_modes: int, num_bosons: int) -> np.ndarray:
    """:func:`enumerate_outcomes` as a (K, M) table of the smallest unsigned
    dtype that holds N, one column per pass: a prefix with r bosons left has
    children r, r - 1, ..., 0 in the next mode, and each child's entry fills
    one row per completion of what it leaves over the modes after it."""
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
    table = np.empty((count, num_modes), dtype=np.min_scalar_type(num_bosons))
    left = np.array([num_bosons])  # bosons left by each prefix
    for i in range(num_modes - 1):
        children = left + 1
        after = np.arange(children.sum()) - np.repeat(np.cumsum(children) - children, children)
        rest = num_modes - i - 2  # modes after this one, less the last
        completions = np.array([comb(r + rest, rest) for r in range(num_bosons + 1)])
        table[:, i] = np.repeat(np.repeat(left, children) - after, completions[after])
        left = after
    table[:, -1] = left
    return table


def enumerate_outcomes(num_modes: int, num_bosons: int) -> list[tuple[int, ...]]:
    """All compositions of N into M parts, first index descending.

    The order is part of the serialization contract: (2,0) before (1,1)
    before (0,2), and recursively so in the remaining modes.  Refuses more
    than OUTCOME_MAX_COUNT outcomes before building any of them.
    """
    return list(map(tuple, _outcome_table(num_modes, num_bosons).tolist()))


def _outcome_rank(outcomes: np.ndarray, num_bosons: int) -> np.ndarray:
    """Position of each row of a (K, M) array of outcomes of N bosons in the
    :func:`enumerate_outcomes` order, one pass per mode: with r bosons left for
    k modes, C(r - s + k - 2, k - 1) outcomes put more than s in the first."""
    m = outcomes.shape[1]
    table = np.array(  # [r - s, k - 2]: at most C(N + M - 2, N - 1), below the outcome count
        [[comb(d + k - 2, k - 1) for k in range(2, m + 1)] for d in range(num_bosons + 1)],
        dtype=np.int64,
    ).reshape(num_bosons + 1, m - 1)
    rank, left = np.zeros(len(outcomes), dtype=np.int64), np.full(len(outcomes), num_bosons)
    for i in range(m - 1):
        rank += table[left - outcomes[:, i], m - i - 2]
        left -= outcomes[:, i]
    return rank


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over all occupation vectors with a fixed boson total.

    ``table`` holds the outcomes as the rows of one (K, M) integer array,
    in the :func:`enumerate_outcomes` order, and ``probabilities[k]`` is
    the probability of row k.  Provenance is one of "exact" (permanent
    route), "fock_oracle" (many-body route) or "empirical" (sample
    frequencies).
    """

    num_modes: int
    num_bosons: int
    provenance: str
    table: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if len(self.table) != p.size:
            raise ValueError("outcomes and probabilities length mismatch")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")

    @property
    def outcomes(self) -> tuple[tuple[int, ...], ...]:  # built on each call
        return tuple(map(tuple, self.table.tolist()))

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())


def _distribution_from_probs(table, provenance, probs, norm_tol):
    residual = abs(probs.sum() - 1.0)
    if not residual <= norm_tol:  # so that a NaN sum fails too
        raise RuntimeError(
            f"{provenance} distribution sums to 1{residual:+.3e}; "
            "numerical failure beyond tolerance"
        )
    m, n = table.shape[1], int(table[0].sum())
    return OutcomeDistribution(m, n, provenance, table, probs)


def exact_distribution(
    matrix, inputs, norm_tol: float = NORMALIZATION_TOL, unit_tol: float = UNITARITY_TOL
) -> OutcomeDistribution:
    """Permanent-route distribution over every outcome with the input's boson total.

    ``matrix`` must be unitary within ``unit_tol`` (max |U^dag U - I|).
    """
    u = assert_unitary(matrix, unit_tol)
    t = _occupation(inputs, u.shape[0])
    table = _outcome_table(len(t), sum(t))
    return _distribution_from_probs(table, "exact", _probabilities(u, table, t), norm_tol)


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
    which set the oracle's memory (see FOCK_MAX_ENTRIES).
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
    """Distribution via the output state in the many-body Fock space.

    With ``duration`` omitted, ``operator`` is a one-particle unitary U
    (within ``unit_tol``); otherwise it is a Hermitian hopping matrix K,
    and U = exp(-iKt) for ``duration`` t seconds.  The output state is
    prod_j (b_j^dag)^t_j |0> / sqrt(prod t_j!), with b_j^dag = sum_i U_ij
    a_i^dag (Aaronson & Arkhipov, "The computational complexity of linear
    optics", 2011).  It is built from the vacuum one creation operator per
    input boson: on the states s of k bosons, a_i^dag sends amplitude
    sqrt(s_i + 1) amp[s] to s + e_i, and the raised states of every s and
    i are ranked in the canonical order of k + 1 bosons and summed there by
    one bincount.  No permanents anywhere.  Rounding can grow with each
    boson, by up to sqrt(N! / prod t_j!) in all: at 30 bosons (the
    permanent guard) in 2 to 5 modes this route was within 2e-13 TVD of
    evolving the lifted generator, while at 120 bosons in 3 modes the sum
    strays by 1.6e-3 and the normalization check raises.
    """
    t = _occupation(inputs)
    m, n = len(t), sum(t)
    refusal = fock_oracle_refusal(m, n)
    if refusal:
        raise ValueError(refusal)
    if duration is None:
        u = assert_unitary(operator, unit_tol)
    else:
        u = evolve_modes(operator, float(duration))
    if u.shape[0] != m:
        raise ValueError("operator dimension does not match occupations")

    # the vacuum, then after k steps the table of k bosons (rows in rank order)
    states = np.zeros((1, m), dtype=np.min_scalar_type(n))
    amps = np.ones(1, dtype=complex)
    unit = np.eye(m, dtype=states.dtype)  # e_i, one row per mode
    # (b_j^dag)^t_j / sqrt(t_j!) as t_j factors b_j^dag / sqrt(c): the state
    # stays normalized, and no factorial overflows past 170 bosons
    bosons = [(j, c) for j in range(m) for c in range(1, t[j] + 1)]
    for k, (j, c) in enumerate(bosons, start=1):
        raised = (states[:, None, :] + unit).reshape(-1, m)
        weights = (amps[:, None] * np.sqrt((states + 1) / c) * u[:, j]).ravel()
        rank, count = _outcome_rank(raised, k), comb(k + m - 1, k)
        amps = np.bincount(rank, weights.real, count) + 1j * np.bincount(rank, weights.imag, count)
        states = np.empty((count, m), dtype=states.dtype)
        states[rank] = raised
    return _distribution_from_probs(states, "fock_oracle", np.abs(amps) ** 2, norm_tol)


def _outcome_rows(rows, num_modes: int, num_bosons: int, label: str) -> np.ndarray:
    """``rows`` as an int64 (K, M) array.  A row that is not an outcome of N
    bosons in M modes (another length, an entry that is not a nonnegative
    integer, or another total) raises ValueError naming the first such row
    as ``label`` k."""
    try:
        table = np.asarray(rows)
    except ValueError:  # rows of different lengths
        k = next(k for k, row in enumerate(rows) if len(row) != num_modes)
        bad = rows[k]
    else:
        if table.ndim != 2:
            raise ValueError(f"{label}s must be rows of occupations, got shape {table.shape}")
        if table.dtype.kind not in "iuf":
            raise ValueError(f"{label}s must be integer occupations, not {table.dtype}")
        foreign = (table < 0).any(axis=1) | (table.sum(axis=1) != num_bosons)
        foreign |= table.shape[1] != num_modes
        if table.dtype.kind == "f":
            foreign |= (table != np.round(table)).any(axis=1)
        if not foreign.any():
            return table.astype(np.int64, copy=False)
        k = int(np.argmax(foreign))
        bad = table[k].tolist()
    raise ValueError(
        f"{label} {k} {tuple(bad)} is not an outcome of {num_bosons} bosons in {num_modes} modes"
    )


def check_samples(samples, num_modes: int, num_bosons: int) -> np.ndarray:
    """``samples`` as an int64 array.  No rows, or a sample that is not an
    outcome of N bosons in M modes, raises ValueError naming the first such
    sample (see :func:`_outcome_rows`)."""
    if not np.size(samples):
        raise ValueError("no samples")
    return _outcome_rows(samples, num_modes, num_bosons, "sample")


def empirical_distribution(samples, num_modes: int, num_bosons: int) -> OutcomeDistribution:
    """Relative frequencies of ``samples`` over the canonical outcome order;
    samples are checked by :func:`check_samples`."""
    samples = check_samples(samples, num_modes, num_bosons)
    table = _outcome_table(num_modes, num_bosons)
    probs = np.bincount(_outcome_rank(samples, num_bosons), minlength=len(table)) / len(samples)
    return OutcomeDistribution(num_modes, num_bosons, "empirical", table, probs)


def sample_outcomes(dist: OutcomeDistribution, num_samples: int, seed) -> np.ndarray:
    """Inverse-CDF draws from an exact/oracle distribution; PCG64-seeded.

    Returns an (num_samples, M) int64 array.  Identical seeds give
    identical arrays; the generator is numpy's default PCG64 stream.
    """
    if dist.provenance not in ("exact", "fock_oracle"):
        raise ValueError(f"refusing to sample from {dist.provenance!r} distribution")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if not abs(dist.total - 1.0) <= 1e-6:  # so that a NaN sum fails too
        raise ValueError(f"distribution is unnormalized (sum {dist.total})")
    cdf = np.cumsum(dist.probabilities)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(num_samples), side="right")
    return dist.table[np.minimum(idx, len(dist.table) - 1)].astype(np.int64)


def total_variation_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Half the L1 distance between two distributions on the same outcome set."""
    if (p.num_modes, p.num_bosons) != (q.num_modes, q.num_bosons):
        raise ValueError("distributions live on different outcome spaces")
    if not np.array_equal(p.table, q.table):
        raise ValueError("outcome orders differ")
    return float(0.5 * np.abs(p.probabilities - q.probabilities).sum())


def distribution_to_json(dist: OutcomeDistribution) -> dict:
    return {
        "m": dist.num_modes,
        "n": dist.num_bosons,
        "provenance": dist.provenance,
        "outcomes": [
            {"s": s, "p": p}
            for s, p in zip(dist.table.tolist(), dist.probabilities.tolist())
        ],
    }


def distribution_from_json(data: dict) -> OutcomeDistribution:
    """Inverse of :func:`distribution_to_json`.  A row that is not an outcome
    of n bosons in m modes raises ValueError naming the first such row."""
    m, n = int(data["m"]), int(data["n"])
    table = _outcome_rows([row["s"] for row in data["outcomes"]], m, n, "outcome")
    probs = np.array([row["p"] for row in data["outcomes"]], dtype=float)
    return OutcomeDistribution(m, n, data["provenance"], table.astype(np.min_scalar_type(n)), probs)


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
