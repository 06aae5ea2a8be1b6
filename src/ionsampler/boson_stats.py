"""Exact output statistics for noninteracting bosons in an M-mode network.

The probability of detecting occupations S given input occupations T is
|Per(A)|^2 / (prod s_i! prod t_j!), where A replicates row i of the
transfer matrix s_i times and column j t_j times.  Rows follow outcomes
and columns follow inputs, so for a single boson the formula reduces to
|U_ji|^2 = |(U e_i)_j|^2, the evolve-and-measure amplitude.

Two independent routes compute each distribution: the permanent route
(Glynn's formula over column sign vectors for all outcomes at once, since every
A of one input has the same columns: the outcomes with k bosons in the first
half of the modes take one matrix product of the halves' products of signed
row sums) and a many-body route (`fock_oracle_distribution`) that builds the
output state in the full bosonic Fock space, applying to the vacuum one
creation operator b_j^dag = sum_i U_ij a_i^dag per input boson.  They share
nothing but the canonical outcome order, which the permanent route reads from
outcome tables and the many-body route from its rank, so their agreement is a
meaningful cross-check.  A distribution records only (M, N),
which fix its outcomes: the rows of one cached table, in canonical order.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .linear_optics import UNITARITY_TOL, assert_unitary

__all__ = [
    "permanent_ryser",
    "outcome_probability",
    "enumerate_outcomes",
    "OutcomeDistribution",
    "NormalizationError",
    "exact_distribution",
    "fock_oracle_refusal",
    "fock_oracle_distribution",
    "check_samples",
    "empirical_distribution",
    "sample_outcomes",
    "total_variation_distance",
    "distribution_to_json",
    "distribution_from_json",
    "write_distribution_json",
    "samples_to_csv",
    "samples_from_csv",
]

RYSER_MAX_DIM = 30
# Largest |sum of probabilities - 1| a computed distribution may show.
NORMALIZATION_TOL = 1e-9
# The guard counts the entries of the raised-state table that the oracle's
# last step holds: M rows of M entries for each of the C(N + M - 2, N - 1)
# states of one boson fewer.  The most among the bases of up to 5e4 states on
# up to 20 modes, 3.54e6 at M = 20, N = 5, peaked at 49 MB RSS in a fresh
# process, 20 MB above the interpreter and numpy.  The step's weights and ranks
# take tens of bytes per raised row (M entries), so fewer modes cost more per
# entry: M = 8, N = 12 (2.0e6 entries, 2.5e5 rows) peaked at 56 MB.
FOCK_MAX_ENTRIES = 3_600_000
# At M = 16, N = 8 (490 314 outcomes, Haar, a fresh process on 2 CPUs) the outcome
# table is 7.8 MB.  exact_distribution, which builds only the tables of a half's modes,
# takes 0.11-0.13 s and peaks at 54 MB RSS (17 MB traced); building the full table, as
# its readers do, peaks at 29 MB traced.  The stages that parse the JSON rows of
# distribution.json cost more: sample and verify take 2.8-3.9 s and 375 MB;
# distribution, which writes them a block at a time, takes 0.9-1.4 s and 66 MB.
OUTCOME_MAX_COUNT = 500_000
# Lines per block when a CSV artifact is written, so memory does not grow with
# the sample count: 2^15 lines are 0.6 MB of fields at 8 modes.
CSV_BLOCK_LINES = 1 << 15
# Adjacent fields with at most this many combinations of values share a table (write_lines).
MERGED_TABLE_ENTRIES = 4096
_BLANK_LINES = re.compile(r"^[^\S\n]+$", re.MULTILINE)  # whitespace-only lines
# Sign vectors per chunk of the Glynn kernel (a row's buffer is 256 kB) and outcomes
# per chunk of its final gather; fewer vectors where a half table would pass
# 8 x RYSER_CHUNK_ELEMENTS entries (2 MB): 8 for the 12 870 rows at M = 16, N = 8.
RYSER_CHUNK_ELEMENTS = 1 << 14


class NormalizationError(RuntimeError):
    """A computed distribution's sum strays from 1 by more than its tolerance."""


@lru_cache(maxsize=8)
def _sign_vectors(k: int, fix_first: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Every +-1 vector on k columns (k, 2^k), with ``fix_first`` only those whose first
    sign is +1 (k, 2^(k-1)), and each one's sign product over their count (two halves: 2^(n-1))."""
    minus = (np.arange(0, 1 << k, 2 if fix_first else 1)[None, :] >> np.arange(k)[:, None]) & 1
    signs = (1.0 - 2.0 * (minus.sum(axis=0) & 1)) / minus.shape[1]
    delta = (1.0 - 2.0 * minus).astype(np.complex128)
    delta.flags.writeable = signs.flags.writeable = False  # shared by the cache
    return delta, signs


def _glynn_sums(cols: np.ndarray, outcome=None, squared: bool = False) -> np.ndarray:
    """Permanents of the n x n matrices that repeat row r of ``cols`` s_r times, for every
    outcome s of n = ``cols.shape[1]`` bosons in M = ``cols.shape[0]`` modes in canonical
    order, or for the one ``outcome`` given; with ``squared``, |Per|^2 / prod_r s_r! instead.

    Glynn's formula, Per(A) = 2^-(n-1) sum_d (prod_j d_j) prod_i sum_j d_j a_ij over d in
    {+1, -1}^n with d_1 = +1 (Eur. J. Combin. 31, 1887 (2010)), gives an outcome the
    terms (prod_j d_j) prod_r y_r(d)^s_r, y_r mode r's signed row sum.  Split at mode
    M // 2, the sums over d of the outcomes with k bosons in the first half are one
    matrix product X_k Y_(n-k)^T of the halves' tables (`_pairs`, `_half_products`).
    """
    m, n = cols.shape
    if n > RYSER_MAX_DIM:
        raise ValueError(f"permanent guard: n={n} exceeds limit {RYSER_MAX_DIM}")
    if n == 0:
        return np.ones(1, dtype=float if squared else np.complex128)
    halves, blocks, index = _pairs(m, n, outcome)
    flat = np.zeros(blocks[-1][0], dtype=np.complex128)
    blocks = [(flat[end - (a1 - a0) * (b1 - b0):end].reshape(a1 - a0, b1 - b0), slice(a0, a1), slice(b0, b1))
              for end, a0, a1, b0, b1 in blocks]
    _half_products(cols, halves, blocks)
    if squared:  # |Per|^2 into the real parts, then / prod s_r!, a half's factor at a time
        np.square(flat.real, out=flat.real)
        flat.real += np.square(flat.imag, out=flat.imag)
        first, second = (np.array([factorial(e) for e in range(n + 1)], dtype=float)[half].prod(axis=0)
                         for half in halves)
        for block, rows1, rows2 in blocks:
            block.real /= first[rows1, None] * second[rows2]
        flat = flat.real
    out = np.empty(len(index), dtype=flat.dtype)
    for start in range(0, len(index), RYSER_CHUNK_ELEMENTS):  # converts a chunk of indices at a time
        out[start:start + RYSER_CHUNK_ELEMENTS] = flat[index[start:start + RYSER_CHUNK_ELEMENTS]]
    return out


def _half_products(cols: np.ndarray, halves, blocks) -> None:
    """Add X_k Y_(n-k)^T into each (block, first-half rows, second-half rows), X holding
    the signs times the first half's products.  Each d joins a vector on the low n // 2 + 1
    columns (d_1 among them) with one on the rest, whose row sums are one +-1 matrix product
    each.  In a chunk of d each mode's sums are raised to the powers its half's rows need by
    repeated multiplication and multiplied into the half's table (a one-row table takes views).
    """
    n = cols.shape[1]
    low = n // 2 + 1
    (delta_lo, sign_lo), (delta_hi, sign_hi) = _sign_vectors(low, fix_first=True), _sign_vectors(n - low)
    sums_lo, sums_hi = cols[:, :low] @ delta_lo, cols[:, low:] @ delta_hi
    width, height = sums_lo.shape[1], sums_hi.shape[1]
    rows = max(half.shape[1] for half in halves)
    span = min(RYSER_CHUNK_ELEMENTS, width * height, 1 << (max(1, 8 * RYSER_CHUNK_ELEMENTS // rows).bit_length() - 1))
    shape = (span // min(width, span), min(width, span))
    products = [np.empty((half.shape[1], *shape), dtype=np.complex128) for half in halves]
    spare = np.empty((rows, *shape), dtype=np.complex128)
    # each mode's gather (an exponent where its half has one row) and top power
    plans = [[(e, e) for e in half[:, 0].tolist()] if half.shape[1] == 1 else
             list(zip(half, half.max(axis=1).tolist())) for half in halves]
    powers = np.empty((max(e for plan in plans for _, e in plan) + 1, *shape), dtype=np.complex128)
    powers[0] = 1
    for start in range(0, width * height, span):
        hi, lo = divmod(start, width)
        row_sums = zip(sums_hi[:, hi:hi + shape[0], None], sums_lo[:, lo:lo + shape[1]])
        sign = sign_hi[hi:hi + shape[0], None] * sign_lo[lo:lo + shape[1]]
        for out, plan, product in zip(products, plans, (sign, None)):
            for (exponents, top), (y_hi, y_lo) in zip(plan, row_sums):
                y = np.add(y_hi, y_lo, out=powers[1])
                for e in range(2, top + 1):
                    np.multiply(powers[e - 1], y, out=powers[e])
                if len(out) == 1:
                    factor = powers[exponents]
                else:
                    factor = np.take(powers, exponents, axis=0, mode="clip",
                                     out=out if product is None else spare[:len(out)])
                if product is None and factor is not out:  # a view that the next mode overwrites
                    out[...] = factor
                product = out if product is None else np.multiply(product, factor, out=out)
            if product is not out:  # the signs of an empty half
                out[...] = product
        x, y = (out.reshape(len(out), -1) for out in products)
        for block, rows1, rows2 in blocks:
            block += x[rows1] @ y[rows2].T


def _pairs(num_modes: int, num_bosons: int, outcome=None):
    """The halves of the outcomes of N bosons in M modes, split after mode h = M // 2: each
    half's rows, (w, R) exponents, one per occupation of at most N bosons in its w modes (the
    table of w + 1 modes, the last holding the rest) by total, then canonically; the blocks
    (end, a0, a1, b0, b1) of the flat result, one per first-half total k, pairing rows a0:a1
    of the first half with rows b0:b1 of the second, row-major and ending at end; and each
    outcome's place in it.  In canonical order the outcomes that share a first half are
    consecutive and their second halves run through its block row in order, so each first
    half moves its run of outcomes by one offset.
    """
    h = num_modes // 2
    if outcome is not None:  # a single outcome pairs its own halves
        rows = np.asarray(outcome)[:, None]
        return (rows[:h], rows[h:]), [(1, 0, 1, 0, 1)], np.zeros(1, dtype=np.intp)
    tables = [_outcome_table(w + 1, num_bosons) for w in (h, num_modes - h)]
    totals = [num_bosons - table[:, -1] for table in tables]  # bosons in each row's half
    orders = [np.argsort(total, kind="stable") for total in totals]
    halves = [table[order, :-1].T for table, order in zip(tables, orders)]
    first, second = (np.bincount(total, minlength=num_bosons + 1) for total in totals)
    sizes = second[::-1]  # the second halves of a first half of total k
    ends = np.cumsum(first * sizes)
    rows1, rows2 = (np.concatenate([[0], np.cumsum(count)]).tolist() for count in (first, second))
    bounds = zip(ends.tolist(), rows1[:-1], rows1[1:], rows2[-2::-1], rows2[:0:-1])
    width = sizes[totals[0]]  # each first half's outcomes, in canonical order
    run = np.empty_like(width)  # where its run starts in the flat result, less where in the outcomes
    run[orders[0]] = np.cumsum(width[orders[0]]) - width[orders[0]]
    run -= np.cumsum(width) - width
    dtype = np.int32 if ends[-1] < 1 << 31 else np.intp
    index = np.repeat(run.astype(dtype), width)
    index += np.arange(len(index), dtype=dtype)
    return halves, list(bounds), index


def permanent_ryser(matrix) -> complex:
    """Matrix permanent by Glynn's formula over the sign vectors with d_1 = +1.

    O(2^(n-1) * n) time; guarded at n <= 30 to keep runtimes bounded.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent_ryser needs a square matrix, got shape {a.shape}")
    return complex(_glynn_sums(a, np.ones(a.shape[0], dtype=np.uint8))[0])


def _occupation(vec, dim: int | None = None) -> tuple[int, ...]:
    vec = tuple(vec)
    if not all(x >= 0 and x % 1 == 0 for x in vec):  # so that a fraction, a NaN or inf fails too
        raise ValueError(f"occupations must be nonnegative integers, got {vec}")
    occ = tuple(map(int, vec))
    if dim is not None and len(occ) != dim:
        raise ValueError(f"occupation length {len(occ)} does not match dim {dim}")
    return occ


def _probabilities(u: np.ndarray, t: tuple[int, ...], outcome=None) -> np.ndarray:
    """|Per(A_S)|^2 / (prod s! prod t!) for every outcome S in canonical order, or for the
    one ``outcome``: every A_S takes its columns from U[:, inputs] (see the module docstring)."""
    return _glynn_sums(np.repeat(u, t, axis=1), outcome, squared=True) / math.prod(map(factorial, t))


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
    # only the occupied output modes: the kernel passes over every mode it is given
    occupied = np.flatnonzero(s)
    return float(_probabilities(u[occupied], t, np.array(s)[occupied])[0])


def _outcome_count(num_modes: int, num_bosons: int) -> int:
    """C(N + M - 1, N), refused past OUTCOME_MAX_COUNT or when the outcome
    table's K * M entries pass those of the measured M = 16 point."""
    if num_modes < 1:
        raise ValueError("num_modes must be >= 1")
    if num_bosons < 0:
        raise ValueError("num_bosons must be >= 0")
    count = comb(num_bosons + num_modes - 1, num_bosons)
    if count > OUTCOME_MAX_COUNT or count * num_modes > 16 * OUTCOME_MAX_COUNT:
        raise ValueError(f"{count} outcomes of {num_bosons} bosons in {num_modes} modes exceed the "
                         f"outcome guard {OUTCOME_MAX_COUNT} (or {16 * OUTCOME_MAX_COUNT} table entries)")
    return count


@lru_cache(maxsize=4)
def _outcome_table(num_modes: int, num_bosons: int) -> np.ndarray:
    """:func:`enumerate_outcomes` as a cached, read-only (K, M) table of the
    smallest unsigned dtype that holds N, one column per pass: a prefix with r
    bosons left has children r, r - 1, ..., 0 in the next mode, and each
    child's entry fills one row per completion of what it leaves to later modes."""
    count = _outcome_count(num_modes, num_bosons)
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
    table.flags.writeable = False  # shared by the cache
    return table


def enumerate_outcomes(num_modes: int, num_bosons: int) -> list[tuple[int, ...]]:
    """All compositions of N into M parts, first index descending.

    The order is the serialization contract, enforced on read: (2,0) before
    (1,1) before (0,2), and recursively so in the remaining modes.  Refuses
    past the outcome guard (see ``_outcome_count``) before building any.
    """
    return list(map(tuple, _outcome_table(num_modes, num_bosons).tolist()))


def _outcome_rank(outcomes: np.ndarray, num_bosons: int) -> np.ndarray:
    """Position of each row of a (K, M) array of outcomes of N bosons in the
    :func:`enumerate_outcomes` order, one pass per mode (a contiguous column): with
    r bosons left for k modes, C(r - s + k - 2, k - 1) outcomes put more than s first."""
    m = outcomes.shape[1]
    table = np.array([[comb(d + k - 2, k - 1) for d in range(num_bosons + 1)]
                      for k in range(m, 1, -1)], dtype=np.int64).reshape(m - 1, num_bosons + 1)
    rank = np.zeros(len(outcomes), dtype=np.int64)
    left = np.full(len(outcomes), num_bosons, outcomes.dtype)
    for row, column in zip(table, np.ascontiguousarray(outcomes.T)):
        rank += row.take(left - column)
        left -= column
    return rank


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over all occupation vectors of N bosons in M modes.

    (M, N) alone fix the outcomes: ``probabilities[k]`` is the probability
    of outcome k in the :func:`enumerate_outcomes` order, and ``table``
    gives them as the rows of the cached (K, M) outcome table.  Provenance
    is one of "exact" (permanent route), "fock_oracle" (many-body route) or
    "empirical" (sample frequencies).
    """

    num_modes: int
    num_bosons: int
    provenance: str
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if p.size != comb(self.num_bosons + self.num_modes - 1, self.num_bosons):
            raise ValueError("outcomes and probabilities length mismatch")
        if np.any(p < -1e-12):
            raise ValueError("negative probability")

    @property
    def table(self) -> np.ndarray:
        return _outcome_table(self.num_modes, self.num_bosons)

    @property
    def outcomes(self) -> tuple[tuple[int, ...], ...]:  # built on each call
        return tuple(enumerate_outcomes(self.num_modes, self.num_bosons))

    @property
    def total(self) -> float:
        return float(self.probabilities.sum())


def _distribution_from_probs(m, n, provenance, probs, norm_tol):
    residual = abs(probs.sum() - 1.0)
    if not residual <= norm_tol:  # so that a NaN sum fails too
        raise NormalizationError(
            f"{provenance} distribution sums to 1{residual:+.3e}; "
            "numerical failure beyond tolerance"
        )
    return OutcomeDistribution(m, n, provenance, probs)


def exact_distribution(
    matrix, inputs, norm_tol: float = NORMALIZATION_TOL, unit_tol: float = UNITARITY_TOL
) -> OutcomeDistribution:
    """Permanent-route distribution over every outcome with the input's boson total.

    ``matrix`` must be unitary within ``unit_tol`` (max |U^dag U - I|).
    """
    t = _occupation(inputs)
    _outcome_count(len(t), sum(t))  # the outcome guard, before U^dag U and the kernel's half tables
    u = assert_unitary(matrix, unit_tol)
    if len(u) != len(t):
        raise ValueError(f"occupation length {len(t)} does not match dim {len(u)}")
    return _distribution_from_probs(len(t), sum(t), "exact", _probabilities(u, t), norm_tol)


def fock_oracle_refusal(num_modes: int, num_bosons: int) -> str | None:
    """Why the Fock oracle refuses N bosons in M modes, or None if it runs them.

    The guard, FOCK_MAX_ENTRIES, bounds the entries of the raised states the
    oracle's last step holds, which set its memory (see FOCK_MAX_ENTRIES).
    """
    raised = comb(num_bosons + num_modes - 2, num_bosons - 1) if num_bosons else 0
    entries = num_modes * num_modes * raised
    if entries <= FOCK_MAX_ENTRIES:
        return None
    states = comb(num_bosons + num_modes - 1, num_bosons)
    return (
        f"Fock oracle of {num_bosons} bosons in {num_modes} modes raises {entries} "
        f"entries in its last step ({states} states), which exceeds guard {FOCK_MAX_ENTRIES}"
    )


def fock_oracle_distribution(
    operator,
    inputs,
    norm_tol: float = NORMALIZATION_TOL,
    unit_tol: float = UNITARITY_TOL,
) -> OutcomeDistribution:
    """Distribution via the output state in the many-body Fock space.

    ``operator`` is the one-particle unitary U (within ``unit_tol``); for a
    Hermitian hopping matrix K held t seconds, pass ``evolve_modes(K, t)``
    from :mod:`linear_optics`.  The output state is
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
    u = assert_unitary(operator, unit_tol)
    if u.shape[0] != m:
        raise ValueError("operator dimension does not match occupations")

    # the vacuum; each step first scatters the raised states of the step before
    # by rank into the table of k - 1 bosons, so the final one builds no table
    raised, rank, amps = np.zeros((1, m), dtype=np.min_scalar_type(n)), 0, np.ones(1, dtype=complex)
    unit = np.eye(m, dtype=raised.dtype)  # e_i, one row per mode
    # (b_j^dag)^t_j / sqrt(t_j!) as t_j factors b_j^dag / sqrt(c): the state
    # stays normalized, and no factorial overflows past 170 bosons
    bosons = [(j, c) for j in range(m) for c in range(1, t[j] + 1)]
    for k, (j, c) in enumerate(bosons, start=1):
        states = np.empty((len(amps), m), dtype=unit.dtype)
        states[rank] = raised
        raised = (states[:, None, :] + unit).reshape(-1, m)
        weights = (amps[:, None] * np.sqrt((states + 1) / c) * u[:, j]).ravel()
        rank, count = _outcome_rank(raised, k), comb(k + m - 1, k)
        amps = np.bincount(rank, weights.real, count) + 1j * np.bincount(rank, weights.imag, count)
    return _distribution_from_probs(m, n, "fock_oracle", np.abs(amps) ** 2, norm_tol)


def check_samples(samples, num_modes: int, num_bosons: int, label: str = "sample") -> np.ndarray:
    """``samples`` as an int64 (K, M) array.  No rows, or a row that is not an
    outcome of N bosons in M modes (another length, a negative or fractional
    entry, or another total), raises ValueError naming the first as ``label`` k.
    Whole-array reductions decide; a per-row mask is built only to name it."""
    try:
        table = np.asarray(samples)
    except ValueError:  # ragged rows: each not of M entries stands in as a row of -1
        table = np.array([row if len(row) == num_modes else [-1] * num_modes for row in samples])
    if not table.size:
        raise ValueError(f"no {label}s")
    if table.ndim != 2:
        raise ValueError(f"{label}s must be rows of occupations, got shape {table.shape}")
    if table.dtype.kind not in "iuf":
        raise ValueError(f"{label}s must be integer occupations, not {table.dtype}")
    total = np.zeros(len(table), dtype=np.result_type(table.dtype, np.int64))
    for column in table.T:  # a sum along each short row costs several times more
        total += column
    fractional = table.dtype.kind == "f" and not (table == np.round(table)).all()
    if table.shape[1] == num_modes and table.min() >= 0 and not fractional and (total == num_bosons).all():
        return table.astype(np.int64, copy=False)
    foreign = (table < 0).any(axis=1) | (total != num_bosons) | (table.shape[1] != num_modes)
    if fractional:
        foreign |= (table != np.round(table)).any(axis=1)
    k = int(np.argmax(foreign))
    raise ValueError(f"{label} {k} {tuple(np.asarray(samples[k]).tolist())} is not an outcome "
                     f"of {num_bosons} bosons in {num_modes} modes")


def empirical_distribution(samples, num_modes: int, num_bosons: int) -> OutcomeDistribution:
    """Relative frequencies of ``samples`` over the canonical outcome order;
    samples are checked by :func:`check_samples`."""
    samples = check_samples(samples, num_modes, num_bosons)
    count = _outcome_count(num_modes, num_bosons)
    probs = np.bincount(_outcome_rank(samples, num_bosons), minlength=count) / len(samples)
    return OutcomeDistribution(num_modes, num_bosons, "empirical", probs)


def _guide_search(cdf: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, keys, side="right")`` for a non-decreasing cdf
    ending in 1.0 and keys in [0, 1), by a guide table of K = len(cdf) buckets
    (Chen & Asau, AIIE Trans. 6, 163 (1974)).  Bucket int(x * K) never falls
    as x grows, so a key's index lies between the first cdf entry of its
    bucket and the first of the next one; a bisection over the widest
    bucket's width finds it, one array pass per step for every key.
    """
    count = len(cdf)
    first = np.searchsorted((cdf * count).astype(np.intp), np.arange(count + 2))
    pos = first[(keys * count).astype(np.intp)]
    step = 1 << int(np.diff(first).max()).bit_length()  # past the widest bucket
    cdf = np.concatenate([cdf, np.full(step, np.inf)])  # so no step reads past the end
    while step > 1:
        step >>= 1
        pos += step * (cdf[pos + (step - 1)] <= keys)
    return pos


def sample_outcomes(dist: OutcomeDistribution, num_samples: int, seed) -> np.ndarray:
    """Inverse-CDF draws from an exact/oracle distribution; PCG64-seeded.

    Returns an (num_samples, M) int64 array.  Identical seeds give
    identical arrays; the generator is numpy's default PCG64 stream.  The
    cdf is searched through a guide table (:func:`_guide_search`).
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
    idx = _guide_search(cdf, rng.random(num_samples))
    return dist.table[np.minimum(idx, len(dist.table) - 1)].astype(np.int64)


def total_variation_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """Half the L1 distance between two distributions on the same outcome set."""
    if (p.num_modes, p.num_bosons) != (q.num_modes, q.num_bosons):
        raise ValueError("distributions live on different outcome spaces")
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
    """Inverse of :func:`distribution_to_json`.  The rows must be every outcome
    of n bosons in m modes in canonical order, or ValueError names the first
    that differs.  They are checked (:func:`check_samples`) and ranked, and no
    outcome table is built, so an m or n they do not bear out costs nothing."""
    m, n = int(data["m"]), int(data["n"])
    table = check_samples([row["s"] for row in data["outcomes"]], m, n, "outcome")
    count = _outcome_count(m, n)  # refuses a huge n before the rank's table of N + 1 rows
    k = int(np.argmax(np.append(_outcome_rank(table, n) != np.arange(len(table)), True)))
    if k < len(table):
        raise ValueError(f"outcome {k} {tuple(table[k].tolist())} breaks the canonical order "
                         f"of {n} bosons in {m} modes")
    if k < count:
        raise ValueError(f"outcome {k} of {n} bosons in {m} modes is missing")
    return OutcomeDistribution(m, n, data["provenance"], [row["p"] for row in data["outcomes"]])


def text_fields(values, fmt) -> tuple[np.ndarray, np.ndarray]:
    """The value table of an integer array: the bytes of ``fmt(v)`` for each v from
    the least entry to the largest, each formatted once, and each entry's index in it."""
    low = int(values.min())
    table = np.array([fmt(v) for v in range(low, int(values.max()) + 1)], dtype="S")
    index = values.astype(np.intp, copy=False)
    return table, index - low if low else index


def write_lines(fields, fh) -> None:
    """Write lines of bytes fields, each a (table, index) pair: an array of bytes (or
    uint8 rows) and integer indexes into it that broadcast to the lines' shape.

    Adjacent fields whose tables combine in at most MERGED_TABLE_ENTRIES ways form a
    run, gathered by one mixed-radix index.  A line is W bytes, each field NUL-padded
    to its table's width, stored as little-endian q-byte words at bytes 0, q, ... and
    W - q (q = 8, or the largest power of two up to W), overlapping words agreeing on
    the bytes they share.  A word is the OR of the entries of the runs it overlaps,
    shifted into place and gathered by index.  NULs are dropped when a table has some.
    """
    runs, tables = [], {}  # tables: the width, 8-byte chunks and NUL-freedom of each
    shape = np.broadcast_shapes(*(np.shape(index) for _, index in fields))
    limit = min(MERGED_TABLE_ENTRIES, math.prod(shape))  # no larger than the lines it serves
    for table, index in fields:
        if id(table) not in tables:  # chunk k of every row in row k, little-endian
            rows = table.view(np.uint8).reshape(len(table), -1)
            width = rows.shape[1]
            padded = np.zeros((len(rows), -(-width // 8) * 8), np.uint8)
            padded[:, :width].view(f"V{width}")[...] = rows.view(f"V{width}")  # a row at a time
            tables[id(table)] = width, padded.view("<u8").T.copy(), rows.all()
        if runs and runs[-1][2] * len(table) <= limit:
            run, head, size = runs.pop()
            # a single entry has index 0; the new table's index varies slowest
            index = index if size == 1 else head if len(table) == 1 else head + index * size
            runs.append((run + [tables[id(table)]], index, size * len(table)))
        else:
            runs.append(([tables[id(table)]], index, len(table)))
    width = sum(w for run, _, _ in runs for w, _, _ in run)
    q = min(8, 1 << (width.bit_length() - 1))
    lines = np.empty((*shape, width), np.uint8)
    for word in sorted({*range(0, width - q + 1, q), width - q}):
        value, at = None, 0
        for run, index, _ in runs:
            span = sum(w for w, _, _ in run)
            if not at - q < word < at + span:
                at += span
                continue
            entries = None
            for w, chunks, _ in run:  # entry i of the run: entry i // stride % K of each table
                part = np.zeros(chunks.shape[1], np.uint64)
                for k, chunk in enumerate(chunks):  # its bytes that fall in the word
                    shift = 8 * (at - word + 8 * k)
                    if -64 < shift < 64:
                        part |= chunk << shift if shift >= 0 else chunk >> -shift
                entries = part if entries is None else (part[:, None] | entries).ravel()
                at += w
            part = entries[index]
            value = part if value is None else np.bitwise_or(part, value, out=part if part.shape == shape else None)
        np.ndarray(shape, f"<u{q}", lines, word, lines.strides[:-1])[...] = value  # its low q bytes
    nul_free = all(free for _, _, free in tables.values())
    fh.write(str(lines, "utf-8") if nul_free else lines.tobytes().translate(None, b"\0").decode())


def write_distribution_json(dist: OutcomeDistribution, fh, **extra) -> None:
    """Write ``json.dumps({**distribution_to_json(dist), **extra})``, byte for
    byte, built from arrays a block of CSV_BLOCK_LINES rows at a time.

    Each row is a line of :func:`write_lines` fields: its lead, its occupations
    from value tables (:func:`text_fields`) of the cached outcome table, and its
    probability as ``float.__repr__`` writes it, which is what ``json.dumps`` writes
    for a finite float (a block that holds another is formatted by ``json.dumps``).
    """
    head = json.dumps({"m": dist.num_modes, "n": dist.num_bosons, "provenance": dist.provenance})
    fh.write(head[:-1] + ', "outcomes": [')
    table, probs = dist.table, dist.probabilities
    leads = np.array([b', {"s": [', b'{"s": ['])
    for first in range(0, len(table), CSV_BLOCK_LINES):
        block = table[first:first + CSV_BLOCK_LINES]
        p = probs[first:first + CSV_BLOCK_LINES]
        fmt = float.__repr__ if np.isfinite(p).all() else json.dumps
        lead = np.zeros(len(block), dtype=np.intp)
        lead[0] = first == 0
        s, index = text_fields(block, "{}, ".format)
        write_lines([(leads, lead), *((s, column) for column in index.T[:-1]),
                     text_fields(block[:, -1], "{}".format), (np.array([b'], "p": ']), 0),
                     (np.array(list(map(fmt, p.tolist())), dtype="S"), np.arange(len(block))),
                     (np.array([b"}"]), 0)], fh)
    fh.write("]" + "".join(f", {json.dumps(k)}: {json.dumps(v)}" for k, v in extra.items()) + "}")


def samples_to_csv(samples, fh) -> None:
    """One comma-separated occupation vector per line, no header.

    The lines are written by :func:`write_lines` a block of CSV_BLOCK_LINES at a
    time, from value tables (:func:`text_fields`): ``v,``, ``v\n`` in the last column.
    """
    samples = np.asarray(samples, dtype=np.int64)
    for first in range(0, len(samples), CSV_BLOCK_LINES):
        block = samples[first:first + CSV_BLOCK_LINES]
        table, index = text_fields(block, "{},".format)
        write_lines([*((table, column) for column in index.T[:-1]),
                     text_fields(block[:, -1], "{}\n".format)], fh)


def samples_from_csv(fh) -> np.ndarray:
    """The (samples, M) integer array of a :func:`samples_to_csv` file.

    Blank and whitespace-only lines are skipped; a non-integer field or a
    row whose length differs from the first raises ValueError.
    """
    text = _BLANK_LINES.sub("", fh.read())
    if not text.strip():
        return np.zeros((0, 0), dtype=np.int64)
    return np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.int64, ndmin=2, comments=None)
