"""Correctness checks on one iteration's outputs.

Every check compares the program's outputs with a reference derived here
from the problem itself: closed-form probabilities, an O(n!) permanent and
finite-sample concentration bounds.  None of them reads the program's own
intermediate values or depends on its random bit stream, so they keep
holding when an implementation or a generator changes.  Each function
returns a list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import permutations

import numpy as np

# Probability that a correct program fails a statistical check in one
# iteration, shared out over the cells the check compares.
FALSE_ALARM = 1e-9

# Bound from criterion 02: the permanent route against the Fock-space route.
ORACLE_TVD_LIMIT = 1e-8

PERMANENT_REL_TOL = 1e-10


def bernstein_halfwidth(variance: float, cells: int) -> float:
    """Deviation a sum of independent 0/1 draws exceeds with probability at
    most FALSE_ALARM / cells (two-sided Bernstein inequality)."""
    log_term = math.log(2.0 * cells / FALSE_ALARM)
    return log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * variance * log_term)


def tvd_bound(probs, num_samples: int) -> float:
    """Upper bound on the TVD between N exact draws and their distribution.

    E[TVD] <= 1/2 sum_i sqrt(p_i (1 - p_i) / N), and one changed draw moves
    the TVD by at most 1/N, so by McDiarmid the TVD exceeds its mean by
    sqrt(ln(1/delta) / 2N) with probability at most delta.
    """
    p = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    mean = 0.5 * float(np.sqrt(p * (1.0 - p) / num_samples).sum())
    return mean + math.sqrt(math.log(1.0 / FALSE_ALARM) / (2.0 * num_samples))


def check_distribution(outcomes, probs, num_modes: int, num_bosons: int, norm_tol: float):
    """Support is every occupation vector of N bosons in M modes; sums to 1."""
    errors = []
    expected = math.comb(num_bosons + num_modes - 1, num_modes - 1)
    if len(outcomes) != expected or len(set(outcomes)) != expected:
        errors.append(f"distribution has {len(outcomes)} outcomes, expected {expected}")
    if any(len(s) != num_modes or sum(s) != num_bosons or min(s) < 0 for s in outcomes):
        errors.append("distribution lists an outcome outside the occupation space")
    residual = abs(float(np.sum(probs)) - 1.0)
    if residual > norm_tol:
        errors.append(f"distribution sums to 1{residual:+.3e}, tolerance {norm_tol:.1e}")
    if float(np.min(probs)) < -1e-12:
        errors.append("distribution has a negative probability")
    return errors


def check_samples(samples, outcomes, probs, num_samples: int, reported_tvd=None):
    """Samples are outcomes of the distribution, with a plausible histogram."""
    samples = np.asarray(samples)
    if samples.shape != (num_samples, len(outcomes[0])):
        return [f"samples have shape {samples.shape}, expected ({num_samples}, {len(outcomes[0])})"]
    index = {tuple(s): k for k, s in enumerate(outcomes)}
    counts = np.zeros(len(outcomes))
    for row, c in Counter(map(tuple, samples.tolist())).items():
        if row not in index:
            return [f"sample {row} is not an outcome of the distribution"]
        counts[index[row]] = c
    tvd = 0.5 * float(np.abs(counts / num_samples - np.asarray(probs)).sum())
    limit = tvd_bound(probs, num_samples)
    errors = []
    # With thousands of outcomes the TVD is mostly sampling noise; each
    # mode's occupation histogram has few cells and detects a small bias.
    table = np.asarray(outcomes)
    levels = int(table.max()) + 1
    for j in range(table.shape[1]):
        pmf = np.bincount(table[:, j], weights=probs, minlength=levels)
        seen = np.bincount(samples[:, j], minlength=levels)
        errors += _compare_histogram(
            f"occupation of sampled mode {j + 1}", dict(enumerate(seen.tolist())),
            num_samples, dict(enumerate(pmf.tolist())), table.shape[1] * levels,
        )
    if tvd > limit:
        errors.append(f"empirical TVD {tvd:.4f} exceeds finite-sample bound {limit:.4f}")
    if reported_tvd is not None and not reported_tvd <= limit:
        errors.append(f"reported empirical TVD {reported_tvd} exceeds bound {limit:.4f}")
    return errors


def prepared_pmf(n_target: int, eps: float) -> dict[int, float]:
    """Phonon number after preparation: eps/2 leaks to each neighbour, and a
    leak below zero stays at zero."""
    pmf = Counter({n_target: 1.0 - eps, n_target + 1: eps / 2.0})
    pmf[max(n_target - 1, 0)] += eps / 2.0
    return dict(pmf)


def reported_pmf(true_n: int, fidelity: float, cap: int) -> dict[int, float]:
    """Reported phonon number of the repeat-until-bright readout.

    Round r is truly dark while r < true_n and truly bright afterwards, and
    each readout is honest with probability f; the protocol reports the
    index of the first round read bright, or ``cap`` when none is.
    """
    pmf = {}
    still_dark = 1.0
    for r in range(cap):
        bright = 1.0 - fidelity if r < true_n else fidelity
        pmf[r] = still_dark * bright
        still_dark *= 1.0 - bright
    pmf[cap] = still_dark
    return pmf


def _compare_histogram(label, counts: Counter, total: int, pmf: dict, cells: int):
    errors = []
    for value in set(pmf) | set(counts):
        p = min(max(pmf.get(value, 0.0), 0.0), 1.0)
        observed = counts.get(value, 0)
        if p == 0.0 and observed:
            errors.append(f"{label}: value {value} seen {observed} times, probability 0")
            continue
        expected = total * p
        if abs(observed - expected) > bernstein_halfwidth(total * p * (1.0 - p), cells):
            errors.append(f"{label}: value {value} seen {observed} times, expected {expected:.1f}")
    return errors


def check_readouts(readouts, samples, fidelity: float, prep_error: float, cap: int):
    """readouts.csv against the samples it read and the protocol's pmfs.

    ``readouts`` has the CSV columns trial, mode, true_n, reported_n,
    repetitions, overflow_flag.
    """
    samples = np.asarray(samples)
    trials, modes = samples.shape
    if readouts.shape != (trials * modes, 6):
        return [f"readouts have shape {readouts.shape}, expected ({trials * modes}, 6)"]
    trial, mode, true_n, reported, reps, overflow = readouts.T
    errors = []
    if not np.array_equal(np.sort(trial * modes + mode - 1), np.arange(trials * modes)):
        errors.append("readouts do not hold each (trial, mode) exactly once")
        return errors
    ideal = samples[trial, mode - 1]
    if np.any(np.abs(true_n - ideal) > 1) or np.any(true_n < 0):
        errors.append("a prepared phonon number is more than one away from its sample")
    if np.any(reps != reported) or np.any(overflow != (reported == cap)):
        errors.append("repetitions or overflow_flag disagree with reported_n")

    prep_groups = {n: Counter(true_n[ideal == n].tolist()) for n in np.unique(ideal).tolist()}
    read_groups = {n: Counter(reported[true_n == n].tolist()) for n in np.unique(true_n).tolist()}
    cells = 3 * len(prep_groups) + (cap + 1) * len(read_groups)
    for n, counts in prep_groups.items():
        errors += _compare_histogram(
            f"true_n given sample n={n}", counts, sum(counts.values()),
            prepared_pmf(n, prep_error), cells,
        )
    for n, counts in read_groups.items():
        errors += _compare_histogram(
            f"reported_n given true_n={n}", counts, sum(counts.values()),
            reported_pmf(n, fidelity, cap), cells,
        )
    return errors


def check_verify_report(report: dict, norm_tol: float):
    errors = []
    oracle_tvd = report.get("tvd_exact_vs_oracle")
    if oracle_tvd is None or not oracle_tvd <= ORACLE_TVD_LIMIT:
        errors.append(f"tvd_exact_vs_oracle is {oracle_tvd}, limit {ORACLE_TVD_LIMIT}")
    residual = report.get("normalization_residual")
    if residual is None or not residual <= norm_tol:
        errors.append(f"normalization_residual is {residual}, tolerance {norm_tol}")
    return errors


@lru_cache(maxsize=None)
def _permutation_table(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.intp).reshape(-1, n)


def permanent_by_permutations(a: np.ndarray) -> complex:
    """Textbook permanent: the sum over all n! permutations."""
    n = a.shape[0]
    return complex(a[np.arange(n), _permutation_table(n)].prod(axis=1).sum())


def check_probabilities(u, inputs, outcomes, probs, picks):
    """Recompute the probabilities of outcomes ``picks`` from the unitary.

    P(s | t) = |Per(U[s, t])|^2 / (prod s! prod t!), with row i of U taken
    s_i times and column j taken t_j times.
    """
    errors = []
    cols = np.repeat(np.arange(len(inputs)), inputs)
    norm_t = math.prod(math.factorial(x) for x in inputs)
    for k in picks:
        s = outcomes[k]
        rows = np.repeat(np.arange(len(s)), s)
        per = permanent_by_permutations(np.asarray(u)[np.ix_(rows, cols)])
        want = abs(per) ** 2 / (norm_t * math.prod(math.factorial(x) for x in s))
        if abs(probs[k] - want) > PERMANENT_REL_TOL * want:
            errors.append(f"P{tuple(s)} = {probs[k]:.17g}, permutation sum gives {want:.17g}")
    return errors
