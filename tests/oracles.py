"""Hand-derived reference values and closed-form oracles for the tests.

Everything here is computed independently of the package (pencil-and-paper
algebra or textbook O(n!) formulas), so a test comparing against these
values never validates the code against itself.
"""

from itertools import permutations

import numpy as np


def two_ion_position() -> float:
    """Outer position for two ions: u = 1/(2u)^2, so u^3 = 1/4."""
    return 0.25 ** (1.0 / 3.0)


def three_ion_outer_position() -> float:
    """Outer position for three ions: u = 1/u^2 + 1/(2u)^2, so u^3 = 5/4."""
    return 1.25 ** (1.0 / 3.0)


def permanent_reference(matrix) -> complex:
    """Textbook permanent: literal sum over permutations, O(n! n)."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    total = 0.0 + 0.0j
    for p in permutations(range(n)):
        term = 1.0 + 0.0j
        for i in range(n):
            term *= a[i, p[i]]
        total += term
    return total


def balanced_splitter_pair_distribution() -> dict[tuple[int, int], float]:
    """Two photons on a balanced splitter: bunching with no coincidences.

    Per = sum over the two permutations of the 2x2 submatrix; for the
    coincidence outcome the terms are (1/sqrt2)(1/sqrt2) and
    (-i/sqrt2)(-i/sqrt2), which cancel exactly.
    """
    return {(2, 0): 0.5, (1, 1): 0.0, (0, 2): 0.5}


def reported_n_pmf(true_n: int, fidelity: float, max_repetitions: int) -> dict[int, float]:
    """Closed-form reported-n distribution of the repeat-until-bright chain.

    The phonon ladder is deterministic (one transfer per round while any
    quanta remain), so only the readout coin is random.  Round p sees the
    mode truly dark for p < true_n and truly bright after; the protocol
    stops at the first *reported* bright, i.e. at the first dishonest
    readout while dark or the first honest one while bright:

        P(report p) = f^p (1-f)           p < n   (early false bright)
        P(report n) = f^(n+1)                     (all honest)
        P(report p) = f^(n+1) (1-f)^(p-n) p > n   (false darks past empty)

    The overflow bin (reported = cap) absorbs the remaining mass.
    """
    f = fidelity
    n = true_n
    pmf: dict[int, float] = {}
    for p in range(max_repetitions):
        if p < n:
            pmf[p] = f**p * (1.0 - f)
        elif p == n:
            pmf[p] = f ** (n + 1)
        else:
            pmf[p] = f ** (n + 1) * (1.0 - f) ** (p - n)
    pmf[max_repetitions] = f ** min(n, max_repetitions) * (1.0 - f) ** max(
        0, max_repetitions - n
    )
    return pmf


def samples_csv_text(samples) -> str:
    """samples.csv written the literal way: one joined row per line."""
    lines = []
    for row in np.asarray(samples, dtype=int):
        lines.append(",".join(str(int(x)) for x in row) + "\n")
    return "".join(lines)


def readouts_csv_text(true_n, reported, max_repetitions: int) -> str:
    """readouts.csv written the literal way: one f-string per (trial, mode),
    modes numbered from 1, repetitions equal to the reported number."""
    lines = ["trial,mode,true_n,reported_n,repetitions,overflow_flag\n"]
    for trial in range(len(true_n)):
        for mode in range(len(true_n[trial])):
            n, r = int(true_n[trial][mode]), int(reported[trial][mode])
            lines.append(f"{trial},{mode + 1},{n},{r},{r},{int(r == max_repetitions)}\n")
    return "".join(lines)
