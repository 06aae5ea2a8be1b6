"""Hand-derived reference values and closed-form oracles for the tests.

Everything here is computed independently of the package (pencil-and-paper
algebra, textbook O(n!) formulas or dense matrix exponentials), so a test
comparing against these values never validates the code against itself.
"""

from itertools import permutations

import numpy as np
import scipy.linalg


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


def fock_basis(num_modes: int, num_bosons: int) -> list[tuple[int, ...]]:
    """Occupations of N bosons in M modes, first mode descending and
    recursively so in the rest (the canonical outcome order)."""
    if num_modes == 1:
        return [(num_bosons,)]
    return [
        (first,) + rest
        for first in range(num_bosons, -1, -1)
        for rest in fock_basis(num_modes - 1, num_bosons - first)
    ]


def outcome_tuples(num_modes: int, num_bosons: int) -> list[tuple[int, ...]]:
    """The canonical outcome order built as tuples, last modes first, as
    the reference for the package's outcome table: tails[k] holds the
    compositions of k into the last modes and is extended by one mode per
    pass (the last pass needs only the full total)."""
    tails = [[(k,)] for k in range(num_bosons + 1)]
    for left in range(num_modes - 1, 0, -1):
        totals = range(num_bosons + 1) if left > 1 else [num_bosons]
        tails = [[(f,) + rest for f in range(k, -1, -1) for rest in tails[k - f]] for k in totals]
    return tails[-1]


def lifted_generator(h, basis) -> np.ndarray:
    """Dense second-quantized H = sum_ij h_ij a_i^dag a_j on a Fock basis:
    a_i^dag a_j takes |s> to sqrt(s_j (s_i + 1 - [i == j])) |s - e_j + e_i>."""
    index = {s: k for k, s in enumerate(basis)}
    lifted = np.zeros((len(basis), len(basis)), dtype=complex)
    for k, s in enumerate(basis):
        for j in np.flatnonzero(s):
            for i in range(len(s)):
                target = list(s)
                target[j] -= 1
                target[i] += 1
                lifted[index[tuple(target)], k] += h[i, j] * np.sqrt(s[j] * target[i])
    return lifted


def fock_evolution_distribution(operator, inputs, duration=None) -> np.ndarray:
    """Probabilities over ``fock_basis`` of exp(-iHt) applied to the input
    state, by a dense matrix exponential of the lifted generator.

    With ``duration`` omitted, ``operator`` is a one-particle unitary U and
    the generator is h = i log(U), evolved for t = 1; otherwise it is the
    Hermitian h itself.  Meant for bases of up to about 120 states.
    """
    if duration is None:
        h = 1j * scipy.linalg.logm(np.asarray(operator, dtype=complex))
        h, duration = (h + h.conj().T) / 2, 1.0
    else:
        h = np.asarray(operator, dtype=complex)
    basis = fock_basis(len(inputs), sum(inputs))
    start = np.zeros(len(basis))
    start[basis.index(tuple(inputs))] = 1.0
    amps = scipy.linalg.expm(-1j * duration * lifted_generator(h, basis)) @ start
    return np.abs(amps) ** 2


def schedule_unitary_longdouble(rates, schedule) -> np.ndarray:
    """The unitary of a compiled schedule under coupling ``rates``, evolved in
    np.clongdouble (a 64-bit mantissa on x86, eps about 1e-19).

    A slice exp(-i K t) is a 24-term Taylor series of -i K t halved until its
    row-sum norm is at most 1/4, then squared back.  A block's forward product
    takes F -> (S F S) F and its mirrored one R -> R (S R S) for each generator
    S = diag(signs), and the period R F is raised to n_sub by binary powering.
    A phase event multiplies its mode's row by exp(i phi).
    """
    k = np.asarray(rates, dtype=np.longdouble).astype(np.clongdouble)
    eye = np.eye(len(k), dtype=np.clongdouble)

    def evolve(t):
        a, squarings = -1j * k * np.longdouble(t), 0
        while np.abs(a).sum(axis=1).max() > 0.25:
            a, squarings = a / 2, squarings + 1
        out = term = eye
        for j in range(1, 25):
            term = term @ a / j
            out = out + term
        for _ in range(squarings):
            out = out @ out
        return out

    total = eye
    for step in schedule.steps:
        if hasattr(step, "generators"):
            forward = mirror = evolve(step.tau)
            for g in step.generators:
                s = np.diag(np.array(g.signs, dtype=np.longdouble)).astype(np.clongdouble)
                forward, mirror = s @ forward @ s @ forward, mirror @ s @ mirror @ s
            power, base, n = eye, mirror @ forward, step.n_sub
            while n:
                if n & 1:
                    power = power @ base
                base, n = base @ base, n >> 1
            total = power @ total
        elif hasattr(step, "phi"):
            total = total.copy()
            total[step.mode_index - 1, :] *= np.exp(1j * np.longdouble(step.phi))
        else:
            total = evolve(step.duration) @ total
    return total


def schedule_unitary_by_blocks(rates, schedule) -> np.ndarray:
    """The unitary of a compiled schedule, one block at a time in float64: the
    package's route before its blocks were stacked, kept as the reference its
    stacked pass must equal bit for bit.  A slice is exp(-i K tau) from one
    eigendecomposition of K; per generator S the forward product takes F ->
    (F * S S^T) F and the mirrored one R -> R (R * S S^T); the period R F is raised
    to n_sub by np.linalg.matrix_power and moved onto the unitaries by one
    Newton-Schulz step x (3 - x^dag x) / 2.  A segment is exp(-i K t) and a phase
    event multiplies its mode's row by exp(i phi)."""
    w, v = np.linalg.eigh(np.asarray(rates))
    total = np.eye(schedule.dim, dtype=complex)
    for step in schedule.steps:
        if hasattr(step, "generators"):
            forward = mirror = (v * np.exp(-1j * w * step.tau)) @ v.conj().T
            for g in step.generators:
                flip = np.outer(g.signs, g.signs)
                forward, mirror = (forward * flip) @ forward, mirror @ (mirror * flip)
            x = np.linalg.matrix_power(mirror @ forward, step.n_sub)
            total = x @ (1.5 * np.eye(len(x)) - 0.5 * (x.conj().T @ x)) @ total
        elif hasattr(step, "phi"):
            total[step.mode_index - 1, :] *= np.exp(1j * step.phi)
        else:
            total = (v * np.exp(-1j * w * step.duration)) @ v.conj().T @ total
    return total


def decoupling_frames(scheme: str, dim: int, pair: int) -> np.ndarray:
    """The (P, dim) slice signs of a decoupling scheme isolating modes (pair,
    pair + 1), written out slice by slice.

    "nn": slice 0 all +1, slice 1 the echo pattern, whose sign flips at every
    step away from the pair.  "hadamard": every other mode takes a row r = 1,
    2, ... in ascending order (the pair shares row 0), and slice t of P, the
    smallest power of two >= dim - 1, gives it the sign (-1)^popcount(r & t).
    """
    if scheme == "nn":
        echo = [(-1) ** (pair - 1 - i) for i in range(pair - 1)] + [1, 1]
        echo += [(-1) ** (i - pair) for i in range(pair + 1, dim)]
        return np.array([[1] * dim, echo])
    p = 1
    while p < dim - 1:
        p *= 2
    rows, nxt = [0] * dim, 1
    for i in range(dim):
        if i not in (pair - 1, pair):
            rows[i], nxt = nxt, nxt + 1
    return np.array([[1 if bin(r & t).count("1") % 2 == 0 else -1 for r in rows] for t in range(p)])


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


def readouts_by_rounds(true_n, params, rng) -> np.ndarray:
    """Reported phonon numbers of the repeat-until-bright readout, drawn the
    scalar way: round r takes one ``rng.random()`` for each mode still dark,
    modes in C order.  The round is truly bright once r reaches the mode's
    phonon number and is read honestly when the draw is below the fidelity;
    a mode reports r at its first reported bright, and the round cap when it
    is still dark after ``max_repetitions`` rounds."""
    true_n = np.asarray(true_n, dtype=np.int64)
    phonons = true_n.ravel().tolist()
    reported = [params.max_repetitions] * len(phonons)
    dark = list(range(len(phonons)))
    for r in range(params.max_repetitions):
        still_dark = []
        for mode in dark:
            honest = rng.random() < params.readout_fidelity
            if (phonons[mode] <= r) == honest:
                reported[mode] = r
            else:
                still_dark.append(mode)
        dark = still_dark
    return np.array(reported, dtype=np.int64).reshape(true_n.shape)


def prepare_by_search(n_target, dist_of, rng) -> np.ndarray:
    """Preparation drawn the per-value way: one uniform per entry (C order),
    then for each distinct target a search of its uniforms in the cumulative
    weights of ``dist_of(target)`` (a {phonon number: weight} dict)."""
    n_target = np.asarray(n_target, dtype=np.int64)
    u = rng.random(n_target.shape)
    prepared = np.empty_like(n_target)
    for n in np.unique(n_target):
        dist = dist_of(int(n))
        where = n_target == n
        pick = np.searchsorted(np.cumsum(list(dist.values())), u[where], side="right")
        prepared[where] = np.array(list(dist))[np.minimum(pick, len(dist) - 1)]
    return prepared
