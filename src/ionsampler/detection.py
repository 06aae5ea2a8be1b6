"""Monte-Carlo model of the repeat-until-bright phonon readout protocol.

Each round maps "one phonon" onto the internal spin (sideband transfer
plus carrier flip, both taken as perfect) and then reads the spin: the
true answer is "bright" exactly when the mode held zero phonons entering
the round, and each transfer removes one phonon while any remain.  The
readout lies with probability 1 - f, so a premature bright under-reports
and a missed bright over-reports (with every later round truthfully
bright).  A mode with n phonons and perfect readout therefore reports n
after exactly n dark rounds — the counting that makes the protocol a
number-resolving detector.

Preparation noise is a symmetric +/-1 phonon leak of total weight eps
around the target number.  The kernels take a whole array of modes and
one generator, and each step is one array pass: the preparation noise is
one uniform per mode, compared with the two cumulative weights of the
leak, then the readout runs round by round with one uniform for each
mode still dark.  A single mode therefore consumes the same draws as a
scalar loop, and a seeded run reproduces bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boson_stats import CSV_BLOCK_LINES

__all__ = [
    "DetectionParams",
    "ModeReadout",
    "prepare_mode_distribution",
    "prepare_occupations",
    "measure_modes",
    "measure_mode",
    "measure_chain",
    "readouts_to_csv",
]

CSV_HEADER = "trial,mode,true_n,reported_n,repetitions,overflow_flag"


@dataclass(frozen=True)
class DetectionParams:
    """Readout fidelity f, preparation leak eps, and the round cap."""

    readout_fidelity: float = 0.99
    prep_error: float = 0.01
    max_repetitions: int = 10

    def __post_init__(self):
        if not 0.5 < self.readout_fidelity <= 1.0:
            raise ValueError("readout_fidelity must be in (0.5, 1]")
        if not 0.0 <= self.prep_error < 1.0:
            raise ValueError("prep_error must be in [0, 1)")
        if self.max_repetitions < 1:
            raise ValueError("max_repetitions must be >= 1")


@dataclass(frozen=True)
class ModeReadout:
    """One mode's readout: the reported phonon number and the repeat count.

    ``repetitions`` counts the dark rounds preceding the terminating
    bright round, so it equals ``reported_n``; on overflow both saturate
    at the round cap and ``overflow`` is set.
    """

    reported_n: int
    repetitions: int
    overflow: bool = False


def prepare_mode_distribution(n_target: int, eps: float) -> dict[int, float]:
    """Phonon-number distribution after imperfect preparation of ``n_target``.

    Weight 1-eps stays on target and eps/2 leaks to each neighbour; leak
    below n=0 folds back onto 0.
    """
    if n_target < 0:
        raise ValueError("n_target must be >= 0")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must be in [0, 1)")
    dist = {n_target: 1.0 - eps}
    if eps > 0.0:
        dist[n_target + 1] = eps / 2.0
        if n_target == 0:
            dist[0] += eps / 2.0
        else:
            dist[n_target - 1] = eps / 2.0
    return dict(sorted(dist.items()))


def prepare_occupations(n_target, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Draw each entry of ``n_target`` from :func:`prepare_mode_distribution`.

    One uniform u per entry (C order) is compared with the cumulative
    weights of that distribution: an entry moves down one phonon when
    u < eps/2 (not below 0) and up one when u >= (1 - eps) + eps/2.
    """
    n_target = np.asarray(n_target, dtype=np.int64)
    prepare_mode_distribution(int(n_target.min(initial=0)), eps)  # checks the target and eps
    u = rng.random(n_target.shape)
    return n_target - ((u < eps / 2.0) & (n_target > 0)) + (u >= (1.0 - eps) + eps / 2.0)


def measure_modes(true_n, params: DetectionParams, rng: np.random.Generator) -> np.ndarray:
    """Reported phonon numbers (= repetitions) of the readout of every mode.

    Round r draws one uniform for each mode still dark, in C order; a mode
    stops at its first reported bright and reports r.  Modes still dark
    after ``params.max_repetitions`` rounds report the cap (overflow).
    """
    true_n = np.asarray(true_n, dtype=np.int64)
    if (true_n < 0).any():
        raise ValueError("true_n must be >= 0")
    reported = np.full(true_n.size, params.max_repetitions, dtype=np.int64)
    dark = np.arange(true_n.size)
    dark_n = true_n.ravel()
    for rounds_before in range(params.max_repetitions):
        if not dark.size:
            break
        honest = rng.random(dark.size) < params.readout_fidelity
        # truly bright once every phonon has been transferred out
        bright = (dark_n <= rounds_before) == honest
        reported[dark[bright]] = rounds_before
        still_dark = ~bright
        dark, dark_n = dark[still_dark], dark_n[still_dark]
    return reported.reshape(true_n.shape)


def measure_mode(true_n: int, params: DetectionParams, rng: np.random.Generator) -> ModeReadout:
    """Simulate the repeat-until-bright readout of one mode.

    Rounds run until the first *reported* bright or until
    ``params.max_repetitions`` rounds have elapsed (overflow).
    """
    reported = int(measure_modes([true_n], params, rng)[0])
    return ModeReadout(reported, reported, reported == params.max_repetitions)


def measure_chain(occupations, params: DetectionParams, seed) -> list[ModeReadout]:
    """Readouts of every mode of one chain, drawn by :func:`measure_modes`
    from one generator seeded with ``seed``."""
    reported = measure_modes(occupations, params, np.random.default_rng(seed)).tolist()
    return [ModeReadout(r, r, r == params.max_repetitions) for r in reported]


def readouts_to_csv(true_n, reported, max_repetitions: int, fh) -> None:
    """Write the readouts of (trials, modes) arrays as CSV with header.

    One line per trial and mode, trials in order and modes numbered from 1;
    repetitions equal reported_n, and overflow is reported_n reaching
    ``max_repetitions``.  The lines are written a block of about
    CSV_BLOCK_LINES at a time.  A block looks up each ``mode,true_n,...``
    tail by an integer key of the mode and of true_n and reported_n less
    their least values in the block, so the key table follows the spread of
    the values, not their size.  Each key that occurs and each ``trial,``
    head is formatted once.
    """
    true_n = np.asarray(true_n, dtype=np.int64)
    reported = np.asarray(reported, dtype=np.int64)
    trials, modes = true_n.shape
    fh.write(CSV_HEADER + "\n")
    step = max(1, CSV_BLOCK_LINES // max(modes, 1))
    for first in range(0, trials, step):
        last = min(first + step, trials)
        n, r = true_n[first:last], reported[first:last]
        n0, r0 = int(n.min()), int(r.min())
        dims = (modes, int(n.max()) - n0 + 1, int(r.max()) - r0 + 1)
        key = ((np.arange(modes) * dims[1] + n - n0) * dims[2] + r - r0).ravel()
        occurring = np.flatnonzero(np.bincount(key))
        mode, n_off, r_off = np.unravel_index(occurring, dims)
        tails = np.empty(np.prod(dims), dtype=object)
        tails[occurring] = [
            f"{m + 1},{a + n0},{b},{b},{int(b == max_repetitions)}\n"
            for m, a, b in zip(mode.tolist(), n_off.tolist(), (r_off + r0).tolist())
        ]
        pieces = np.empty((last - first, modes, 2), dtype=object)
        pieces[:, :, 0] = np.array([f"{t}," for t in range(first, last)], dtype=object)[:, None]
        pieces[:, :, 1] = tails[key].reshape(-1, modes)
        fh.write("".join(pieces.ravel().tolist()))
