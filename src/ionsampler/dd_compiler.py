"""Compile mode unitaries into free-evolution/phase-flip pulse schedules.

Free Coulomb evolution couples every pair of modes at once, so a target
beam splitter on one adjacent pair must be carved out by dynamical
decoupling: interleave the evolution with instantaneous pi phase flips so
that every unwanted coupling term time-averages to zero while the target
pair accumulates its full rotation angle.

A flip applied to mode i negates every coupling term involving i, so
during a slice where modes carry signs s the pair coupling (i, k) evolves
with weight s_i * s_k.  Two flip schemes are provided:

* "nn" — the echo pattern: signs alternate outward from the target pair,
  which cancels every *adjacent* non-target coupling at first order (the
  two-mode case degenerates to a plain spin echo and is exact).  Longer-
  range couplings survive, so this scheme is mainly useful as the
  hardware-minimal baseline.
* "hadamard" — each mode is assigned a row of a Sylvester Hadamard matrix
  (the target pair shares one row) and the evolution is cut into P
  orthogonal slices.  Row orthogonality makes every non-target pair
  average to exactly zero, at any coupling range.

Schedules subdivide the total time into ``n_sub`` repetitions whose slice
order is palindromic, pushing the leading average-Hamiltonian error to
second order; accuracy improves roughly as 1/n_sub^2 in amplitude.  A beam
splitter compiles to one :class:`DecouplingBlock` of L sign vectors whose
product over the set bits of t is slice t of 2^L (Walsh-modulated decoupling,
Hayes et al., PRA 84, 062323 (2011)); :meth:`PulseSchedule.expand` writes it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ion_chain import CouplingMatrix
from .linear_optics import (
    UNITARITY_TOL,
    BSElement,
    ElementSequence,
    _check_mode,
    _check_pair,
    assert_hermitian,
    assert_unitary,
    reck_decompose,
)

__all__ = [
    "PhaseEvent",
    "EvolutionSegment",
    "DecouplingBlock",
    "PulseSchedule",
    "SignPattern",
    "nn_isolation_pattern",
    "hadamard_slice_patterns",
    "compile_beam_splitter",
    "compile_elements",
    "compile_unitary",
    "simulate_schedule",
    "SCHEMES",
]

DEFAULT_N_SUB = 16
DEFAULT_SCHEME = "hadamard"
STACK_BLOCKS = 32  # decoupling blocks per stack in simulate_schedule: 0.5 MB at 32 ions
MAX_DURATION_FACTOR = 1e6


@dataclass(frozen=True)
class EvolutionSegment:
    """Free evolution under the full coupling matrix for ``duration`` seconds."""

    duration: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError("segment duration must be finite and >= 0")


@dataclass(frozen=True)
class PhaseEvent:
    """Instantaneous phase exp(+i phi) on one mode at ``time`` from schedule start."""

    time: float
    mode_index: int
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        if not (math.isfinite(self.time) and math.isfinite(self.phi)):
            raise ValueError("phase event time and phi must be finite")


@dataclass(frozen=True)
class DecouplingBlock:
    """``n_sub`` repetitions of 2^L frames and their mirror image, each held ``tau``
    seconds; frame t is the product of the L ``generators`` over the set bits of t."""

    tau: float
    generators: tuple[SignPattern, ...]
    n_sub: int

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "tau", float(self.tau))
        if not (math.isfinite(self.tau) and self.tau >= 0 and self.n_sub >= 1):
            raise ValueError("a block needs finite tau >= 0 and n_sub >= 1")

    @property
    def duration(self) -> float:
        return self.n_sub * 2 * 2 ** len(self.generators) * self.tau


def _walsh_frames(generators, dim: int) -> np.ndarray:
    """The (2^L, dim) signs of the frames of L generators, in order."""
    frames = np.ones((1, dim), dtype=int)
    for g in generators:
        frames = np.concatenate([frames, frames * g.signs])
    return frames


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered segments, decoupling blocks and phase events over ``dim`` modes."""

    dim: int
    steps: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        elapsed = 0.0
        for step in self.steps:
            if isinstance(step, DecouplingBlock) and any(len(g.signs) != self.dim for g in step.generators):
                raise ValueError(f"block generator length differs from dim {self.dim}")
            if isinstance(step, (EvolutionSegment, DecouplingBlock)):
                elapsed += step.duration
            elif isinstance(step, PhaseEvent):
                _check_mode(step.mode_index, self.dim)
                if step.time < -1e-12 or step.time > elapsed + 1e-9 * max(elapsed, 1.0):
                    raise ValueError(
                        f"event time {step.time} inconsistent with elapsed {elapsed}"
                    )
            else:
                raise TypeError(f"unsupported step {step!r}")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.steps if not isinstance(s, PhaseEvent))

    def expand(self) -> "PulseSchedule":
        """The flat export: each block written out as free-evolution segments
        and the pi events entering its frames, back-to-back segments merged."""
        steps: list = []
        elapsed = 0.0

        def evolve(duration: float) -> None:
            nonlocal elapsed
            if steps and isinstance(steps[-1], EvolutionSegment):
                steps[-1] = EvolutionSegment(steps[-1].duration + duration)
            else:
                steps.append(EvolutionSegment(duration))
            elapsed += duration

        for step in self.steps:
            if isinstance(step, DecouplingBlock):
                frames = _walsh_frames(step.generators, self.dim).tolist()
                current = frames[0]
                for frame in (frames + frames[::-1]) * step.n_sub:
                    flips = [m for m, (a, b) in enumerate(zip(current, frame), 1) if a != b]
                    steps.extend(PhaseEvent(elapsed, mode, np.pi) for mode in flips)
                    current = frame
                    evolve(step.tau)
            elif isinstance(step, EvolutionSegment):
                evolve(step.duration)
            else:
                steps.append(step)
        return PulseSchedule(self.dim, steps)

    def to_json(self) -> dict:
        steps = []
        for step in self.steps:
            if isinstance(step, EvolutionSegment):
                steps.append({"segment_s": float(step.duration)})
            elif isinstance(step, DecouplingBlock):
                signs = [[int(x) for x in g.signs] for g in step.generators]
                block = {"tau_s": float(step.tau), "generators": signs, "n_sub": int(step.n_sub)}
                steps.append({"block": block})
            else:
                ev = {"t_s": float(step.time), "mode": step.mode_index, "phi": float(step.phi)}
                steps.append({"phase": ev})
        return {"dim": self.dim, "steps": steps, "total_s": float(self.total_duration)}

    @classmethod
    def from_json(cls, data: dict) -> "PulseSchedule":
        steps: list = []
        for entry in data["steps"]:
            if "segment_s" in entry:
                steps.append(EvolutionSegment(float(entry["segment_s"])))
            elif "block" in entry:
                b = entry["block"]
                generators = [SignPattern(tuple(g)) for g in b["generators"]]
                steps.append(DecouplingBlock(float(b["tau_s"]), generators, int(b["n_sub"])))
            elif "phase" in entry:
                ev = entry["phase"]
                steps.append(PhaseEvent(float(ev["t_s"]), int(ev["mode"]), float(ev["phi"])))
            else:
                raise ValueError(f"unknown step entry {entry!r}")
        schedule = cls(int(data["dim"]), tuple(steps))
        declared = float(data["total_s"])
        if not abs(schedule.total_duration - declared) <= 1e-9 * max(1.0, declared):
            raise ValueError("declared total_s does not match summed segments and blocks")
        return schedule


@dataclass(frozen=True)
class SignPattern:
    """Per-mode signs for one slice; -1 marks modes evolving in the flipped frame."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +/-1")


def nn_isolation_pattern(dim: int, pair_index: int) -> SignPattern:
    """Echo sign pattern keeping pair (j, j+1): signs alternate outward.

    Both target modes carry +1 and every other adjacent pair straddles a
    sign change, so all non-target nearest-neighbour couplings average to
    zero over a flip/unflip cycle.
    """
    _check_pair(pair_index, dim)
    s = np.ones(dim, dtype=int)
    for i in range(pair_index - 2, -1, -1):  # 0-based walk below the pair
        s[i] = -s[i + 1]
    for i in range(pair_index + 1, dim):  # and above it
        s[i] = -s[i - 1]
    return SignPattern(tuple(int(x) for x in s))


def _hadamard_generators(dim: int, pair_index: int) -> tuple[SignPattern, ...]:
    """Generator j of the Hadamard scheme is (-1)^(bit j of each mode's row)."""
    _check_pair(pair_index, dim)
    rows = [*range(1, pair_index), 0, 0, *range(pair_index, dim - 1)]
    return tuple(SignPattern(tuple([1 - 2 * (r >> j & 1) for r in rows]))
                 for j in range((dim - 2).bit_length()))


def hadamard_slice_patterns(dim: int, pair_index: int) -> list[SignPattern]:
    """Orthogonal slice patterns cancelling every non-target coupling.

    Uses P = smallest power of two >= M-1 slices.  Modes j and j+1 share
    Hadamard row 0 (all +1 in slice 0); the remaining modes take distinct
    rows in ascending order.  Because distinct rows are orthogonal, the
    slice-average of s_i*s_k vanishes identically for every pair except
    the target, which always carries weight +1.
    """
    frames = _walsh_frames(_hadamard_generators(dim, pair_index), dim)
    return [SignPattern(tuple(f)) for f in frames.tolist()]


# Each decoupling scheme and the builder of its generators for (dim, pair_index).
_GENERATOR_BUILDERS = {
    "nn": lambda dim, pair: (nn_isolation_pattern(dim, pair),),
    "hadamard": _hadamard_generators,
}
SCHEMES = tuple(_GENERATOR_BUILDERS)


def compile_beam_splitter(
    coupling: CouplingMatrix,
    pair_index: int,
    theta: float,
    n_sub: int = DEFAULT_N_SUB,
    scheme: str = DEFAULT_SCHEME,
) -> PulseSchedule:
    """One decoupling block realizing a beam splitter of angle ``theta`` on (j, j+1).

    Total evolution time is theta / K_{j,j+1}, cut into ``n_sub``
    repetitions of the scheme's slice sequence followed by its mirror
    image (palindromic ordering).  Sign frames are entered and left by
    paired pi events at slice boundaries, so the net per-mode phase is a
    multiple of 2 pi and the simulated schedule converges to the ideal
    beam splitter as n_sub grows.

    A pair coupled so weakly that the schedule would outlast
    MAX_DURATION_FACTOR / max(K) is refused: it would demand an absurd
    schedule length.
    """
    rates = coupling.rates
    dim = rates.shape[0]
    _check_pair(pair_index, dim)
    theta = BSElement(pair_index, theta).theta  # refuses an angle outside [0, pi/2]
    if theta == 0.0:
        return PulseSchedule(dim)

    rate = rates[pair_index - 1, pair_index]
    total = theta / rate
    max_duration = MAX_DURATION_FACTOR / rates.max()
    if total > max_duration:
        raise ValueError(
            f"schedule duration {total:.3e} s exceeds limit {max_duration:.3e} s; "
            "coupling too weak for the requested angle"
        )

    if scheme not in _GENERATOR_BUILDERS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    generators = _GENERATOR_BUILDERS[scheme](dim, pair_index)
    tau = total / (n_sub * 2 * 2 ** len(generators))
    return PulseSchedule(dim, (DecouplingBlock(tau, generators, n_sub),))


def compile_elements(
    coupling: CouplingMatrix,
    sequence: ElementSequence,
    n_sub: int = DEFAULT_N_SUB,
    scheme: str = DEFAULT_SCHEME,
) -> PulseSchedule:
    """Concatenate compiled beam splitters and instantaneous phase events."""
    if sequence.dim != coupling.rates.shape[0]:
        raise ValueError("element sequence dimension does not match coupling matrix")
    steps: list = []
    elapsed = 0.0
    for el in sequence.elements:
        if isinstance(el, BSElement):
            bs = compile_beam_splitter(coupling, el.pair_index, el.theta, n_sub, scheme)
            steps.extend(bs.steps)
            elapsed += bs.total_duration
        else:
            steps.append(PhaseEvent(elapsed, el.mode_index, el.phi))
    return PulseSchedule(sequence.dim, steps)


def compile_unitary(
    coupling: CouplingMatrix,
    target,
    n_sub: int = DEFAULT_N_SUB,
    scheme: str = DEFAULT_SCHEME,
    tol: float = UNITARITY_TOL,
) -> PulseSchedule:
    """Compile an arbitrary target unitary via triangular decomposition."""
    target = assert_unitary(target, tol)
    return compile_elements(coupling, reck_decompose(target, tol), n_sub, scheme)


def _unitary_power(period: np.ndarray, n: int) -> np.ndarray:
    """``period ** n`` for periods (one or a stack) unitary up to rounding: squarings,
    then one Newton-Schulz step x (3 - x^dag x) / 2 onto the nearest unitary (Bjorck &
    Bowie, SIAM J. Numer. Anal. 8, 358 (1971)).  The step squares the unitarity defect,
    so the rounding of the slice products does not compound over the repetitions."""
    x = np.linalg.matrix_power(period, n)
    return x @ (1.5 * np.eye(x.shape[-1]) - 0.5 * (x.conj().swapaxes(-1, -2) @ x))


def simulate_schedule(coupling, schedule: PulseSchedule) -> np.ndarray:
    """Exact unitary produced by a schedule under the full coupling matrix.

    A slice in sign frame S evolves as S exp(-i K tau) S.  Per generator H_j of a
    block, the forward product F becomes (H_j F H_j) F and the mirrored R becomes
    R (H_j R H_j); numpy matrix products raise the period R F to ``n_sub``
    (:func:`_unitary_power`), the blocks of one generator count and ``n_sub`` in (B, M, M)
    stacks of at most STACK_BLOCKS.  A phase event is a diagonal matrix.  Steps compose in list order.
    """
    k = assert_hermitian(coupling)
    if k.shape[0] != schedule.dim:
        raise ValueError(
            f"coupling dim {k.shape[0]} does not match schedule dim {schedule.dim}"
        )
    w, v = np.linalg.eigh(k)  # once per call: exp(-i K t) = v exp(-i w t) v^dag
    periods: dict = {}  # the blocks of each (generator count, n_sub), then their powered periods
    for step in schedule.steps:
        if isinstance(step, DecouplingBlock):
            periods.setdefault((len(step.generators), step.n_sub), []).append(step)
    for (count, n_sub), blocks in periods.items():
        stacks = [blocks[first:first + STACK_BLOCKS] for first in range(0, len(blocks), STACK_BLOCKS)]
        for i, stack in enumerate(stacks):
            taus = np.array([b.tau for b in stack])[:, None]
            signs = np.array([[g.signs for g in b.generators] for b in stack]).reshape(len(stack), count, schedule.dim)
            forward = mirror = (v * np.exp(-1j * w * taus)[:, None, :]) @ v.conj().T
            for s in signs.swapaxes(0, 1):  # (B, M) signs of generator j
                flip = s[:, :, None] * s[:, None, :]
                forward, mirror = (forward * flip) @ forward, mirror @ (mirror * flip)
            stacks[i] = _unitary_power(mirror @ forward, n_sub)
        periods[count, n_sub] = (period for stack in stacks for period in stack)
    total = np.eye(schedule.dim, dtype=complex)
    for step in schedule.steps:
        if isinstance(step, DecouplingBlock):
            total = next(periods[len(step.generators), step.n_sub]) @ total
        elif isinstance(step, EvolutionSegment):
            total = (v * np.exp(-1j * w * step.duration)) @ v.conj().T @ total
        else:
            total[step.mode_index - 1, :] *= np.exp(1j * step.phi)
    return total
