"""Stage orchestration over a shared artifact directory.

Each stage reads the artifacts of its upstream stages from the output
directory and writes its own, so a full run and a sequence of
single-stage runs produce identical files; within one run, a stage gets
the value an earlier one wrote (:class:`ArtifactDir`).  :data:`ARTIFACTS`
declares each artifact once: the stage that writes it and how its value is
written and read back.  Requesting a stage whose inputs are missing raises
:class:`PipelineError`, naming the stage that writes them, rather than
silently recomputing the upstream work.  Every run that completes also writes
``manifest.json`` with the wall time of each stage it ran; it is the only
file that differs between reruns.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from . import ion_chain
from .boson_stats import (
    check_samples,
    distribution_from_json,
    empirical_distribution,
    exact_distribution,
    fock_oracle_distribution,
    fock_oracle_refusal,
    sample_outcomes,
    samples_from_csv,
    samples_to_csv,
    total_variation_distance,
    write_distribution_json,
)
from .config import RunConfig
from .dd_compiler import PulseSchedule, compile_elements, simulate_schedule
from .detection import measure_modes, prepare_occupations, readouts_to_csv
from .ion_chain import IonChain, build_chain, coupling_matrix
from .linear_optics import (
    ElementSequence,
    assert_unitary,
    fourier_unitary,
    haar_unitary,
    reck_decompose,
    unitary_distance,
)

__all__ = [
    "ARTIFACTS",
    "STAGES",
    "PipelineError",
    "VerifyToleranceError",
    "matrix_from_json",
    "matrix_to_json",
    "run_pipeline",
]


class PipelineError(RuntimeError):
    """A stage could not run: missing upstream artifact or bad input data."""


class VerifyToleranceError(RuntimeError):
    """A verify-stage metric exceeded its configured tolerance."""


def matrix_to_json(u) -> dict:
    u = np.asarray(u, dtype=complex)
    return {"dim": int(u.shape[0]), "re": u.real.tolist(), "im": u.imag.tolist()}


def matrix_from_json(data: dict) -> np.ndarray:
    shape, im_shape = np.shape(data["re"]), np.shape(data["im"])
    if im_shape != shape:  # else the assignment below would broadcast im
        raise PipelineError(f"matrix payload im shape {im_shape} differs from re shape {shape}")
    u = np.empty(shape, dtype=complex)
    u.real, u.imag = data["re"], data["im"]  # by part, so that signed zeros survive
    dim = int(data["dim"])
    if u.shape != (dim, dim):
        raise PipelineError(f"matrix payload shape {u.shape} does not match dim {dim}")
    return u


def _json(encode=lambda v: v, decode=None):
    """The (write, read) pair of a one-line JSON artifact: ``encode`` makes
    the payload of a value, ``decode`` (if a stage reads it) the value back."""
    return (lambda v, fh: fh.write(json.dumps(encode(v)) + "\n"),
            decode and (lambda fh: decode(json.load(fh))))


def _write_distribution(value, fh) -> None:
    """The line ``_json`` writes for ``{**distribution_to_json(dist), "source": source}``."""
    dist, source = value
    write_distribution_json(dist, fh, source=source)
    fh.write("\n")


# Every artifact of the output directory: the stage that writes it, how a
# value is written to an open file and, for one a later stage reads, how the
# value is read back.  Names are looked up when called, so wrappers put on
# them see the calls.
ARTIFACTS = {
    "positions.json": ("positions", *_json(
        lambda x: {"num_ions": len(x), "positions": x.tolist()},
        lambda d: np.asarray(d["positions"], dtype=float))),
    "couplings.json": ("couplings", *_json(
        lambda v: ion_chain.to_json(*v), lambda d: ion_chain.from_json(d))),
    "target_unitary.json": ("decompose", *_json(
        lambda u: matrix_to_json(u), lambda d: matrix_from_json(d))),
    "elements.json": ("decompose", *_json(
        lambda seq: {"dim": seq.dim, "elements": seq.to_json()},
        lambda d: ElementSequence.from_json(int(d["dim"]), d["elements"]))),
    "schedule.json": ("compile", *_json(
        lambda schedule: schedule.to_json(), lambda d: PulseSchedule.from_json(d))),
    "simulated_unitary.json": ("simulate", *_json(
        lambda u: matrix_to_json(u), lambda d: matrix_from_json(d))),
    "distribution.json": ("distribution", _write_distribution,
                          _json(decode=lambda d: (distribution_from_json(d), d.get("source")))[1]),
    "samples.csv": ("sample", lambda v, fh: samples_to_csv(v, fh),
                    lambda fh: samples_from_csv(fh)),
    "readouts.csv": ("detect", lambda v, fh: readouts_to_csv(*v, fh), None),
    "verify_report.json": ("verify", *_json()),
    "manifest.json": (None, *_json()),
}

# The unitaries a distribution can be computed from, in order of preference
# (the compiled interferometer over the ideal target), with the source tag
# that distribution.json records.
SOURCES = {"simulated_unitary.json": "simulated", "target_unitary.json": "target"}


class ArtifactDir:
    """The output directory of one :func:`run_pipeline` call, and the only
    code that touches it.  A value written there that a later stage reads is
    held as it is, with its numpy arrays read-only (so a stage that alters
    its input raises); one not written in this run is read from disk once."""

    def __init__(self, path: Path):
        self.path = path
        self._held = {}
        path.mkdir(parents=True, exist_ok=True)

    def has(self, name: str) -> bool:
        return (self.path / name).exists()

    def first(self, *names: str) -> str:
        """The first of ``names`` present; if none is, the error names the
        stage that writes each."""
        for name in names:
            if self.has(name):
                return name
        stages = " or ".join(f"'{ARTIFACTS[name][0]}'" for name in names)
        raise PipelineError(f"missing artifact {' or '.join(names)}; run the {stages} stage first")

    def write(self, name: str, value) -> None:
        """Write ``value`` to artifact ``name`` through a temporary file moved
        onto it only when the write completes, so no stage ever reads a
        partly written artifact."""
        _, dump, load = ARTIFACTS[name]
        path = self.path / name
        tmp = path.with_name(f".{name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w") as fh:
                dump(value, fh)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if load:
            self._hold(name, value)

    def read(self, name: str):
        """The value of artifact ``name``, held or else read from disk.  One
        that does not read raises PipelineError naming it."""
        if name not in self._held:
            with open(self.path / self.first(name)) as fh:
                try:
                    value = ARTIFACTS[name][2](fh)
                except (ValueError, KeyError, TypeError, OverflowError, PipelineError) as exc:
                    raise PipelineError(f"cannot read {name}: {exc}") from exc
            self._hold(name, value)
        return self._held[name]

    def _hold(self, name: str, value) -> None:
        for item in value if isinstance(value, tuple) else (value,):
            for array in (item, *getattr(item, "__dict__", {}).values()):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
        self._held[name] = value


def run_positions(cfg: RunConfig, out: ArtifactDir) -> None:
    out.write("positions.json", build_chain(cfg.trap, tol=cfg.tolerances.solver).positions)


def run_couplings(cfg: RunConfig, out: ArtifactDir) -> None:
    positions = out.read("positions.json")
    out.write("couplings.json", (positions, coupling_matrix(IonChain(cfg.trap, positions))))


def _target_unitary(cfg: RunConfig) -> np.ndarray:
    m = cfg.num_ions
    kind = cfg.target.kind
    if kind == "identity":
        return np.eye(m, dtype=complex)
    if kind == "fourier":
        return fourier_unitary(m)
    if kind == "haar":
        return haar_unitary(m, cfg.target.seed)
    # kind == "file": config validation already guaranteed a path
    try:
        with open(cfg.target.path) as fh:
            u = matrix_from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, OverflowError, PipelineError) as exc:
        raise PipelineError(f"cannot load target matrix {cfg.target.path}: {exc}") from exc
    if u.shape[0] != m:
        raise PipelineError(
            f"target matrix dim {u.shape[0]} does not match chain.num_ions = {m}"
        )
    return u


def run_decompose(cfg: RunConfig, out: ArtifactDir) -> None:
    target = _target_unitary(cfg)
    try:
        target = assert_unitary(target, cfg.tolerances.unitarity)
    except ValueError as exc:
        raise PipelineError(f"target is not unitary: {exc}") from exc
    out.write("target_unitary.json", target)
    out.write("elements.json", reck_decompose(target, tol=cfg.tolerances.unitarity))


def run_compile(cfg: RunConfig, out: ArtifactDir) -> None:
    _, coupling = out.read("couplings.json")
    seq = out.read("elements.json")
    out.write("schedule.json",
              compile_elements(coupling, seq, n_sub=cfg.dd.n_sub, scheme=cfg.dd.scheme))


def run_simulate(cfg: RunConfig, out: ArtifactDir) -> None:
    _, coupling = out.read("couplings.json")
    out.write("simulated_unitary.json", simulate_schedule(coupling, out.read("schedule.json")))


def run_distribution(cfg: RunConfig, out: ArtifactDir) -> None:
    name = out.first(*SOURCES)
    dist = exact_distribution(
        out.read(name), cfg.occupations, norm_tol=cfg.tolerances.normalization,
        unit_tol=cfg.tolerances.unitarity,
    )
    out.write("distribution.json", (dist, SOURCES[name]))


def run_sample(cfg: RunConfig, out: ArtifactDir) -> None:
    dist, _ = out.read("distribution.json")
    out.write("samples.csv", sample_outcomes(dist, cfg.sampling.num_samples, cfg.sampling.seed))


def run_detect(cfg: RunConfig, out: ArtifactDir) -> None:
    samples = check_samples(out.read("samples.csv"), cfg.num_ions, sum(cfg.occupations))
    params = cfg.detection
    rng = np.random.default_rng(params.seed)
    # The detector sees the state after imperfect re-preparation,
    # so true_n in the CSV is the post-preparation phonon number.
    true_n = prepare_occupations(samples, params.prep_error, rng)
    reported = measure_modes(true_n, params, rng)
    out.write("readouts.csv", (true_n, reported, params.max_repetitions))


def run_verify(cfg: RunConfig, out: ArtifactDir) -> dict:
    """Cross-check whatever artifacts exist; enforce configured tolerances.

    Only the normalization residual and the unitarity of stored matrices
    are *enforced* (they have configured tolerances); the distance and TVD
    fields are diagnostics for the caller.
    """
    tols = cfg.tolerances
    report: dict = {}

    unitaries = {tag: out.read(n) for n, tag in SOURCES.items() if out.has(n)}
    for source, u in unitaries.items():
        try:
            assert_unitary(u, tols.unitarity)
        except ValueError as exc:
            raise VerifyToleranceError(f"{source} unitary failed unitarity check: {exc}")
    if len(unitaries) == len(SOURCES):
        report["unitary_distance_achieved_vs_target"] = unitary_distance(
            unitaries["simulated"], unitaries["target"], tols.unitarity
        )

    dist = None
    if out.has("distribution.json"):
        dist, source_name = out.read("distribution.json")
        residual = abs(dist.total - 1.0)
        report["normalization_residual"] = residual
        if not residual <= tols.normalization:  # so that a NaN residual fails too
            raise VerifyToleranceError(
                f"distribution normalization residual {residual:.3e} exceeds "
                f"tolerance {tols.normalization:.1e}"
            )
        source = unitaries.get(source_name)
        if source is None:
            reason = "the unitary the distribution was computed from is missing"
        else:
            reason = fock_oracle_refusal(dist.num_modes, dist.num_bosons)
        if reason:
            report["skipped"] = {"tvd_exact_vs_oracle": reason}
        else:
            oracle = fock_oracle_distribution(
                source, cfg.occupations, norm_tol=tols.normalization, unit_tol=tols.unitarity
            )
            report["tvd_exact_vs_oracle"] = total_variation_distance(dist, oracle)

    if dist is not None and out.has("samples.csv"):
        emp = empirical_distribution(out.read("samples.csv"), dist.num_modes, dist.num_bosons)
        report["tvd_empirical_vs_exact"] = total_variation_distance(emp, dist)

    out.write("verify_report.json", report)
    return report


# The stages in dependency order.
STAGES = {
    "positions": run_positions,
    "couplings": run_couplings,
    "decompose": run_decompose,
    "compile": run_compile,
    "simulate": run_simulate,
    "distribution": run_distribution,
    "sample": run_sample,
    "detect": run_detect,
    "verify": run_verify,
}


def run_pipeline(cfg: RunConfig, stages, outdir, quiet: bool = False) -> dict | None:
    """Execute the requested stages in dependency order.

    Writes the wall time of each stage to ``manifest.json``.  Returns what
    the last stage run returns: the verify report when the verify stage
    ran, else None.
    """
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise PipelineError(f"unknown stage(s): {', '.join(sorted(unknown))}")
    out = ArtifactDir(Path(outdir))

    timings: dict[str, float] = {}
    result = None
    for name, run in STAGES.items():
        if name not in stages:
            continue
        t0 = time.perf_counter()
        result = run(cfg, out)
        timings[name] = time.perf_counter() - t0
        if not quiet:
            print(f"[{name}] done in {timings[name]:.3f} s")
    out.write("manifest.json", {"timings_s": timings})
    return result
