"""Stage orchestration over a shared artifact directory.

Each stage reads the artifacts of its upstream stages from the output
directory and writes its own, so a full run and a sequence of
single-stage runs produce identical files.  Requesting a stage whose
inputs are missing raises :class:`PipelineError`, naming the stage that
writes them (:data:`PRODUCERS`), rather than silently recomputing the
upstream work.  Every run that completes also writes ``manifest.json``
with the wall time of each stage it ran; it is the only file that differs
between reruns.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import ion_chain
from .boson_stats import (
    distribution_from_json,
    distribution_to_json,
    empirical_distribution,
    exact_distribution,
    fock_oracle_distribution,
    fock_oracle_refusal,
    sample_outcomes,
    samples_from_csv,
    samples_to_csv,
    total_variation_distance,
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
    "PRODUCERS",
    "STAGES",
    "PipelineError",
    "VerifyToleranceError",
    "matrix_from_json",
    "matrix_to_json",
    "run_pipeline",
]

# Every artifact of the output directory and the stage that writes it.
PRODUCERS = {
    "positions.json": "positions",
    "couplings.json": "couplings",
    "target_unitary.json": "decompose",
    "elements.json": "decompose",
    "schedule.json": "compile",
    "simulated_unitary.json": "simulate",
    "distribution.json": "distribution",
    "samples.csv": "sample",
    "readouts.csv": "detect",
    "verify_report.json": "verify",
}

# The unitaries a distribution can be computed from, in order of preference
# (the compiled interferometer over the ideal target), with the source tag
# that distribution.json records.
SOURCES = {"simulated_unitary.json": "simulated", "target_unitary.json": "target"}


class PipelineError(RuntimeError):
    """A stage could not run: missing upstream artifact or bad input data."""


class VerifyToleranceError(RuntimeError):
    """A verify-stage metric exceeded its configured tolerance."""


def matrix_to_json(u) -> dict:
    u = np.asarray(u, dtype=complex)
    return {"dim": int(u.shape[0]), "re": u.real.tolist(), "im": u.imag.tolist()}


def matrix_from_json(data: dict) -> np.ndarray:
    u = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    dim = int(data["dim"])
    if u.shape != (dim, dim):
        raise PipelineError(f"matrix payload shape {u.shape} does not match dim {dim}")
    return u


@contextmanager
def _atomic_open(path: Path):
    """Write to a temporary file beside ``path``, moved onto it only when the
    block completes, so no stage ever reads a partly written artifact."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # only still there if the block failed


def _write_json(path: Path, data: dict) -> None:
    # json.dumps encodes in C; json.dump would take the pure-Python encoder
    with _atomic_open(path) as fh:
        fh.write(json.dumps(data) + "\n")


def _artifact(outdir: Path, *names: str) -> Path:
    """The first of ``names`` present in ``outdir``; if none is, the error
    names the stage that writes each."""
    for name in names:
        if (outdir / name).exists():
            return outdir / name
    stages = " or ".join(f"'{PRODUCERS[name]}'" for name in names)
    raise PipelineError(f"missing artifact {' or '.join(names)}; run the {stages} stage first")


def _read_json(outdir: Path, name: str, parse):
    """``parse`` applied to the JSON artifact ``name``; an artifact that does
    not decode or parse raises PipelineError naming it."""
    with open(_artifact(outdir, name)) as fh:
        try:
            return parse(json.load(fh))
        except (ValueError, KeyError, TypeError, PipelineError) as exc:
            raise PipelineError(f"cannot read {name}: {exc}") from exc


def run_positions(cfg: RunConfig, outdir: Path) -> None:
    chain = build_chain(cfg.trap, tol=cfg.tolerances.solver)
    _write_json(
        outdir / "positions.json",
        {"num_ions": cfg.num_ions, "positions": [float(x) for x in chain.positions]},
    )


def run_couplings(cfg: RunConfig, outdir: Path) -> None:
    positions = _read_json(
        outdir, "positions.json", lambda d: np.asarray(d["positions"], dtype=float)
    )
    chain = IonChain(cfg.trap, positions)
    _write_json(outdir / "couplings.json", ion_chain.to_json(chain, coupling_matrix(chain)))


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
    except (OSError, ValueError, KeyError, TypeError, PipelineError) as exc:
        raise PipelineError(f"cannot load target matrix {cfg.target.path}: {exc}") from exc
    if u.shape[0] != m:
        raise PipelineError(
            f"target matrix dim {u.shape[0]} does not match chain.num_ions = {m}"
        )
    return u


def run_decompose(cfg: RunConfig, outdir: Path) -> None:
    target = _target_unitary(cfg)
    try:
        target = assert_unitary(target, cfg.tolerances.unitarity)
    except ValueError as exc:
        raise PipelineError(f"target is not unitary: {exc}") from exc
    _write_json(outdir / "target_unitary.json", matrix_to_json(target))
    seq = reck_decompose(target, tol=cfg.tolerances.unitarity)
    _write_json(outdir / "elements.json", {"dim": seq.dim, "elements": seq.to_json()})


def run_compile(cfg: RunConfig, outdir: Path) -> None:
    _, coupling = _read_json(outdir, "couplings.json", ion_chain.from_json)
    seq = _read_json(
        outdir, "elements.json", lambda d: ElementSequence.from_json(int(d["dim"]), d["elements"])
    )
    schedule = compile_elements(coupling, seq, n_sub=cfg.dd.n_sub, scheme=cfg.dd.scheme)
    _write_json(outdir / "schedule.json", schedule.to_json())


def run_simulate(cfg: RunConfig, outdir: Path) -> None:
    _, coupling = _read_json(outdir, "couplings.json", ion_chain.from_json)
    schedule = _read_json(outdir, "schedule.json", PulseSchedule.from_json)
    u = simulate_schedule(coupling, schedule)
    _write_json(outdir / "simulated_unitary.json", matrix_to_json(u))


def run_distribution(cfg: RunConfig, outdir: Path) -> None:
    name = _artifact(outdir, *SOURCES).name
    u = _read_json(outdir, name, matrix_from_json)
    dist = exact_distribution(
        u, cfg.occupations, norm_tol=cfg.tolerances.normalization,
        unit_tol=cfg.tolerances.unitarity,
    )
    payload = distribution_to_json(dist)
    payload["source"] = SOURCES[name]
    _write_json(outdir / "distribution.json", payload)


def run_sample(cfg: RunConfig, outdir: Path) -> None:
    dist = _read_json(outdir, "distribution.json", distribution_from_json)
    samples = sample_outcomes(dist, cfg.sampling.num_samples, cfg.sampling.seed)
    with _atomic_open(outdir / "samples.csv") as fh:
        samples_to_csv(samples, fh)


def run_detect(cfg: RunConfig, outdir: Path) -> None:
    with open(_artifact(outdir, "samples.csv")) as fh:
        samples = samples_from_csv(fh)
    params = cfg.detection
    rng = np.random.default_rng(params.seed)
    # The detector sees the state after imperfect re-preparation,
    # so true_n in the CSV is the post-preparation phonon number.
    true_n = prepare_occupations(samples, params.prep_error, rng)
    reported = measure_modes(true_n, params, rng)
    with _atomic_open(outdir / "readouts.csv") as fh:
        readouts_to_csv(true_n, reported, params.max_repetitions, fh)


def run_verify(cfg: RunConfig, outdir: Path) -> dict:
    """Cross-check whatever artifacts exist; enforce configured tolerances.

    Only the normalization residual and the unitarity of stored matrices
    are *enforced* (they have configured tolerances); the distance and TVD
    fields are diagnostics for the caller.
    """
    tols = cfg.tolerances
    report: dict = {}

    unitaries = {
        source: _read_json(outdir, name, matrix_from_json)
        for name, source in SOURCES.items()
        if (outdir / name).exists()
    }
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
    if (outdir / "distribution.json").exists():
        dist, source_name = _read_json(
            outdir, "distribution.json", lambda d: (distribution_from_json(d), d.get("source"))
        )
        residual = abs(dist.total - 1.0)
        report["normalization_residual"] = residual
        if residual > tols.normalization:
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

    if dist is not None and (outdir / "samples.csv").exists():
        with open(outdir / "samples.csv") as fh:
            samples = samples_from_csv(fh)
        emp = empirical_distribution(samples, dist.num_modes, dist.num_bosons)
        report["tvd_empirical_vs_exact"] = total_variation_distance(emp, dist)

    _write_json(outdir / "verify_report.json", report)
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
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    timings: dict[str, float] = {}
    result = None
    for name, run in STAGES.items():
        if name not in stages:
            continue
        t0 = time.perf_counter()
        result = run(cfg, outdir)
        timings[name] = time.perf_counter() - t0
        if not quiet:
            print(f"[{name}] done in {timings[name]:.3f} s")
    _write_json(outdir / "manifest.json", {"timings_s": timings})
    return result
