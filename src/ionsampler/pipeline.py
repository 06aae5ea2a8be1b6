"""Stage orchestration over a shared artifact directory.

Each stage reads the artifacts of its upstream stages from the output
directory and writes its own, so a full run and a sequence of
single-stage runs produce identical files.  Requesting a stage whose
inputs are missing raises :class:`PipelineError` rather than silently
recomputing the upstream work.

Artifacts (all in the output directory):

========================  ====================================================
positions.json            solved equilibrium positions
couplings.json            positions + hopping-rate matrix (rad/s)
target_unitary.json       target mode unitary, {"dim", "re", "im"}
elements.json             triangular-mesh element list for the target
schedule.json             compiled pulse schedule, one block per beam splitter
simulated_unitary.json    unitary realized by the schedule under the full
                          long-range coupling
distribution.json         exact outcome distribution (compiled unitary when
                          present, ideal target otherwise)
samples.csv               sampled outcomes, one occupation vector per line
readouts.csv              one detection readout per (trial, mode) line
verify_report.json        cross-check metrics, skipped checks with their reasons
                          and per-stage timings
========================  ====================================================
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import boson_stats, ion_chain
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
from .ion_chain import CouplingMatrix, IonChain, build_chain, coupling_matrix
from .linear_optics import (
    ElementSequence,
    assert_unitary,
    fourier_unitary,
    haar_unitary,
    reck_decompose,
    unitary_distance,
)

__all__ = [
    "STAGES",
    "PipelineError",
    "VerifyToleranceError",
    "matrix_from_json",
    "matrix_to_json",
    "run_pipeline",
]

STAGES = (
    "positions",
    "couplings",
    "decompose",
    "compile",
    "simulate",
    "distribution",
    "sample",
    "detect",
    "verify",
)

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
    with _atomic_open(path) as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _read_json(outdir: Path, name: str, producer: str) -> dict:
    path = outdir / name
    if not path.exists():
        raise PipelineError(f"missing artifact {name}; run the '{producer}' stage first")
    with open(path) as fh:
        return json.load(fh)


def _load_coupling(outdir: Path) -> CouplingMatrix:
    data = _read_json(outdir, "couplings.json", "couplings")
    _, rates = ion_chain.from_json(data)
    return CouplingMatrix(rates=rates, validity_ratio=float(data["validity_ratio"]))


def run_positions(cfg: RunConfig, outdir: Path) -> None:
    chain = build_chain(cfg.trap, tol=cfg.tolerances.solver)
    _write_json(
        outdir / "positions.json",
        {"num_ions": cfg.num_ions, "positions": [float(x) for x in chain.positions]},
    )


def run_couplings(cfg: RunConfig, outdir: Path) -> None:
    data = _read_json(outdir, "positions.json", "positions")
    chain = IonChain(cfg.trap, np.asarray(data["positions"], dtype=float))
    coupling = coupling_matrix(chain)
    payload = ion_chain.to_json(chain, coupling)
    payload["validity_ratio"] = coupling.validity_ratio
    _write_json(outdir / "couplings.json", payload)


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
            data = json.load(fh)
        u = matrix_from_json(data)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
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
    coupling = _load_coupling(outdir)
    el_data = _read_json(outdir, "elements.json", "decompose")
    seq = ElementSequence.from_json(int(el_data["dim"]), el_data["elements"])
    schedule = compile_elements(coupling, seq, n_sub=cfg.dd.n_sub, scheme=cfg.dd.scheme)
    _write_json(outdir / "schedule.json", schedule.to_json())


def run_simulate(cfg: RunConfig, outdir: Path) -> None:
    coupling = _load_coupling(outdir)
    schedule = PulseSchedule.from_json(_read_json(outdir, "schedule.json", "compile"))
    u = simulate_schedule(coupling, schedule)
    _write_json(outdir / "simulated_unitary.json", matrix_to_json(u))


def _distribution_source(outdir: Path) -> tuple[np.ndarray, str]:
    """Prefer the compiled-and-simulated unitary over the ideal target."""
    sim = outdir / "simulated_unitary.json"
    if sim.exists():
        return matrix_from_json(_read_json(outdir, sim.name, "simulate")), "simulated"
    tgt = outdir / "target_unitary.json"
    if tgt.exists():
        return matrix_from_json(_read_json(outdir, tgt.name, "decompose")), "target"
    raise PipelineError(
        "missing artifact simulated_unitary.json or target_unitary.json; "
        "run the 'simulate' (or at least 'decompose') stage first"
    )


def run_distribution(cfg: RunConfig, outdir: Path) -> None:
    u, source = _distribution_source(outdir)
    dist = exact_distribution(u, cfg.occupations, norm_tol=cfg.tolerances.normalization)
    payload = distribution_to_json(dist)
    payload["source"] = source
    _write_json(outdir / "distribution.json", payload)


def run_sample(cfg: RunConfig, outdir: Path) -> None:
    dist = distribution_from_json(_read_json(outdir, "distribution.json", "distribution"))
    samples = sample_outcomes(dist, cfg.sampling.num_samples, cfg.sampling.seed)
    with _atomic_open(outdir / "samples.csv") as fh:
        samples_to_csv(samples, fh)


def run_detect(cfg: RunConfig, outdir: Path) -> None:
    path = outdir / "samples.csv"
    if not path.exists():
        raise PipelineError("missing artifact samples.csv; run the 'sample' stage first")
    with open(path) as fh:
        samples = samples_from_csv(fh)
    params = cfg.detection
    rng = np.random.default_rng(params.seed)
    # The detector sees the state after imperfect re-preparation,
    # so true_n in the CSV is the post-preparation phonon number.
    true_n = prepare_occupations(samples, params.prep_error, rng)
    reported = measure_modes(true_n, params, rng)
    with _atomic_open(outdir / "readouts.csv") as fh:
        readouts_to_csv(true_n, reported, params.max_repetitions, fh)


def run_verify(cfg: RunConfig, outdir: Path, timings: dict[str, float]) -> dict:
    """Cross-check whatever artifacts exist; enforce configured tolerances.

    Only the normalization residual and the unitarity of stored matrices
    are *enforced* (they have configured tolerances); the distance and TVD
    fields are diagnostics for the caller.
    """
    t0 = time.perf_counter()
    report: dict = {}

    target = sim = None
    if (outdir / "target_unitary.json").exists():
        target = matrix_from_json(_read_json(outdir, "target_unitary.json", "decompose"))
    if (outdir / "simulated_unitary.json").exists():
        sim = matrix_from_json(_read_json(outdir, "simulated_unitary.json", "simulate"))
    for name, u in (("target", target), ("simulated", sim)):
        if u is not None:
            try:
                assert_unitary(u, cfg.tolerances.unitarity)
            except ValueError as exc:
                raise VerifyToleranceError(f"{name} unitary failed unitarity check: {exc}")
    if target is not None and sim is not None:
        report["unitary_distance_achieved_vs_target"] = unitary_distance(sim, target)

    dist = None
    if (outdir / "distribution.json").exists():
        dist_data = _read_json(outdir, "distribution.json", "distribution")
        dist = distribution_from_json(dist_data)
        residual = abs(dist.total - 1.0)
        report["normalization_residual"] = residual
        if residual > cfg.tolerances.normalization:
            raise VerifyToleranceError(
                f"distribution normalization residual {residual:.3e} exceeds "
                f"tolerance {cfg.tolerances.normalization:.1e}"
            )
        source = sim if dist_data.get("source") == "simulated" else target
        if source is None:
            reason = "the unitary the distribution was computed from is missing"
        else:
            reason = fock_oracle_refusal(dist.num_modes, dist.num_bosons)
        if reason:
            report["skipped"] = {"tvd_exact_vs_oracle": reason}
        else:
            oracle = fock_oracle_distribution(
                source, cfg.occupations, norm_tol=cfg.tolerances.normalization
            )
            report["tvd_exact_vs_oracle"] = total_variation_distance(dist, oracle)

    if dist is not None and (outdir / "samples.csv").exists():
        with open(outdir / "samples.csv") as fh:
            samples = samples_from_csv(fh)
        emp = empirical_distribution(samples, dist.num_modes, dist.num_bosons)
        report["tvd_empirical_vs_exact"] = total_variation_distance(emp, dist)

    timings = dict(timings)
    timings["verify"] = time.perf_counter() - t0
    report["timings_s"] = timings
    _write_json(outdir / "verify_report.json", report)
    return report


_STAGE_FUNCS = {
    "positions": run_positions,
    "couplings": run_couplings,
    "decompose": run_decompose,
    "compile": run_compile,
    "simulate": run_simulate,
    "distribution": run_distribution,
    "sample": run_sample,
    "detect": run_detect,
}


def run_pipeline(cfg: RunConfig, stages, outdir, quiet: bool = False) -> dict | None:
    """Execute the requested stages in dependency order.

    Returns the verify report when the verify stage ran, else None.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    order = [s for s in STAGES if s in stages]
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise PipelineError(f"unknown stage(s): {', '.join(sorted(unknown))}")

    timings: dict[str, float] = {}
    report = None
    for name in order:
        t0 = time.perf_counter()
        if name == "verify":
            report = run_verify(cfg, outdir, timings)
        else:
            _STAGE_FUNCS[name](cfg, outdir)
            timings[name] = time.perf_counter() - t0
        if not quiet:
            elapsed = report["timings_s"][name] if name == "verify" else timings[name]
            print(f"[{name}] done in {elapsed:.3f} s")
    return report
