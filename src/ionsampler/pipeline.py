"""Stage orchestration over a shared artifact directory.

Each stage reads the artifacts of its upstream stages from the output
directory and writes its own, so a full run and a sequence of
single-stage runs produce identical files; within one run, a stage takes
what an earlier one wrote from memory (:class:`ArtifactDir`).  Requesting a
stage whose inputs are missing raises :class:`PipelineError`, naming the
stage that writes them (:data:`PRODUCERS`), rather than silently
recomputing the upstream work.  Every run that completes also writes
``manifest.json`` with the wall time of each stage it ran; it is the only
file that differs between reruns.
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
    check_samples,
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

# Each artifact a later stage reads: ``parse`` applied to what ``load`` reads.
# Methods are looked up when called, so wrappers put on them see the calls.
READERS = {
    "positions.json": (lambda d: np.asarray(d["positions"], dtype=float), json.load),
    "couplings.json": (ion_chain.from_json, json.load),
    "target_unitary.json": (matrix_from_json, json.load),
    "elements.json": (lambda d: ElementSequence.from_json(int(d["dim"]), d["elements"]),
                      json.load),
    "schedule.json": (lambda d: PulseSchedule.from_json(d), json.load),
    "simulated_unitary.json": (matrix_from_json, json.load),
    "distribution.json": (lambda d: (distribution_from_json(d), d.get("source")), json.load),
    "samples.csv": (np.array, samples_from_csv),
}

# The unitaries a distribution can be computed from, in order of preference
# (the compiled interferometer over the ideal target), with the source tag
# that distribution.json records.
SOURCES = {"simulated_unitary.json": "simulated", "target_unitary.json": "target"}


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


def _artifact(outdir: Path, *names: str) -> Path:
    """The first of ``names`` present in ``outdir``; if none is, the error
    names the stage that writes each."""
    for name in names:
        if (outdir / name).exists():
            return outdir / name
    stages = " or ".join(f"'{PRODUCERS[name]}'" for name in names)
    raise PipelineError(f"missing artifact {' or '.join(names)}; run the {stages} stage first")


class ArtifactDir:
    """The output directory of one :func:`run_pipeline` call.  What a stage
    writes or reads there is held for the later stages, parsed once, with its
    numpy arrays read-only, so a stage that alters its input raises."""

    def __init__(self, path: Path):
        self.path = path
        self._written, self._parsed = {}, {}  # payloads not read yet, parsed values

    def write(self, name: str, payload, dump=lambda p, fh: fh.write(json.dumps(p) + "\n")):
        """Write ``payload`` to artifact ``name`` by ``dump`` (one line of JSON,
        which json.dumps encodes in C), and hold it if a stage reads it."""
        with _atomic_open(self.path / name) as fh:
            dump(payload, fh)
        if name in READERS:
            self._written[name] = payload

    def read(self, name: str, last: bool = False):
        """The artifact ``name``, held or else read from disk; ``last``, for the
        last stage that reads it, releases it.  One that does not load or parse
        raises PipelineError naming it."""
        if name not in self._parsed:
            parse, load = READERS[name]
            if name in self._written:
                value = parse(self._written.pop(name))
            else:
                with open(_artifact(self.path, name)) as fh:
                    try:
                        value = parse(load(fh))
                    except (ValueError, KeyError, TypeError, PipelineError) as exc:
                        raise PipelineError(f"cannot read {name}: {exc}") from exc
            for item in value if isinstance(value, tuple) else (value,):
                for array in (item, *getattr(item, "__dict__", {}).values()):
                    if isinstance(array, np.ndarray):
                        array.flags.writeable = False
            self._parsed[name] = value
        return self._parsed.pop(name) if last else self._parsed[name]


def run_positions(cfg: RunConfig, out: ArtifactDir) -> None:
    chain = build_chain(cfg.trap, tol=cfg.tolerances.solver)
    out.write(
        "positions.json",
        {"num_ions": cfg.num_ions, "positions": [float(x) for x in chain.positions]},
    )


def run_couplings(cfg: RunConfig, out: ArtifactDir) -> None:
    chain = IonChain(cfg.trap, out.read("positions.json", last=True))
    out.write("couplings.json", ion_chain.to_json(chain, coupling_matrix(chain)))


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


def run_decompose(cfg: RunConfig, out: ArtifactDir) -> None:
    target = _target_unitary(cfg)
    try:
        target = assert_unitary(target, cfg.tolerances.unitarity)
    except ValueError as exc:
        raise PipelineError(f"target is not unitary: {exc}") from exc
    out.write("target_unitary.json", matrix_to_json(target))
    seq = reck_decompose(target, tol=cfg.tolerances.unitarity)
    out.write("elements.json", {"dim": seq.dim, "elements": seq.to_json()})


def run_compile(cfg: RunConfig, out: ArtifactDir) -> None:
    _, coupling = out.read("couplings.json")
    seq = out.read("elements.json", last=True)
    schedule = compile_elements(coupling, seq, n_sub=cfg.dd.n_sub, scheme=cfg.dd.scheme)
    out.write("schedule.json", schedule.to_json())


def run_simulate(cfg: RunConfig, out: ArtifactDir) -> None:
    _, coupling = out.read("couplings.json", last=True)
    u = simulate_schedule(coupling, out.read("schedule.json", last=True))
    out.write("simulated_unitary.json", matrix_to_json(u))


def run_distribution(cfg: RunConfig, out: ArtifactDir) -> None:
    name = _artifact(out.path, *SOURCES).name
    u = out.read(name)
    dist = exact_distribution(
        u, cfg.occupations, norm_tol=cfg.tolerances.normalization,
        unit_tol=cfg.tolerances.unitarity,
    )
    payload = distribution_to_json(dist)
    payload["source"] = SOURCES[name]
    out.write("distribution.json", payload)


def run_sample(cfg: RunConfig, out: ArtifactDir) -> None:
    dist, _ = out.read("distribution.json")
    samples = sample_outcomes(dist, cfg.sampling.num_samples, cfg.sampling.seed)
    out.write("samples.csv", samples, samples_to_csv)


def run_detect(cfg: RunConfig, out: ArtifactDir) -> None:
    samples = check_samples(out.read("samples.csv"), cfg.num_ions, sum(cfg.occupations))
    params = cfg.detection
    rng = np.random.default_rng(params.seed)
    # The detector sees the state after imperfect re-preparation,
    # so true_n in the CSV is the post-preparation phonon number.
    true_n = prepare_occupations(samples, params.prep_error, rng)
    reported = measure_modes(true_n, params, rng)
    with _atomic_open(out.path / "readouts.csv") as fh:
        readouts_to_csv(true_n, reported, params.max_repetitions, fh)


def run_verify(cfg: RunConfig, out: ArtifactDir) -> dict:
    """Cross-check whatever artifacts exist; enforce configured tolerances.

    Only the normalization residual and the unitarity of stored matrices
    are *enforced* (they have configured tolerances); the distance and TVD
    fields are diagnostics for the caller.
    """
    tols = cfg.tolerances
    report: dict = {}

    unitaries = {tag: out.read(n) for n, tag in SOURCES.items() if (out.path / n).exists()}
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
    if (out.path / "distribution.json").exists():
        dist, source_name = out.read("distribution.json")
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

    if dist is not None and (out.path / "samples.csv").exists():
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
    out.path.mkdir(parents=True, exist_ok=True)

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
