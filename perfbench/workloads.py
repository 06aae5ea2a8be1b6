"""The benchmark's workloads: inputs made from a seed, and one checked iteration.

Each workload is a closed loop with a single caller: an iteration starts
only after the previous one has finished and been checked.  The package is
driven only through its public entry points, ``ionsampler.cli.main`` and
``pipeline.run_pipeline`` for the pipeline workloads, ``exact_distribution``
and ``sample_outcomes`` for ``stats8``.  Every name is looked up on its
module at call time, so the spans a :class:`tracing.Tracer` puts there see
the calls.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import ionsampler.boson_stats
import ionsampler.cli
import ionsampler.config
import ionsampler.dd_compiler
import ionsampler.linear_optics
import ionsampler.pipeline

MB = 1e6
TRAP = {"omega_x_hz": 10e6, "omega_z_hz": 0.3e6}
NUM_SAMPLES = 20_000
FIDELITY = 0.99
PREP_ERROR = 0.01
MAX_REPETITIONS = 10
NORM_TOL = 1e-9
PERMANENT_PICKS = 4


@dataclass
class Result:
    """One iteration: its cost, the counts read from its outputs, and what
    its correctness checks found wrong."""

    wall_s: float = math.nan
    cpu_s: float = math.nan
    output_bytes: int = 0
    counts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def run_checked(workload, inputs, outdir: Path, tracer=None) -> Result:
    """One iteration; an exception counts as a failed iteration."""
    result = Result()
    try:
        workload.run(inputs, outdir, result, tracer)
    except Exception:  # the loop must go on and report the failure
        result.errors.append(traceback.format_exc(limit=3).strip())
    return result


@contextmanager
def _timed(result: Result):
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        result.wall_s = time.perf_counter() - t0
        result.cpu_s = time.process_time() - c0


class PipelineWorkload:
    """``ionsampler all`` on a generated config, as a CLI user runs it.

    The untraced iteration calls ``cli.main(["all", ...])``; the traced one
    calls ``run_pipeline`` once per stage, so each stage is its own span.
    """

    def __init__(self, name: str, why: str, occupations, target_kind: str):
        self.name = name
        self.why = why
        self.occupations = list(occupations)
        self.target_kind = target_kind

    def config(self, seed: int) -> dict:
        target = {"kind": self.target_kind}
        if self.target_kind == "haar":
            target["seed"] = seed
        return {
            "trap": TRAP,
            "chain": {"num_ions": len(self.occupations)},
            "input": {"occupations": self.occupations},
            "target": target,
            "dd": {"n_sub": 64, "scheme": "hadamard"},
            "sampling": {"num_samples": NUM_SAMPLES, "seed": seed},
            "detection": {"readout_fidelity": FIDELITY, "prep_error": PREP_ERROR,
                          "max_repetitions": MAX_REPETITIONS, "seed": seed},
            "tolerances": {"normalization": NORM_TOL},
        }

    def prepare(self, seed: int, workdir: Path) -> Path:
        path = workdir / "config.json"
        path.write_text(json.dumps(self.config(seed), indent=2) + "\n")
        return path

    def run(self, config_path: Path, outdir: Path, result: Result, tracer) -> None:
        shutil.rmtree(outdir, ignore_errors=True)
        if tracer is None:
            with _timed(result):
                code = ionsampler.cli.main(
                    ["all", "--config", str(config_path), "--output", str(outdir), "--quiet"]
                )
            if code != 0:
                result.errors.append(f"ionsampler all exited with code {code}")
                return
        else:
            with _timed(result):
                cfg = ionsampler.config.load_config(config_path)
                for stage in ionsampler.pipeline.STAGES:
                    with tracer.span(f"pipeline.{stage}"):
                        ionsampler.pipeline.run_pipeline(cfg, (stage,), outdir, quiet=True)
        result.output_bytes = sum(p.stat().st_size for p in outdir.iterdir())
        self._check(outdir, result)

    def _check(self, outdir: Path, result: Result) -> None:
        num_modes, num_bosons = len(self.occupations), sum(self.occupations)
        report = json.loads((outdir / "verify_report.json").read_text())
        dist = json.loads((outdir / "distribution.json").read_text())
        outcomes = [tuple(row["s"]) for row in dist["outcomes"]]
        probs = np.array([row["p"] for row in dist["outcomes"]])
        samples = np.loadtxt(outdir / "samples.csv", delimiter=",", dtype=np.int64, ndmin=2)
        readouts = np.loadtxt(outdir / "readouts.csv", delimiter=",", skiprows=1,
                              dtype=np.int64, ndmin=2)
        errors = result.errors
        errors += checks.check_verify_report(report, NORM_TOL)
        errors += checks.check_distribution(outcomes, probs, num_modes, num_bosons, NORM_TOL)
        if not errors:
            errors += checks.check_samples(samples, outcomes, probs, NUM_SAMPLES,
                                           report.get("tvd_empirical_vs_exact"))
        if not errors:
            errors += checks.check_readouts(readouts, samples, FIDELITY, PREP_ERROR,
                                            MAX_REPETITIONS)

        schedule = json.loads((outdir / "schedule.json").read_text())
        steps = schedule.get("steps", [])
        elements = json.loads((outdir / "elements.json").read_text())["elements"]
        reported, overflow = readouts[:, 3], readouts[:, 5]
        result.counts = {
            "dd_compiler.segments": sum("segment_s" in s for s in steps),
            "dd_compiler.events": sum("phase" in s for s in steps),
            "dd_compiler.schedule_mb": (outdir / "schedule.json").stat().st_size / MB,
            "linear_optics.elements": len(elements),
            "boson_stats.outcomes": len(outcomes),
            "pipeline.distribution_mb": (outdir / "distribution.json").stat().st_size / MB,
            "pipeline.readouts_mb": (outdir / "readouts.csv").stat().st_size / MB,
            # The terminating bright round is a round too; an overflow has none.
            "detection.rounds": int(reported.sum() + (1 - overflow).sum()),
            "detection.overflow_share": float(overflow.mean()),
        }


class StatsWorkload:
    """``exact_distribution`` then ``sample_outcomes`` on a Haar unitary.

    There are no files here, so the iteration's output size is the bytes
    of the probabilities and samples it returns.
    """

    name = "stats8"
    why = ("6435 permanents at n = 8, then 20 000 samples: the permanent kernel "
           "does nearly all the work, with no file I/O, compile or detection")
    num_modes = 8

    def prepare(self, seed: int, workdir: Path):
        return ionsampler.linear_optics.haar_unitary(self.num_modes, seed), seed

    def run(self, inputs, outdir: Path, result: Result, tracer) -> None:
        u, seed = inputs
        occupations = (1,) * self.num_modes
        with _timed(result):
            dist = ionsampler.boson_stats.exact_distribution(u, occupations)
            samples = ionsampler.boson_stats.sample_outcomes(dist, NUM_SAMPLES, seed)
        result.output_bytes = dist.probabilities.nbytes + np.asarray(samples).nbytes
        result.counts = {"boson_stats.outcomes": len(dist.outcomes)}
        outcomes, probs = list(dist.outcomes), dist.probabilities
        errors = result.errors
        errors += checks.check_distribution(outcomes, probs, self.num_modes,
                                            sum(occupations), NORM_TOL)
        if not errors:
            picks = random.Random(seed).sample(range(len(outcomes)), PERMANENT_PICKS)
            errors += checks.check_probabilities(u, occupations, outcomes, probs, picks)
            errors += checks.check_samples(samples, outcomes, probs, NUM_SAMPLES)


WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            "demo4",
            "README Fourier demo through `ionsampler all`: detection is ~80% of the "
            "time while permanents, oracle and compiler barely run",
            [1, 1, 1, 1], "fourier",
        ),
        PipelineWorkload(
            "haar8",
            "`ionsampler all` on an 8-ion Haar target: 12 MB schedule JSON, 25k-segment "
            "simulate, 1716-state Fock oracle and 160k readouts all do real work",
            [1, 1, 1, 1, 1, 1, 0, 0], "haar",
        ),
        StatsWorkload(),
    )
}


def instrument(tracer) -> None:
    """Put spans on every layer's public functions, where callers look them up."""
    pipeline = ionsampler.pipeline
    stats = ionsampler.boson_stats
    schedule = ionsampler.dd_compiler.PulseSchedule

    def permanent_order(matrix, *args, **kwargs):
        return np.shape(matrix)[0]

    def fock_dim(operator, inputs, *args, **kwargs):
        return math.comb(sum(inputs) + len(inputs) - 1, len(inputs) - 1)

    for owner, attr, name, size in (
        (ionsampler.config, "load_config", "config.load_config", None),
        (pipeline, "build_chain", "ion_chain.build_chain", None),
        (pipeline, "coupling_matrix", "ion_chain.coupling_matrix", None),
        (pipeline, "reck_decompose", "linear_optics.reck_decompose", None),
        (pipeline, "compile_elements", "dd_compiler.compile_elements", None),
        (schedule, "to_json", "dd_compiler.schedule_to_json", None),
        (schedule, "from_json", "dd_compiler.schedule_from_json", None),
        (pipeline, "simulate_schedule", "dd_compiler.simulate_schedule", None),
        (pipeline, "exact_distribution", "boson_stats.exact_distribution", None),
        (stats, "exact_distribution", "boson_stats.exact_distribution", None),
        (stats, "permanent_ryser", "boson_stats.permanent", permanent_order),
        (pipeline, "fock_oracle_distribution", "boson_stats.fock_oracle", fock_dim),
        (pipeline, "sample_outcomes", "boson_stats.sample_outcomes", None),
        (stats, "sample_outcomes", "boson_stats.sample_outcomes", None),
        (pipeline, "sample_prepared_occupation", "detection.prepare", None),
        (pipeline, "measure_mode", "detection.measure_mode", None),
    ):
        tracer.wrap(owner, attr, name, size)
