#!/usr/bin/env python3
"""Benchmark of the ionsampler pipeline: one workload per process.

    python3 perfbench/run.py --workload haar8 --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all     # each workload in turn

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy, and the run fails without one.
``BENCHMARK.json`` at the root names the workloads and the metrics with
their units and regression bounds.  The workloads (see ``workloads.py``)
are ``demo4``, ``haar8`` and ``stats8``; their inputs are generated from
``--seed``.  Iterations run back to back until another would overrun
``--seconds``, and every iteration's outputs are checked for correctness
(``checks.py``).  The process keeps the thread count numpy's BLAS chose.

``--trace 0`` reports the end-to-end metrics, from untraced iterations:

* ``wall_s`` - median wall time of one iteration (the in-process ``all``
  run, or the ``stats8`` library calls);
* ``setup_s`` - median over fresh interpreters of the cost paid once per
  process: interpreter start, the imports and generating the inputs;
* ``peak_rss_mb`` - ``ru_maxrss`` of this process, which ran the workload;
* ``artifact_mb`` - output bytes of one iteration: files written to the
  output directory, or the arrays ``stats8`` returns.

The error rate is ``failed / attempted`` in the result line; it is not a
metric because it is zero on a correct program.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics: span times of each layer's public functions, exact
counts read from the outputs, ``process.cpu_s`` and ``trace.overhead_s``
(traced minus untraced median wall time).  A layer a workload does not
call reports 0.  Spans are written to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MB = 1e6
SPAN_COUNTS = ("boson_stats.permanent_calls", "boson_stats.ryser_terms",
               "boson_stats.fock_dim", "detection.measure_mode_calls")


def load_definition() -> dict:
    """BENCHMARK.json names the workloads and every metric with its unit."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"error: {path} not found")
    with open(path) as fh:
        return json.load(fh)


def parse_args(argv, definition: dict):
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"],
                        help="workload to run; 'all' runs each in its own process")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", type=Path,
                        help="import and generate the inputs into DIR, then exit")
    return parser.parse_args(argv)


def import_package():
    """Import ionsampler from this checkout's src/, or exit without a result."""
    if not (SRC / "ionsampler" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'ionsampler'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ionsampler

    if not Path(ionsampler.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: ionsampler was imported from {ionsampler.__file__}, not {SRC}")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python_threads": threading.active_count(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def measure_setup(args, workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import and generate the inputs."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"setup{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(probe_dir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return times


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, iteration: int) -> dict:
    """Per-layer metrics of one traced iteration, from its spans."""
    by_name: dict[str, list] = {}
    for span in tracer.iteration_spans(iteration):
        by_name.setdefault(span[0], []).append(span)
    metrics = {f"{name}_s": sum(s[2] - s[1] for s in group) for name, group in by_name.items()}
    metrics["pipeline.self_s"] = tracer.self_time(
        {name for name in by_name if name.startswith("pipeline.")}, iteration)
    permanents = by_name.get("boson_stats.permanent", [])
    metrics["boson_stats.permanent_calls"] = len(permanents)
    metrics["boson_stats.permanent_us"] = 1e6 * median([s[2] - s[1] for s in permanents])
    # Computed, not measured: Ryser's formula costs 2^n * n per order-n permanent.
    metrics["boson_stats.ryser_terms"] = sum(2 ** s[5] * s[5] for s in permanents)
    metrics["boson_stats.fock_dim"] = sum(s[5] for s in by_name.get("boson_stats.fock_oracle", []))
    metrics["detection.measure_mode_calls"] = len(by_name.get("detection.measure_mode", []))
    return metrics


def run_loop(args, workload, inputs, outdir: Path, tracer):
    """Iterate until another iteration (with its traced twin) would overrun."""
    import workloads

    plain, traced, unit_times = [], [], []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        plain.append(workloads.run_checked(workload, inputs, outdir))
        if args.trace:
            tracer.iteration = len(traced)
            workloads.instrument(tracer)
            try:
                traced.append(workloads.run_checked(workload, inputs, outdir, tracer))
            finally:
                tracer.restore()
        unit_times.append(time.perf_counter() - unit_start)
        if time.perf_counter() - start + median(unit_times) > args.seconds:
            return plain, traced


def check_repeatable(results, traced, per_iteration) -> None:
    """Counts read from the outputs, and counts of spans, must repeat exactly
    between iterations on the same inputs."""
    reference = next((r.counts for r in results if not r.errors), None)
    for r in results:
        if not r.errors and r.counts != reference:
            r.errors.append(f"counts {r.counts} differ from another iteration's {reference}")
    for r, m in zip(traced, per_iteration):
        if not r.errors and any(m[c] != per_iteration[0][c] for c in SPAN_COUNTS):
            r.errors.append("span counts differ between traced iterations")


def run_all(args, definition: dict) -> int:
    """Run every workload, one process each, one after the other."""
    code = 0
    for w in definition["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        sys.stdout.flush()
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    definition = load_definition()
    args = parse_args(argv, definition)
    if args.workload == "all":
        return run_all(args, definition)
    import_package()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only is not None:
        workload.prepare(args.seed, args.setup_only)
        return 0

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer()
    try:
        setup_times = [] if args.trace else measure_setup(args, workdir)
        inputs = workload.prepare(args.seed, workdir)
        plain, traced = run_loop(args, workload, inputs, workdir / "out", tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = plain + traced
    per_iteration = [layer_metrics(tracer, k) for k in range(len(traced))]
    check_repeatable(results, traced, per_iteration)
    for r in results:
        for message in r.errors:
            print(f"FAILED iteration: {message}", file=sys.stderr)
    failed = sum(1 for r in results if r.errors)

    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced"
          + (f" and {len(traced)} traced" if args.trace else "") + " iterations")
    print(f"error_rate: {failed / len(results):.4f} ({failed} failed of {len(results)})")
    # An iteration that raised before its clock started has no times.
    walls = [r.wall_s for r in plain if math.isfinite(r.wall_s)]
    if args.trace:
        measured = {name: median([m.get(name, 0) for m in per_iteration])
                    for name in set().union(*per_iteration)}
        measured.update({name: per_iteration[0][name] for name in SPAN_COUNTS})
        measured.update(next((r.counts for r in results if not r.errors), {}))
        measured["process.cpu_s"] = median([r.cpu_s for r in plain if math.isfinite(r.cpu_s)])
        measured["trace.overhead_s"] = (
            median([r.wall_s for r in traced if math.isfinite(r.wall_s)]) - median(walls))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        declared = definition["per_layer"]
    else:
        measured = {
            "wall_s": median(walls),
            "setup_s": median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
            "artifact_mb": median([r.output_bytes for r in plain]) / MB,
        }
        print("wall_s per iteration: " + ", ".join(f"{w:.3f}" for w in walls) + " s")
        print("setup_s per interpreter: " + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
        declared = definition["end_to_end"]
    # A layer this workload does not call reads 0.
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
