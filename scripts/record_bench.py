#!/usr/bin/env python3
"""Record one benchmark run per workload into ``BENCH_<label>.json``.

    python3 scripts/record_bench.py pr16_change
    python3 scripts/record_bench.py pr16_parent --checkout ../parent
    python3 scripts/record_bench.py smoke --seconds 2 --output-dir /tmp

Runs ``perfbench/run.py --workload W --seed S --seconds T`` of the
checkout once for every workload its ``BENCHMARK.json`` names, each in a
fresh process from the checkout's root.  The file records the checkout's
git revision (and whether tracked files differ from it), the ``machine:``
line of the runs, and per workload the seed, seconds, command and the
last line of its output: the JSON result with the end-to-end metrics.

A speed claim compares two such files, of the parent and of the change,
recorded on the same machine.  A run that exits non-zero or prints a
different ``machine:`` line stops the script with exit 1 and no file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_PREFIX = "machine: "


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def run_workload(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(command[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    machine = [line[len(MACHINE_PREFIX):] for line in lines if line.startswith(MACHINE_PREFIX)]
    if not machine:
        sys.exit(f"error: {' '.join(command[1:])} printed no machine line")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "command": " ".join(["python3", *command[1:]]),
        "machine": json.loads(machine[0]),
        "result": json.loads(lines[-1]),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label", help="names the file BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout to benchmark (default: this one)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--output-dir", type=Path, default=ROOT,
                        help="directory of the written file (default: this checkout's root)")
    args = parser.parse_args()

    checkout = args.checkout.resolve()
    definition = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = definition["run_seconds"] if args.seconds is None else args.seconds
    runs = []
    for workload in (w["name"] for w in definition["workloads"]):
        runs.append(run_workload(checkout, workload, args.seed, seconds))
        print(f"{workload}: {json.dumps(runs[-1]['result']['metrics'])}")
    machines = {json.dumps(run.pop("machine"), sort_keys=True) for run in runs}
    if len(machines) != 1:
        sys.exit(f"error: the runs report different machines: {sorted(machines)}")
    record = {
        "label": args.label,
        "revision": git(checkout, "rev-parse", "HEAD"),
        "tracked_files_modified": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "machine": json.loads(machines.pop()),
        "runs": runs,
    }
    path = args.output_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
