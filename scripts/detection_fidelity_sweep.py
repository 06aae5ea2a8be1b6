#!/usr/bin/env python3
"""Misreport rate of the repeat-until-bright readout vs spin fidelity.

Monte Carlo over a fixed phonon number, compared against the closed-form
prediction 1 - f^(n+1) for the probability of reporting anything other
than the true n (any early false bright or trailing false dark).
"""

import argparse

import numpy as np

from ionsampler.detection import DetectionParams, measure_modes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--true-n", type=int, default=1)
    parser.add_argument("--trials", type=int, default=50000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fidelities", type=float, nargs="+",
        default=[0.90, 0.95, 0.99, 0.995, 0.999, 1.0],
    )
    args = parser.parse_args()

    print(f"true n = {args.true_n}, {args.trials} trials per point")
    print(f"{'f':>7}  {'measured':>10}  {'predicted':>10}  {'overflow':>9}")
    for f in args.fidelities:
        params = DetectionParams(readout_fidelity=f)
        rng = np.random.default_rng(args.seed)
        reported = measure_modes(np.full(args.trials, args.true_n), params, rng)
        wrong = np.mean(reported != args.true_n)
        overflow = np.mean(reported == params.max_repetitions)
        predicted = 1.0 - f ** (args.true_n + 1)
        print(f"{f:>7.3f}  {wrong:>10.5f}  {predicted:>10.5f}  {overflow:>9.2e}")


if __name__ == "__main__":
    main()
