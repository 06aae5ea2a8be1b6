"""Command-line front-end.

One positional STAGE, a pipeline stage or ``all``, and the same flags for
every stage; single-stage invocations read upstream artifacts from the
output directory and fail (exit 1) when those are missing.

Exit codes: 0 success, 1 configuration, validation or normalization error,
2 equilibrium solver failure, 3 verify-stage tolerance violation.
"""

from __future__ import annotations

import argparse
import sys

from .boson_stats import NormalizationError
from .config import ConfigError, load_config
from .ion_chain import ConvergenceError, ValidityError
from .pipeline import STAGES, PipelineError, VerifyToleranceError, run_pipeline

_STAGE_HELP = {
    "positions": "solve ion equilibrium positions",
    "couplings": "hopping-rate matrix from solved positions",
    "decompose": "build the target unitary and its triangular element mesh",
    "compile": "compile elements into a decoupling pulse schedule",
    "simulate": "evolve the schedule under the full coupling matrix",
    "distribution": "exact outcome distribution of the (simulated) unitary",
    "sample": "draw outcome samples from the stored distribution",
    "detect": "run the repeat-until-bright readout over the samples",
    "verify": "cross-check artifacts and write verify_report.json",
    "all": "run every stage in order",
}

_REPORT_LABELS = {
    "unitary_distance_achieved_vs_target": "unitary distance (achieved vs target)",
    "tvd_exact_vs_oracle": "TVD (exact vs Fock-space oracle)",
    "tvd_empirical_vs_exact": "TVD (empirical vs exact)",
    "normalization_residual": "normalization residual",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionsampler",
        description="Trapped-ion boson sampling: chain physics, pulse "
        "compilation, exact sampling, and detection simulation.",
    )
    parser.add_argument("stage", choices=(*STAGES, "all"), metavar="STAGE",
                        help="; ".join(f"{name}: {text}" for name, text in _STAGE_HELP.items()))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", default="out", help="artifact directory (default: ./out)")
    parser.add_argument("--seed", type=int, help="override every stage seed (target, sampling, detection)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _print_report(report: dict) -> None:
    print("verify report:")
    for key, label in _REPORT_LABELS.items():
        if key in report:
            print(f"  {label}: {report[key]:.6e}")
    for key, reason in report.get("skipped", {}).items():
        print(f"  skipped {_REPORT_LABELS.get(key, key)}: {reason}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        stages = STAGES if args.stage == "all" else (args.stage,)
        report = run_pipeline(cfg, stages, args.output, quiet=args.quiet)
    except VerifyToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, NormalizationError, PipelineError, ValidityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report is not None and not args.quiet:
        _print_report(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
