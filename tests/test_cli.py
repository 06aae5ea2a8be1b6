"""End-to-end checks of the command-line pipeline."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ionsampler.boson_stats import OUTCOME_MAX_COUNT, exact_distribution
from ionsampler.cli import build_parser, main
from ionsampler.linear_optics import haar_unitary
from ionsampler.pipeline import STAGES, matrix_from_json, matrix_to_json

ARTIFACTS = [
    "positions.json",
    "couplings.json",
    "target_unitary.json",
    "elements.json",
    "schedule.json",
    "simulated_unitary.json",
    "distribution.json",
    "samples.csv",
    "readouts.csv",
    "verify_report.json",
    "manifest.json",
]


def write_config(tmp_path, **overrides):
    data = {
        "trap": {"omega_x_hz": 10e6, "omega_z_hz": 0.3e6},
        "chain": {"num_ions": 3},
        "input": {"occupations": [1, 1, 0]},
        "target": {"kind": "identity"},
        "dd": {"n_sub": 8},
        "sampling": {"num_samples": 200, "seed": 4},
        "detection": {"readout_fidelity": 1.0, "prep_error": 0.0, "seed": 4},
    }
    for key, value in overrides.items():
        data[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return path


def run(stage, config, outdir, *extra):
    return main([stage, "--config", str(config), "--output", str(outdir), *extra])


def ragged_outcomes(dist):
    """``dist`` with a mode moved from its first outcome to its second: the
    entry count is unchanged, so only a per-row check sees it."""
    rows = dist["outcomes"]
    rows[0]["s"], rows[1]["s"] = rows[0]["s"][:-1], rows[1]["s"] + [0]
    return dist


class TestFullRuns:
    def test_identity_pipeline(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("all", config, out) == 0
        for name in ARTIFACTS:
            assert (out / name).exists(), name

        # identity target with perfect detection: everything is exact
        report = json.loads((out / "verify_report.json").read_text())
        assert report["unitary_distance_achieved_vs_target"] < 1e-10
        assert report["tvd_exact_vs_oracle"] < 1e-10
        assert report["tvd_empirical_vs_exact"] < 1e-12
        assert report["normalization_residual"] < 1e-9
        assert "timings_s" not in report
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["timings_s"]) == [
            "positions", "couplings", "decompose", "compile", "simulate",
            "distribution", "sample", "detect", "verify",
        ]

        samples = (out / "samples.csv").read_text().splitlines()
        assert all(line == "1,1,0" for line in samples)
        readouts = (out / "readouts.csv").read_text().splitlines()
        assert readouts[0] == "trial,mode,true_n,reported_n,repetitions,overflow_flag"
        assert readouts[1] == "0,1,1,1,1,0"
        assert "verify report:" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("all", config, out, "--quiet") == 0
        first = {name: (out / name).read_bytes() for name in ARTIFACTS}
        assert run("all", config, out, "--quiet") == 0
        for name in ARTIFACTS:
            if name == "manifest.json":  # timings are wall-clock
                continue
            assert (out / name).read_bytes() == first[name], name

    def test_all_equals_one_stage_per_call(self, tmp_path):
        config = write_config(
            tmp_path,
            chain={"num_ions": 4},
            input={"occupations": [1, 1, 1, 0]},
            target={"kind": "haar", "seed": 5},
            detection={"readout_fidelity": 0.9, "prep_error": 0.05, "seed": 6},
        )
        assert run("all", config, tmp_path / "all", "--quiet") == 0
        for stage in STAGES:
            assert run(stage, config, tmp_path / "staged", "--quiet") == 0
        for name in ARTIFACTS:
            if name != "manifest.json":  # timings are wall-clock
                staged = (tmp_path / "staged" / name).read_bytes()
                assert (tmp_path / "all" / name).read_bytes() == staged, name

    def test_file_target_distribution_falls_back_to_target(self, tmp_path):
        matrix_path = tmp_path / "target.json"
        matrix_path.write_text(json.dumps(matrix_to_json(haar_unitary(3, seed=8))))
        config = write_config(tmp_path, target={"kind": "file", "path": str(matrix_path)})
        out = tmp_path / "out"
        # no compile/simulate: distribution must use the stored target
        for stage in ("decompose", "distribution", "sample", "verify"):
            assert run(stage, config, out, "--quiet") == 0
        dist = json.loads((out / "distribution.json").read_text())
        assert dist["source"] == "target"
        report = json.loads((out / "verify_report.json").read_text())
        assert report["tvd_exact_vs_oracle"] < 1e-8
        assert "unitary_distance_achieved_vs_target" not in report

    def test_sixteen_ions_pass_default_tolerances(self, tmp_path):
        # the simulated unitary must stay within the default unitarity
        # tolerance of 1e-10 however many slice products the schedule has
        config = write_config(
            tmp_path,
            chain={"num_ions": 16},
            input={"occupations": [1, 1] + [0] * 14},
            target={"kind": "haar", "seed": 3},
            dd={"n_sub": 64},
        )
        assert run("all", config, tmp_path / "out", "--quiet") == 0

    def test_configured_unitarity_tolerance_is_used_throughout(self, tmp_path):
        # a target whose defect (2e-10) the configured 1e-9 admits but the
        # library default 1e-10 would not
        matrix_path = tmp_path / "target.json"
        u = haar_unitary(3, seed=8) * (1 + 1e-10)
        matrix_path.write_text(json.dumps(matrix_to_json(u)))
        config = write_config(
            tmp_path,
            target={"kind": "file", "path": str(matrix_path)},
            tolerances={"unitarity": 1e-9},
        )
        out = tmp_path / "out"
        for stage in ("decompose", "distribution", "verify",
                      "positions", "couplings", "compile", "simulate", "verify"):
            assert run(stage, config, out, "--quiet") == 0, stage
        report = json.loads((out / "verify_report.json").read_text())
        assert report["tvd_exact_vs_oracle"] < 1e-8
        assert report["unitary_distance_achieved_vs_target"] < 1e-6

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(
            tmp_path,
            target={"kind": "haar", "seed": 1},
            sampling={"num_samples": 100, "seed": 1},
        )
        out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out, seed in ((out_a, "7"), (out_b, "7"), (out_c, "8")):
            for stage in ("decompose", "distribution", "sample"):
                assert run(stage, config, out, "--seed", seed, "--quiet") == 0
        assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
        assert (out_a / "samples.csv").read_bytes() != (out_c / "samples.csv").read_bytes()


class TestFailureModes:
    def test_missing_artifact_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run("sample", config, tmp_path / "empty") == 1
        err = capsys.readouterr().err
        assert "distribution.json" in err
        assert "distribution" in err

    def test_occupation_length_diagnostic(self, tmp_path, capsys):
        config = write_config(tmp_path, input={"occupations": [1, 1]})
        assert run("positions", config, tmp_path / "out") == 1
        assert "config.input.occupations" in capsys.readouterr().err

    def test_outcome_guard_is_exit_1(self, tmp_path, capsys):
        # 10 bosons in 20 modes have C(29, 10) = 20 030 010 outcomes
        matrix_path = tmp_path / "target.json"
        matrix_path.write_text(json.dumps(matrix_to_json(haar_unitary(20, seed=8))))
        config = write_config(
            tmp_path,
            chain={"num_ions": 20},
            input={"occupations": [1] * 10 + [0] * 10},
            target={"kind": "file", "path": str(matrix_path)},
        )
        out = tmp_path / "out"
        assert run("decompose", config, out, "--quiet") == 0
        assert run("distribution", config, out, "--quiet") == 1
        err = capsys.readouterr().err
        assert "20030010 outcomes" in err
        assert f"guard {OUTCOME_MAX_COUNT}" in err
        assert not (out / "distribution.json").exists()

    def test_foreign_samples_are_exit_1(self, tmp_path, capsys):
        # samples.csv left from a 3-ion run, verified against a 4-ion distribution
        out = tmp_path / "out"
        assert run("all", write_config(tmp_path), out, "--quiet") == 0
        config = write_config(tmp_path, chain={"num_ions": 4}, input={"occupations": [1, 1, 1, 0]})
        (out / "simulated_unitary.json").unlink()
        for stage in ("positions", "decompose", "distribution"):
            assert run(stage, config, out, "--quiet") == 0
        capsys.readouterr()
        assert run("verify", config, out, "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sample 0 (1, 1, 0) is not an outcome of 3 bosons in 4 modes")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,1,0\n0,1,1\n",
             "error: sample 0 (1, 1, 0) is not an outcome of 3 bosons in 4 modes"),
            ("", "error: no samples"),
        ],
        ids=["width", "empty"],
    )
    def test_detect_refuses_foreign_samples(self, tmp_path, capsys, text, message):
        config = write_config(tmp_path, chain={"num_ions": 4}, input={"occupations": [1, 1, 1, 0]})
        out = tmp_path / "out"
        out.mkdir()
        (out / "samples.csv").write_text(text)
        assert run("detect", config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (out / "readouts.csv").exists()

    @pytest.mark.parametrize("stage", ["detect", "verify"])
    def test_unparsable_samples_name_the_file(self, tmp_path, capsys, stage):
        config = write_config(tmp_path, chain={"num_ions": 4}, input={"occupations": [1, 1, 1, 0]})
        out = tmp_path / "out"
        for producer in ("positions", "decompose", "distribution"):
            assert run(producer, config, out, "--quiet") == 0
        (out / "samples.csv").write_text("1,x,2,1\n")
        capsys.readouterr()
        assert run(stage, config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith("error: cannot read samples.csv: ")

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"dim": 2, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"dim": 2, "re": [[1.0, "a"], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"dim": "x", "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": 0.5},
            {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0]]},
            {"dim": float("inf"), "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        ],
        ids=["array", "ragged", "non-numeric", "bad-dim", "scalar-im", "one-row-im", "dim-overflow"],
    )
    def test_malformed_target_file_is_exit_1(self, tmp_path, capsys, payload):
        matrix_path = tmp_path / "target.json"
        matrix_path.write_text(json.dumps(payload))
        config = write_config(
            tmp_path,
            chain={"num_ions": 2},
            input={"occupations": [1, 0]},
            target={"kind": "file", "path": str(matrix_path)},
        )
        assert run("decompose", config, tmp_path / "out", "--quiet") == 1
        assert f"cannot load target matrix {matrix_path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "artifact, stage, corrupt",
        [
            ("target_unitary.json", "distribution", lambda data: json.dumps(data)[:100]),
            ("target_unitary.json", "distribution", lambda data: "[1]"),
            ("target_unitary.json", "distribution", lambda data: json.dumps(
                {k: v for k, v in data.items() if k != "im"})),
            ("distribution.json", "sample", lambda data: json.dumps(ragged_outcomes(data))),
            ("distribution.json", "sample", lambda data: json.dumps({**data, "m": float("inf")})),
            # an m or n that the rows do not bear out must be refused before
            # anything of their size is built (a 500 000-mode table is 250 GB)
            ("distribution.json", "sample", lambda data: json.dumps({**data, "m": 500_000, "n": 1})),
            ("distribution.json", "sample", lambda data: json.dumps({**data, "m": 10**8, "n": 10**8})),
            ("distribution.json", "sample", lambda data: json.dumps({**data, "n": 10**8, "outcomes": [
                {"s": [10**8, 0], "p": 0.5}, {"s": [0, 10**8], "p": 0.5}]})),
            ("distribution.json", "sample", lambda data: json.dumps({**data, "outcomes": [
                {"s": [bool(v) for v in row["s"]], "p": row["p"]} for row in data["outcomes"]]})),
        ],
        ids=["truncated", "array", "no-im", "ragged-outcomes", "m-overflow",
             "huge-m", "huge-m-and-n", "huge-n", "boolean-outcomes"],
    )
    def test_malformed_artifact_is_exit_1(self, tmp_path, capsys, artifact, stage, corrupt):
        config = write_config(
            tmp_path,
            chain={"num_ions": 2},
            input={"occupations": [1, 0]},
            target={"kind": "fourier"},
        )
        out = tmp_path / "out"
        for producer in ("decompose", "distribution"):
            assert run(producer, config, out, "--quiet") == 0
        path = out / artifact
        path.write_text(corrupt(json.loads(path.read_text())))
        capsys.readouterr()
        assert run(stage, config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {artifact}: ")

    @pytest.mark.parametrize(
        "overrides, extra, field",
        [
            ({"target": {"kind": "haar", "seed": -3}}, (), "config.target.seed"),
            ({"sampling": {"seed": -1}}, (), "config.sampling.seed"),
            ({"detection": {"seed": -1}}, (), "config.detection.seed"),
            ({}, ("--seed", "-5"), "--seed"),
        ],
        ids=["target", "sampling", "detection", "flag"],
    )
    def test_negative_seed_is_exit_1_before_any_stage(self, tmp_path, capsys, overrides, extra, field):
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert run("all", config, out, "--quiet", *extra) == 1
        assert f"error: {field}: must be >= 0" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    def test_validity_rejection(self, tmp_path, capsys):
        config = write_config(tmp_path, trap={"omega_x_hz": 1e6, "omega_z_hz": 0.9e6})
        out = tmp_path / "out"
        assert run("positions", config, out) == 0
        assert run("couplings", config, out) == 1
        assert "validity" in capsys.readouterr().err

    def test_solver_stall_is_exit_2(self, tmp_path):
        config = write_config(
            tmp_path,
            chain={"num_ions": 5},
            input={"occupations": [1, 0, 0, 0, 0]},
            tolerances={"solver": 1e-30},
        )
        assert run("positions", config, tmp_path / "out") == 2

    def test_zero_solver_tolerance_is_exit_1_before_any_stage(self, tmp_path, capsys):
        config = write_config(tmp_path, tolerances={"solver": 0})
        out = tmp_path / "out"
        assert run("all", config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith("error: config.tolerances.solver: must be > 0")
        assert not out.exists()

    def test_zero_unitarity_tolerance_is_exit_1_before_any_stage(self, tmp_path, capsys):
        config = write_config(tmp_path, tolerances={"unitarity": 0})
        out = tmp_path / "out"
        assert run("all", config, out, "--quiet") == 1
        assert capsys.readouterr().err == "error: config.tolerances.unitarity: must be > 0, got 0.0\n"
        assert not out.exists()

    def test_numerical_failure_is_exit_1(self, tmp_path, capsys):
        # a zero normalization tolerance refuses every sum but exactly 1.0,
        # and this run's simulated unitary gives a sum that rounds off it
        config = write_config(
            tmp_path, target={"kind": "haar", "seed": 5}, tolerances={"normalization": 0}
        )
        out = tmp_path / "out"
        assert run("all", config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith("error: exact distribution sums to 1+")
        assert not (out / "distribution.json").exists()
        u = matrix_from_json(json.loads((out / "simulated_unitary.json").read_text()))
        dist = exact_distribution(u, (1, 1, 0), norm_tol=np.inf)
        assert dist.probabilities.sum() != 1.0

    def test_schedule_with_frames_is_exit_1(self, tmp_path, capsys):
        # a block written in the earlier {"tau_s", "frames", "n_sub"} form
        config = write_config(tmp_path, target={"kind": "haar", "seed": 5})
        out = tmp_path / "out"
        for stage in ("positions", "couplings", "decompose", "compile"):
            assert run(stage, config, out, "--quiet") == 0
        path = out / "schedule.json"
        data = json.loads(path.read_text())
        blocks = [entry["block"] for entry in data["steps"] if "block" in entry]
        assert blocks
        for block in blocks:
            frames = np.ones((1, data["dim"]), dtype=int)
            for g in block.pop("generators"):
                frames = np.concatenate([frames, frames * g])
            block["frames"] = frames.tolist()
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("simulate", config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith("error: cannot read schedule.json: ")
        assert not (out / "simulated_unitary.json").exists()

    @pytest.mark.parametrize("key, field", [("phase", "phi"), ("block", "tau_s")])
    def test_nan_schedule_value_is_exit_1(self, tmp_path, capsys, key, field):
        # a NaN phase would otherwise be simulated into an all-NaN unitary
        config = write_config(tmp_path, target={"kind": "haar", "seed": 5})
        out = tmp_path / "out"
        for stage in ("positions", "couplings", "decompose", "compile"):
            assert run(stage, config, out, "--quiet") == 0
        path = out / "schedule.json"
        data = json.loads(path.read_text())
        next(entry[key] for entry in data["steps"] if key in entry)[field] = float("nan")
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("simulate", config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith("error: cannot read schedule.json: ")
        assert not (out / "simulated_unitary.json").exists()

    def test_verify_tolerance_violation_is_exit_3(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("all", config, out, "--quiet") == 0
        dist_path = out / "distribution.json"
        dist = json.loads(dist_path.read_text())
        for row in dist["outcomes"]:
            row["p"] *= 1.5
        dist_path.write_text(json.dumps(dist))
        assert run("verify", config, out) == 3

    @pytest.mark.parametrize("stage, code, message", [
        ("sample", 1, "error: distribution is unnormalized (sum nan)"),
        ("verify", 3, "error: distribution normalization residual nan exceeds tolerance"),
    ])
    def test_nan_probability_is_refused(self, tmp_path, capsys, stage, code, message):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("all", config, out, "--quiet") == 0
        dist_path = out / "distribution.json"
        dist = json.loads(dist_path.read_text())
        dist["outcomes"][1]["p"] = float("nan")
        dist_path.write_text(json.dumps(dist))
        samples = (out / "samples.csv").read_bytes()
        capsys.readouterr()
        assert run(stage, config, out, "--quiet") == code
        assert capsys.readouterr().err.startswith(message)
        assert (out / "samples.csv").read_bytes() == samples

    @pytest.mark.parametrize("row, bad", [([1.5, 0.5], "(1.5, 0.5)"), ([3, -1], "(3, -1)")])
    def test_distribution_row_that_is_not_an_outcome_is_exit_1(self, tmp_path, capsys, row, bad):
        config = write_config(
            tmp_path, chain={"num_ions": 2}, input={"occupations": [1, 1]}, target={"kind": "fourier"}
        )
        out = tmp_path / "out"
        for producer in ("decompose", "distribution"):
            assert run(producer, config, out, "--quiet") == 0
        dist_path = out / "distribution.json"
        dist = json.loads(dist_path.read_text())
        dist["outcomes"][1]["s"] = row
        dist_path.write_text(json.dumps(dist))
        capsys.readouterr()
        assert run("sample", config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read distribution.json: outcome 1 {bad} is not an outcome of 2 bosons in 2 modes"
        )
        assert not (out / "samples.csv").exists()

    def test_simulated_unitary_with_one_row_of_im_is_exit_1(self, tmp_path, capsys):
        # broadcast down the rows, that row would make the matrix fail its
        # unitarity check, with a message that names no artifact
        config = write_config(tmp_path, target={"kind": "fourier"})
        out = tmp_path / "out"
        assert run("all", config, out, "--quiet") == 0
        path = out / "simulated_unitary.json"
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "im": data["im"][1:2]}))
        capsys.readouterr()
        assert run("distribution", config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot read simulated_unitary.json: matrix payload im shape (1, 3) differs"
        )

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[::-1], "outcome 0 (0, 0, 2) breaks the canonical order"),
        (lambda rows: rows[:3], "outcome 3 of 2 bosons in 3 modes is missing"),
        (lambda rows: rows[:3] + rows[2:], "outcome 3 (1, 0, 1) breaks the canonical order"),
    ], ids=["reversed", "dropped", "duplicated"])
    def test_distribution_rows_out_of_canonical_order_are_exit_1(self, tmp_path, capsys, edit, message):
        config = write_config(tmp_path, target={"kind": "haar", "seed": 1})
        out = tmp_path / "out"
        for producer in ("decompose", "distribution"):
            assert run(producer, config, out, "--quiet") == 0
        dist_path = out / "distribution.json"
        dist = json.loads(dist_path.read_text())
        rows = edit(dist["outcomes"])
        total = sum(row["p"] for row in rows)
        dist["outcomes"] = [{"s": row["s"], "p": row["p"] / total} for row in rows]
        dist_path.write_text(json.dumps(dist))
        capsys.readouterr()
        assert run("sample", config, out, "--quiet") == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read distribution.json: {message}")
        assert not (out / "samples.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["all", "--config", str(bad), "--output", str(tmp_path / "o")]) == 1
        assert "required field missing" in capsys.readouterr().err

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert run("positions", config, tmp_path / "out", "--quiet") == 0
        assert capsys.readouterr().out == ""


def test_runs_without_scipy(tmp_path):
    # the package needs numpy alone: with scipy blocked, so that any import of
    # it raises, a 4-ion Haar run of every stage and the Fock-space oracle, on
    # a unitary and on an evolved generator, still succeed
    config = write_config(
        tmp_path,
        chain={"num_ions": 4},
        input={"occupations": [1, 1, 1, 0]},
        target={"kind": "haar", "seed": 5},
    )
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from ionsampler.boson_stats import fock_oracle_distribution\n"
        "from ionsampler.cli import main\n"
        "from ionsampler.linear_optics import evolve_modes, haar_unitary\n"
        "fock_oracle_distribution(haar_unitary(4, seed=1), (1, 1, 1, 0))\n"
        "fock_oracle_distribution(evolve_modes(np.ones((3, 3)), 0.5), (2, 0, 1))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, "all", "--config", str(config),
         "--output", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


class TestParser:
    def test_help_names_every_stage_and_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for word in (*(f"{stage}:" for stage in (*STAGES, "all")), "--config", "--output", "--seed", "--quiet"):
            assert word in text

    @pytest.mark.parametrize("argv, message", [
        (["bogus", "--config", "run.json"], "argument STAGE: invalid choice: 'bogus'"),
        (["all"], "the following arguments are required: --config"),
        (["--config", "run.json"], "the following arguments are required: STAGE"),
        (["all", "--config", "run.json", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    ], ids=["unknown-stage", "no-config", "no-stage", "bad-seed"])
    def test_usage_errors_are_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(["verify", "--config", "run.json"])
        assert (args.stage, args.config, args.output, args.seed, args.quiet) == (
            "verify", "run.json", "out", None, False)

    def test_flags_may_come_before_the_stage(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--output", str(out), "--quiet", "positions"]) == 0
        assert (out / "positions.json").exists()


def test_module_entry_point(tmp_path):
    config = write_config(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "ionsampler", "positions",
         "--config", str(config), "--output", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "positions" in result.stdout
