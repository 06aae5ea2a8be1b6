"""Stage-level checks: the detect stage's statistics, atomic artifact
writes and the verify stage's record of skipped checks."""

import json
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

import oracles
from ionsampler import boson_stats, pipeline
from ionsampler.boson_stats import samples_to_csv
from ionsampler.config import parse_config
from ionsampler.detection import prepare_mode_distribution


def make_config(**overrides):
    data = {
        "trap": {"omega_x_hz": 10e6, "omega_z_hz": 0.3e6},
        "chain": {"num_ions": 3},
        "input": {"occupations": [2, 1, 0]},
        "target": {"kind": "identity"},
        "dd": {"n_sub": 8},
        "sampling": {"num_samples": 200, "seed": 4},
        "detection": {"readout_fidelity": 0.95, "prep_error": 0.1,
                      "max_repetitions": 6, "seed": 11},
    }
    data.update(overrides)
    return parse_config(data)


def test_detect_stage_matches_preparation_and_readout_pmfs(tmp_path):
    cfg = make_config()
    trials = 20_000
    ideal = (2, 1, 0)
    with open(tmp_path / "samples.csv", "w") as fh:
        samples_to_csv(np.tile(ideal, (trials, 1)), fh)
    pipeline.run_detect(cfg, tmp_path)

    lines = (tmp_path / "readouts.csv").read_text().splitlines()
    assert lines[0] == "trial,mode,true_n,reported_n,repetitions,overflow_flag"
    rows = np.array([[int(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (3 * trials, 6)
    trial, mode, true_n, reported, repetitions, overflow = rows.T
    np.testing.assert_array_equal(trial, np.repeat(np.arange(trials), 3))
    np.testing.assert_array_equal(mode, np.tile([1, 2, 3], trials))
    np.testing.assert_array_equal(repetitions, reported)
    np.testing.assert_array_equal(overflow, reported == 6)

    # per mode, (true_n, reported_n) pairs against prep(true) * readout(reported | true)
    for m, n_ideal in enumerate(ideal, start=1):
        counts = Counter(zip(true_n[mode == m], reported[mode == m]))
        expected = {
            (n, r): trials * p_prep * p_read
            for n, p_prep in prepare_mode_distribution(n_ideal, 0.1).items()
            for r, p_read in oracles.reported_n_pmf(n, 0.95, 6).items()
        }
        assert set(counts) <= set(expected)
        # bins expected below 5 counts are pooled into one
        big = sorted(k for k, e in expected.items() if e >= 5)
        observed = [counts[k] for k in big] + [trials - sum(counts[k] for k in big)]
        predicted = [expected[k] for k in big] + [trials - sum(expected[k] for k in big)]
        assert chisquare(observed, predicted).pvalue > 1e-3


def test_detect_reruns_are_byte_identical(tmp_path):
    cfg = make_config()
    with open(tmp_path / "samples.csv", "w") as fh:
        samples_to_csv(np.tile((2, 1, 0), (50, 1)), fh)
    pipeline.run_detect(cfg, tmp_path)
    first = (tmp_path / "readouts.csv").read_bytes()
    pipeline.run_detect(cfg, tmp_path)
    assert (tmp_path / "readouts.csv").read_bytes() == first


class TestAtomicWrites:
    def test_failed_json_write_keeps_old_artifact(self, tmp_path):
        path = tmp_path / "positions.json"
        pipeline._write_json(path, {"positions": [0.0]})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            pipeline._write_json(path, {"positions": [1.0, 2.0], "bad": object()})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["positions.json"]

    def test_failed_csv_write_leaves_nothing(self, tmp_path, monkeypatch):
        cfg = make_config()
        pipeline.run_positions(cfg, tmp_path)
        pipeline.run_decompose(cfg, tmp_path)
        pipeline.run_distribution(cfg, tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())

        def failing_writer(samples, fh):
            fh.write("2,1,0\n")
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "samples_to_csv", failing_writer)
        with pytest.raises(OSError, match="disk full"):
            pipeline.run_sample(cfg, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestVerifySkips:
    def run_through_distribution(self, cfg, outdir):
        for stage in ("positions", "decompose", "distribution"):
            pipeline.run_pipeline(cfg, (stage,), outdir, quiet=True)

    def test_over_guard_basis_is_reported(self, tmp_path, monkeypatch):
        cfg = make_config()
        self.run_through_distribution(cfg, tmp_path)
        # the 10-state basis of 3 bosons in 3 modes has 46 generator entries
        monkeypatch.setattr(boson_stats, "FOCK_MAX_ENTRIES", 45)
        report = pipeline.run_pipeline(cfg, ("verify",), tmp_path, quiet=True)
        assert "tvd_exact_vs_oracle" not in report
        assert report["skipped"] == {
            "tvd_exact_vs_oracle": "Fock generator of 3 bosons in 3 modes has 46 entries "
            "(10 states), which exceeds guard 45"
        }
        on_disk = json.loads((tmp_path / "verify_report.json").read_text())
        assert on_disk["skipped"] == report["skipped"]

    def test_missing_source_matrix_is_reported(self, tmp_path):
        cfg = make_config()
        self.run_through_distribution(cfg, tmp_path)
        (tmp_path / "target_unitary.json").unlink()
        report = pipeline.run_pipeline(cfg, ("verify",), tmp_path, quiet=True)
        assert "tvd_exact_vs_oracle" not in report
        assert "missing" in report["skipped"]["tvd_exact_vs_oracle"]

    def test_oracle_runs_within_guard(self, tmp_path):
        cfg = make_config()
        self.run_through_distribution(cfg, tmp_path)
        report = pipeline.run_pipeline(cfg, ("verify",), tmp_path, quiet=True)
        assert report["tvd_exact_vs_oracle"] < 1e-10
        assert "skipped" not in report
