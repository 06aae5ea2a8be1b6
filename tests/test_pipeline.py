"""Stage-level checks: the matrix codec, the detect stage's statistics,
atomic artifact writes, artifacts held for the later stages of a run and
the verify stage's record of skipped checks."""

import json
import pickle
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

import oracles
from ionsampler import boson_stats, pipeline
from ionsampler.boson_stats import samples_from_csv, samples_to_csv
from ionsampler.config import parse_config
from ionsampler.detection import prepare_mode_distribution
from ionsampler.linear_optics import haar_unitary


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


def test_matrix_json_round_trip_is_bitwise_exact():
    u = haar_unitary(3, seed=1)
    u[0] = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
    back = pipeline.matrix_from_json(json.loads(json.dumps(pipeline.matrix_to_json(u))))
    assert back.shape == u.shape and back.tobytes() == u.tobytes()


@pytest.mark.parametrize("im", [0.5, [[0.5, 0.5]]], ids=["scalar", "one-row"])
def test_matrix_parts_of_different_shapes_are_refused(im):
    # numpy would broadcast either im over the rows of re
    data = {"dim": 2, "re": np.eye(2).tolist(), "im": im}
    with pytest.raises(pipeline.PipelineError, match=r"im shape \(.*\) differs from re shape \(2, 2\)"):
        pipeline.matrix_from_json(data)


def test_detect_stage_matches_preparation_and_readout_pmfs(tmp_path):
    cfg = make_config()
    trials = 20_000
    ideal = (2, 1, 0)
    with open(tmp_path / "samples.csv", "w") as fh:
        samples_to_csv(np.tile(ideal, (trials, 1)), fh)
    pipeline.run_detect(cfg, pipeline.ArtifactDir(tmp_path))

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
    pipeline.run_detect(cfg, pipeline.ArtifactDir(tmp_path))
    first = (tmp_path / "readouts.csv").read_bytes()
    pipeline.run_detect(cfg, pipeline.ArtifactDir(tmp_path))
    assert (tmp_path / "readouts.csv").read_bytes() == first


def failing_writer(samples, fh):
    fh.write("2,1,0\n")
    raise OSError("disk full")


class TestAtomicWrites:
    def test_failed_json_write_keeps_old_artifact(self, tmp_path):
        path, out = tmp_path / "positions.json", pipeline.ArtifactDir(tmp_path)
        out.write("positions.json", np.array([0.0]))
        before = path.read_bytes()
        with pytest.raises(TypeError):  # json.dumps cannot encode the object
            out.write("positions.json", np.array([1.0, object()], dtype=object))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["positions.json"]

    def test_failed_csv_write_leaves_nothing(self, tmp_path, monkeypatch):
        cfg = make_config()
        out = pipeline.ArtifactDir(tmp_path)
        pipeline.run_positions(cfg, out)
        pipeline.run_decompose(cfg, out)
        pipeline.run_distribution(cfg, out)
        before = sorted(p.name for p in tmp_path.iterdir())

        monkeypatch.setattr(pipeline, "samples_to_csv", failing_writer)
        with pytest.raises(OSError, match="disk full"):
            pipeline.run_sample(cfg, out)
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestHeldArtifacts:
    @pytest.mark.parametrize("overrides", [
        {"target": {"kind": "haar", "seed": 3}},
        {"chain": {"num_ions": 5}, "input": {"occupations": [2, 1, 0, 0, 1]},
         "target": {"kind": "fourier"}},
    ], ids=["haar", "fourier-bunched"])
    def test_held_values_are_what_a_read_from_disk_returns(self, tmp_path, overrides):
        cfg = make_config(**overrides)
        out = pipeline.ArtifactDir(tmp_path)
        written, write = {}, out.write

        def recording_write(name, value):
            write(name, value)
            written[name] = value

        out.write = recording_write
        for run in pipeline.STAGES.values():
            run(cfg, out)
        for name, (_, _, read) in pipeline.ARTIFACTS.items():
            if read is None:
                continue
            held = out.read(name)
            assert held is written[name], name
            from_disk = pipeline.ArtifactDir(tmp_path).read(name)
            assert pickle.dumps(held) == pickle.dumps(from_disk), name

    def test_held_arrays_are_read_only(self, tmp_path):
        cfg = make_config()
        out = pipeline.ArtifactDir(tmp_path)
        for stage in ("positions", "couplings", "decompose", "distribution", "sample"):
            pipeline.STAGES[stage](cfg, out)
        dist, _ = out.read("distribution.json")
        _, coupling = out.read("couplings.json")
        arrays = (out.read("samples.csv"), dist.probabilities, coupling.rates,
                  out.read("positions.json"), out.read("target_unitary.json"))
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_verify_alone_reads_edited_samples(self, tmp_path):
        cfg = make_config()
        report = pipeline.run_pipeline(cfg, pipeline.STAGES, tmp_path, quiet=True)
        path = tmp_path / "samples.csv"
        lines = path.read_text().splitlines()
        lines[0] = ",".join(reversed(lines[0].split(",")))  # (0, 1, 2): another outcome
        path.write_text("\n".join(lines) + "\n")
        edited = pipeline.run_pipeline(cfg, ("verify",), tmp_path, quiet=True)
        assert report["tvd_empirical_vs_exact"] == 0.0
        assert edited["tvd_empirical_vs_exact"] == pytest.approx(1 / 200)

    @pytest.mark.parametrize("failure", ["write", "verify"])
    def test_nothing_is_held_after_a_failed_run(self, tmp_path, monkeypatch, failure):
        cfg = make_config(target={"kind": "haar", "seed": 3})
        with monkeypatch.context() as patch:
            if failure == "write":
                patch.setattr(pipeline, "samples_to_csv", failing_writer)
                raised = OSError
            else:
                def out_of_tolerance(*args):
                    raise pipeline.VerifyToleranceError("forced")

                patch.setattr(pipeline, "total_variation_distance", out_of_tolerance)
                raised = pipeline.VerifyToleranceError
            with pytest.raises(raised):
                pipeline.run_pipeline(cfg, pipeline.STAGES, tmp_path, quiet=True)
        # the distribution on disk becomes a point mass on its second outcome
        path = tmp_path / "distribution.json"
        dist = json.loads(path.read_text())
        for k, row in enumerate(dist["outcomes"]):
            row["p"] = float(k == 1)
        path.write_text(json.dumps(dist))
        pipeline.run_pipeline(cfg, ("sample",), tmp_path, quiet=True)
        with open(tmp_path / "samples.csv") as fh:
            samples = samples_from_csv(fh)
        assert (samples == dist["outcomes"][1]["s"]).all()


class TestVerifySkips:
    def run_through_distribution(self, cfg, outdir):
        for stage in ("positions", "decompose", "distribution"):
            pipeline.run_pipeline(cfg, (stage,), outdir, quiet=True)

    def test_over_guard_basis_is_reported(self, tmp_path, monkeypatch):
        cfg = make_config()
        self.run_through_distribution(cfg, tmp_path)
        # 3 bosons in 3 modes (10 states) raise 9 * C(4, 2) = 54 entries
        monkeypatch.setattr(boson_stats, "FOCK_MAX_ENTRIES", 53)
        report = pipeline.run_pipeline(cfg, ("verify",), tmp_path, quiet=True)
        assert "tvd_exact_vs_oracle" not in report
        assert report["skipped"] == {
            "tvd_exact_vs_oracle": "Fock oracle of 3 bosons in 3 modes raises 54 entries "
            "in its last step (10 states), which exceeds guard 53"
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
