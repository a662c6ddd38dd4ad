"""End-to-end command line checks: every subcommand through main()."""

import configparser
import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bodyframe_io
from bodyframe_io.cli import emit_report, main
from bodyframe_io.dataset_io import load_sequence, read_corpus_manifest
from bodyframe_io.imu_model import RepresentationKind
from bodyframe_io.motion_model import MotionNet, MotionNetConfig

RUN_INI = """\
[simulator]
kind = figure8
duration = 10.0
imu_rate = 50.0
rate = 0.7853981633974483
[ekf]
update_rate = 10.0
[eval]
rte_interval = 2.0
[motion]
window = 50
stride = 25
"""


def read_report(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A corpus with one simulated sequence plus shared output paths."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.ini"
    cfg.write_text(RUN_INI)
    data = root / "data"
    rc = main(
        ["simulate", "--data", str(data), "--name", "seq01",
         "--config", str(cfg), "--seed", "3"]
    )
    assert rc == 0
    return {"root": root, "cfg": str(cfg), "data": str(data)}


@pytest.fixture(scope="module")
def dr_csv(workdir):
    out = str(workdir["root"] / "dr.csv")
    assert main(["deadreckon", "--data", workdir["data"], "--name", "seq01",
                 "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def ekf_csv(workdir):
    out = str(workdir["root"] / "ekf.csv")
    rc = main(
        ["run-ekf", "--data", workdir["data"], "--name", "seq01",
         "--provider", "oracle", "--config", workdir["cfg"],
         "--seed", "3", "--out", out]
    )
    assert rc == 0
    return out


def tiny_model(window=50, seed=1):
    return MotionNet(
        MotionNetConfig(
            representation=RepresentationKind.BODY_PLUS_ATTITUDE,
            window=window,
            latent_dim=8,
            gru_layers=1,
            imu_encoder_channels=(4,),
            attitude_encoder_channels=(4,),
            dropout_p=0.0,
            kernel=3,
            seed=seed,
        )
    )


class TestTopLevel:
    def test_dump_defaults_prints_parseable_ini(self, capsys):
        assert main(["--dump-defaults"]) == 0
        parser = configparser.ConfigParser()
        parser.read_string(capsys.readouterr().out)
        assert "simulator" in parser.sections()
        assert parser.get("ekf", "update_rate") == "20.0"

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_lists_consumed_config_keys(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run-ekf", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "config keys used" in text
        assert "ekf.update_rate" in text

    def test_every_subcommand_documents_its_keys(self, capsys):
        for name in ("simulate", "deadreckon", "train-corrector",
                     "train-motion", "run-ekf", "eval", "analyze"):
            with pytest.raises(SystemExit):
                main([name, "--help"])
            assert "config keys used" in capsys.readouterr().out


    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported only where a waypoint spline is built
        src = str(Path(bodyframe_io.__file__).resolve().parents[1])
        code = "import sys, bodyframe_io.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[ekf]\nbogus = 1\n")
        rc = main(["simulate", "--data", str(tmp_path / "d"), "--name", "s",
                   "--config", str(bad)])
        assert rc == 2
        assert "ekf.bogus" in capsys.readouterr().err

    def test_missing_sequence_exits_3(self, tmp_path, capsys):
        rc = main(["deadreckon", "--data", str(tmp_path), "--name", "ghost",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "ghost" in capsys.readouterr().err

    def test_update_rate_above_imu_rate_exits_2(self, workdir, tmp_path):
        fast = tmp_path / "fast.ini"
        fast.write_text("[ekf]\nupdate_rate = 500.0\n")
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "zero", "--config", str(fast),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_network_provider_without_weights_exits_2(self, workdir, tmp_path):
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "network", "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_degenerate_latents_exit_4(self, workdir, tmp_path, capsys):
        model = tiny_model()
        for param in model.parameters().values():
            param[...] = 0.0
        weights = tmp_path / "zero.bfwt"
        model.save(str(weights))
        rc = main(["analyze", "--data", workdir["data"], "--weights",
                   str(weights), "--config", workdir["cfg"],
                   "--out", str(tmp_path / "spec.csv")])
        assert rc == 4
        assert "numerical error" in capsys.readouterr().err


class TestSimulate:
    def test_byte_identical_across_runs(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(RUN_INI)
        outs = []
        for sub in ("a", "b"):
            data = tmp_path / sub
            assert main(["simulate", "--data", str(data), "--name", "s",
                         "--config", str(cfg), "--seed", "11"]) == 0
            outs.append(data)
        for fname in ("s/imu.csv", "s/groundtruth.csv", "corpus.cfg"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, fname

    def test_env_seed_matches_explicit_seed(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.ini"
        cfg.write_text(RUN_INI)
        explicit = tmp_path / "x"
        main(["simulate", "--data", str(explicit), "--name", "s",
              "--config", str(cfg), "--seed", "11"])
        monkeypatch.setenv("BODYFRAME_IO_SEED", "11")
        from_env = tmp_path / "e"
        main(["simulate", "--data", str(from_env), "--name", "s",
              "--config", str(cfg)])
        assert (explicit / "s/imu.csv").read_bytes() == (
            from_env / "s/imu.csv"
        ).read_bytes()

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BODYFRAME_IO_SEED", "eleven")
        rc = main(["simulate", "--data", str(tmp_path / "d"), "--name", "s"])
        assert rc == 2
        assert "BODYFRAME_IO_SEED" in capsys.readouterr().err

    def test_manifest_accumulates_roles(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(RUN_INI)
        data = str(tmp_path / "d")
        main(["simulate", "--data", data, "--name", "train01",
              "--config", str(cfg), "--seed", "1"])
        main(["simulate", "--data", data, "--name", "test01", "--role",
              "unseen", "--config", str(cfg), "--seed", "2"])
        entries = {e.name: e.role for e in read_corpus_manifest(data)}
        assert entries == {"train01": "seen", "test01": "unseen"}

    def test_unknown_role_rejected_before_writing(self, tmp_path):
        data = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--data", str(data), "--name", "s", "--role", "holdout"])
        assert exc.value.code == 2
        assert not (data / "s").exists()


class TestPipeline:
    def test_oracle_ekf_beats_dead_reckoning(self, workdir, ekf_csv, dr_csv,
                                             tmp_path, capsys):
        report = str(tmp_path / "report.csv")
        rc = main(["eval", "--data", workdir["data"],
                   "--estimate", f"seq01={ekf_csv}",
                   "--baseline", f"seq01={dr_csv}",
                   "--config", workdir["cfg"], "--out", report])
        assert rc == 0
        rows = read_report(report)
        assert [r["seq"] for r in rows] == ["seq01", "mean"]
        assert float(rows[0]["ate_m"]) < 0.5
        assert float(rows[0]["vs_baseline_pct"]) > 0.0
        # the aligned text shows the same formatted values
        text = capsys.readouterr().out
        assert rows[0]["ate_m"] in text

    def test_truth_as_estimate_scores_perfectly(self, workdir, tmp_path):
        from bodyframe_io.dataset_io import write_trajectory_csv

        imu, truth, _ = load_sequence(os.path.join(workdir["data"], "seq01"))
        est = str(tmp_path / "truth.csv")
        write_trajectory_csv(est, [s.t for s in truth], truth,
                             [0.0] * len(truth))
        report = str(tmp_path / "report.csv")
        rc = main(["eval", "--data", workdir["data"],
                   "--estimate", f"seq01={est}",
                   "--config", workdir["cfg"], "--out", report])
        assert rc == 0
        row = read_report(report)[0]
        assert float(row["ate_m"]) == pytest.approx(0.0, abs=1e-6)
        assert float(row["rte_m"]) == pytest.approx(0.0, abs=1e-6)
        assert float(row["auc"]) == 1.0
        assert row["vs_baseline_pct"] == ""

    def test_single_sequence_mean_equals_row(self, workdir, ekf_csv, tmp_path):
        report = str(tmp_path / "report.csv")
        main(["eval", "--data", workdir["data"],
              "--estimate", f"seq01={ekf_csv}",
              "--config", workdir["cfg"], "--out", report])
        rows = read_report(report)
        assert rows[1]["seq"] == "mean"
        assert rows[1]["ate_m"] == rows[0]["ate_m"]

    def test_empty_report(self, workdir, tmp_path, capsys):
        report = str(tmp_path / "report.csv")
        rc = main(["eval", "--data", workdir["data"], "--out", report])
        assert rc == 0
        assert "no sequences" in capsys.readouterr().out
        with open(report) as fh:
            lines = fh.read().splitlines()
        assert lines == ["seq,ate_m,rte_m,auc,vs_baseline_pct"]

    def test_row_count_mismatch_exits_3(self, workdir, ekf_csv, tmp_path):
        truncated = str(tmp_path / "short.csv")
        with open(ekf_csv) as src, open(truncated, "w") as dst:
            dst.writelines(list(src)[:100])
        rc = main(["eval", "--data", workdir["data"],
                   "--estimate", f"seq01={truncated}"])
        assert rc == 3

    def test_dead_reckoning_output_shape(self, workdir, dr_csv):
        imu, _, _ = load_sequence(os.path.join(workdir["data"], "seq01"))
        with open(dr_csv) as fh:
            rows = fh.read().splitlines()
        assert len(rows) == len(imu) + 1  # header + one row per frame

    def test_analyze_writes_spectrum(self, workdir, tmp_path, capsys):
        model = tiny_model()
        weights = tmp_path / "net.bfwt"
        model.save(str(weights))
        out = str(tmp_path / "spectrum.csv")
        rc = main(["analyze", "--data", workdir["data"], "--weights",
                   str(weights), "--config", workdir["cfg"], "--out", out])
        assert rc == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "k,cumulative_fraction"
        fractions = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(fractions) == 8  # encoder feature dimension
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0, abs=1e-9)


class TestTrainers:
    def test_train_corrector_writes_loadable_weights(self, workdir, tmp_path):
        from bodyframe_io.corrector import LearnedAffineCorrector

        cfg = tmp_path / "fast.ini"
        cfg.write_text("[corrector]\nepochs = 5\n")
        out = str(tmp_path / "corr.bfwt")
        rc = main(["train-corrector", "--data", workdir["data"],
                   "--config", str(cfg), "--seed", "0", "--out", out])
        assert rc == 0
        assert isinstance(LearnedAffineCorrector.load(out),
                          LearnedAffineCorrector)

    def test_train_motion_writes_loadable_weights(self, workdir, tmp_path):
        cfg = tmp_path / "fast.ini"
        cfg.write_text(
            "[motion]\nwindow = 50\nstride = 50\nlatent_dim = 8\n"
            "gru_layers = 1\nimu_encoder_channels = 4\n"
            "attitude_encoder_channels = 4\nkernel = 3\ndropout_p = 0.0\n"
            "epochs = 2\nbatch_size = 4\n"
        )
        out = str(tmp_path / "net.bfwt")
        rc = main(["train-motion", "--data", workdir["data"],
                   "--config", str(cfg), "--seed", "0", "--out", out])
        assert rc == 0
        model = MotionNet.load(out)
        assert model.config.window == 50

    def test_corrector_weights_accepted_by_run_ekf(self, workdir, tmp_path):
        cfg = tmp_path / "fast.ini"
        cfg.write_text("[corrector]\nepochs = 5\n[ekf]\nupdate_rate = 10.0\n")
        corr = str(tmp_path / "corr.bfwt")
        main(["train-corrector", "--data", workdir["data"], "--config",
              str(cfg), "--seed", "0", "--out", corr])
        out = str(tmp_path / "traj.csv")
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "oracle", "--corrector-weights", corr,
                   "--config", str(cfg), "--seed", "0", "--out", out])
        assert rc == 0
        assert os.path.exists(out)


class TestReport:
    def test_aggregate_is_unweighted_mean(self, tmp_path):
        rows = [
            {"seq": "a", "ate_m": 0.2, "rte_m": 0.1, "auc": 0.9,
             "vs_baseline_pct": 50.0},
            {"seq": "b", "ate_m": 0.4, "rte_m": 0.3, "auc": 0.7,
             "vs_baseline_pct": 10.0},
        ]
        csv_path = str(tmp_path / "r.csv")
        text = emit_report(rows, csv_path=csv_path)
        parsed = read_report(csv_path)
        assert float(parsed[2]["ate_m"]) == pytest.approx(0.3)
        assert float(parsed[2]["auc"]) == pytest.approx(0.8)
        assert float(parsed[2]["vs_baseline_pct"]) == pytest.approx(30.0)
        # text and CSV agree value for value
        for row in parsed:
            for key in ("ate_m", "rte_m", "auc"):
                assert row[key] in text

    def test_partial_baseline_leaves_mean_blank(self):
        rows = [
            {"seq": "a", "ate_m": 0.2, "rte_m": 0.1, "auc": 0.9,
             "vs_baseline_pct": 50.0},
            {"seq": "b", "ate_m": 0.4, "rte_m": 0.3, "auc": 0.7,
             "vs_baseline_pct": None},
        ]
        text = emit_report(rows)
        mean_line = text.splitlines()[-1]
        assert mean_line.startswith("mean")
        assert "50" not in mean_line

    def test_empty_report_text(self):
        text = emit_report([])
        assert text.splitlines() == [
            "seq,ate_m,rte_m,auc,vs_baseline_pct", "no sequences"
        ]
