"""End-to-end command line checks: every subcommand through main()."""

import configparser
import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # numpy is the one runtime dependency: with scipy made unimportable,
        # every module imports and simulate and run-ekf still run
        src = str(Path(bodyframe_io.__file__).resolve().parents[1])
        code = (
            "import importlib, pkgutil, sys\n"
            "sys.modules['scipy'] = None\n"
            "import bodyframe_io\n"
            "for m in pkgutil.iter_modules(bodyframe_io.__path__):\n"
            "    importlib.import_module('bodyframe_io.' + m.name)\n"
            "from bodyframe_io.cli import main\n"
            "data, ini = sys.argv[1], sys.argv[2]\n"
            "assert main(['simulate', '--data', data, '--name', 's', '--config', ini]) == 0\n"
            "assert main(['run-ekf', '--data', data, '--name', 's', '--provider', 'oracle',\n"
            "             '--config', ini, '--out', data + '/o.csv']) == 0\n"
        )
        ini = tmp_path / "run.ini"
        ini.write_text("[simulator]\nduration = 1.0\nimu_rate = 50.0\n[ekf]\nupdate_rate = 10.0\n")
        data = tmp_path / "d"
        subprocess.run(
            [sys.executable, "-c", code, str(data), str(ini)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        )
        assert (data / "o.csv").exists()


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

    def test_nan_reading_exits_3_without_output(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(os.path.join(workdir["data"], "seq01"), data / "seq01")
        imu_csv = data / "seq01" / "imu.csv"
        lines = imu_csv.read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = "nan"  # one gyro value
        lines[5] = ",".join(fields)
        imu_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "dr.csv"
        rc = main(["deadreckon", "--data", str(data), "--name", "seq01",
                   "--out", str(out)])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_rejected_where_unused(self, workdir, tmp_path, capsys):
        weights = tmp_path / "net.bfwt"
        tiny_model().save(str(weights))
        out = str(tmp_path / "o.csv")
        for argv in (
            ["deadreckon", "--data", workdir["data"], "--name", "seq01", "--out", out],
            ["eval", "--data", workdir["data"]],
            ["analyze", "--data", workdir["data"], "--weights", str(weights),
             "--out", out],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seed", "1"])
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err

    def test_deadreckon_takes_no_config(self, workdir, tmp_path, capsys):
        out = tmp_path / "dr.csv"
        with pytest.raises(SystemExit) as exc:
            main(["deadreckon", "--data", workdir["data"], "--name", "seq01",
                  "--out", str(out), "--config", str(tmp_path / "x.ini")])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_corrector_keys_exit_2(self, workdir, tmp_path, capsys):
        for key in ("epochs = 5", "lr = 0.1"):
            cfg = tmp_path / "old.ini"
            cfg.write_text(f"[corrector]\n{key}\n")
            rc = main(["train-corrector", "--data", workdir["data"],
                       "--config", str(cfg), "--out", str(tmp_path / "c.bfwt")])
            assert rc == 2
            assert "corrector." + key.split()[0] in capsys.readouterr().err

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

    @pytest.mark.parametrize("window_len", ["0", "-3"])
    def test_nonpositive_corrector_window_exits_2(self, workdir, tmp_path, capsys,
                                                  window_len):
        cfg = tmp_path / "corr.ini"
        cfg.write_text(f"[corrector]\nwindow_len = {window_len}\n")
        out = tmp_path / "c.bfwt"
        rc = main(["train-corrector", "--data", workdir["data"], "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 2
        assert "window_len" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, line", [
        ("simulator", "ratios = 1, 2"),
        ("simulator", "phases = 0, 0.5, 1, 2"),
        ("simulator", "duration = inf"),
        ("simulator", "center = nan, 0, 0"),
        ("simulator", "kind = helix"),
        ("simulator", "yaw_mode = wobble"),
        ("noise", "sigma_g = -1e-3"),
        ("noise", "sigma_ba = -1e-4"),
    ])
    def test_bad_simulator_settings_exit_2(self, tmp_path, capsys, section, line):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        data = tmp_path / "d"
        rc = main(["simulate", "--data", str(data), "--name", "s", "--config", str(cfg)])
        assert rc == 2
        assert f"{section}.{line.split()[0]}" in capsys.readouterr().err
        assert not (data / "s").exists()

    def test_free_fall_flight_exits_3_without_writing(self, tmp_path, capsys):
        # a_world = GRAVITY at t = 0: no thrust direction, so no attitude
        cfg = tmp_path / "fall.ini"
        cfg.write_text("[simulator]\nkind = lissajous3d\namplitude = 19.6133\nrate = 1.0\n"
                       "ratios = 1, 1, 1\nphases = 0, 0, 1.5707963267948966\n")
        data = tmp_path / "d"
        rc = main(["simulate", "--data", str(data), "--name", "s", "--config", str(cfg)])
        assert rc == 3
        assert "free-fall" in capsys.readouterr().err
        assert not (data / "s").exists()

    @pytest.mark.parametrize("line, message", [
        ("rte_interval = 0", "interval"),
        ("rte_interval = -2.0", "interval"),
        ("tau_max = nan", "eval.tau_max"),
    ])
    def test_bad_eval_settings_exit_2(self, workdir, ekf_csv, tmp_path, capsys, line, message):
        cfg = tmp_path / "eval.ini"
        cfg.write_text(f"[eval]\n{line}\n")
        report = tmp_path / "r.csv"
        rc = main(["eval", "--data", workdir["data"], "--estimate", f"seq01={ekf_csv}",
                   "--config", str(cfg), "--out", str(report)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("provider, line", [
        ("zero", "update_rate = nan"),
        ("zero", "zero_eta = nan"),
        ("oracle", "oracle_noise = nan"),
    ])
    def test_nan_filter_settings_exit_2(self, workdir, tmp_path, capsys, provider, line):
        cfg = tmp_path / "ekf.ini"
        cfg.write_text(f"[ekf]\n{line}\n")
        out = tmp_path / "o.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", provider, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"ekf.{line.split()[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_motion_meta_missing_a_field_exits_3(self, workdir, tmp_path, capsys):
        from bodyframe_io.weights_io import load_weights, save_weights

        weights = tmp_path / "net.bfwt"
        tiny_model().save(str(weights))
        variant, meta, arrays = load_weights(weights)
        del meta["kernel"]
        save_weights(weights, variant, arrays, meta)
        out = tmp_path / "o.csv"
        for argv in (
            ["run-ekf", "--data", workdir["data"], "--name", "seq01", "--provider", "network",
             "--weights", str(weights), "--config", workdir["cfg"], "--out", str(out)],
            ["analyze", "--data", workdir["data"], "--weights", str(weights),
             "--config", workdir["cfg"], "--out", str(out)],
        ):
            assert main(argv) == 3
            assert "kernel" in capsys.readouterr().err
            assert not out.exists()

    def test_motion_meta_float_window_exits_3(self, workdir, tmp_path, capsys):
        from bodyframe_io.weights_io import load_weights, save_weights

        weights = tmp_path / "net.bfwt"
        tiny_model().save(str(weights))
        variant, meta, arrays = load_weights(weights)
        meta["window"] = meta["window"] + 0.7
        save_weights(weights, variant, arrays, meta)
        out = tmp_path / "o.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "network", "--weights", str(weights),
                   "--config", workdir["cfg"], "--out", str(out)])
        assert rc == 3
        assert "window" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_buffer_len_exits_2(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "old.ini"
        cfg.write_text("[ekf]\nbuffer_len = 1000\n")
        out = tmp_path / "o.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "zero", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "ekf.buffer_len" in capsys.readouterr().err
        assert not out.exists()

    def test_weights_header_without_arrays_exits_3(self, workdir, tmp_path, capsys):
        header = b'{"meta": {}, "variant": "motion-net-v1"}'
        weights = tmp_path / "net.bfwt"
        weights.write_bytes(b"BFWT\x01\x00\x00\x00" + len(header).to_bytes(4, "little") + header)
        rc = main(["analyze", "--data", workdir["data"], "--weights", str(weights),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert "corrupt header" in capsys.readouterr().err


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

    def test_omitted_seed_is_seed_zero(self, tmp_path, monkeypatch):
        # the environment plays no part in the seed
        monkeypatch.setenv("BODYFRAME_IO_SEED", "11")
        cfg = tmp_path / "run.ini"
        cfg.write_text(RUN_INI)
        outs = []
        for sub, seed in (("zero", ["--seed", "0"]), ("omitted", [])):
            data = tmp_path / sub
            assert main(["simulate", "--data", str(data), "--name", "s",
                         "--config", str(cfg), *seed]) == 0
            assert main(["run-ekf", "--data", str(data), "--name", "s", "--provider", "oracle",
                         "--config", str(cfg), "--out", str(data / "o.csv"), *seed]) == 0
            outs.append(data)
        for fname in ("s/imu.csv", "s/groundtruth.csv", "o.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname

    def test_malformed_manifest_leaves_no_sequence(self, tmp_path, capsys):
        data = tmp_path / "d"
        data.mkdir()
        (data / "corpus.cfg").write_text("[corpus]\nversion = 1\n[bogus]\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(RUN_INI)
        rc = main(["simulate", "--data", str(data), "--name", "s", "--config", str(cfg)])
        assert rc == 3
        assert "bogus" in capsys.readouterr().err
        assert not (data / "s").exists()

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
        write_trajectory_csv(est, truth, np.zeros(len(truth)))
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
        # 501 frames hold 19 windows of 50 frames, 25 apart
        assert "(19 windows, 950 frames x 8 dims," in capsys.readouterr().out


class TestTrainers:
    def test_train_corrector_writes_loadable_weights(self, workdir, tmp_path):
        from bodyframe_io.corrector import LearnedAffineCorrector

        out = str(tmp_path / "corr.bfwt")
        rc = main(["train-corrector", "--data", workdir["data"],
                   "--seed", "0", "--out", out])
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
        cfg.write_text("[ekf]\nupdate_rate = 10.0\n")
        corr = str(tmp_path / "corr.bfwt")
        main(["train-corrector", "--data", workdir["data"], "--config",
              str(cfg), "--seed", "0", "--out", corr])
        out = str(tmp_path / "traj.csv")
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "oracle", "--corrector-weights", corr,
                   "--config", str(cfg), "--seed", "0", "--out", out])
        assert rc == 0
        assert os.path.exists(out)

    @pytest.mark.parametrize("meta, arrays", [
        ({"window_len": "abc"}, {}),
        ({"window_len": 0}, {}),
        ({}, {}),
        ({"window_len": 16}, {"feat_mean": np.zeros(5)}),
        ({"window_len": 16}, {"raw_eta": np.zeros(2)}),
    ], ids=["window_len_text", "window_len_zero", "window_len_missing",
            "feat_mean_short", "raw_eta_short"])
    def test_malformed_corrector_weights_exit_3(self, workdir, tmp_path, capsys, meta, arrays):
        from bodyframe_io.corrector import AFFINE_VARIANT
        from bodyframe_io.weights_io import save_weights

        good = {"weight": np.zeros((96, 6)), "bias": np.zeros(6), "feat_mean": np.zeros(96),
                "feat_scale": np.ones(96), "raw_eta": np.zeros(6)}
        corr = tmp_path / "corr.bfwt"
        save_weights(corr, AFFINE_VARIANT, {**good, **arrays}, meta)
        out = tmp_path / "traj.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "zero", "--corrector-weights", str(corr),
                   "--out", str(out)])
        assert rc == 3
        assert "window_len" in capsys.readouterr().err
        assert not out.exists()


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
