"""End-to-end command line checks: every subcommand through main()."""

import configparser
import csv
import hashlib
import importlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bodyframe_io
from bodyframe_io import config as cfgmod
from bodyframe_io import dataset_io
from bodyframe_io.cli import ORACLE_NOISE_STD, emit_report, main
from bodyframe_io.corrector import IdentityCorrector, LearnedAffineCorrector
from bodyframe_io.dataset_io import (
    TRAJECTORY_HEADER,
    load_sequence,
    quat_from_matrix,
    read_corpus_manifest,
)
from bodyframe_io.ekf import streaming_run
from bodyframe_io.imu_model import RepresentationKind
from bodyframe_io.motion_model import (
    ConstantZeroProvider,
    MotionNet,
    MotionNetConfig,
    NetworkProvider,
    OracleProvider,
)
from bodyframe_io.preintegration import NavState

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

# every command that takes --out, with its other required arguments but --data
OUT_COMMANDS = [
    ["run-ekf", "--name", "seq01", "--provider", "zero"],
    ["deadreckon", "--name", "seq01"],
    ["train-corrector"],
    ["train-motion"],
    ["eval", "--estimate", "seq01=absent.csv"],
    ["analyze", "--weights", "absent.bfwt"],
]


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


# the modules simulate and train-corrector may load, and every module
SIMULATE_MODULES = {"cli", "config", "dataset_io", "errors", "imu_model", "simulator", "so3"}
TRAIN_CORRECTOR_MODULES = SIMULATE_MODULES | {"corrector", "weights_io"}
ALL_MODULES = {
    "analysis", "cli", "config", "corrector", "dataset_io", "ekf", "errors", "imu_model",
    "metrics", "motion_model", "nn", "preintegration", "simulator", "so3", "weights_io",
}
FILTER_AND_NETWORK = {"ekf", "motion_model", "nn", "analysis"}


class TestStartup:
    """Each command imports only the modules it runs."""

    @staticmethod
    def fresh_python(code, *args):
        """Standard output lines of a new interpreter running code on this source tree."""
        src = str(Path(bodyframe_io.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code, *args],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        )
        return done.stdout.splitlines()

    @pytest.fixture(scope="class")
    def startup_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("startup")
        ini = root / "run.ini"
        ini.write_text("[simulator]\nduration = 1.0\nimu_rate = 50.0\n"
                       "[ekf]\nupdate_rate = 10.0\n[eval]\nrte_interval = 0.5\n")
        data = root / "data"
        assert main(["simulate", "--data", str(data), "--name", "s", "--config", str(ini)]) == 0
        assert main(["deadreckon", "--data", str(data), "--name", "s",
                     "--out", str(root / "dr.csv")]) == 0
        return root

    @pytest.mark.parametrize("argv, absent", [
        (["simulate", "--data", "{root}/new", "--name", "s", "--config", "{root}/run.ini"],
         ALL_MODULES - SIMULATE_MODULES),
        (["train-corrector", "--data", "{root}/data", "--out", "{root}/c.bfwt"],
         ALL_MODULES - TRAIN_CORRECTOR_MODULES),
        (["deadreckon", "--data", "{root}/data", "--name", "s", "--out", "{root}/d.csv"],
         FILTER_AND_NETWORK),
        (["eval", "--data", "{root}/data", "--estimate", "s={root}/dr.csv",
          "--config", "{root}/run.ini"],
         FILTER_AND_NETWORK),
        (["run-ekf", "--data", "{root}/data", "--name", "s", "--provider", "oracle",
          "--config", "{root}/run.ini", "--out", "{root}/o.csv"],
         {"analysis"}),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_command_leaves_modules_unloaded(self, startup_corpus, argv, absent):
        code = (
            "import sys\n"
            "from bodyframe_io.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(' '.join(m for m in sys.modules if m.startswith('bodyframe_io.')))\n"
        )
        lines = self.fresh_python(code, *(a.format(root=startup_corpus) for a in argv))
        loaded = {m.removeprefix("bodyframe_io.") for m in lines[-1].split()}
        assert "cli" in loaded
        assert not loaded & absent, sorted(loaded & absent)

    def test_package_names_load_on_first_access(self):
        code = (
            "import sys\n"
            "import bodyframe_io\n"
            "print(sorted(m for m in sys.modules if m.startswith('bodyframe_io.')))\n"
            "bodyframe_io.ate\n"
            "print(sorted(m for m in sys.modules if m.startswith('bodyframe_io.')))\n"
        )
        before, after = self.fresh_python(code)
        assert before == "[]"
        assert after == "['bodyframe_io.errors', 'bodyframe_io.metrics', 'bodyframe_io.so3']"

    def test_every_public_name_resolves(self):
        names = dir(bodyframe_io)
        for name in bodyframe_io.__all__:
            assert name in names
            value = getattr(bodyframe_io, name)
            module = importlib.import_module("." + bodyframe_io._MODULE_OF[name], "bodyframe_io")
            assert value is getattr(module, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            bodyframe_io.no_such_name
        from bodyframe_io import ekf  # a submodule still imports by name

        assert bodyframe_io.ekf is ekf


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasThreads:
    """Importing the package picks one BLAS thread unless the user set a count."""

    @staticmethod
    def run(argv, threads):
        """Runs argv in a new interpreter on this source tree, with the
        BLAS thread variables unset (threads None) or set to threads."""
        src = str(Path(bodyframe_io.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = src
        if threads is not None:
            env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, check=True).stdout

    @pytest.mark.parametrize("threads, want", [(None, "1 1 1"), ("2", "2 2 2")])
    def test_import_sets_one_thread_and_keeps_a_user_value(self, threads, want):
        code = ("import os, bodyframe_io\n"
                f"print(' '.join(os.environ[k] for k in {BLAS_THREAD_VARS!r}))\n")
        assert self.run(["-c", code], threads).split() == want.split()

    def test_weights_do_not_depend_on_the_variables_being_set(self, workdir, tmp_path):
        ini = tmp_path / "one-epoch.ini"
        ini.write_text("[motion]\nwindow = 50\nstride = 25\nlatent_dim = 8\n"
                       "gru_layers = 1\nepochs = 1\nbatch_size = 4\n")
        digests = {}
        for threads in (None, "1"):
            for command, extra in (("train-corrector", []),
                                   ("train-motion", ["--config", str(ini)])):
                out = tmp_path / f"{command}-{threads}.bfwt"
                self.run(["-m", "bodyframe_io.cli", command, "--data", workdir["data"],
                          "--out", str(out), *extra], threads)
                digests[command, threads] = hashlib.sha256(out.read_bytes()).hexdigest()
        for command in ("train-corrector", "train-motion"):
            assert digests[command, None] == digests[command, "1"], command


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[ekf]\nbogus = 1\n")
        rc = main(["simulate", "--data", str(tmp_path / "d"), "--name", "s",
                   "--config", str(bad)])
        assert rc == 2
        assert "ekf.bogus" in capsys.readouterr().err

    def test_bad_value_of_a_key_the_command_does_not_read_exits_2(self, tmp_path, capsys):
        # the whole file is parsed when it loads: simulate reads no [motion] key
        bad = tmp_path / "bad.ini"
        bad.write_text("[motion]\nlr = fast\n")
        rc = main(["simulate", "--data", str(tmp_path / "d"), "--name", "s",
                   "--config", str(bad)])
        assert rc == 2
        assert "motion.lr" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

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

    def test_train_corrector_takes_no_config(self, workdir, tmp_path, capsys):
        out = tmp_path / "c.bfwt"
        with pytest.raises(SystemExit) as exc:
            main(["train-corrector", "--data", workdir["data"], "--out", str(out),
                  "--config", str(tmp_path / "x.ini")])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not out.exists()

    # keys that only ever took one value are constants now; an old
    # config that still sets one is refused before anything is written
    @pytest.mark.parametrize("name", [
        "corrector.window_len", "motion.patience", "motion.lr_decay", "ekf.eta_bg",
        "ekf.eta_ba", "ekf.oracle_noise", "ekf.zero_eta", "eval.tau_max",
        "eval.n_thresholds",
    ])
    def test_removed_keys_exit_2(self, workdir, tmp_path, capsys, name):
        section, key = name.split(".")
        cfg = tmp_path / "old.ini"
        cfg.write_text(f"[{section}]\n{key} = 1\n")
        out = tmp_path / "o.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "zero", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert ("[corrector]" if section == "corrector" else name) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--data", "{tmp}/d", "--name", "s"],
        ["train-motion", "--data", "{data}", "--out", "{tmp}/m.bfwt"],
        ["run-ekf", "--data", "{data}", "--name", "seq01", "--provider", "oracle",
         "--out", "{tmp}/o.csv"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_exits_2_before_any_work(self, workdir, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path, data=workdir["data"]) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: must be nonnegative" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_nan_corrector_eta_exits_3_without_output(self, workdir, tmp_path, capsys):
        # a NaN uncertainty is a data error, not a crash in the filter
        from bodyframe_io.weights_io import load_weights, save_weights

        weights = tmp_path / "corrector.bfwt"
        assert main(["train-corrector", "--data", workdir["data"], "--out", str(weights)]) == 0
        variant, meta, arrays = load_weights(weights)
        arrays["raw_eta"] = np.array(arrays["raw_eta"])
        arrays["raw_eta"][0] = np.nan
        save_weights(weights, variant, arrays, meta)
        capsys.readouterr()
        out = tmp_path / "ekf.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "oracle", "--config", workdir["cfg"],
                   "--corrector-weights", str(weights), "--out", str(out)])
        assert rc == 3
        assert "raw_eta must be finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["corrector.bfwt"]

    def test_nan_corrector_weight_exits_3_naming_file_and_array(self, workdir, tmp_path,
                                                                capsys):
        from bodyframe_io.weights_io import load_weights, save_weights

        weights = tmp_path / "corrector.bfwt"
        assert main(["train-corrector", "--data", workdir["data"], "--out", str(weights)]) == 0
        variant, meta, arrays = load_weights(weights)
        arrays["weight"][4, 1] = np.nan
        save_weights(weights, variant, arrays, meta)
        capsys.readouterr()
        out = tmp_path / "ekf.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "oracle", "--config", workdir["cfg"],
                   "--corrector-weights", str(weights), "--out", str(out)])
        assert rc == 3
        assert f"{weights}: array weight must be finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["corrector.bfwt"]

    def test_nan_motion_weight_exits_3_naming_file_and_array(self, workdir, tmp_path, capsys):
        from bodyframe_io.weights_io import load_weights, save_weights

        weights = tmp_path / "net.bfwt"
        tiny_model().save(str(weights))
        variant, meta, arrays = load_weights(weights)
        arrays["att_conv0.w"][0, 1, 2] = np.nan
        save_weights(weights, variant, arrays, meta)
        out = tmp_path / "o.csv"
        for argv in (
            ["run-ekf", "--data", workdir["data"], "--name", "seq01", "--provider", "network",
             "--weights", str(weights), "--config", workdir["cfg"], "--out", str(out)],
            ["analyze", "--data", workdir["data"], "--weights", str(weights),
             "--config", workdir["cfg"], "--out", str(out)],
        ):
            assert main(argv) == 3
            assert f"{weights}: array att_conv0.w must be finite" in capsys.readouterr().err
            assert not out.exists()

    def test_update_rate_above_imu_rate_exits_2(self, workdir, tmp_path):
        fast = tmp_path / "fast.ini"
        fast.write_text("[ekf]\nupdate_rate = 500.0\n")
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "zero", "--config", str(fast),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_network_provider_without_weights_exits_2(self, tmp_path, capsys):
        # rejected before anything is read: neither the sequence, the
        # corrector weights nor the config need exist
        out = tmp_path / "o.csv"
        rc = main(["run-ekf", "--data", str(tmp_path / "none"), "--name", "ghost",
                   "--provider", "network", "--corrector-weights", str(tmp_path / "c.bfwt"),
                   "--config", str(tmp_path / "none.ini"), "--out", str(out)])
        assert rc == 2
        assert "--weights" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("provider", ["zero", "oracle"])
    def test_weights_without_network_provider_exit_2(self, workdir, tmp_path, capsys,
                                                     provider):
        # rejected before anything is read: the path need not exist
        out = tmp_path / "o.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", provider, "--weights", str(tmp_path / "none.bfwt"),
                   "--config", str(tmp_path / "none.ini"), "--out", str(out)])
        assert rc == 2
        assert "--weights" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("estimated", [True, False])
    def test_baseline_without_its_estimate_exits_2(self, workdir, ekf_csv, dr_csv,
                                                   tmp_path, capsys, estimated):
        report = tmp_path / "report.csv"
        estimate = ["--estimate", f"seq01={ekf_csv}"] if estimated else []
        rc = main(["eval", "--data", workdir["data"], *estimate,
                   "--baseline", f"seq02={dr_csv}",
                   "--config", workdir["cfg"], "--out", str(report)])
        assert rc == 2
        assert "seq02" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("case", [
        "run-ekf --weights", "run-ekf --corrector-weights", "analyze --weights",
        "eval --estimate", "eval --baseline",
    ])
    def test_missing_input_file_exits_3(self, workdir, ekf_csv, tmp_path, capsys, case):
        missing = str(tmp_path / "absent")
        seq = ["--data", workdir["data"], "--name", "seq01"]
        argv = {
            "run-ekf --weights": ["run-ekf", *seq, "--provider", "network",
                                  "--weights", missing],
            "run-ekf --corrector-weights": ["run-ekf", *seq, "--provider", "zero",
                                            "--corrector-weights", missing],
            "analyze --weights": ["analyze", "--data", workdir["data"], "--weights", missing],
            "eval --estimate": ["eval", "--data", workdir["data"],
                                "--estimate", f"seq01={missing}"],
            "eval --baseline": ["eval", "--data", workdir["data"],
                                "--estimate", f"seq01={ekf_csv}",
                                "--baseline", f"seq01={missing}"],
        }[case]
        out = tmp_path / "out.csv"
        rc = main(argv + ["--config", workdir["cfg"], "--out", str(out)])
        assert rc == 3
        assert f"data error: no such file: {missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, name, column, value", [
        ("train-motion", "groundtruth.csv", 4, "nan"),  # qw
        ("run-ekf", "groundtruth.csv", 4, "nan"),
        ("eval", "groundtruth.csv", 4, "nan"),
        ("eval", "groundtruth.csv", 1, "nan"),  # px
        ("eval", "groundtruth.csv", 2, "inf"),
        ("eval", "estimate", 1, "nan"),
        ("eval", "estimate", 5, "-inf"),  # qx
    ])
    def test_non_finite_truth_or_estimate_exits_3(self, workdir, ekf_csv, tmp_path, capsys,
                                                  command, name, column, value):
        # nan passes every norm and range test, so each reader rejects it by name
        data = tmp_path / "data"
        shutil.copytree(workdir["data"], data)
        path = data / "seq01" / name if name != "estimate" else tmp_path / "est.csv"
        if name == "estimate":
            shutil.copy(ekf_csv, path)
        lines = path.read_text().splitlines()
        fields = lines[6].split(",")
        fields[column] = value
        lines[6] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = {
            "train-motion": ["train-motion", "--data", str(data), "--seed", "0"],
            "run-ekf": ["run-ekf", "--data", str(data), "--name", "seq01",
                        "--provider", "oracle"],
            "eval": ["eval", "--data", str(data), "--estimate",
                     f"seq01={path if name == 'estimate' else ekf_csv}"],
        }[command]
        rc = main(argv + ["--config", workdir["cfg"], "--out", str(out)])
        assert rc == 3
        assert f"{path}:7: non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
    def test_out_in_missing_directory_exits_2_before_any_work(self, tmp_path, capsys, argv):
        # every input is missing as well: had the command read one first,
        # it would have exited 3
        out_dir = tmp_path / "missing"
        rc = main([argv[0], "--data", str(tmp_path / "absent"), *argv[1:],
                   "--out", str(out_dir / "out.csv")])
        assert rc == 2
        assert f"config error: --out {out_dir / 'out.csv'}: no directory {out_dir}" in (
            capsys.readouterr().err
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", OUT_COMMANDS, ids=lambda argv: argv[0])
    def test_out_is_a_directory_exits_2_before_any_work(self, tmp_path, capsys, argv):
        # every input is missing, as above: the directory is refused first
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = main([argv[0], "--data", str(tmp_path / "absent"), *argv[1:],
                   "--out", str(out_dir)])
        assert rc == 2
        assert f"config error: --out {out_dir} is a directory" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_removed_representation_exits_2(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "old.ini"
        cfg.write_text(RUN_INI + "representation = global-gravity\n")
        out = tmp_path / "net.bfwt"
        rc = main(["train-motion", "--data", workdir["data"], "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "motion.representation: unknown value 'global-gravity'" in err
        kinds = "['body', 'global', 'body+attitude', 'global+attitude', 'body-gravity']"
        assert f"(choose from {kinds})" in err
        assert not out.exists()

    def test_removed_representation_in_weights_exits_3(self, workdir, tmp_path, capsys):
        from bodyframe_io.weights_io import load_weights, save_weights

        weights = tmp_path / "net.bfwt"
        tiny_model().save(str(weights))
        variant, meta, arrays = load_weights(weights)
        meta["representation"] = "GLOBAL_MINUS_GRAVITY"
        save_weights(weights, variant, arrays, meta)
        out = tmp_path / "o.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "network", "--weights", str(weights),
                   "--config", workdir["cfg"], "--out", str(out)])
        assert rc == 3
        assert "GLOBAL_MINUS_GRAVITY" in capsys.readouterr().err
        assert not out.exists()

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
        ("rte_interval = nan", "eval.rte_interval"),
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
        ("oracle", "update_rate = inf"),
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

    @pytest.mark.parametrize("line", ["sigma_bg = nan", "sigma_ba = -1e-4"])
    def test_bad_walk_density_exits_2(self, workdir, tmp_path, capsys, line):
        # the filter's bias walk comes from the noise model's densities
        cfg = tmp_path / "walk.ini"
        cfg.write_text(f"[noise]\n{line}\n")
        out = tmp_path / "o.csv"
        rc = main(["run-ekf", "--data", workdir["data"], "--name", "seq01",
                   "--provider", "zero", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert line.split()[0] in capsys.readouterr().err
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

    @pytest.mark.parametrize("name", ["", ".", "..", "../outside", "a/b", "a\nb", "a\r"],
                             ids=["empty", "dot", "dotdot", "parent", "nested", "newline",
                                  "return"])
    def test_name_not_one_component_exits_2_without_writing(self, tmp_path, capsys, name):
        cfg = tmp_path / "run.ini"
        cfg.write_text(RUN_INI)
        data = tmp_path / "corpus" / "d"
        rc = main(["simulate", "--data", str(data), "--name", name, "--config", str(cfg)])
        assert rc == 2
        assert "one path component" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    def test_percent_in_name_is_listed_and_read_back(self, tmp_path, capsys):
        # the manifest is written and read without % interpolation
        cfg = tmp_path / "run.ini"
        cfg.write_text(RUN_INI)
        data = str(tmp_path / "d")
        for name in ("a%b", "%(x)s"):
            assert main(["simulate", "--data", data, "--name", name, "--config", str(cfg)]) == 0
        assert [e.name for e in read_corpus_manifest(data)] == ["a%b", "%(x)s"]
        out = str(tmp_path / "ekf.csv")
        assert main(["run-ekf", "--data", data, "--name", "a%b", "--provider", "oracle",
                     "--config", str(cfg), "--out", out]) == 0
        assert "wrote" in capsys.readouterr().out

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

    def test_estimates_keep_stamps_off_the_10_ns_grid(self, tmp_path, capsys):
        # EuRoC-like stamps, not on a 10 ns grid: t is written to the
        # nanosecond, so eval matches each row to its IMU stamp past t = 1 s
        ini = tmp_path / "run.ini"
        ini.write_text("[simulator]\nduration = 30.0\nimu_rate = 50.0\n")
        data = tmp_path / "data"
        assert main(["simulate", "--data", str(data), "--name", "s",
                     "--config", str(ini)]) == 0
        for name in ("imu.csv", "groundtruth.csv"):
            path = data / "s" / name
            header, *rows = path.read_text().splitlines()
            shifted = []
            for i, row in enumerate(rows):
                stamp, rest = row.split(",", 1)
                shifted.append(f"{int(stamp) + 1_234_567 + 7 * i},{rest}")
            path.write_text("\n".join([header, *shifted]) + "\n")
        est = tmp_path / "dr.csv"
        assert main(["deadreckon", "--data", str(data), "--name", "s", "--out", str(est)]) == 0
        assert main(["eval", "--data", str(data), "--estimate", f"s={est}"]) == 0
        assert "timestamps differ" not in capsys.readouterr().err
        # the last frame, 1500, is 30 s and 7 * 1500 ns after the first
        assert est.read_text().splitlines()[-1].startswith("30.000010500,")

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
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_motion_without_a_finite_validation_loss_exits_4(self, workdir, tmp_path,
                                                                  capsys):
        # a learning rate this large overflows the first steps: every
        # validation loss is NaN, so there is no checkpoint to write
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(
            "[motion]\nwindow = 50\nstride = 50\nlatent_dim = 8\n"
            "gru_layers = 1\nimu_encoder_channels = 4\n"
            "attitude_encoder_channels = 4\nkernel = 3\ndropout_p = 0.0\n"
            "epochs = 2\nbatch_size = 4\nlr = 1e30\n"
        )
        out = tmp_path / "net.bfwt"
        rc = main(["train-motion", "--data", workdir["data"],
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 4
        assert "no finite validation loss" in capsys.readouterr().err
        assert not out.exists()

    def test_train_motion_prints_the_checkpoints_loss(self, workdir, tmp_path, capsys,
                                                      monkeypatch):
        # the checkpoint is the epoch of the lowest loss that is not NaN,
        # wherever NaN stands in the history
        history = {"train_loss": [1.0] * 4, "val_loss": [np.nan, 0.3, 0.2, np.nan],
                   "lr": [1e-3] * 4}
        monkeypatch.setattr("bodyframe_io.cli.train_motion_model",
                            lambda train, val, net_cfg, *_: (tiny_model(net_cfg.window), history))
        cfg = tmp_path / "run.ini"
        cfg.write_text("[motion]\nwindow = 50\nstride = 50\n")
        rc = main(["train-motion", "--data", workdir["data"], "--config", str(cfg),
                   "--out", str(tmp_path / "net.bfwt")])
        assert rc == 0
        assert "best val loss 0.2)" in capsys.readouterr().out

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
        assert main(["train-corrector", "--data", workdir["data"], "--seed", "0",
                     "--out", corr]) == 0
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


STREAM_INI = """\
[simulator]
kind = lissajous3d
duration = 4.0
imu_rate = 200.0
amplitude = 2.0
rate = 0.6
yaw_mode = spin
yaw_rate = 1.5
"""


def in_memory_run_ekf(seq_dir, provider, corrector, ini, seed, weights, out):
    """run-ekf as it ran before it streamed, the reference for its output:
    the whole sequence loaded, one streaming_run over it, and the whole
    trajectory formatted and written at once."""
    cfg = cfgmod.load_config(ini)
    imu, truth, _ = load_sequence(seq_dir)
    if corrector is not None:
        corrector = LearnedAffineCorrector.load(corrector)
    else:
        root_rate = float(np.sqrt((len(imu) - 1) / (imu.t[-1] - imu.t[0])))
        corrector = IdentityCorrector(eta_g=cfg["noise"]["sigma_g"] * root_rate,
                                      eta_a=cfg["noise"]["sigma_a"] * root_rate)
    if provider == "zero":
        provider = ConstantZeroProvider()
    elif provider == "oracle":
        provider = OracleProvider(truth, noise_std=ORACLE_NOISE_STD, seed=seed)
    else:
        provider = NetworkProvider(MotionNet.load(weights))
    zero = np.zeros(3)
    x0 = NavState(r=truth.r[0], v=truth.v[0], p=truth.p[0], b_a=zero, b_g=zero)
    run = streaming_run(imu, provider, corrector, cfgmod.ekf_config(cfg), x0)
    rest = np.column_stack([run.p, quat_from_matrix(run.r), run.v, run.P_diag.sum(axis=1)])
    line = "%.9f," + ",".join(["%.9g"] * 11) + "\n"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        fh.writelines(line % (x, *row) for x, row in zip(run.t, rest))


@pytest.fixture(scope="module")
def stream_corpus(tmp_path_factory):
    """A 4 s, 200 Hz spinning Lissajous flight (801 frames, four reader
    blocks), a second flight to train the corrector on, the corrector
    and a window-50 network with non-zero outputs."""
    root = tmp_path_factory.mktemp("stream")
    ini = root / "run.ini"
    ini.write_text(STREAM_INI)
    data = root / "data"
    for name, seed in (("flight", 1), ("seen", 2)):
        assert main(["simulate", "--data", str(data), "--name", name, "--config", str(ini),
                     "--role", "seen" if name == "seen" else "unseen", "--seed", str(seed)]) == 0
    corrector = root / "corrector.bfwt"
    assert main(["train-corrector", "--data", str(data), "--out", str(corrector)]) == 0
    model = tiny_model()
    rng = np.random.default_rng(5)
    for p in model.parameters().values():
        p += 0.05 * rng.standard_normal(p.shape)
    model.save(root / "motion.bfwt")
    return {"root": root, "ini": str(ini), "data": str(data), "corrector": str(corrector),
            "weights": str(root / "motion.bfwt")}


def run_ekf_argv(corpus, provider, out, corrector=True):
    argv = ["run-ekf", "--data", corpus["data"], "--name", "flight", "--provider", provider,
            "--config", corpus["ini"], "--seed", "4", "--out", str(out)]
    if provider == "network":
        argv += ["--weights", corpus["weights"]]
    if corrector:
        argv += ["--corrector-weights", corpus["corrector"]]
    return argv


class TestStreamingRunEkf:
    @pytest.mark.parametrize("block", [256, 37])
    @pytest.mark.parametrize("corrector", [True, False], ids=["learned", "identity"])
    @pytest.mark.parametrize("provider", ["zero", "oracle", "network"])
    def test_output_is_the_in_memory_run(self, stream_corpus, tmp_path, monkeypatch,
                                         provider, corrector, block):
        monkeypatch.setattr(dataset_io, "BLOCK_LINES", block)
        out = tmp_path / "stream.csv"
        assert main(run_ekf_argv(stream_corpus, provider, out, corrector)) == 0
        want = tmp_path / "memory.csv"
        in_memory_run_ekf(
            os.path.join(stream_corpus["data"], "flight"), provider,
            stream_corpus["corrector"] if corrector else None, stream_corpus["ini"], 4,
            stream_corpus["weights"], want,
        )
        assert len(want.read_text().splitlines()) == 802
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("fault", ["bad line", "non-finite reading", "short truth"])
    def test_late_fault_leaves_no_output(self, stream_corpus, tmp_path, capsys, fault):
        data = tmp_path / "data"
        shutil.copytree(os.path.join(stream_corpus["data"], "flight"), data / "flight")
        name, row, field = {
            "bad line": ("imu.csv", 721, "1.0.0"),  # 90% into the flight, in block 3 of 4
            "non-finite reading": ("imu.csv", 790, "nan"),
            "short truth": ("groundtruth.csv", 640, None),
        }[fault]
        path = data / "flight" / name
        lines = path.read_text().splitlines()
        if field is None:
            del lines[row + 1:]
        else:
            fields = lines[row + 1].split(",")
            fields[2] = field
            lines[row + 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc = main(run_ekf_argv(dict(stream_corpus, data=str(data)), "oracle",
                               out_dir / "ekf.csv"))
        assert rc == 3
        err = capsys.readouterr().err
        assert {"bad line": f"imu.csv:{row + 2}: ", "non-finite reading": "non-finite",
                "short truth": "after its last record"}[fault] in err
        assert os.listdir(out_dir) == []

    def test_zero_and_network_read_only_the_initial_truth(self, stream_corpus, tmp_path):
        # a fault past the first block of groundtruth.csv fails the oracle,
        # which reads the file along with the IMU, and no run that needs
        # only the initial state
        data = tmp_path / "data"
        shutil.copytree(os.path.join(stream_corpus["data"], "flight"), data / "flight")
        path = data / "flight" / "groundtruth.csv"
        lines = path.read_text().splitlines()
        lines[501] = "0,not,a,record"
        path.write_text("\n".join(lines) + "\n")
        corpus = dict(stream_corpus, data=str(data))
        for provider in ("zero", "network"):
            intact, faulty = tmp_path / f"{provider}-intact.csv", tmp_path / f"{provider}.csv"
            assert main(run_ekf_argv(stream_corpus, provider, intact)) == 0
            assert main(run_ekf_argv(corpus, provider, faulty)) == 0
            assert faulty.read_bytes() == intact.read_bytes()
        assert main(run_ekf_argv(corpus, "oracle", tmp_path / "oracle.csv")) == 3
        assert not (tmp_path / "oracle.csv").exists()

    def test_memory_does_not_grow_with_the_flight(self, tmp_path):
        # Peak RSS of whole run-ekf processes on a 5 s and a 60 s flight.
        # A small launcher starts them: Linux carries the high-water RSS
        # of the memory a child is spawned from over its exec, so a child
        # of this test process would report this process's peak too.
        launcher = (
            "import os, subprocess, sys\n"
            "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        src = str(Path(bodyframe_io.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        peaks = []
        for seconds in (5, 60):
            ini = tmp_path / f"{seconds}.ini"
            ini.write_text(STREAM_INI.replace("duration = 4.0", f"duration = {seconds}"))
            data = str(tmp_path / f"data{seconds}")
            assert main(["simulate", "--data", data, "--name", "s", "--config", str(ini)]) == 0
            done = subprocess.run(
                [sys.executable, "-c", launcher, sys.executable, "-m", "bodyframe_io.cli",
                 "run-ekf", "--data", data, "--name", "s", "--provider", "oracle",
                 "--config", str(ini), "--out", str(tmp_path / f"{seconds}.csv")],
                env=env, capture_output=True, text=True, check=True,
            )
            code, max_rss_kb = map(int, done.stdout.split())
            assert code == 0
            peaks.append(max_rss_kb / 1024.0)
        assert len((tmp_path / "60.csv").read_text().splitlines()) == 12002
        assert abs(peaks[1] - peaks[0]) < 2.0, peaks


class TestReport:
    def test_short_flight_reports_ate_without_rte(self, tmp_path):
        # a 1.25 s flight is no longer than the default 5 s RTE interval
        ini = tmp_path / "short.ini"
        ini.write_text("[simulator]\nduration = 1.25\nimu_rate = 200.0\n")
        data = str(tmp_path / "data")
        assert main(["simulate", "--data", data, "--name", "s", "--config", str(ini)]) == 0
        dr, ekf, report = (str(tmp_path / f) for f in ("dr.csv", "ekf.csv", "report.csv"))
        assert main(["deadreckon", "--data", data, "--name", "s", "--out", dr]) == 0
        assert main(["run-ekf", "--data", data, "--name", "s", "--provider", "zero",
                     "--out", ekf]) == 0
        assert main(["eval", "--data", data, "--estimate", f"s={ekf}",
                     "--baseline", f"s={dr}", "--out", report]) == 0
        for row in read_report(report):
            assert float(row["ate_m"]) > 0.0
            assert math.isfinite(float(row["vs_baseline_pct"]))
            assert row["rte_m"] == row["auc"] == ""

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


class TestCommandLineRoundTrip:
    """CI's command-line round trip: the README's commands on its 60 s
    figure-eight corpus, each a `python -m bodyframe_io.cli` process. The
    pipeline runs once, on one corpus and one 1-epoch network; each of
    its exit codes and each exit-code check is one assertion."""

    PIPELINE = [
        "simulate --data corpus --name fig8 --seed 7",
        "deadreckon --data corpus --name fig8 --out dr.csv",
        "run-ekf --data corpus --name fig8 --provider oracle --out ekf.csv",
        "eval --data corpus --estimate fig8=ekf.csv --baseline fig8=dr.csv --out report.csv",
        # without --corrector-weights: the identity fallback's rate pass
        "run-ekf --data corpus --name fig8 --provider zero --out zero.csv",
        "eval --data corpus --estimate fig8=zero.csv --baseline fig8=dr.csv"
        " --out zero-report.csv",
        # the README's training section, with one epoch of train-motion;
        # run-ekf then serves the network through the bounded served store
        "train-corrector --data corpus --out corrector.bfwt",
        "train-motion --data corpus --config one-epoch.ini --out motion.bfwt",
        "run-ekf --data corpus --name fig8 --provider network --weights motion.bfwt"
        " --corrector-weights corrector.bfwt --out net.csv",
        "analyze --data corpus --weights motion.bfwt --out spectrum.csv",
        # seeded training is bit-reproducible at the command line
        "train-motion --data corpus --config one-epoch.ini --seed 3 --out seeded-a.bfwt",
        "train-motion --data corpus --config one-epoch.ini --seed 3 --out seeded-b.bfwt",
    ]

    @staticmethod
    def cli(cwd, command):
        """(exit code, standard error) of `python -m bodyframe_io.cli` with
        the words of command, run in cwd on this source tree."""
        src = str(Path(bodyframe_io.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "bodyframe_io.cli", *command.split()],
                              cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        return done.returncode, done.stderr

    @pytest.fixture(scope="class")
    def trip(self, tmp_path_factory):
        """The directory the pipeline ran in and each command's result."""
        root = tmp_path_factory.mktemp("round-trip")
        (root / "one-epoch.ini").write_text("[motion]\nepochs = 1\n")
        return root, {command: self.cli(root, command) for command in self.PIPELINE}

    @pytest.mark.parametrize("command", PIPELINE)
    def test_pipeline_command_exits_0(self, trip, command):
        _, results = trip
        code, err = results[command]
        assert code == 0, err

    def test_seeded_training_writes_the_same_bytes(self, trip):
        root, _ = trip
        assert (root / "seeded-a.bfwt").read_bytes() == (root / "seeded-b.bfwt").read_bytes()

    def test_corrector_with_a_nan_weight_exits_3(self, trip):
        from bodyframe_io.weights_io import load_weights, save_weights

        root, _ = trip
        variant, meta, arrays = load_weights(root / "corrector.bfwt")
        arrays["weight"][0, 0] = np.nan
        save_weights(root / "nan-corrector.bfwt", variant, arrays, meta)
        code, _ = self.cli(root, "run-ekf --data corpus --name fig8 --provider zero"
                                 " --corrector-weights nan-corrector.bfwt --out nan-corrector.csv")
        assert code == 3

    @pytest.mark.parametrize("command", [
        # an --out in a directory that does not exist, and an existing directory
        "run-ekf --data corpus --name fig8 --provider zero --out missing/x.csv",
        "run-ekf --data corpus --name fig8 --provider zero --out outdir",
        # --provider network without --weights is refused before any file is
        # read, so a missing sequence is not reached (exit 3)
        "run-ekf --data corpus --name ghost --provider network --out ghost.csv",
        # a negative --seed is refused by the argument parser
        "simulate --data corpus --name neg --seed -1",
        # a key that is now a constant or comes from [noise] is unknown
        "run-ekf --data corpus --name fig8 --provider zero --config old.ini --out old.csv",
    ], ids=["missing-dir", "out-is-dir", "network-without-weights", "negative-seed",
            "old-key"])
    def test_configuration_error_exits_2(self, trip, command):
        root, _ = trip
        (root / "outdir").mkdir(exist_ok=True)
        (root / "old.ini").write_text("[ekf]\neta_bg = 1e-6\n")
        code, _ = self.cli(root, command)
        assert code == 2

    def test_estimate_with_a_nan_field_exits_3(self, trip):
        root, _ = trip
        lines = (root / "ekf.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[1] = "nan"
        lines[2] = ",".join(fields)
        (root / "nan-ekf.csv").write_text("\n".join(lines) + "\n")
        code, _ = self.cli(root, "eval --data corpus --estimate fig8=nan-ekf.csv"
                                 " --out nan-report.csv")
        assert code == 3
