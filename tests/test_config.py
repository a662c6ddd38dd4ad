"""Run-config parsing: defaults, overrides, typed getters, builders."""

import configparser

import pytest

from bodyframe_io.config import (
    DEFAULTS,
    RunConfig,
    dump_defaults,
    ekf_config,
    load_config,
    motion_loss_config,
    motion_net_config,
    motion_train_config,
    noise_spec,
    trajectory_spec,
)
from bodyframe_io.errors import ConfigError
from bodyframe_io.imu_model import RepresentationKind
from bodyframe_io.motion_model import MotionNetConfig
from bodyframe_io.simulator import TrajectoryKind, YawMode


def write_ini(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestLoading:
    def test_no_path_gives_defaults(self):
        cfg = load_config(None)
        assert cfg.values == DEFAULTS
        assert cfg.values is not DEFAULTS  # independent copy

    def test_file_overrides_merge_with_defaults(self, tmp_path):
        path = write_ini(tmp_path, "[simulator]\nduration = 12.5\n")
        cfg = load_config(path)
        assert cfg.getfloat("simulator", "duration") == 12.5
        # untouched keys keep their defaults
        assert cfg.get("simulator", "kind") == DEFAULTS["simulator"]["kind"]
        assert cfg.values["ekf"] == DEFAULTS["ekf"]

    def test_unknown_key_names_full_path(self, tmp_path):
        path = write_ini(tmp_path, "[ekf]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="ekf.bogus"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[telemetry]\nx = 1\n")
        with pytest.raises(ConfigError, match="telemetry"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.ini"))

    def test_malformed_ini_rejected(self, tmp_path):
        path = write_ini(tmp_path, "duration = 5\n")  # key before any section
        with pytest.raises(ConfigError):
            load_config(path)

    def test_defaults_never_mutated_by_load(self, tmp_path):
        before = {s: dict(kv) for s, kv in DEFAULTS.items()}
        load_config(write_ini(tmp_path, "[noise]\nsigma_g = 9\n"))
        assert DEFAULTS == before


class TestGetters:
    def test_unknown_key_on_get(self):
        with pytest.raises(ConfigError, match="simulator.nope"):
            RunConfig().get("simulator", "nope")

    def test_bad_float_reports_key(self):
        cfg = RunConfig()
        cfg.values["simulator"]["duration"] = "fast"
        with pytest.raises(ConfigError, match="simulator.duration"):
            cfg.getfloat("simulator", "duration")

    def test_bad_int_reports_key(self):
        cfg = RunConfig()
        cfg.values["ekf"]["buffer_len"] = "3.5"
        with pytest.raises(ConfigError, match="ekf.buffer_len"):
            cfg.getint("ekf", "buffer_len")

    def test_float_list_parsing(self):
        cfg = RunConfig()
        cfg.values["simulator"]["ratios"] = "1, 2.5,3"
        assert cfg.getfloats("simulator", "ratios") == (1.0, 2.5, 3.0)

    def test_int_list_parsing(self):
        cfg = RunConfig()
        cfg.values["motion"]["imu_encoder_channels"] = "8,16"
        assert cfg.getints("motion", "imu_encoder_channels") == (8, 16)

    def test_bad_list_reports_key(self):
        cfg = RunConfig()
        cfg.values["simulator"]["center"] = "0, x, 0"
        with pytest.raises(ConfigError, match="simulator.center"):
            cfg.getfloats("simulator", "center")


class TestBuilders:
    def test_trajectory_spec_round_trip(self, tmp_path):
        cfg = load_config(
            write_ini(
                tmp_path,
                "[simulator]\nkind = circle\nyaw_mode = spin\nyaw_rate = 0.3\n"
                "amplitude = 2.0\ncenter = 1, 2, 3\n",
            )
        )
        spec = trajectory_spec(cfg)
        assert spec.kind is TrajectoryKind.CIRCLE
        assert spec.yaw_mode is YawMode.SPIN
        assert spec.amplitude == 2.0
        assert spec.center == (1.0, 2.0, 3.0)

    def test_unknown_kind_rejected(self):
        cfg = RunConfig()
        cfg.values["simulator"]["kind"] = "helix"
        with pytest.raises(ConfigError, match="simulator.kind"):
            trajectory_spec(cfg)

    def test_unknown_yaw_mode_rejected(self):
        cfg = RunConfig()
        cfg.values["simulator"]["yaw_mode"] = "wobble"
        with pytest.raises(ConfigError, match="simulator.yaw_mode"):
            trajectory_spec(cfg)

    def test_center_must_be_three_numbers(self):
        cfg = RunConfig()
        cfg.values["simulator"]["center"] = "1, 2"
        with pytest.raises(ConfigError, match="simulator.center"):
            trajectory_spec(cfg)

    def test_noise_spec_carries_seed(self):
        spec = noise_spec(RunConfig(), seed=42)
        assert spec.seed == 42
        assert spec.sigma_g == 1e-3

    def test_motion_net_config_parses_representation(self):
        cfg = RunConfig()
        cfg.values["motion"]["representation"] = "global"
        cfg.values["motion"]["latent_dim"] = "16"
        net = motion_net_config(cfg, seed=5)
        assert net.representation is RepresentationKind.GLOBAL
        assert net.latent_dim == 16
        assert net.seed == 5

    def test_motion_net_defaults_match_the_dataclass(self):
        # the served window is the training window: both defaults are 200
        assert motion_net_config(RunConfig(), seed=0) == MotionNetConfig()
        assert MotionNetConfig().window == 200

    def test_bad_representation_rejected(self):
        cfg = RunConfig()
        cfg.values["motion"]["representation"] = "camera"
        with pytest.raises(ConfigError, match="motion.representation"):
            motion_net_config(cfg, seed=0)

    def test_loss_and_train_builders(self):
        cfg = RunConfig()
        cfg.values["motion"]["lambda"] = "2e-3"
        cfg.values["motion"]["epochs"] = "7"
        assert motion_loss_config(cfg).lam == 2e-3
        tcfg = motion_train_config(cfg, seed=9)
        assert tcfg.epochs == 7 and tcfg.seed == 9

    def test_ekf_builder(self):
        cfg = RunConfig()
        cfg.values["ekf"]["update_rate"] = "10"
        cfg.values["ekf"]["buffer_len"] = "50"
        ecfg = ekf_config(cfg)
        assert ecfg.update_rate == 10.0 and ecfg.buffer_len == 50


class TestDumpDefaults:
    def test_dump_parses_and_covers_every_key(self):
        parser = configparser.ConfigParser()
        parser.read_string(dump_defaults())
        assert set(parser.sections()) == set(DEFAULTS)
        for section, kv in DEFAULTS.items():
            assert set(parser.options(section)) == set(kv)
            for key, value in kv.items():
                assert parser.get(section, key) == value

    def test_dump_reloads_cleanly(self, tmp_path):
        path = tmp_path / "defaults.ini"
        path.write_text(dump_defaults())
        cfg = load_config(str(path))
        assert cfg.values == DEFAULTS
