"""Run-config parsing: typed defaults, overrides parsed at load, builders."""

import configparser

import pytest

from bodyframe_io.config import (
    DEFAULTS,
    dump_defaults,
    ekf_config,
    load_config,
    motion_loss_config,
    motion_net_config,
    motion_train_config,
    noise_spec,
    trajectory_spec,
)
from bodyframe_io.ekf import EkfConfig
from bodyframe_io.errors import ConfigError
from bodyframe_io.imu_model import RepresentationKind
from bodyframe_io.motion_model import LossConfig, MotionNetConfig, TrainConfig
from bodyframe_io.simulator import TrajectoryKind, YawMode


def write_ini(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def load_one(tmp_path, section, key, value):
    """load_config of a file that sets one key."""
    return load_config(write_ini(tmp_path, f"[{section}]\n{key} = {value}\n"))


def assert_typed_like_defaults(cfg):
    """Every value has its default's type, and so has each vector element."""
    assert cfg.keys() == DEFAULTS.keys()
    for section, kv in DEFAULTS.items():
        assert cfg[section].keys() == kv.keys()
        for key, default in kv.items():
            value = cfg[section][key]
            assert type(value) is type(default), f"{section}.{key}"
            if isinstance(default, tuple):
                assert {type(x) for x in value} <= {type(default[0])}, f"{section}.{key}"


class TestLoading:
    def test_no_path_gives_defaults(self):
        cfg = load_config(None)
        assert cfg == DEFAULTS
        assert cfg is not DEFAULTS  # independent copy
        assert all(cfg[s] is not DEFAULTS[s] for s in DEFAULTS)
        assert_typed_like_defaults(cfg)

    def test_file_overrides_merge_with_defaults(self, tmp_path):
        cfg = load_one(tmp_path, "simulator", "duration", "12.5")
        assert cfg["simulator"]["duration"] == 12.5
        # untouched keys keep their defaults
        assert cfg["simulator"]["kind"] == DEFAULTS["simulator"]["kind"]
        assert cfg["ekf"] == DEFAULTS["ekf"]

    def test_defaults_have_the_five_types(self):
        # 33 keys, each an int, a float, a word, a float 3-vector or an int list
        kinds = set()
        for kv in DEFAULTS.values():
            for default in kv.values():
                if isinstance(default, tuple):
                    kinds.add((tuple, type(default[0])))
                    assert type(default[0]) is int or len(default) == 3
                    assert len({type(x) for x in default}) == 1
                else:
                    kinds.add(type(default))
        assert kinds == {int, float, str, (tuple, float), (tuple, int)}
        assert sum(map(len, DEFAULTS.values())) == 33

    def test_each_value_takes_its_defaults_type(self, tmp_path):
        # a float key written as an integer is still a float, an int list of one is a tuple
        cfg = load_config(write_ini(
            tmp_path,
            "[simulator]\nduration = 12\ncenter = 1, 2, 3\nkind = Circle\n"
            "[motion]\nwindow = 50\nimu_encoder_channels = 8\nlr = 1\n",
        ))
        assert_typed_like_defaults(cfg)
        assert cfg["simulator"]["center"] == (1.0, 2.0, 3.0)
        assert cfg["motion"]["imu_encoder_channels"] == (8,)
        assert cfg["simulator"]["kind"] == "Circle"  # words are checked by the builders

    @pytest.mark.parametrize("name", ["ekf.bogus", "simulator.nope"])
    def test_unknown_key_names_full_path(self, tmp_path, name):
        section, key = name.split(".")
        with pytest.raises(ConfigError, match=name):
            load_one(tmp_path, section, key, "1")

    def test_unknown_section_rejected(self, tmp_path):
        path = write_ini(tmp_path, "[telemetry]\nx = 1\n")
        with pytest.raises(ConfigError, match="telemetry"):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.ini"))

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nbogus = 3\n",
        "[DEFAULT]\nepochs = 1\n[motion]\nlr = 1e-2\n",
    ], ids=["unknown_key", "key_of_a_section"])
    def test_default_section_rejected(self, tmp_path, text):
        # configparser copies [DEFAULT] keys into every section
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            load_config(write_ini(tmp_path, text))

    def test_malformed_ini_rejected(self, tmp_path):
        path = write_ini(tmp_path, "duration = 5\n")  # key before any section
        with pytest.raises(ConfigError):
            load_config(path)

    def test_defaults_never_mutated_by_load(self, tmp_path):
        before = {s: dict(kv) for s, kv in DEFAULTS.items()}
        cfg = load_one(tmp_path, "noise", "sigma_g", "9")
        cfg["ekf"]["update_rate"] = 1.0
        assert load_config(None)["ekf"]["update_rate"] == 20.0
        assert DEFAULTS == before


class TestParsing:
    """Every value is parsed when the file loads, whichever command reads it."""

    @pytest.mark.parametrize("name, raw, message", [
        ("simulator.duration", "fast", "expected a number"),
        ("motion.lr", "fast", "expected a number"),
        ("motion.lr", "5%", "expected a number"),  # no interpolation error
        ("motion.window", "3.5", "expected an integer"),
        ("motion.epochs", "nan", "expected an integer"),
        ("simulator.center", "0, x, 0", "expected comma-separated numbers"),
        ("motion.imu_encoder_channels", "8, x", "expected comma-separated integers"),
        ("motion.attitude_encoder_channels", "8, 1.5", "expected comma-separated integers"),
    ])
    def test_bad_value_reports_key(self, tmp_path, name, raw, message):
        section, key = name.split(".")
        with pytest.raises(ConfigError, match=f"{name}: {message}"):
            load_one(tmp_path, section, key, raw)

    def test_float_list_parsing(self, tmp_path):
        cfg = load_one(tmp_path, "simulator", "ratios", "1, 2.5,3")
        assert cfg["simulator"]["ratios"] == (1.0, 2.5, 3.0)

    def test_int_list_parsing(self, tmp_path):
        cfg = load_one(tmp_path, "motion", "imu_encoder_channels", "8,16")
        assert cfg["motion"]["imu_encoder_channels"] == (8, 16)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_float_reports_key(self, tmp_path, raw):
        with pytest.raises(ConfigError, match="ekf.update_rate: must be finite"):
            load_one(tmp_path, "ekf", "update_rate", raw)

    @pytest.mark.parametrize("raw", ["nan, 0, 0", "0, inf, 0", "0, 0, -inf"])
    def test_non_finite_list_reports_key(self, tmp_path, raw):
        with pytest.raises(ConfigError, match="simulator.center: must be finite"):
            load_one(tmp_path, "simulator", "center", raw)

    @pytest.mark.parametrize("key", ["simulator.center", "simulator.ratios",
                                     "simulator.phases", "noise.b_g0", "noise.b_a0"])
    @pytest.mark.parametrize("value", ["1, 2", "1, 2, 3, 4", "0.5", ""])
    def test_vectors_must_be_three_numbers(self, tmp_path, key, value):
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=f"{key}: expected 3 numbers"):
            load_one(tmp_path, section, name, value)


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

    def test_enum_words_ignore_case(self, tmp_path):
        assert trajectory_spec(load_one(tmp_path, "simulator", "kind", "Circle")).kind \
            is TrajectoryKind.CIRCLE

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = load_one(tmp_path, "simulator", "kind", "helix")
        with pytest.raises(ConfigError, match=r"simulator\.kind: .*'helix'.*'lissajous3d'"):
            trajectory_spec(cfg)

    def test_unknown_yaw_mode_rejected(self, tmp_path):
        cfg = load_one(tmp_path, "simulator", "yaw_mode", "wobble")
        with pytest.raises(ConfigError, match=r"simulator\.yaw_mode: .*'wobble'.*'fixed'"):
            trajectory_spec(cfg)

    @pytest.mark.parametrize("key", ["sigma_g", "sigma_a", "sigma_bg", "sigma_ba"])
    def test_negative_noise_density_rejected(self, tmp_path, key):
        cfg = load_one(tmp_path, "noise", key, "-1e-3")
        with pytest.raises(ConfigError, match=f"noise.{key}"):
            noise_spec(cfg, seed=0)

    def test_noise_spec_carries_seed(self):
        spec = noise_spec(load_config(None), seed=42)
        assert spec.seed == 42
        assert spec.sigma_g == 1e-3

    def test_motion_net_config_parses_representation(self, tmp_path):
        cfg = load_config(write_ini(
            tmp_path, "[motion]\nrepresentation = global\nlatent_dim = 16\n"))
        net = motion_net_config(cfg, seed=5)
        assert net.representation is RepresentationKind.GLOBAL
        assert net.latent_dim == 16
        assert net.seed == 5

    def test_motion_net_defaults_match_the_dataclass(self):
        # the served window is the training window: both defaults are 200
        assert motion_net_config(load_config(None), seed=0) == MotionNetConfig()
        assert MotionNetConfig().window == 200

    def test_other_builder_defaults_match_their_dataclasses(self):
        cfg = load_config(None)
        assert motion_train_config(cfg, seed=0) == TrainConfig()
        assert motion_loss_config(cfg) == LossConfig()
        assert ekf_config(cfg) == EkfConfig()
        # the filter's bias walk is the simulator's, by default too
        noise = noise_spec(cfg, seed=0)
        assert (EkfConfig().sigma_bg, EkfConfig().sigma_ba) == (noise.sigma_bg, noise.sigma_ba)

    def test_bad_representation_rejected(self, tmp_path):
        cfg = load_one(tmp_path, "motion", "representation", "camera")
        with pytest.raises(ConfigError, match=r"motion\.representation: .*'camera'.*'global'"):
            motion_net_config(cfg, seed=0)

    def test_loss_and_train_builders(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, "[motion]\nlambda = 2e-3\nepochs = 7\n"))
        assert motion_loss_config(cfg).lam == 2e-3
        tcfg = motion_train_config(cfg, seed=9)
        assert tcfg.epochs == 7 and tcfg.seed == 9

    def test_ekf_builder(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, "[ekf]\nupdate_rate = 10\n[noise]\nsigma_ba = 2e-4\n"))
        ecfg = ekf_config(cfg)
        assert ecfg.update_rate == 10.0 and ecfg.sigma_ba == 2e-4


class TestDumpDefaults:
    def test_dump_parses_and_covers_every_key(self):
        parser = configparser.ConfigParser()
        parser.read_string(dump_defaults())
        assert set(parser.sections()) == set(DEFAULTS)
        for section, kv in DEFAULTS.items():
            assert set(parser.options(section)) == set(kv)
        # numbers as Python writes them, vectors comma-separated
        assert parser.get("motion", "lr") == "0.001"
        assert parser.get("noise", "sigma_bg") == "1e-05"
        assert parser.get("motion", "window") == "200"
        assert parser.get("simulator", "ratios") == "1.0, 2.0, 3.0"
        assert parser.get("motion", "imu_encoder_channels") == "32, 64"

    def test_dump_reloads_cleanly(self, tmp_path):
        path = tmp_path / "defaults.ini"
        path.write_text(dump_defaults())
        cfg = load_config(str(path))
        assert cfg == DEFAULTS
        assert_typed_like_defaults(cfg)
