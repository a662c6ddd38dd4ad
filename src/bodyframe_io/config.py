"""INI-backed run configuration shared by the command line tools.

A run config is a flat two-level mapping (section -> key -> string).
``DEFAULTS`` documents every recognized key together with its default
value; user files may override any subset but introducing an unknown
section or key, or a [DEFAULT] section, is a hard error, which catches
typos early instead of silently running with a default.

Typed accessors convert on demand, reject NaN and infinite numbers,
and report the offending ``section.key`` path on failure. The
``*_spec`` / ``*_config`` builders below translate sections into the
dataclasses the library modules consume, so the CLI layer never parses
strings itself. Each builder imports the module that defines its
dataclass when it is called, so loading the config imports none of
``simulator``, ``motion_model`` or ``ekf``.
"""

from __future__ import annotations

import configparser
import enum
import io
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    from .ekf import EkfConfig
    from .motion_model import LossConfig, MotionNetConfig, TrainConfig
    from .simulator import NoiseSpec, TrajectorySpec

# Every supported key with its default, as strings (INI is untyped).
DEFAULTS: dict[str, dict[str, str]] = {
    "simulator": {
        "kind": "figure8",
        "duration": "60.0",
        "imu_rate": "200.0",
        "amplitude": "1.0",
        "rate": "0.5",
        "center": "0.0, 0.0, 0.0",
        "yaw_mode": "follow_velocity",
        "yaw_rate": "0.0",
        "ratios": "1.0, 2.0, 3.0",
        "phases": "0.0, 0.5, 1.0",
    },
    "noise": {
        "sigma_g": "1e-3",
        "sigma_a": "1e-2",
        "sigma_bg": "1e-5",
        "sigma_ba": "1e-4",
        "b_g0": "0.0, 0.0, 0.0",
        "b_a0": "0.0, 0.0, 0.0",
    },
    "motion": {
        "representation": "body+attitude",
        "window": "200",
        "stride": "100",
        "latent_dim": "64",
        "gru_layers": "2",
        "imu_encoder_channels": "32, 64",
        "attitude_encoder_channels": "16, 32",
        "dropout_p": "0.5",
        "kernel": "5",
        "epochs": "100",
        "lr": "1e-3",
        "batch_size": "128",
        "delta": "0.005",
        "lambda": "1e-4",
        "val_fraction": "0.2",
    },
    "ekf": {
        "update_rate": "20.0",
    },
    "eval": {
        "rte_interval": "5.0",
    },
}

@dataclass
class RunConfig:
    """Merged defaults + user overrides, with typed access."""

    values: dict[str, dict[str, str]] = field(
        default_factory=lambda: {s: dict(kv) for s, kv in DEFAULTS.items()}
    )

    def get(self, section: str, key: str) -> str:
        try:
            return self.values[section][key]
        except KeyError:
            raise ConfigError(f"unknown config key {section}.{key}") from None

    def getfloat(self, section: str, key: str) -> float:
        raw = self.get(section, key)
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"config key {section}.{key}: expected a number, got {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"config key {section}.{key}: must be finite, got {raw!r}")
        return value

    def getint(self, section: str, key: str) -> int:
        raw = self.get(section, key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"config key {section}.{key}: expected an integer, got {raw!r}"
            ) from None

    def getfloats(self, section: str, key: str) -> tuple[float, ...]:
        raw = self.get(section, key)
        try:
            values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(
                f"config key {section}.{key}: expected comma-separated numbers,"
                f" got {raw!r}"
            ) from None
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"config key {section}.{key}: must be finite, got {raw!r}")
        return values

    def getints(self, section: str, key: str) -> tuple[int, ...]:
        raw = self.get(section, key)
        try:
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(
                f"config key {section}.{key}: expected comma-separated integers,"
                f" got {raw!r}"
            ) from None


def load_config(path: str | None = None) -> RunConfig:
    """Defaults merged with an optional INI file; unknown keys rejected."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    if parser.defaults():  # configparser would copy its keys into every section
        raise ConfigError(f"{path}: a [DEFAULT] section is not supported")
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            cfg.values[section][key] = value
    return cfg


def dump_defaults() -> str:
    """The full default configuration as INI text."""
    parser = configparser.ConfigParser()
    for section, kv in DEFAULTS.items():
        parser[section] = kv
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _enum_member(cfg: RunConfig, section: str, key: str, kind: type[enum.Enum]):
    """The member of the enum `kind` whose value is the key's text."""
    name = cfg.get(section, key).strip().lower()
    try:
        return kind(name)
    except ValueError:
        raise ConfigError(
            f"config key {section}.{key}: unknown value {name!r}"
            f" (choose from {[member.value for member in kind]})"
        ) from None


def trajectory_spec(cfg: RunConfig) -> TrajectorySpec:
    from .simulator import TrajectoryKind, TrajectorySpec, YawMode

    triples = {key: cfg.getfloats("simulator", key) for key in ("center", "ratios", "phases")}
    for key, values in triples.items():
        if len(values) != 3:
            raise ConfigError(f"config key simulator.{key}: expected three numbers")
    return TrajectorySpec(
        kind=_enum_member(cfg, "simulator", "kind", TrajectoryKind),
        duration=cfg.getfloat("simulator", "duration"),
        imu_rate=cfg.getfloat("simulator", "imu_rate"),
        amplitude=cfg.getfloat("simulator", "amplitude"),
        rate=cfg.getfloat("simulator", "rate"),
        yaw_mode=_enum_member(cfg, "simulator", "yaw_mode", YawMode),
        yaw_rate=cfg.getfloat("simulator", "yaw_rate"),
        **triples,
    )


def noise_spec(cfg: RunConfig, seed: int) -> NoiseSpec:
    from .simulator import NoiseSpec

    b_g0 = cfg.getfloats("noise", "b_g0")
    b_a0 = cfg.getfloats("noise", "b_a0")
    if len(b_g0) != 3 or len(b_a0) != 3:
        raise ConfigError("config keys noise.b_g0/b_a0: expected three numbers")
    sigmas = {k: cfg.getfloat("noise", k) for k in ("sigma_g", "sigma_a", "sigma_bg", "sigma_ba")}
    for key, value in sigmas.items():
        if not value >= 0.0:
            raise ConfigError(f"config key noise.{key}: must be nonnegative, got {value}")
    return NoiseSpec(
        **sigmas,
        b_g0=b_g0,
        b_a0=b_a0,
        seed=seed,
    )


def motion_net_config(cfg: RunConfig, seed: int) -> MotionNetConfig:
    from .imu_model import RepresentationKind
    from .motion_model import MotionNetConfig

    return MotionNetConfig(
        representation=_enum_member(cfg, "motion", "representation", RepresentationKind),
        window=cfg.getint("motion", "window"),
        latent_dim=cfg.getint("motion", "latent_dim"),
        gru_layers=cfg.getint("motion", "gru_layers"),
        imu_encoder_channels=cfg.getints("motion", "imu_encoder_channels"),
        attitude_encoder_channels=cfg.getints("motion", "attitude_encoder_channels"),
        dropout_p=cfg.getfloat("motion", "dropout_p"),
        kernel=cfg.getint("motion", "kernel"),
        seed=seed,
    )


def motion_loss_config(cfg: RunConfig) -> LossConfig:
    from .motion_model import LossConfig

    return LossConfig(
        delta=cfg.getfloat("motion", "delta"),
        lam=cfg.getfloat("motion", "lambda"),
    )


def motion_train_config(cfg: RunConfig, seed: int) -> TrainConfig:
    from .motion_model import TrainConfig

    return TrainConfig(
        epochs=cfg.getint("motion", "epochs"),
        lr=cfg.getfloat("motion", "lr"),
        batch_size=cfg.getint("motion", "batch_size"),
        seed=seed,
    )


def ekf_config(cfg: RunConfig) -> EkfConfig:
    from .ekf import EkfConfig

    return EkfConfig(
        update_rate=cfg.getfloat("ekf", "update_rate"),
        sigma_bg=cfg.getfloat("noise", "sigma_bg"),
        sigma_ba=cfg.getfloat("noise", "sigma_ba"),
    )
