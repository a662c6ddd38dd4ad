"""INI-backed run configuration shared by the command line tools.

``DEFAULTS`` lists every recognized key (section -> key -> default),
and each key's type is its default's: an int, a float, a word, a float
3-vector or a list of ints. ``load_config`` parses every value of a
user file once, when it loads, by the type of that key's default, and
returns plain nested dicts of typed values: the defaults with the
file's values in their place. A user file may set any subset of the
keys. An unknown section or key, a [DEFAULT] section, a value that
does not parse, a NaN or infinite number and a float vector whose
length is not its default's are each a ConfigError naming the
``section.key``, which catches typos early instead of silently running
with a default.

The ``*_spec`` / ``*_config`` builders below pass sections into the
dataclasses the library modules consume, so the CLI layer never parses
strings itself. A word that names an enum member (``simulator.kind``,
``simulator.yaw_mode``, ``motion.representation``) is checked by the
builder, which imports the module that defines its enum and dataclass
when it is called, so loading the config imports none of
``simulator``, ``motion_model`` or ``ekf``.
"""

from __future__ import annotations

import configparser
import dataclasses
import enum
import io
import math
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    from .ekf import EkfConfig
    from .motion_model import LossConfig, MotionNetConfig, TrainConfig
    from .simulator import NoiseSpec, TrajectorySpec

# Every supported key with its default; a value's type is its default's.
DEFAULTS: dict[str, dict] = {
    "simulator": {
        "kind": "figure8",
        "duration": 60.0,
        "imu_rate": 200.0,
        "amplitude": 1.0,
        "rate": 0.5,
        "center": (0.0, 0.0, 0.0),
        "yaw_mode": "follow_velocity",
        "yaw_rate": 0.0,
        "ratios": (1.0, 2.0, 3.0),
        "phases": (0.0, 0.5, 1.0),
    },
    "noise": {
        "sigma_g": 1e-3,
        "sigma_a": 1e-2,
        "sigma_bg": 1e-5,
        "sigma_ba": 1e-4,
        "b_g0": (0.0, 0.0, 0.0),
        "b_a0": (0.0, 0.0, 0.0),
    },
    "motion": {
        "representation": "body+attitude",
        "window": 200,
        "stride": 100,
        "latent_dim": 64,
        "gru_layers": 2,
        "imu_encoder_channels": (32, 64),
        "attitude_encoder_channels": (16, 32),
        "dropout_p": 0.5,
        "kernel": 5,
        "epochs": 100,
        "lr": 1e-3,
        "batch_size": 128,
        "delta": 0.005,
        "lambda": 1e-4,
        "val_fraction": 0.2,
    },
    "ekf": {
        "update_rate": 20.0,
    },
    "eval": {
        "rte_interval": 5.0,
    },
}

# what a value that does not parse should be, by element type: (one value, a vector)
_EXPECTED = {int: ("an integer", "comma-separated integers"),
             float: ("a number", "comma-separated numbers")}


def _parse(path: str, raw: str, default):
    """The INI text raw of the key path ("section.key") as a value of
    its default's type."""
    if isinstance(default, str):
        return raw
    vector = isinstance(default, tuple)
    kind = type(default[0]) if vector else type(default)
    tokens = [tok for tok in raw.split(",") if tok.strip()] if vector else [raw]
    try:
        values = tuple(map(kind, tokens))
    except ValueError:
        raise ConfigError(
            f"config key {path}: expected {_EXPECTED[kind][vector]}, got {raw!r}"
        ) from None
    if kind is float and not all(map(math.isfinite, values)):
        raise ConfigError(f"config key {path}: must be finite, got {raw!r}")
    if kind is float and vector and len(values) != len(default):
        raise ConfigError(
            f"config key {path}: expected {len(default)} numbers, got {raw!r}"
        )
    return values if vector else values[0]


def load_config(path: str | None = None) -> dict[str, dict]:
    """DEFAULTS with the values of an optional INI file in their place,
    each parsed by its default's type; a fresh copy on every call."""
    cfg = {section: dict(kv) for section, kv in DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)  # a '%' is text
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
        for key, raw in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            cfg[section][key] = _parse(f"{section}.{key}", raw, DEFAULTS[section][key])
    return cfg


def dump_defaults() -> str:
    """The full default configuration as INI text, numbers as Python
    writes them (str)."""
    parser = configparser.ConfigParser()
    for section, kv in DEFAULTS.items():
        parser[section] = {
            key: ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            for key, value in kv.items()
        }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def _fields(cls, values: dict) -> dict:
    """The entries of values that name a field of the dataclass cls."""
    return {f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values}


def _enum_member(cfg: dict, section: str, key: str, kind: type[enum.Enum]):
    """The member of the enum `kind` whose value is the key's word."""
    name = cfg[section][key].lower()
    try:
        return kind(name)
    except ValueError:
        raise ConfigError(
            f"config key {section}.{key}: unknown value {name!r}"
            f" (choose from {[member.value for member in kind]})"
        ) from None


def trajectory_spec(cfg: dict) -> TrajectorySpec:
    from .simulator import TrajectoryKind, TrajectorySpec, YawMode

    return TrajectorySpec(**{
        **cfg["simulator"],
        "kind": _enum_member(cfg, "simulator", "kind", TrajectoryKind),
        "yaw_mode": _enum_member(cfg, "simulator", "yaw_mode", YawMode),
    })


def noise_spec(cfg: dict, seed: int) -> NoiseSpec:
    from .simulator import NoiseSpec

    for key in ("sigma_g", "sigma_a", "sigma_bg", "sigma_ba"):
        value = cfg["noise"][key]
        if not value >= 0.0:
            raise ConfigError(f"config key noise.{key}: must be nonnegative, got {value}")
    return NoiseSpec(**cfg["noise"], seed=seed)


def motion_net_config(cfg: dict, seed: int) -> MotionNetConfig:
    from .imu_model import RepresentationKind
    from .motion_model import MotionNetConfig

    return MotionNetConfig(**{
        **_fields(MotionNetConfig, cfg["motion"]),
        "representation": _enum_member(cfg, "motion", "representation", RepresentationKind),
        "seed": seed,
    })


def motion_loss_config(cfg: dict) -> LossConfig:
    from .motion_model import LossConfig

    return LossConfig(delta=cfg["motion"]["delta"], lam=cfg["motion"]["lambda"])


def motion_train_config(cfg: dict, seed: int) -> TrainConfig:
    from .motion_model import TrainConfig

    return TrainConfig(**_fields(TrainConfig, cfg["motion"]), seed=seed)


def ekf_config(cfg: dict) -> EkfConfig:
    from .ekf import EkfConfig

    return EkfConfig(**cfg["ekf"], sigma_bg=cfg["noise"]["sigma_bg"],
                     sigma_ba=cfg["noise"]["sigma_ba"])
