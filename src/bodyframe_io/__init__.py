"""Body-frame inertial odometry toolkit.

Simulation of IMU data on analytic trajectories, learned sensor
correction and body-frame velocity models built from scratch on numpy,
an error-state EKF that fuses the two, dataset I/O in EuRoC-style CSV,
trajectory metrics, and latent-space analysis utilities.

The public names in ``__all__`` load on first access (PEP 562):
``import bodyframe_io`` imports none of the submodules, and
``bodyframe_io.X`` imports only the module that defines X (and what
that module imports). ``from bodyframe_io import *`` loads them all.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where unset, before any submodule loads numpy: a
threaded BLAS may sum in another order, changing seeded results in
their last bits with the core count.
"""

import importlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "analysis": ("collect_latents", "pca_cumulative_variance"),
    "corrector": (
        "CorrectionOutput",
        "IdentityCorrector",
        "LearnedAffineCorrector",
        "correct_and_quantify",
        "train_corrector",
    ),
    "ekf": (
        "P0",
        "EkfConfig",
        "FilterRun",
        "FilterState",
        "batch_run",
        "ekf_propagate",
        "ekf_update",
        "measurement_jacobian",
        "predicted_velocity",
        "streaming_run",
    ),
    "errors": (
        "ConfigError",
        "DataError",
        "DegenerateInputError",
        "InsufficientDataError",
        "InvalidRotationError",
        "NumericalError",
        "ParseError",
        "SingularUpdateError",
        "TimestampOrderError",
    ),
    "imu_model": (
        "GRAVITY",
        "ImuWindow",
        "RepresentationKind",
        "specific_force",
        "transform_representation",
    ),
    "metrics": ("accuracy_auc", "ate", "improvement_percentage", "rte", "rte_residuals"),
    "motion_model": (
        "ConstantZeroProvider",
        "LossConfig",
        "MotionNet",
        "MotionNetConfig",
        "NetworkProvider",
        "OracleProvider",
        "TrainConfig",
        "VelocityMeasurement",
        "WindowSet",
        "combined_loss",
        "covariance_loss",
        "huber_loss",
        "oracle_predict",
        "train_motion_model",
        "velocity_windows",
    ),
    "preintegration": (
        "NavState",
        "dead_reckon",
        "propagate_chunk",
        "propagate_covariance",
        "propagate_state",
        "propagation_jacobians",
        "state_boxminus",
        "state_boxplus",
    ),
    "simulator": (
        "BiasTruth",
        "NoiseSpec",
        "TrajectoryKind",
        "Trajectory",
        "TrajectorySpec",
        "YawMode",
        "corrupt_imu",
        "derive_imu",
        "generate_trajectory",
    ),
    "so3": ("exp_so3", "hat", "is_rotation", "log_so3", "right_jacobian", "vee"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name, imported from its module on first access and kept."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
