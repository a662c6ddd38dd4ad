"""Body-frame inertial odometry toolkit.

Simulation of IMU data on analytic trajectories, learned sensor
correction and body-frame velocity models built from scratch on numpy,
an error-state EKF that fuses the two, dataset I/O in EuRoC-style CSV,
trajectory metrics, and latent-space analysis utilities.

The package re-exports nothing: code imports each name from the
submodule that defines it (``from bodyframe_io.metrics import ate``),
and ``import bodyframe_io`` alone loads none of the submodules.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where unset, before any submodule loads numpy: a
threaded BLAS may sum in another order, changing seeded results in
their last bits with the core count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
