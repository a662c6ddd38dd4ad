"""Trajectory evaluation: ATE, interval RTE, accuracy AUC, improvement.

Every metric takes a (truth, estimate) pair of Trajectory structs on
identical timestamps (within 1e-9 s); only t, p and r are read. A pair
of unequal lengths or stamps raises DataError, fewer than 2 poses
InsufficientDataError. ATE is the raw position RMSE, with no alignment
transform. RTE compares relative displacements over a fixed time
interval with the estimate's displacement rotated into the truth frame,
so a constant position offset cancels while an orientation error does
not.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError


def _check_pair(truth, estimate):
    if len(truth) != len(estimate):
        raise DataError("truth and estimate must have equal length")
    if len(truth) < 2:
        raise InsufficientDataError("need at least 2 poses")
    off = np.flatnonzero(np.abs(truth.t - estimate.t) > 1e-9)
    if off.size:
        i = off[0]
        raise DataError(f"timestamps differ at t={truth.t[i]!r} vs {estimate.t[i]!r}")


def ate(truth, estimate) -> float:
    """Absolute translation error: sqrt(mean ||p_i - p_hat_i||^2), unaligned."""
    _check_pair(truth, estimate)
    return float(np.sqrt(np.mean(np.sum((truth.p - estimate.p) ** 2, axis=1))))


def rte_residuals(truth, estimate, interval: float = 5.0) -> np.ndarray:
    """Per-start-index interval residual norms (dense evaluation).

    residual_i = (p_{i+d} - p_i) - R_i R_hat_i^T (p_hat_{i+d} - p_hat_i)
    with d the sample count nearest to the requested interval, which
    must be positive (ConfigError otherwise).
    """
    if not interval > 0.0:
        raise ConfigError(f"rte interval must be positive, got {interval}")
    _check_pair(truth, estimate)
    t = truth.t
    span = t[-1] - t[0]
    if span <= interval:
        raise InsufficientDataError(
            f"trajectory spans {span:.3f} s, shorter than the {interval} s interval"
        )
    d = max(1, int(round(interval / (span / (len(t) - 1)))))
    dp = truth.p[d:] - truth.p[:-d]
    dq = estimate.p[d:] - estimate.p[:-d]
    rel = truth.r[:-d] @ np.swapaxes(estimate.r[:-d], 1, 2)
    res = dp - (rel @ dq[:, :, None])[:, :, 0]
    return np.sqrt((res[:, None, :] @ res[:, :, None])[:, 0, 0])


def rte(truth, estimate, interval: float = 5.0) -> float:
    """Relative translation error: RMSE of the interval residual norms."""
    res = rte_residuals(truth, estimate, interval)
    return float(np.sqrt(np.mean(res**2)))


def accuracy_auc(
    truth,
    estimate,
    interval: float = 5.0,
    tau_max: float = 1.0,
    n_thresholds: int = 100,
) -> float:
    """Mean fraction of interval residuals below a uniform threshold grid.

    accuracy(tau) = fraction of residual norms <= tau; the AUC averages
    accuracy over n_thresholds uniform points on (0, tau_max], so the
    result lives in [0, 1].
    """
    if not tau_max > 0.0:  # NaN fails too
        raise ConfigError(f"tau_max must be positive, got {tau_max}")
    if n_thresholds < 1:
        raise ConfigError("n_thresholds must be >= 1")
    res = rte_residuals(truth, estimate, interval)
    taus = tau_max * np.arange(1, n_thresholds + 1) / n_thresholds
    acc = np.array([np.mean(res <= tau) for tau in taus])
    return float(acc.mean())


def improvement_percentage(baseline_err: float, method_err: float) -> float:
    """100 * (baseline - method) / baseline."""
    if baseline_err <= 0.0:
        raise DataError("baseline error must be positive")
    return 100.0 * (baseline_err - method_err) / baseline_err
