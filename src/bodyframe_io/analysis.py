"""Latent-space observability study: feature collection and PCA.

collect_latents rows are the network's per-frame encoder outputs (the
tap sits after the convolutional encoders and before the recurrent
stack). pca_cumulative_variance reports how much of the feature
variance the first k principal directions explain, computed from the
singular values of the centered (optionally standardized) matrix; no
explicit Gram/covariance matrix is formed, which keeps small singular
values honest.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DataError, DegenerateInputError, InsufficientDataError

#: singular-value energy below this fraction of what float64 roundoff
#: could produce is treated as "no variance at all"
_DEGENERATE_ENERGY = 1e-24


def collect_latents(model, windows) -> np.ndarray:
    """Per-frame encoder features of a WindowSet, encoded one window at a
    time and stacked: (windows x frames, d)."""
    model.config.require_kind(windows.kind, "window set")
    singles = (windows[i : i + 1] for i in range(len(windows)))
    return np.vstack([model.encode(one.imu, one.att)[0] for one in singles])


def pca_cumulative_variance(feature_matrix, standardize: bool = False) -> np.ndarray:
    """Cumulative explained-variance fractions of the feature matrix.

    Columns are mean-centered and scaled by 1/sqrt(rows-1); with
    standardize=True each column is additionally divided by its std
    (constant columns are left unscaled). Returns the running sum of
    s_i^2 / sum(s^2) over the singular values s, a nondecreasing vector
    ending at 1.
    """
    f = np.asarray(feature_matrix, dtype=float)
    if f.ndim != 2:
        raise DataError(f"expected a 2-D feature matrix, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise DataError("feature matrix must be finite")
    rows, cols = f.shape
    if rows < 2:
        raise InsufficientDataError("need at least 2 rows for a spectrum")
    if rows < cols:
        warnings.warn(
            f"feature matrix has fewer rows ({rows}) than columns ({cols}); "
            "the spectrum is rank-limited by the sample count",
            stacklevel=2,
        )
    centered = (f - f.mean(axis=0)) / np.sqrt(rows - 1)
    if standardize:
        std = centered.std(axis=0)
        centered = centered / np.where(std > 0.0, std, 1.0)
    s = np.linalg.svd(centered, compute_uv=False)
    energy = s * s
    total = float(energy.sum())
    scale = max(float(np.abs(f).max()), 1.0)
    if total <= _DEGENERATE_ENERGY * scale * scale:
        raise DegenerateInputError(
            "feature matrix has zero variance (all rows identical)"
        )
    return np.cumsum(energy) / total
