"""Minimal SO(3)/so(3) kernel: skew operator, exp/log maps, right Jacobian.

Conventions used throughout the toolkit:

* rotation matrices are world-from-body (R maps body vectors to world),
* rotation vectors live in so(3) as 3-vectors, angle encoded in the norm,
* perturbations are applied on the left: R_perturbed = exp(xi) @ R.

All trig coefficient functions switch to Taylor expansions near the
origin so every map is smooth and accurate to machine precision for
small angles; this matters because downstream finite-difference tests
take logs of rotations within ~1e-6 of identity.

Quaternions intentionally do not appear here; conversion lives at the
dataset I/O boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRotationError

# Below this angle (rad) the closed-form trig coefficients lose digits
# to cancellation and the Taylor branches take over.
_SMALL_ANGLE = 1e-4

_ROTATION_TOL = 1e-9


def hat(xi):
    """Map a 3-vector to its skew-symmetric matrix, hat(xi) @ y == cross(xi, y)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,):
        raise ValueError(f"expected shape (3,), got {xi.shape}")
    return np.array(
        [
            [0.0, -xi[2], xi[1]],
            [xi[2], 0.0, -xi[0]],
            [-xi[1], xi[0], 0.0],
        ]
    )


def vee(m):
    """Inverse of hat; extracts the 3-vector from a skew-symmetric matrix."""
    m = np.asarray(m, dtype=float)
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def exp_so3(xi):
    """Exponential map so(3) -> SO(3) via Rodrigues' formula.

    Returns exactly the identity for the zero vector. For angles below
    1e-4 rad the sin/cos coefficients use 4th-order Taylor expansions.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,):
        raise ValueError(f"expected shape (3,), got {xi.shape}")
    theta2 = float(xi @ xi)
    theta = np.sqrt(theta2)
    k = hat(xi)
    if theta < _SMALL_ANGLE:
        # sin(t)/t and (1-cos(t))/t^2 expanded around 0.
        a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    return np.eye(3) + a * k + b * (k @ k)


def log_so3(r):
    """Logarithm map SO(3) -> so(3); returns the rotation vector with angle in [0, pi].

    Validates orthonormality (R @ R.T == I and det == +1) to an absolute
    1e-9 and raises InvalidRotationError otherwise. The angle == pi case
    is handled through the diagonal of R + I since the skew part
    vanishes there.

    An (n, 3, 3) stack gives an (n, 3) array in one vectorized pass,
    each row equal to the bit to log_so3 of that matrix alone; one
    non-rotation rejects the whole stack. A single matrix keeps this
    scalar path, which is several times cheaper per call.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim == 3 and r.shape[1:] == (3, 3):
        return _log_so3_stack(r)
    if r.shape != (3, 3):
        raise ValueError(f"expected shape (3, 3) or (n, 3, 3), got {r.shape}")
    if not is_rotation(r, tol=_ROTATION_TOL):
        raise InvalidRotationError(
            "matrix is not a rotation within 1e-9 (orthonormality/determinant)"
        )
    # Clip guards against trace marginally outside [-1, 3] from roundoff.
    cos_theta = np.clip((np.trace(r) - 1.0) * 0.5, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    skew = 0.5 * (r - r.T)
    w = vee(skew)  # == sin(theta) * axis
    if theta < _SMALL_ANGLE:
        # theta/sin(theta) ~ 1 + t^2/6 + 7 t^4 / 360
        return w * (1.0 + theta * theta / 6.0 + 7.0 * theta**4 / 360.0)
    if theta > np.pi - 1e-6:
        # Near pi the skew part degenerates and arccos of the trace
        # loses the angle entirely (1 + cos(theta) underflows the trace
        # roundoff). Recover the axis from the dominant column of
        # R + I ~ (1 - cos) a a^T and the residual angle from |w| = sin.
        m = r + np.eye(3)
        col = int(np.argmax(np.diag(m)))
        axis = m[:, col]
        axis = axis / np.linalg.norm(axis)
        theta = np.pi - np.arcsin(min(np.linalg.norm(w), 1.0))
        # Fix the sign so exp(log(R)) reproduces R (w may be tiny but
        # still carries the sign when theta < pi).
        if w @ axis < 0.0:
            axis = -axis
        return theta * axis
    return w * (theta / np.sin(theta))


def _log_so3_stack(r):
    """log_so3 of an (n, 3, 3) stack: the same checks and branches, per row."""
    a, b, c, d, e, f, g, h, i = np.moveaxis(r.reshape(-1, 9), 1, 0)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    orth = np.abs(r @ np.swapaxes(r, 1, 2) - np.eye(3)).max(axis=(1, 2))
    bad = np.flatnonzero(~((orth <= _ROTATION_TOL) & (np.abs(det - 1.0) <= _ROTATION_TOL)))
    if bad.size:
        raise InvalidRotationError(
            f"matrix {bad[0]} of the stack is not a rotation within 1e-9"
            " (orthonormality/determinant)"
        )
    cos_theta = np.clip((np.trace(r, axis1=1, axis2=2) - 1.0) * 0.5, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    w = 0.5 * np.column_stack([h - f, c - g, d - b])  # vee of the skew part
    out = np.empty_like(w)
    small = theta < _SMALL_ANGLE
    near_pi = theta > np.pi - 1e-6
    generic = ~(small | near_pi)
    t = theta[small]
    out[small] = w[small] * (1.0 + t * t / 6.0 + 7.0 * t**4 / 360.0)[:, None]
    out[generic] = w[generic] * (theta[generic] / np.sin(theta[generic]))[:, None]
    if near_pi.any():
        m = r[near_pi] + np.eye(3)
        col = np.argmax(np.diagonal(m, axis1=1, axis2=2), axis=1)
        axis = m[np.arange(len(m)), :, col]
        axis = axis / row_norms(axis)[:, None]
        w_pi = w[near_pi]
        theta_pi = np.pi - np.arcsin(np.minimum(row_norms(w_pi), 1.0))
        axis[row_dots(w_pi, axis) < 0.0] *= -1.0
        out[near_pi] = theta_pi[:, None] * axis
    return out


def row_dots(u, v):
    """Dot products of matching rows of two (..., k) arrays, shape (...,):
    a stacked (1, k) @ (k, 1) matmul, one BLAS dot per row, so each
    equals a per-row `u @ v` and np.linalg.norm to the bit (an einsum or
    a sum of squares may round differently)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def row_norms(v):
    """Euclidean norm of each row of a (..., k) array, as row_dots."""
    return np.sqrt(row_dots(v, v))


def right_jacobian(xi):
    """Right Jacobian J_r of SO(3): exp(xi + d) ~ exp(xi) @ exp(J_r(xi) @ d).

    Needed exactly once in the toolkit, by the discrete covariance
    propagation, where the gyro-bias block of the transition matrix is
    -dt * R' * J_r((w - b_g) dt).
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,):
        raise ValueError(f"expected shape (3,), got {xi.shape}")
    theta2 = float(xi @ xi)
    theta = np.sqrt(theta2)
    k = hat(xi)
    if theta < _SMALL_ANGLE:
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
        c = 1.0 / 6.0 - theta2 / 120.0 + theta2 * theta2 / 5040.0
    else:
        b = (1.0 - np.cos(theta)) / theta2
        c = (theta - np.sin(theta)) / (theta2 * theta)
    return np.eye(3) - b * k + c * (k @ k)


def is_rotation(r, tol=_ROTATION_TOL):
    """True if r is orthonormal with determinant +1 within tol.

    Both checks are absolute: every entry of r @ r.T - I and det(r) - 1
    must lie within tol. Non-finite entries fail.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    if not np.abs(r @ r.T - np.eye(3)).max() <= tol:
        return False
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return abs(det - 1.0) <= tol
