"""Output checks for the benchmark, written with plain numpy.

Nothing here imports bodyframe_io: files are parsed from their
documented on-disk formats and every reference figure (ATE, dead
reckoning, bias residual, velocity RMSE) is computed independently of
the program, so a fault in the program's own metrics cannot hide a
fault in its outputs.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

GRAVITY = np.array([0.0, 0.0, -9.80665])

# filter-oracle acceptance
ATE_MAX_M = 0.5  # absolute bound on the oracle-fused position RMSE
ATE_MAX_SHARE_OF_DR = 0.1  # and at most a tenth of dead reckoning
SIGMA_COVERAGE_MIN = 0.9  # share of frames with |p err| <= 3 sqrt(tr P)
# train acceptance
BIAS_REMOVED_MIN = 0.5  # corrector must remove half the RMS injected bias
VEL_RMSE_MAX_SHARE_OF_ZERO = 0.5  # network RMSE vs an always-zero predictor


# ---------------------------------------------------------------------------
# file formats


def _table(path, n_cols):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != n_cols:
        raise ValueError(f"{path}: expected {n_cols} columns, got {data.shape[1]}")
    return data


def load_imu(path):
    """imu.csv -> (stamps_ns (n,) int64, w (n, 3), a (n, 3))."""
    data = _table(path, 7)
    return data[:, 0].astype(np.int64), data[:, 1:4], data[:, 4:7]


def load_groundtruth(path):
    """groundtruth.csv -> dict of stamps_ns, p, q (wxyz), v, b_g, b_a."""
    data = _table(path, 17)
    return {
        "stamps_ns": data[:, 0].astype(np.int64),
        "p": data[:, 1:4],
        "q": data[:, 4:8],
        "v": data[:, 8:11],
        "b_g": data[:, 11:14],
        "b_a": data[:, 14:17],
    }


def load_trajectory(path):
    """Filter output CSV -> dict of t, p, q (wxyz), v, tr_P."""
    data = _table(path, 12)
    return {
        "t": data[:, 0],
        "p": data[:, 1:4],
        "q": data[:, 4:8],
        "v": data[:, 8:11],
        "tr_P": data[:, 11],
    }


def load_bfwt(path):
    """Parse a BFWT weight container -> (variant, meta, {name: array})."""
    with open(path, "rb") as fh:
        blob = fh.read()
    prefix = struct.Struct("<4sHHI")
    magic, _version, _reserved, header_len = prefix.unpack_from(blob, 0)
    if magic != b"BFWT":
        raise ValueError(f"{path}: not a BFWT file")
    header = json.loads(blob[prefix.size : prefix.size + header_len])
    offset = prefix.size + header_len
    arrays = {}
    for entry in header["arrays"]:
        count = math.prod(entry["shape"])
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[entry["name"]] = arr.reshape(entry["shape"]).copy()
        offset += 8 * count
    return header["variant"], header["meta"], arrays


# ---------------------------------------------------------------------------
# rotations (Hamilton wxyz, body-to-world)


def quat_to_matrix(q):
    """(..., 4) wxyz unit quaternions -> (..., 3, 3) rotation matrices."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        -2,
    )


def quat_to_rotvec(q):
    """(n, 4) wxyz -> (n, 3) rotation vectors with angle in [0, pi]."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    q = np.where(q[:, :1] < 0.0, -q, q)
    s = np.linalg.norm(q[:, 1:], axis=1)
    angle = 2.0 * np.arctan2(s, q[:, 0])
    safe = np.where(s > 1e-12, s, 1.0)
    scale = np.where(s > 1e-12, angle / safe, 2.0 / q[:, 0])
    return q[:, 1:] * scale[:, None]


def _rodrigues(phi):
    theta = math.sqrt(float(phi @ phi))
    k = np.array([[0.0, -phi[2], phi[1]], [phi[2], 0.0, -phi[0]], [-phi[1], phi[0], 0.0]])
    if theta < 1e-8:
        return np.eye(3) + k + 0.5 * (k @ k)
    return (
        np.eye(3)
        + (math.sin(theta) / theta) * k
        + ((1.0 - math.cos(theta)) / (theta * theta)) * (k @ k)
    )


# ---------------------------------------------------------------------------
# reference computations


def position_rmse(p_est, p_true):
    """Root mean square of the per-frame position error norm (no alignment)."""
    err = np.asarray(p_est) - np.asarray(p_true)
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def dead_reckoning_positions(t, w, a, r0, v0, p0):
    """Open-loop first-order strapdown with each reading held to the next stamp."""
    n = len(t)
    out = np.empty((n, 3))
    r, v, p = r0.copy(), v0.copy(), p0.copy()
    out[0] = p
    for i in range(1, n):
        dt = t[i] - t[i - 1]
        acc = r @ a[i - 1] + GRAVITY
        p = p + v * dt + 0.5 * dt * dt * acc
        v = v + acc * dt
        r = r @ _rodrigues(w[i - 1] * dt)
        out[i] = p
    return out


def affine_corrections(weights_path, w, a):
    """Corrections of a learned affine corrector file: (gyro (n, 3), accel (n, 3)).

    Features are the last window_len raw frames, head-padded by repeating
    the first frame, flattened oldest first and standardized.
    """
    _, meta, arrays = load_bfwt(weights_path)
    k = int(meta["window_len"])
    raw = np.hstack([w, a])
    padded = np.vstack([np.repeat(raw[:1], k - 1, axis=0), raw])
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, 6))
    feats = windows.reshape(raw.shape[0], 6 * k)
    feats = (feats - arrays["feat_mean"]) / arrays["feat_scale"]
    pred = feats @ arrays["weight"] + arrays["bias"]
    return pred[:, 0:3], pred[:, 3:6]


def body_velocities(gt):
    """Ground-truth body-frame velocity R^T v per frame."""
    rot = quat_to_matrix(gt["q"])
    return np.einsum("nji,nj->ni", rot, gt["v"])


def body_velocity_rmse(traj, gt):
    """RMSE of an estimated trajectory's body-frame velocity R^T v."""
    rot = quat_to_matrix(traj["q"])
    est = np.einsum("nji,nj->ni", rot, traj["v"])
    err = est - body_velocities(gt)
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def integrated_ate(v_body, imu, gt):
    """Position RMSE of network-only odometry.

    v_body (m, window, 3) holds predictions for the first m * window
    frames; they are rotated to the world frame with the ground-truth
    attitude and integrated from the true initial position.
    """
    v_body = np.asarray(v_body).reshape(-1, 3)
    n = len(v_body)
    t = (imu[0][:n] - imu[0][0]) * 1e-9
    v_world = np.einsum("nij,nj->ni", quat_to_matrix(gt["q"][:n]), v_body)
    steps = v_world[:-1] * np.diff(t)[:, None]
    p = gt["p"][0] + np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
    return position_rmse(p, gt["p"][:n])


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


# ---------------------------------------------------------------------------
# checks: each returns (figures dict, list of failure messages)


def check_trajectory(traj, imu_stamps_ns, gt, dr_ate):
    """filter-oracle: layout, finiteness, ATE and 3-sigma coverage."""
    fails = []
    n = len(imu_stamps_ns)
    if len(traj["t"]) != n:
        return {}, [f"{len(traj['t'])} rows for {n} IMU frames"]
    t_imu = (imu_stamps_ns - imu_stamps_ns[0]) * 1e-9
    if np.any(np.abs(traj["t"] - t_imu) > 1e-8 * np.maximum(1.0, t_imu)):
        fails.append("row times differ from the IMU stamps")
    if not all(np.all(np.isfinite(traj[k])) for k in traj):
        fails.append("non-finite value in the trajectory")
    if np.any(np.abs(np.linalg.norm(traj["q"], axis=1) - 1.0) > 1e-6):
        fails.append("quaternion off unit norm")
    if not np.array_equal(gt["stamps_ns"], imu_stamps_ns):
        fails.append("ground truth is not sampled at the IMU stamps")
        return {}, fails
    ate = position_rmse(traj["p"], gt["p"])
    if not ate < ATE_MAX_M:
        fails.append(f"ATE {ate:.4g} m is not below {ATE_MAX_M} m")
    if not ate < ATE_MAX_SHARE_OF_DR * dr_ate:
        fails.append(f"ATE {ate:.4g} m is not below a tenth of dead reckoning {dr_ate:.4g} m")
    err = np.linalg.norm(traj["p"] - gt["p"], axis=1)
    with np.errstate(invalid="ignore"):
        inside = err <= 3.0 * np.sqrt(traj["tr_P"])
    coverage = float(np.mean(inside))
    if not coverage >= SIGMA_COVERAGE_MIN:
        fails.append(f"3-sigma coverage {coverage:.3f} below {SIGMA_COVERAGE_MIN}")
    return {"ate_m": ate, "coverage": coverage}, fails


def check_identical(path, reference_path):
    """filter-network: the output file must equal the reference byte for byte."""
    with open(path, "rb") as fh:
        got = fh.read()
    with open(reference_path, "rb") as fh:
        want = fh.read()
    if got == want:
        return {}, []
    lines_got, lines_want = got.splitlines(), want.splitlines()
    for i, (x, y) in enumerate(zip(lines_got, lines_want)):
        if x != y:
            return {}, [f"{path} differs from {reference_path} at line {i + 1}"]
    return {}, [f"{path} has {len(lines_got)} lines, reference {len(lines_want)}"]


def check_corrector(weights_path, imu, gt):
    """train: the corrector must remove half the RMS injected gyro and accel bias."""
    _, w, a = imu
    corr_g, corr_a = affine_corrections(weights_path, w, a)
    figures, fails = {}, []
    for name, bias, corr in (("gyro", gt["b_g"], corr_g), ("accel", gt["b_a"], corr_a)):
        injected, left = rms(bias), rms(bias + corr)
        figures[f"{name}_bias_left"] = left / injected
        if not left <= (1.0 - BIAS_REMOVED_MIN) * injected:
            fails.append(
                f"{name} bias RMS {left:.3g} left of {injected:.3g} injected"
            )
    return figures, fails


def heldout_inputs(imu, gt, window):
    """Non-overlapping network windows over a sequence.

    Returns imu (m, window, 6), attitude rotation vectors (m, window, 3)
    and the body-frame velocity targets (m, window, 3).
    """
    _, w, a = imu
    m = len(w) // window
    if m < 1:
        raise ValueError(f"sequence shorter than one {window}-frame window")
    cut = m * window
    shape = (m, window, 3)
    return (
        np.hstack([w, a])[:cut].reshape(m, window, 6),
        quat_to_rotvec(gt["q"])[:cut].reshape(shape),
        body_velocities(gt)[:cut].reshape(shape),
    )


def check_velocity(v_pred, v_true):
    """train: network velocity RMSE must be below half a zero predictor's."""
    err = np.asarray(v_pred) - v_true
    rmse = float(np.sqrt(np.mean(np.sum(err * err, axis=-1))))
    zero = float(np.sqrt(np.mean(np.sum(v_true * v_true, axis=-1))))
    fails = []
    if not rmse < VEL_RMSE_MAX_SHARE_OF_ZERO * zero:
        fails.append(f"held-out RMSE {rmse:.4g} m/s vs {zero:.4g} m/s for zero")
    return {"heldout_vel_rmse_mps": rmse, "zero_rmse_mps": zero}, fails
