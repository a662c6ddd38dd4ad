"""Sequence I/O in EuRoC-style CSV and the corpus manifest.

A sequence directory holds two files:

    imu.csv          timestamp_ns,wx,wy,wz,ax,ay,az
    groundtruth.csv  timestamp_ns,px,py,pz,qw,qx,qy,qz,vx,vy,vz,
                     bwx,bwy,bwz,bax,bay,baz

Timestamps are integer nanoseconds on disk and float64 seconds in
memory, anchored at the first stamp of the file being loaded (or an
explicit origin). Quaternions are Hamilton convention, wxyz order,
body-to-world; this module is the only place they exist, with rotation
matrices everywhere else. Floats are written with repr-level precision
(%.17g) so a write/read round trip is exact.

Estimated trajectories use a third format shared with the filter:

    t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,tr_P

with t in seconds and 9 significant digits.

A corpus is a directory of sequence subdirectories plus a corpus.cfg
INI manifest listing each sequence's name, role (seen/unseen), and
relative path.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError, TimestampOrderError
from .imu_model import ImuSample
from .preintegration import NavState
from .simulator import BiasTruth, TrajectorySample

IMU_HEADER = "timestamp_ns,wx,wy,wz,ax,ay,az"
GROUNDTRUTH_HEADER = (
    "timestamp_ns,px,py,pz,qw,qx,qy,qz,vx,vy,vz,bwx,bwy,bwz,bax,bay,baz"
)
TRAJECTORY_HEADER = "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,tr_P"

MANIFEST_NAME = "corpus.cfg"
ROLES = ("seen", "unseen")


# ---------------------------------------------------------------------------
# Quaternions (Hamilton, wxyz, body-to-world). I/O boundary only.


def quat_from_matrix(r) -> np.ndarray:
    """Rotation matrix to unit quaternion, w >= 0 canonical sign."""
    r = np.asarray(r, dtype=float)
    tr = np.trace(r)
    if tr > 0:
        s = 2.0 * math.sqrt(tr + 1.0)
        q = np.array(
            [
                0.25 * s,
                (r[2, 1] - r[1, 2]) / s,
                (r[0, 2] - r[2, 0]) / s,
                (r[1, 0] - r[0, 1]) / s,
            ]
        )
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = 2.0 * math.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0))
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def matrix_from_quat(q) -> np.ndarray:
    """Unit quaternion (wxyz) to rotation matrix; normalizes small drift."""
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if abs(n - 1.0) > 1e-6:
        raise DataError(f"quaternion norm {n:.6g} too far from 1")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def slerp(q0, q1, alpha: float) -> np.ndarray:
    """Spherical interpolation along the shorter arc, alpha in [0, 1]."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    dot = float(q0 @ q1)
    if dot < 0.0:  # sign-align: q and -q are the same rotation
        q1, dot = -q1, -dot
    dot = min(dot, 1.0)
    if dot > 1.0 - 1e-10:
        out = (1.0 - alpha) * q0 + alpha * q1
        return out / np.linalg.norm(out)
    omega = math.acos(dot)
    so = math.sin(omega)
    return (
        math.sin((1.0 - alpha) * omega) / so * q0
        + math.sin(alpha * omega) / so * q1
    )


# ---------------------------------------------------------------------------
# CSV primitives


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _read_rows(path, expected_cols: int, header: str):
    """Yield (lineno, [floats]) for each data row; validates the header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    first = lines[0].lstrip("#").replace(" ", "")
    if first != header:
        raise ParseError(f"{path}:1: unexpected header {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != expected_cols:
            raise ParseError(
                f"{path}:{lineno}: expected {expected_cols} columns, "
                f"got {len(parts)}"
            )
        try:
            rows.append((lineno, [float(p) for p in parts]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return rows


def _check_monotone_ns(path, rows):
    prev = None
    for lineno, values in rows:
        if prev is not None and values[0] <= prev:
            raise TimestampOrderError(
                f"{path}:{lineno}: timestamps not strictly increasing"
            )
        prev = values[0]


# ---------------------------------------------------------------------------
# IMU files


def write_imu_csv(path, samples, origin_ns: int = 0):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(IMU_HEADER + "\n")
        for s in samples:
            ns = origin_ns + int(round(s.t * 1e9))
            vals = [str(ns)] + [_fmt(x) for x in (*s.w, *s.a)]
            fh.write(",".join(vals) + "\n")


def load_imu_csv(path, origin_ns: int | None = None):
    """Read IMU samples; timestamps become seconds since origin_ns
    (default: the file's first stamp)."""
    rows = _read_rows(path, 7, IMU_HEADER)
    _check_monotone_ns(path, rows)
    if origin_ns is None:
        origin_ns = int(rows[0][1][0])
    return [
        ImuSample(
            t=(v[0] - origin_ns) * 1e-9,
            w=np.array(v[1:4]),
            a=np.array(v[4:7]),
        )
        for _, v in rows
    ]


def imu_origin_ns(path) -> int:
    """First timestamp of an IMU file, in nanoseconds."""
    rows = _read_rows(path, 7, IMU_HEADER)
    return int(rows[0][1][0])


# ---------------------------------------------------------------------------
# Ground truth files


@dataclass
class GroundTruthRecord:
    """One ground-truth row: pose, velocity, and true sensor biases."""

    t_ns: int
    p: np.ndarray
    q: np.ndarray  # wxyz, body-to-world
    v: np.ndarray
    b_w: np.ndarray
    b_a: np.ndarray


def groundtruth_from_simulation(
    trajectory, bias: BiasTruth | None = None, origin_ns: int = 0
):
    """Convert simulator output (plus optional injected biases) to records."""
    n = len(trajectory)
    if bias is not None and bias.b_g.shape[0] != n:
        raise DataError("bias truth length does not match trajectory")
    records = []
    for i, s in enumerate(trajectory):
        records.append(
            GroundTruthRecord(
                t_ns=origin_ns + int(round(s.t * 1e9)),
                p=np.asarray(s.p, dtype=float),
                q=quat_from_matrix(s.r),
                v=np.asarray(s.v, dtype=float),
                b_w=bias.b_g[i].copy() if bias is not None else np.zeros(3),
                b_a=bias.b_a[i].copy() if bias is not None else np.zeros(3),
            )
        )
    return records


def write_groundtruth_csv(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(GROUNDTRUTH_HEADER + "\n")
        for r in records:
            vals = [str(int(r.t_ns))] + [
                _fmt(x) for x in (*r.p, *r.q, *r.v, *r.b_w, *r.b_a)
            ]
            fh.write(",".join(vals) + "\n")


def load_groundtruth_csv(path):
    rows = _read_rows(path, 17, GROUNDTRUTH_HEADER)
    _check_monotone_ns(path, rows)
    out = []
    for lineno, v in rows:
        q = np.array(v[4:8])
        if abs(np.linalg.norm(q) - 1.0) > 1e-6:
            raise ParseError(f"{path}:{lineno}: quaternion is not unit norm")
        out.append(
            GroundTruthRecord(
                t_ns=int(v[0]),
                p=np.array(v[1:4]),
                q=q,
                v=np.array(v[8:11]),
                b_w=np.array(v[11:14]),
                b_a=np.array(v[14:17]),
            )
        )
    return out


def _bracket(t_ns_arr, target_ns, path_hint="groundtruth"):
    if target_ns < t_ns_arr[0] - 1 or target_ns > t_ns_arr[-1] + 1:
        raise DataError(
            f"interpolation target {target_ns} ns outside {path_hint} span "
            f"[{t_ns_arr[0]}, {t_ns_arr[-1]}]"
        )
    hi = int(np.searchsorted(t_ns_arr, target_ns, side="left"))
    hi = min(max(hi, 1), len(t_ns_arr) - 1)
    lo = hi - 1
    return lo, hi


def interpolate_groundtruth(records, times, origin_ns: int | None = None):
    """Ground truth resampled at `times` (seconds since origin_ns,
    default the first record). Positions, velocities linear; orientation
    slerp. Returns TrajectorySamples (a_world/w_body are not recoverable
    from poses and stay None)."""
    if len(records) < 2:
        raise DataError("need at least 2 ground-truth records to interpolate")
    if origin_ns is None:
        origin_ns = records[0].t_ns
    t_ns_arr = np.array([r.t_ns for r in records], dtype=float)
    out = []
    for t in np.asarray(times, dtype=float):
        target = origin_ns + t * 1e9
        lo, hi = _bracket(t_ns_arr, target)
        span = t_ns_arr[hi] - t_ns_arr[lo]
        alpha = float(np.clip((target - t_ns_arr[lo]) / span, 0.0, 1.0))
        a, b = records[lo], records[hi]
        q = slerp(a.q, b.q, alpha)
        out.append(
            TrajectorySample(
                t=float(t),
                r=matrix_from_quat(q),
                v=(1 - alpha) * a.v + alpha * b.v,
                p=(1 - alpha) * a.p + alpha * b.p,
                a_world=None,
                w_body=None,
            )
        )
    return out


def interpolate_biases(records, times, origin_ns: int | None = None):
    """True biases resampled at `times`; returns (b_g, b_a) arrays (n, 3)."""
    if len(records) < 2:
        raise DataError("need at least 2 ground-truth records to interpolate")
    if origin_ns is None:
        origin_ns = records[0].t_ns
    t_ns_arr = np.array([r.t_ns for r in records], dtype=float)
    b_g = np.empty((len(np.atleast_1d(times)), 3))
    b_a = np.empty_like(b_g)
    for i, t in enumerate(np.asarray(times, dtype=float)):
        target = origin_ns + t * 1e9
        lo, hi = _bracket(t_ns_arr, target)
        span = t_ns_arr[hi] - t_ns_arr[lo]
        alpha = float(np.clip((target - t_ns_arr[lo]) / span, 0.0, 1.0))
        a, b = records[lo], records[hi]
        b_g[i] = (1 - alpha) * a.b_w + alpha * b.b_w
        b_a[i] = (1 - alpha) * a.b_a + alpha * b.b_a
    return b_g, b_a


# ---------------------------------------------------------------------------
# Corpus manifest


@dataclass
class CorpusEntry:
    name: str
    role: str  # seen | unseen
    path: str  # relative to the corpus root


def write_corpus_manifest(root, entries):
    cfg = configparser.ConfigParser()
    cfg["corpus"] = {"version": "1"}
    for e in entries:
        if e.role not in ROLES:
            raise DataError(f"unknown role {e.role!r} for sequence {e.name!r}")
        cfg[f"sequence:{e.name}"] = {"role": e.role, "path": e.path}
    with open(os.path.join(root, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        cfg.write(fh)


def read_corpus_manifest(root):
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        raise DataError(f"no {MANIFEST_NAME} in {root}")
    cfg = configparser.ConfigParser()
    try:
        cfg.read(path)
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    entries = []
    for section in cfg.sections():
        if section == "corpus":
            continue
        if not section.startswith("sequence:"):
            raise ParseError(f"{path}: unexpected section [{section}]")
        name = section.split(":", 1)[1]
        role = cfg.get(section, "role", fallback="seen")
        if role not in ROLES:
            raise ParseError(f"{path}: bad role {role!r} in [{section}]")
        entries.append(
            CorpusEntry(name=name, role=role, path=cfg.get(section, "path", fallback=name))
        )
    if not entries:
        raise DataError(f"{path}: manifest lists no sequences")
    return entries


def write_sequence(seq_dir, imu_samples, records):
    """Write imu.csv + groundtruth.csv into seq_dir (created if needed)."""
    os.makedirs(seq_dir, exist_ok=True)
    write_imu_csv(os.path.join(seq_dir, "imu.csv"), imu_samples)
    write_groundtruth_csv(os.path.join(seq_dir, "groundtruth.csv"), records)


def load_sequence(seq_dir):
    """Load one sequence; ground truth is interpolated onto the IMU
    timestamps. Returns (imu_samples, truth_samples, (b_g, b_a))."""
    imu_path = os.path.join(seq_dir, "imu.csv")
    gt_path = os.path.join(seq_dir, "groundtruth.csv")
    origin = imu_origin_ns(imu_path)
    imu = load_imu_csv(imu_path, origin_ns=origin)
    records = load_groundtruth_csv(gt_path)
    times = [s.t for s in imu]
    truth = interpolate_groundtruth(records, times, origin_ns=origin)
    biases = interpolate_biases(records, times, origin_ns=origin)
    return imu, truth, biases


# ---------------------------------------------------------------------------
# Estimated trajectory files


def write_trajectory_csv(path, times, states, traces):
    """Write filter output: one row per IMU timestamp, 9 significant
    digits, with tr_P the trace of the error covariance."""
    if not (len(times) == len(states) == len(traces)):
        raise DataError("times, states, traces must have equal length")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for t, x, tr in zip(times, states, traces):
            q = quat_from_matrix(x.r)
            vals = [format(v, ".9g") for v in (t, *x.p, *q, *x.v, tr)]
            fh.write(",".join(vals) + "\n")


def read_trajectory_csv(path):
    """Read filter output back as (times, NavStates, traces); bias
    columns are not stored, so they come back zero."""
    rows = _read_rows(path, 12, TRAJECTORY_HEADER)
    times, states, traces = [], [], []
    prev = None
    for lineno, v in rows:
        if prev is not None and v[0] <= prev:
            raise TimestampOrderError(
                f"{path}:{lineno}: timestamps not strictly increasing"
            )
        prev = v[0]
        times.append(v[0])
        states.append(
            NavState(
                r=matrix_from_quat(np.array(v[4:8])),
                v=np.array(v[8:11]),
                p=np.array(v[1:4]),
                b_a=np.zeros(3),
                b_g=np.zeros(3),
            )
        )
        traces.append(v[11])
    return np.array(times), states, np.array(traces)
