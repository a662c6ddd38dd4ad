"""Sequence I/O in EuRoC-style CSV and the corpus manifest.

A sequence directory holds two files:

    imu.csv          timestamp_ns,wx,wy,wz,ax,ay,az
    groundtruth.csv  timestamp_ns,px,py,pz,qw,qx,qy,qz,vx,vy,vz,
                     bwx,bwy,bwz,bax,bay,baz

Timestamps are integer nanoseconds on disk and float64 seconds in
memory, anchored at the first IMU stamp. Stamps are parsed as integers
and the origin is subtracted before the conversion to seconds
(interpolation, too, works on offsets from the origin), so epoch-scale
stamps such as EuRoC's survive a write/load round trip exact.
Quaternions are Hamilton convention, wxyz order, body-to-world; this
module is the only place they exist, with rotation matrices everywhere
else. Floats are written with repr-level precision (%.17g), one
%-format per row, so a write/read round trip is exact. Each reader
parses a file's data lines into arrays at once and names the file line
of the first fault it finds.

In memory, ground truth is one Trajectory of arrays, resampled onto
the IMU stamps in one vectorised pass (slerp and matrix_from_quat work
on rows). On stamps that fall on the ground-truth grid this reproduces
a per-stamp loop bit for bit.

Estimated trajectories use a third format shared with the filter:

    t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,tr_P

with t in seconds and 9 significant digits; read_trajectory_csv returns
them as a Trajectory.

A corpus is a directory of sequence subdirectories plus a corpus.cfg
INI manifest listing each sequence's name, role (seen/unseen), and
relative path.
"""

from __future__ import annotations

import configparser
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError, TimestampOrderError
from .imu_model import ImuWindow
from .simulator import BiasTruth, Trajectory
from .so3 import row_dots, row_norms

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
    """Rotation matrices, (3, 3) or (n, 3, 3), to unit quaternions, (4,)
    or (n, 4), w >= 0 canonical sign. A row with trace <= 0 takes the
    branch of its dominant diagonal entry."""
    r = np.asarray(r, dtype=float)
    m = r.reshape(-1, 3, 3)
    diag = np.diagonal(m, axis1=1, axis2=2)
    tr = diag[:, 0] + diag[:, 1] + diag[:, 2]
    q = np.empty((len(m), 4))
    pos = tr > 0
    n, s = m[pos], 2.0 * np.sqrt(tr[pos] + 1.0)
    q[pos] = np.column_stack([0.25 * s, (n[:, 2, 1] - n[:, 1, 2]) / s,
                              (n[:, 0, 2] - n[:, 2, 0]) / s, (n[:, 1, 0] - n[:, 0, 1]) / s])
    for i in range(3):
        sel = ~pos & (np.argmax(diag, axis=1) == i)
        j, k = (i + 1) % 3, (i + 2) % 3
        n = m[sel]
        s = 2.0 * np.sqrt(np.maximum(n[:, i, i] - n[:, j, j] - n[:, k, k] + 1.0, 0.0))
        q[sel, 0], q[sel, 1 + i] = (n[:, k, j] - n[:, j, k]) / s, 0.25 * s
        q[sel, 1 + j], q[sel, 1 + k] = (n[:, j, i] + n[:, i, j]) / s, (n[:, k, i] + n[:, i, k]) / s
    q /= row_norms(q)[:, None]
    return np.where(q[:, :1] >= 0, q, -q).reshape(r.shape[:-2] + (4,))


def matrix_from_quat(q) -> np.ndarray:
    """Unit quaternions (wxyz), (4,) or (n, 4), to rotation matrices,
    (3, 3) or (n, 3, 3); normalizes small drift. Raises DataError when a
    norm is more than 1e-6 from 1."""
    q = np.asarray(q, dtype=float)
    n = row_norms(q)
    bad = np.flatnonzero(np.abs(n - 1.0) > 1e-6)
    if bad.size:
        raise DataError(f"quaternion norm {np.ravel(n)[bad[0]]:.6g} too far from 1")
    w, x, y, z = np.moveaxis(q / n[..., None], -1, 0)
    rows = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.ascontiguousarray(np.moveaxis(np.array(rows), (0, 1), (-2, -1)))


def slerp(q0, q1, alpha) -> np.ndarray:
    """Spherical interpolation along the shorter arc, row by row: q0 and
    q1 are (4,) or (n, 4) unit quaternions, alpha a weight in [0, 1]
    for each row."""
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    dot = row_dots(q0, q1)[..., None]
    flip = dot < 0.0  # sign-align: q and -q are the same rotation
    q1 = np.where(flip, -q1, q1)
    dot = np.minimum(np.where(flip, -dot, dot), 1.0)
    near = dot > 1.0 - 1e-10
    lerp = (1.0 - alpha) * q0 + alpha * q1
    lerp = lerp / row_norms(lerp)[..., None]
    omega = np.arccos(np.where(near, 0.5, dot))  # 0.5: any angle with sin > 0
    so = np.sin(omega)
    arc = np.sin((1.0 - alpha) * omega) / so * q0 + np.sin(alpha * omega) / so * q1
    return np.where(near, lerp, arc)


# ---------------------------------------------------------------------------
# CSV primitives


def _write_csv(path, header: str, line: str, first, rest):
    """The header, then one line per row: `line % (first[i], *rest[i])`,
    formatted straight from the arrays first (n,) and rest (n, k)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(line % (x, *row) for x, row in zip(first, rest))


def _stamps_ns(t, origin_ns: int) -> np.ndarray:
    """Seconds t (n,) as int64 ns stamps origin_ns + round(t * 1e9), ties to even."""
    return origin_ns + np.rint(np.asarray(t) * 1e9).astype(np.int64)


def _read_csv(path, header: str):
    """The data rows of a CSV file, parsed into arrays in one np.loadtxt call.

    Returns (linenos, first, rest): the file line of each data row (n,),
    its first column (n,), int64 in a timestamp_ns file and float64
    otherwise, and the other columns (n, k) float64. Checks the header;
    blank and whitespace-only lines are skipped but still counted, so
    that errors name the line a text editor shows. Numbers may use any
    syntax of Python's int() and float(). np.loadtxt accepts a subset of
    it (not digit separators such as 1_0, nor non-ASCII digits), and
    the rows of a file it rejects are parsed line by line by
    _parse_lines, which reads them as int() and float() do or raises
    ParseError naming the first line with a wrong column count or a
    value that does not parse. Either way a %.17g-written float64 reads
    back bit for bit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    if lines[0].lstrip("#").replace(" ", "") != header:
        raise ParseError(f"{path}:1: unexpected header {lines[0]!r}")
    linenos = [i + 1 for i, line in enumerate(lines) if i and line.strip()]
    if not linenos:
        raise ParseError(f"{path}: no data rows")
    rows = [lines[i - 1] for i in linenos]
    first = np.int64 if header.startswith("timestamp_ns,") else np.float64
    dtype = np.dtype([("first", first), ("rest", np.float64, (header.count(","),))])
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads 1.5 into an int column with only a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        table = _parse_lines(path, linenos, rows, dtype)
    return linenos, table["first"].copy(), np.ascontiguousarray(table["rest"])


def _parse_lines(path, linenos, rows, dtype) -> np.ndarray:
    """rows parsed one at a time, the first column with int() (in a
    timestamp_ns file) or float(), the others with float(); raises
    ParseError naming the first line with a wrong column count or a
    value that does not parse or does not fit an int64."""
    table = np.empty(len(rows), dtype)
    first = int if dtype["first"] == np.int64 else float
    n_cols = 1 + dtype["rest"].shape[0]
    for i, (lineno, row) in enumerate(zip(linenos, rows)):
        parts = row.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}")
        try:
            table[i] = first(parts[0]), [float(p) for p in parts[1:]]
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return table


def _check_unit_quaternions(path, linenos, q):
    """ParseError naming the line of the first row of q (n, 4) whose
    norm is more than 1e-6 from 1."""
    bad = np.flatnonzero(np.abs(row_norms(q) - 1.0) > 1e-6)
    if bad.size:
        raise ParseError(f"{path}:{linenos[bad[0]]}: quaternion is not unit norm")


def _check_monotone(path, linenos, first):
    """TimestampOrderError naming the line of the first row of first (n,)
    that is not above the row before it."""
    bad = np.flatnonzero(first[1:] <= first[:-1])
    if bad.size:
        raise TimestampOrderError(
            f"{path}:{linenos[bad[0] + 1]}: timestamps not strictly increasing"
        )


# ---------------------------------------------------------------------------
# IMU files


def write_imu_csv(path, imu: ImuWindow, origin_ns: int = 0):
    """Write a BODY-kind ImuWindow; t seconds become origin_ns + round(t * 1e9)."""
    _write_csv(path, IMU_HEADER, "%d" + ",%.17g" * 6 + "\n",
               _stamps_ns(imu.t, origin_ns), np.hstack([imu.w, imu.a]))


def _load_imu(path):
    """(BODY-kind ImuWindow timed from the first stamp, that stamp in ns)."""
    linenos, stamps, readings = _read_csv(path, IMU_HEADER)
    _check_monotone(path, linenos, stamps)
    origin_ns = int(stamps[0])
    try:
        imu = ImuWindow(
            t=(stamps - origin_ns) * 1e-9, w=readings[:, 0:3], a=readings[:, 3:6]
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return imu, origin_ns


def load_imu_csv(path) -> ImuWindow:
    """Read an IMU file as a BODY-kind ImuWindow; timestamps become
    seconds since the file's first stamp. Raises DataError on a
    non-finite reading."""
    return _load_imu(path)[0]


# ---------------------------------------------------------------------------
# Ground truth files


def write_groundtruth_csv(path, truth: Trajectory, bias: BiasTruth | None = None,
                          origin_ns: int = 0):
    """Write a Trajectory (plus optional injected biases, zero otherwise)
    as ground truth; t seconds become origin_ns + round(t * 1e9)."""
    n = len(truth)
    if bias is not None and bias.b_g.shape[0] != n:
        raise DataError("bias truth length does not match trajectory")
    b_g = bias.b_g if bias is not None else np.zeros((n, 3))
    b_a = bias.b_a if bias is not None else np.zeros((n, 3))
    _write_csv(path, GROUNDTRUTH_HEADER, "%d" + ",%.17g" * 16 + "\n",
               _stamps_ns(truth.t, origin_ns),
               np.hstack([truth.p, quat_from_matrix(truth.r), truth.v, b_g, b_a]))


def load_groundtruth_csv(path):
    """Read a ground-truth file as (stamps, values): integer ns stamps
    (n,) and the 16 value columns (n, 16), in file order
    (p, q wxyz, v, b_w, b_a). Raises ParseError naming the line of a
    quaternion more than 1e-6 from unit norm."""
    linenos, stamps, values = _read_csv(path, GROUNDTRUTH_HEADER)
    _check_monotone(path, linenos, stamps)
    _check_unit_quaternions(path, linenos, values[:, 3:7])
    return stamps, values


def interpolate_groundtruth(stamps, values, times, origin_ns: int | None = None):
    """Ground truth resampled at `times` (seconds since origin_ns,
    default the first record). stamps and values are as returned by
    load_groundtruth_csv. Each target is bracketed once (one
    searchsorted over all of them, on integer-ns offsets from the
    origin); positions, velocities and biases are linear between the
    two records, orientation is slerped. Returns (Trajectory, b_g, b_a),
    with a_world/w_body None (not recoverable from poses).

    Raises DataError with fewer than 2 records or a target more than
    1 ns outside the records' span.
    """
    stamps = np.asarray(stamps, dtype=np.int64)
    if len(stamps) < 2:
        raise DataError("need at least 2 ground-truth records to interpolate")
    if origin_ns is None:
        origin_ns = int(stamps[0])
    offsets = (stamps - origin_ns).astype(float)
    times = np.asarray(times, dtype=float)
    target = times * 1e9
    outside = np.flatnonzero((target < offsets[0] - 1) | (target > offsets[-1] + 1))
    if outside.size:
        raise DataError(
            f"interpolation target {target[outside[0]]} ns after origin outside"
            f" groundtruth span [{offsets[0]}, {offsets[-1]}]"
        )
    hi = np.clip(np.searchsorted(offsets, target, side="left"), 1, len(offsets) - 1)
    lo = hi - 1
    alpha = np.clip((target - offsets[lo]) / (offsets[hi] - offsets[lo]), 0.0, 1.0)
    a, b, w = values[lo], values[hi], alpha[:, None]
    mixed = (1 - w) * a + w * b
    truth = Trajectory(
        t=times,
        r=matrix_from_quat(slerp(a[:, 3:7], b[:, 3:7], alpha)),
        v=mixed[:, 7:10],
        p=mixed[:, 0:3],
    )
    return truth, mixed[:, 10:13], mixed[:, 13:16]


# ---------------------------------------------------------------------------
# Corpus manifest


@dataclass
class CorpusEntry:
    name: str
    role: str  # seen | unseen
    path: str  # relative to the corpus root


def write_corpus_manifest(root, entries):
    cfg = configparser.ConfigParser(interpolation=None)
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
    cfg = configparser.ConfigParser(interpolation=None)
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


def write_sequence(seq_dir, imu: ImuWindow, truth: Trajectory, bias: BiasTruth | None = None):
    """Write imu.csv (from a BODY-kind ImuWindow) and groundtruth.csv
    (truth plus optional injected biases) into seq_dir (created if
    needed)."""
    os.makedirs(seq_dir, exist_ok=True)
    write_imu_csv(os.path.join(seq_dir, "imu.csv"), imu)
    write_groundtruth_csv(os.path.join(seq_dir, "groundtruth.csv"), truth, bias)


def load_sequence(seq_dir):
    """Load one sequence; ground truth is interpolated onto the IMU
    timestamps. Returns (imu, truth, (b_g, b_a)): imu a BODY-kind
    ImuWindow timed from the first IMU stamp, truth a Trajectory on the
    same stamps, and the true biases (n, 3) each."""
    imu, origin = _load_imu(os.path.join(seq_dir, "imu.csv"))
    stamps, values = load_groundtruth_csv(os.path.join(seq_dir, "groundtruth.csv"))
    truth, b_g, b_a = interpolate_groundtruth(stamps, values, imu.t, origin_ns=origin)
    return imu, truth, (b_g, b_a)


# ---------------------------------------------------------------------------
# Estimated trajectory files


def write_trajectory_csv(path, traj: Trajectory, traces):
    """Write filter output, the Trajectory that read_trajectory_csv
    returns: one row per timestamp, 9 significant digits, with tr_P the
    trace of the error covariance from traces (n,)."""
    traces = np.asarray(traces, dtype=float)
    if traces.shape != (len(traj),):
        raise DataError("traces must hold one value per trajectory row")
    _write_csv(path, TRAJECTORY_HEADER, ",".join(["%.9g"] * 12) + "\n",
               traj.t, np.column_stack([traj.p, quat_from_matrix(traj.r), traj.v, traces]))


def read_trajectory_csv(path):
    """Read filter output back as (Trajectory, traces); the file stores
    no biases, accelerations or rates. Raises ParseError naming the line
    of a quaternion more than 1e-6 from unit norm."""
    linenos, t, values = _read_csv(path, TRAJECTORY_HEADER)
    _check_monotone(path, linenos, t)
    _check_unit_quaternions(path, linenos, values[:, 3:7])
    estimate = Trajectory(
        t=t,
        r=matrix_from_quat(values[:, 3:7]),
        v=values[:, 7:10],
        p=values[:, 0:3],
    )
    return estimate, values[:, 10]
