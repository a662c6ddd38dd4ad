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
%-format per row, so a write/read round trip is exact. Every reader
parses a file in blocks of BLOCK_LINES data lines, each into arrays at
once, and names the file line of the first fault it finds; a whole-file
reader returns the concatenation of the blocks. read_imu_blocks and
GroundTruthReader hand out an IMU file and ground truth block by block,
so that a filter run holds one block of each at a time.

In memory, ground truth is one Trajectory of arrays, resampled onto
the IMU stamps in one vectorised pass (slerp and matrix_from_quat work
on rows). On stamps that fall on the ground-truth grid this reproduces
a per-stamp loop bit for bit, and resampling block by block reproduces
one whole-sequence pass.

Estimated trajectories use a third format shared with the filter:

    t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,tr_P

with t in seconds to the nanosecond (9 decimals, the resolution of the
stamps on disk) and the other values to 9 significant digits;
TrajectoryWriter writes
them in blocks of rows and atomically, and read_trajectory_csv returns
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
    norm is more than 1e-6 from 1 or not a number."""
    q = np.asarray(q, dtype=float)
    n = row_norms(q)
    bad = np.flatnonzero(~(np.abs(n - 1.0) <= 1e-6))
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

#: data lines per block of the CSV readers, and the rows TrajectoryWriter
#: holds before it formats and writes them
BLOCK_LINES = 256


def _write_csv(path, header: str, line: str, first, rest):
    """The header, then one line per row: `line % (first[i], *rest[i])`,
    formatted straight from the arrays first (n,) and rest (n, k)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(line % (x, *row) for x, row in zip(first, rest))


def _stamps_ns(t, origin_ns: int) -> np.ndarray:
    """Seconds t (n,) as int64 ns stamps origin_ns + round(t * 1e9), ties to even."""
    return origin_ns + np.rint(np.asarray(t) * 1e9).astype(np.int64)


def _read_blocks(path, header: str, quaternions: bool = False):
    """The data rows of a CSV file, parsed and checked a block at a time.

    A path that names no file raises DataError when the first block is
    read. Yields (first, rest) for each block of up to BLOCK_LINES data rows:
    the first column (m,), int64 in a timestamp_ns file and float64
    otherwise, and the other columns (m, k) float64. Checks the header;
    blank and whitespace-only lines are skipped but still counted (as
    str.splitlines counts them), so that errors name the line a text
    editor shows. Each block is parsed by one np.loadtxt call. Numbers
    may use any syntax of Python's int() and float(). np.loadtxt
    accepts a subset of it (not digit separators such as 1_0, nor
    non-ASCII digits), and the rows of a block it rejects are parsed
    line by line by _parse_lines, which reads them as int() and float()
    do or raises ParseError naming the first line with a wrong column
    count or a value that does not parse. Either way a %.17g-written
    float64 reads back bit for bit. A parsed block is then checked:
    every value must be finite (ParseError: nan and inf parse as
    floats), its first column must rise strictly, from the last row of
    the block before (TimestampOrderError), and with quaternions set
    rest[:, 3:7] must be within 1e-6 of unit norm (ParseError). A fault
    is reported when the block that holds it is read, so a file whose
    fault lies in a later block yields the blocks before it first.
    """
    first = np.int64 if header.startswith("timestamp_ns,") else np.float64
    dtype = np.dtype([("first", first), ("rest", np.float64, (header.count(","),))])
    try:
        fh = open(path, "r", encoding="utf-8")
    except (FileNotFoundError, IsADirectoryError):
        raise DataError(f"no such file: {path}") from None
    with fh:
        lines = enumerate((line for raw in fh for line in raw.splitlines()), start=1)
        _, head = next(lines, (1, None))
        if head is None:
            raise ParseError(f"{path}:1: empty file")
        if head.lstrip("#").replace(" ", "") != header:
            raise ParseError(f"{path}:1: unexpected header {head!r}")
        linenos, rows, prev = [], [], None
        for lineno, line in lines:
            if line.strip():
                linenos.append(lineno)
                rows.append(line)
            if len(rows) == BLOCK_LINES:
                block = _parse_block(path, linenos, rows, dtype, prev, quaternions)
                yield block
                linenos, rows, prev = [], [], block[0][-1]
        if rows:
            yield _parse_block(path, linenos, rows, dtype, prev, quaternions)
        elif prev is None:
            raise ParseError(f"{path}: no data rows")


def _parse_block(path, linenos, rows, dtype, prev, quaternions):
    """One block of _read_blocks, (first, rest), parsed and checked;
    prev is the last first-column value of the block before, if any."""
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads 1.5 into an int column with only a DeprecationWarning
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        table = _parse_lines(path, linenos, rows, dtype)
    first, rest = table["first"].copy(), np.ascontiguousarray(table["rest"])
    finite = np.isfinite(rest).all(axis=1) & np.isfinite(first)
    if not finite.all():
        raise ParseError(f"{path}:{linenos[finite.argmin()]}: non-finite value")
    _check_monotone(path, linenos, first, prev)
    if quaternions:
        _check_unit_quaternions(path, linenos, rest[:, 3:7])
    return first, rest


def _read_csv(path, header: str, quaternions: bool = False):
    """The whole file as one (first, rest) pair: the concatenated blocks
    of _read_blocks."""
    firsts, rests = zip(*_read_blocks(path, header, quaternions))
    return np.concatenate(firsts), np.concatenate(rests)


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
    norm is more than 1e-6 from 1 (or NaN)."""
    bad = np.flatnonzero(~(np.abs(row_norms(q) - 1.0) <= 1e-6))
    if bad.size:
        raise ParseError(f"{path}:{linenos[bad[0]]}: quaternion is not unit norm")


def _check_monotone(path, linenos, first, prev=None):
    """TimestampOrderError naming the line of the first row of first (n,)
    that is not above the row before it; the row before the first is
    prev, when given."""
    if prev is not None:
        first, linenos = np.concatenate([[prev], first]), [None, *linenos]
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


def _imu_window(path, stamps, readings, origin_ns: int) -> ImuWindow:
    """A BODY-kind ImuWindow of parsed rows, timed from origin_ns."""
    try:
        return ImuWindow(t=(stamps - origin_ns) * 1e-9, w=readings[:, 0:3], a=readings[:, 3:6])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _load_imu(path):
    """(BODY-kind ImuWindow timed from the first stamp, that stamp in ns)."""
    stamps, readings = _read_csv(path, IMU_HEADER)
    origin_ns = int(stamps[0])
    return _imu_window(path, stamps, readings, origin_ns), origin_ns


def load_imu_csv(path) -> ImuWindow:
    """Read an IMU file as a BODY-kind ImuWindow; timestamps become
    seconds since the file's first stamp. Raises ParseError naming the
    line of a non-finite reading."""
    return _load_imu(path)[0]


def read_imu_blocks(path):
    """An IMU file block by block: (origin_ns, blocks), the file's first
    stamp and an iterator over its BODY-kind ImuWindow blocks of up to
    BLOCK_LINES frames, timed from that stamp. The first block is read
    at once; each later one when the iterator reaches it. The blocks
    concatenate to load_imu_csv's window, and each raises what
    load_imu_csv would raise for a fault it holds."""
    blocks = _read_blocks(path, IMU_HEADER)
    stamps, readings = next(blocks)
    origin_ns = int(stamps[0])

    def windows():
        yield _imu_window(path, stamps, readings, origin_ns)
        for more in blocks:
            yield _imu_window(path, *more, origin_ns)

    return origin_ns, windows()


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
    non-finite value or of a quaternion more than 1e-6 from unit norm."""
    return _read_csv(path, GROUNDTRUTH_HEADER, quaternions=True)


def interpolate_groundtruth(stamps, values, times, origin_ns: int | None = None):
    """Ground truth resampled at `times` (seconds since origin_ns,
    default the first record). stamps and values are as returned by
    load_groundtruth_csv. Each target is bracketed once (one
    searchsorted over all of them, on integer-ns offsets from the
    origin); positions, velocities and biases are linear between the
    two records, orientation is slerped. Returns (Trajectory, b_g, b_a),
    with a_world/w_body None (not recoverable from poses).

    Raises DataError with fewer than 2 records or a target more than
    1 ns before the first record or after the last.
    """
    stamps = np.asarray(stamps, dtype=np.int64)
    if len(stamps) < 2:
        raise DataError("need at least 2 ground-truth records to interpolate")
    if origin_ns is None:
        origin_ns = int(stamps[0])
    offsets = (stamps - origin_ns).astype(float)
    times = np.asarray(times, dtype=float)
    target = times * 1e9
    for outside, where in ((target < offsets[0] - 1, f"before its first record at {offsets[0]}"),
                           (target > offsets[-1] + 1, f"after its last record at {offsets[-1]}")):
        if outside.any():
            raise DataError(
                f"interpolation target {target[np.argmax(outside)]} ns after origin outside"
                f" the groundtruth span: {where} ns"
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


class GroundTruthReader:
    """A ground-truth file resampled at rising times, read block by block.

    at(times) returns interpolate_groundtruth(*load_groundtruth_csv(path),
    times, origin_ns) to the last bit, with two differences: the file
    is read only as far as the first record at or after the last of
    times, so a fault beyond it is not seen, and the reader keeps only
    the records from the one before the last time asked for, so times
    must not go back from one call to the next. Faults in the records
    read raise as load_groundtruth_csv does.
    """

    def __init__(self, path, origin_ns: int):
        self._blocks = _read_blocks(path, GROUNDTRUTH_HEADER, quaternions=True)
        self._origin = origin_ns
        self._stamps, self._values = np.empty(0, np.int64), np.empty((0, 16))
        self._ended = False

    def at(self, times):
        times = np.asarray(times, dtype=float)
        # read on until the record that brackets the last time from above is held
        while not self._ended and (
            len(self._stamps) < 2 or float(self._stamps[-1] - self._origin) < times[-1] * 1e9
        ):
            block = next(self._blocks, None)
            if block is None:
                self._ended = True
            else:
                self._stamps = np.concatenate([self._stamps, block[0]])
                self._values = np.concatenate([self._values, block[1]])
        out = interpolate_groundtruth(self._stamps, self._values, times, self._origin)
        # keep the lower bracket of the last time on: later times bracket at or after it
        offsets = (self._stamps - self._origin).astype(float)
        keep = int(np.clip(np.searchsorted(offsets, times[-1] * 1e9), 1, len(offsets) - 1)) - 1
        self._stamps, self._values = self._stamps[keep:], self._values[keep:]
        return out


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

_TRAJECTORY_LINE = "%.9f," + ",".join(["%.9g"] * 11) + "\n"
# rows formatted at once: every flush of a run-ekf stream in one call, and
# a whole-flight write in pieces whose text stays a few MB
_FORMAT_ROWS = 16 * BLOCK_LINES


class TrajectoryWriter:
    """Filter output written as it comes, in blocks of rows, atomically.

    Used as a context manager: write(traj, traces) adds rows, a
    Trajectory and tr_P, the trace of the error covariance, from traces
    (len(traj),). Rows are formatted and written BLOCK_LINES or more at a
    time, one row per timestamp, t to the nanosecond and the other values
    to 9 significant digits. They go to a
    temporary file beside path, which replaces path when the with block
    ends without an exception and is removed when it ends with one, so
    a run that fails leaves no output behind and path as it was. rows
    counts the rows given to write.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        head, tail = os.path.split(self.path)
        self._tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
        self._pending, self._pending_rows = [], 0
        self.rows = 0

    def __enter__(self):
        self._fh = open(self._tmp, "w", encoding="utf-8")
        self._fh.write(TRAJECTORY_HEADER + "\n")
        return self

    def write(self, traj: Trajectory, traces):
        traces = np.asarray(traces, dtype=float)
        if traces.shape != (len(traj),):
            raise DataError("traces must hold one value per trajectory row")
        self._pending.append((traj, traces))
        self._pending_rows += len(traj)
        self.rows += len(traj)
        if self._pending_rows >= BLOCK_LINES:
            self._flush()

    def _flush(self):
        if not self._pending:
            return
        t, r, v, p = (np.concatenate([getattr(x, name) for x, _ in self._pending])
                      for name in ("t", "r", "v", "p"))
        traces = np.concatenate([tr for _, tr in self._pending])
        self._pending, self._pending_rows = [], 0
        rows = np.column_stack([t, p, quat_from_matrix(r), v, traces])
        # one format call per piece, on the rows' values as Python floats
        for i in range(0, len(rows), _FORMAT_ROWS):
            piece = rows[i : i + _FORMAT_ROWS]
            self._fh.write((_TRAJECTORY_LINE * len(piece)) % tuple(piece.ravel().tolist()))

    def __exit__(self, exc_type, exc, tb):
        done = False
        try:
            with self._fh:
                if exc_type is None:
                    self._flush()
            if exc_type is None:
                os.replace(self._tmp, self.path)
                done = True
        finally:
            if not done:
                os.unlink(self._tmp)
        return False


def write_trajectory_csv(path, traj: Trajectory, traces):
    """Write filter output, the Trajectory that read_trajectory_csv
    returns, through a TrajectoryWriter: one row per timestamp, t to the
    nanosecond and the other values to 9 significant digits, with tr_P
    the trace of the error covariance from traces (n,)."""
    with TrajectoryWriter(path) as out:
        out.write(traj, traces)


def read_trajectory_csv(path):
    """Read filter output back as (Trajectory, traces); the file stores
    no biases, accelerations or rates. Raises ParseError naming the line
    of a non-finite value or of a quaternion more than 1e-6 from unit
    norm."""
    t, values = _read_csv(path, TRAJECTORY_HEADER, quaternions=True)
    estimate = Trajectory(
        t=t,
        r=matrix_from_quat(values[:, 3:7]),
        v=values[:, 7:10],
        p=values[:, 0:3],
    )
    return estimate, values[:, 10]
