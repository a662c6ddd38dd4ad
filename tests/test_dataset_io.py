import math
import os
import re
import tempfile

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodyframe_io import dataset_io
from bodyframe_io.dataset_io import (
    GROUNDTRUTH_HEADER,
    IMU_HEADER,
    CorpusEntry,
    GroundTruthReader,
    TrajectoryWriter,
    interpolate_groundtruth,
    load_groundtruth_csv,
    load_imu_csv,
    load_sequence,
    matrix_from_quat,
    quat_from_matrix,
    read_corpus_manifest,
    read_imu_blocks,
    read_trajectory_csv,
    slerp,
    write_corpus_manifest,
    write_groundtruth_csv,
    write_imu_csv,
    write_sequence,
    write_trajectory_csv,
)
from bodyframe_io.errors import DataError, ParseError, TimestampOrderError
from bodyframe_io.imu_model import ImuWindow
from bodyframe_io.simulator import (
    NoiseSpec,
    Trajectory,
    TrajectoryKind,
    TrajectorySpec,
    corrupt_imu,
    derive_imu,
    generate_trajectory,
)
from bodyframe_io.so3 import exp_so3, log_so3


class TestQuaternions:
    def test_roundtrip_random_rotations(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            r = exp_so3(rng.normal(size=3))
            np.testing.assert_allclose(
                matrix_from_quat(quat_from_matrix(r)), r, atol=1e-14
            )

    def test_roundtrip_near_trace_branch_boundaries(self):
        # Half turns force every non-positive-trace branch.
        for axis in np.eye(3):
            r = exp_so3(axis * math.pi)
            np.testing.assert_allclose(
                matrix_from_quat(quat_from_matrix(r)), r, atol=1e-12
            )

    def test_identity(self):
        np.testing.assert_allclose(quat_from_matrix(np.eye(3)), [1, 0, 0, 0], atol=0)

    @pytest.mark.parametrize("q", [[1.0, 0.5, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0],
                                   [1.0, np.inf, 0.0, 0.0]])
    def test_rejects_non_unit_quaternion(self, q):
        with pytest.raises(DataError, match="too far from 1"):
            matrix_from_quat(q)

    def test_slerp_halfway_is_half_angle(self):
        q0 = quat_from_matrix(np.eye(3))
        q1 = quat_from_matrix(exp_so3([0.0, 0.0, 1.0]))
        mid = matrix_from_quat(slerp(q0, q1, 0.5))
        np.testing.assert_allclose(mid, exp_so3([0.0, 0.0, 0.5]), atol=1e-12)

    def test_slerp_takes_short_arc_despite_sign_flip(self):
        q0 = quat_from_matrix(exp_so3([0.1, 0.0, 0.0]))
        q1 = -quat_from_matrix(exp_so3([0.2, 0.0, 0.0]))
        mid = matrix_from_quat(slerp(q0, q1, 0.5))
        np.testing.assert_allclose(mid, exp_so3([0.15, 0.0, 0.0]), atol=1e-12)

    def test_rows_equal_single_quaternions(self):
        rng = np.random.default_rng(32)
        q = np.array([quat_from_matrix(exp_so3(rng.normal(size=3))) for _ in range(200)])
        rows = matrix_from_quat(q)
        assert rows.shape == (200, 3, 3)
        assert np.array_equal(rows, np.array([matrix_from_quat(x) for x in q]))

    def test_matrix_rows_equal_per_matrix_reference(self):
        rng = np.random.default_rng(34)
        rs = [exp_so3(rng.normal(size=3)) for _ in range(100)]
        # Turns past 2*pi/3 have trace <= 0: each dominant axis, with both
        # signs of the axis so that w comes out negative and is flipped.
        for i in range(3):
            for sign in (1.0, -1.0):
                for angle in (2.2, 2.9, math.pi):
                    axis = 0.1 * rng.normal(size=3)
                    axis[i] = sign
                    rs.append(exp_so3(angle * axis / np.linalg.norm(axis)))
        rs = np.array(rs)
        reference = np.array([ref_quat_from_matrix(r) for r in rs])
        branches = {int(np.argmax(np.diag(r))) for r in rs if np.trace(r) <= 0}
        assert branches == {0, 1, 2}
        assert any(
            ref_quat_from_matrix(r, canonical=False)[0] < 0 for r in rs if np.trace(r) <= 0
        )
        assert quat_from_matrix(rs).shape == (len(rs), 4)
        assert np.array_equal(quat_from_matrix(rs), reference)
        assert np.array_equal(np.array([quat_from_matrix(r) for r in rs]), reference)

    def test_non_unit_row_rejected(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        q[1] = [1.0, 0.5, 0.0, 0.0]
        with pytest.raises(DataError, match="norm 1.11803"):
            matrix_from_quat(q)

    def test_slerp_rows_match_scalar_reference(self):
        rng = np.random.default_rng(33)
        q0 = np.array([quat_from_matrix(exp_so3(rng.normal(size=3))) for _ in range(100)])
        step = [exp_so3(rng.normal(size=3) * 10.0 ** rng.uniform(-12, 0)) for _ in q0]
        q1 = np.array([quat_from_matrix(matrix_from_quat(a) @ b) for a, b in zip(q0, step)])
        q1[::3] *= -1.0  # sign flips take the short arc
        alpha = rng.uniform(0.0, 1.0, 100)
        alpha[::7] = 1.0
        reference = np.array([ref_slerp(a, b, w) for a, b, w in zip(q0, q1, alpha)])
        np.testing.assert_allclose(slerp(q0, q1, alpha), reference, rtol=0, atol=1e-15)


def ref_quat_from_matrix(r, canonical=True):
    """Quaternion of one rotation matrix: the per-matrix reference."""
    tr = np.trace(r)
    if tr > 0:
        s = 2.0 * math.sqrt(tr + 1.0)
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s,
                      (r[1, 0] - r[0, 1]) / s])
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
    return q if q[0] >= 0 or not canonical else -q


def ref_slerp(q0, q1, alpha):
    """Scalar slerp of one quaternion pair: the per-stamp reference."""
    dot = float(q0 @ q1)
    if dot < 0.0:
        q1, dot = -q1, -dot
    dot = min(dot, 1.0)
    if dot > 1.0 - 1e-10:
        out = (1.0 - alpha) * q0 + alpha * q1
        return out / np.linalg.norm(out)
    omega = math.acos(dot)
    so = math.sin(omega)
    return math.sin((1.0 - alpha) * omega) / so * q0 + math.sin(alpha * omega) / so * q1


def ref_interpolate(stamps, values, times):
    """Per-stamp bracketing, slerp and lerp: the reference for the
    vectorised interpolate_groundtruth (origin at the first record)."""
    offsets = (stamps - stamps[0]).astype(float)
    r, p, v, b = [], [], [], []
    for t in times:
        target = t * 1e9
        hi = min(max(int(np.searchsorted(offsets, target)), 1), len(offsets) - 1)
        lo = hi - 1
        alpha = float(np.clip((target - offsets[lo]) / (offsets[hi] - offsets[lo]), 0, 1))
        a, c = values[lo], values[hi]
        r.append(matrix_from_quat(ref_slerp(a[3:7], c[3:7], alpha)))
        mixed = (1 - alpha) * a + alpha * c
        p.append(mixed[0:3])
        v.append(mixed[7:10])
        b.append(mixed[10:16])
    return np.array(r), np.array(p), np.array(v), np.array(b)


def small_trajectory(duration=0.5, rate=100.0):
    spec = TrajectorySpec(
        kind=TrajectoryKind.FIGURE8,
        duration=duration,
        imu_rate=rate,
        amplitude=2.0,
        rate=0.8,
    )
    return generate_trajectory(spec)


class TestImuCsv:
    def test_write_read_roundtrip(self, tmp_path):
        traj = small_trajectory()
        imu, _ = corrupt_imu(derive_imu(traj), NoiseSpec(sigma_g=1e-3, sigma_a=1e-2, seed=1))
        path = tmp_path / "imu.csv"
        write_imu_csv(path, imu, origin_ns=1_000_000_000)
        back = load_imu_csv(path)
        assert len(back) == len(imu)
        assert np.all(np.abs(imu.t - back.t) < 1e-9)
        np.testing.assert_array_equal(imu.w, back.w)  # %.17g is exact
        np.testing.assert_array_equal(imu.a, back.a)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("timestamp_ns,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,0\n5,bad,0,0,0,0,0\n")
        with pytest.raises(ParseError, match=":3"):
            load_imu_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("time,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,0\n")
        with pytest.raises(ParseError, match=":1"):
            load_imu_csv(path)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("timestamp_ns,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0\n")
        with pytest.raises(ParseError, match="columns"):
            load_imu_csv(path)

    def test_non_monotone_timestamps(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text(
            "timestamp_ns,wx,wy,wz,ax,ay,az\n10,0,0,0,0,0,0\n10,0,0,0,0,0,0\n"
        )
        with pytest.raises(TimestampOrderError):
            load_imu_csv(path)


class TestEpochStamps:
    # a EuRoC stamp: float64 holds it only to within 128 ns
    ORIGIN_NS = 1403636579763555555

    def test_write_load_round_trip_is_exact(self, tmp_path):
        traj = small_trajectory()
        write_imu_csv(tmp_path / "imu.csv", derive_imu(traj), origin_ns=self.ORIGIN_NS)
        write_groundtruth_csv(tmp_path / "groundtruth.csv", traj, origin_ns=self.ORIGIN_NS)

        imu, truth, _ = load_sequence(tmp_path)
        write_imu_csv(tmp_path / "again.csv", imu, origin_ns=self.ORIGIN_NS)
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "imu.csv").read_bytes()
        stamps, _ = load_groundtruth_csv(tmp_path / "groundtruth.csv")
        assert stamps.tolist() == [self.ORIGIN_NS + round(t * 1e9) for t in traj.t.tolist()]
        # IMU and ground-truth stamps coincide, so interpolation is exact
        np.testing.assert_allclose(truth.p, traj.p, rtol=0, atol=1e-12)


def groundtruth(tmp_path, traj, bias=None):
    """traj (and biases) written as groundtruth.csv and read back."""
    path = tmp_path / "groundtruth.csv"
    write_groundtruth_csv(path, traj, bias)
    return load_groundtruth_csv(path)


class TestGroundTruthCsv:
    def test_roundtrip_preserves_pose(self, tmp_path):
        traj = small_trajectory()
        stamps, values = groundtruth(tmp_path, traj)
        assert len(stamps) == len(traj)
        assert stamps.tolist() == [round(t * 1e9) for t in traj.t.tolist()]
        np.testing.assert_array_equal(values[:, 0:3], traj.p)
        np.testing.assert_allclose(matrix_from_quat(values[:, 3:7]), traj.r, atol=1e-13)

    def test_interpolation_hits_midpoints(self, tmp_path):
        traj = small_trajectory(rate=100.0)
        # Query halfway between knots 10 and 11.
        t_mid = (traj.t[10] + traj.t[11]) / 2.0
        sample, _, _ = interpolate_groundtruth(*groundtruth(tmp_path, traj), [t_mid])
        np.testing.assert_allclose(
            sample.p[0], (traj.p[10] + traj.p[11]) / 2.0, atol=1e-9
        )
        np.testing.assert_allclose(
            sample.v[0], (traj.v[10] + traj.v[11]) / 2.0, atol=1e-9
        )
        # Orientation error at the midpoint is O(dt^2); dt = 10 ms here.
        geo = log_so3(sample.r[0].T @ traj.r[10] @ exp_so3(traj.w_body[10] * 0.005))
        assert np.linalg.norm(geo) < 1e-4

    def test_interpolation_at_knots_is_exact(self, tmp_path):
        traj = small_trajectory()
        out, _, _ = interpolate_groundtruth(*groundtruth(tmp_path, traj), [traj.t[7]])
        np.testing.assert_allclose(out.p[0], traj.p[7], atol=1e-9)
        np.testing.assert_allclose(out.r[0], traj.r[7], atol=1e-9)

    def test_out_of_span_rejected(self, tmp_path):
        gt = groundtruth(tmp_path, small_trajectory(duration=0.2))
        with pytest.raises(DataError, match="span"):
            interpolate_groundtruth(*gt, [0.1, 5.0])
        with pytest.raises(DataError, match="span"):
            interpolate_groundtruth(*gt, [-1e-3])

    def test_fewer_than_two_records_rejected(self, tmp_path):
        stamps, values = groundtruth(tmp_path, small_trajectory(duration=0.2))
        with pytest.raises(DataError, match="at least 2"):
            interpolate_groundtruth(stamps[:1], values[:1], [0.0])

    def test_non_unit_quaternion_names_its_line(self, tmp_path):
        path = tmp_path / "groundtruth.csv"
        unit = "0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0"
        path.write_text(
            f"{GROUNDTRUTH_HEADER}\n0,{unit}\n10,0,0,0,1,0.5,0,0,0,0,0,0,0,0,0,0,0\n"
        )
        with pytest.raises(ParseError, match=":3: quaternion is not unit norm"):
            load_groundtruth_csv(path)

    def test_non_increasing_stamps_rejected(self, tmp_path):
        path = tmp_path / "groundtruth.csv"
        unit = "0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0"
        path.write_text(f"{GROUNDTRUTH_HEADER}\n10,{unit}\n10,{unit}\n")
        with pytest.raises(TimestampOrderError):
            load_groundtruth_csv(path)

    def test_on_grid_equals_per_stamp_reference(self, tmp_path):
        traj = small_trajectory()
        _, bias = corrupt_imu(derive_imu(traj), NoiseSpec(sigma_bg=1e-3, sigma_ba=1e-2, seed=3))
        stamps, values = groundtruth(tmp_path, traj, bias)
        truth, b_g, b_a = interpolate_groundtruth(stamps, values, traj.t)
        r, p, v, b = ref_interpolate(stamps, values, traj.t)
        for got, want in ((truth.r, r), (truth.p, p), (truth.v, v), (b_g, b[:, 0:3]),
                          (b_a, b[:, 3:6])):
            assert np.array_equal(got, want)
        assert np.array_equal(truth.t, traj.t)

    def test_off_grid_matches_per_stamp_reference(self, tmp_path):
        traj = small_trajectory()
        _, bias = corrupt_imu(derive_imu(traj), NoiseSpec(sigma_bg=1e-3, sigma_ba=1e-2, seed=3))
        stamps, values = groundtruth(tmp_path, traj, bias)
        times = np.sort(np.random.default_rng(34).uniform(0.0, traj.t[-1], 300))
        truth, b_g, b_a = interpolate_groundtruth(stamps, values, times)
        r, p, v, b = ref_interpolate(stamps, values, times)
        np.testing.assert_allclose(truth.r, r, rtol=0, atol=1e-15)
        for got, want in ((truth.p, p), (truth.v, v), (b_g, b[:, 0:3]), (b_a, b[:, 3:6])):
            assert np.array_equal(got, want)

    def test_bias_interpolation(self, tmp_path):
        traj = small_trajectory(duration=0.2)
        imu = derive_imu(traj)
        _, bias = corrupt_imu(imu, NoiseSpec(sigma_bg=1e-3, b_a0=(0.1, 0.0, 0.0), seed=2))
        _, b_g, b_a = interpolate_groundtruth(*groundtruth(tmp_path, traj, bias), traj.t)
        np.testing.assert_allclose(b_g, bias.b_g, atol=1e-12)
        np.testing.assert_allclose(b_a, bias.b_a, atol=1e-12)


class TestCorpus:
    def test_manifest_roundtrip(self, tmp_path):
        entries = [
            CorpusEntry("seq_000", "seen", "seq_000"),
            CorpusEntry("seq_001", "unseen", "seq_001"),
        ]
        write_corpus_manifest(tmp_path, entries)
        back = read_corpus_manifest(tmp_path)
        assert [(e.name, e.role, e.path) for e in back] == [
            (e.name, e.role, e.path) for e in entries
        ]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            read_corpus_manifest(tmp_path)

    def test_bad_role_rejected(self, tmp_path):
        (tmp_path / "corpus.cfg").write_text(
            "[corpus]\nversion = 1\n\n[sequence:a]\nrole = wat\npath = a\n"
        )
        with pytest.raises(ParseError, match="role"):
            read_corpus_manifest(tmp_path)

    def test_write_load_sequence(self, tmp_path):
        traj = small_trajectory()
        imu, bias = corrupt_imu(derive_imu(traj), NoiseSpec(sigma_a=0.01, seed=5))
        seq_dir = tmp_path / "seq_000"
        write_sequence(seq_dir, imu, traj, bias)
        imu_back, truth_back, (b_g, b_a) = load_sequence(seq_dir)
        assert len(imu_back) == len(imu) == len(truth_back)
        np.testing.assert_allclose(truth_back.p[3], traj.p[3], atol=1e-9)
        np.testing.assert_allclose(truth_back.r[3], traj.r[3], atol=1e-9)
        np.testing.assert_allclose(b_a[10], bias.b_a[10], atol=1e-12)


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        traj = Trajectory(
            t=np.arange(5) * 0.05,
            r=np.array([exp_so3(rng.normal(size=3)) for _ in range(5)]),
            v=rng.normal(size=(5, 3)),
            p=rng.normal(size=(5, 3)),
        )
        traces = rng.uniform(0.1, 1.0, size=5)
        path = tmp_path / "est.csv"
        write_trajectory_csv(path, traj, traces)
        est, tr2 = read_trajectory_csv(path)
        np.testing.assert_allclose(est.t, traj.t, atol=1e-9)
        np.testing.assert_allclose(tr2, traces, rtol=1e-8)
        np.testing.assert_allclose(est.p, traj.p, rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(est.v, traj.v, rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(est.r, traj.r, atol=1e-7)

    def test_traces_must_match_rows(self, tmp_path):
        traj = Trajectory(t=[0.0], r=np.eye(3)[None], v=np.zeros((1, 3)), p=np.zeros((1, 3)))
        with pytest.raises(DataError):
            write_trajectory_csv(tmp_path / "est.csv", traj, [0.5, 0.5])

    def test_non_unit_quaternion_names_its_line(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text(
            "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,tr_P\n"
            "0,0,0,0,1,0,0,0,0,0,0,0\n0.1,0,0,0,1,0.5,0,0,0,0,0,0\n"
        )
        with pytest.raises(ParseError, match=r"est\.csv:3: quaternion is not unit norm"):
            read_trajectory_csv(path)

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "est.csv"
        traj = Trajectory(
            t=[0.0], r=np.eye(3)[None], v=np.zeros((1, 3)), p=[[1.23456789123456, 0.0, 0.0]]
        )
        write_trajectory_csv(path, traj, [0.5])
        row = path.read_text().splitlines()[1]
        assert row.split(",")[1] == "1.23456789"


IMU_ROW = "0,0,0,0,0,0,9.8"
GT_VALUES = "0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0"
TRAJ_VALUES = "0,0,0,1,0,0,0,0,0,0"


def csv_file(tmp_path, name, header, rows):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def raises_at(error, path, line):
    """pytest.raises for exactly `error`, its message starting path:line:."""
    return pytest.raises(error, match="^" + re.escape(f"{path}:{line}: "))


class TestMalformedFiles:
    """Each reader names the file line of the first fault, counting blank
    and whitespace-only lines, which it skips."""

    @pytest.mark.parametrize("rows, error, line", [
        (["0,0,0,0,0,0,0", "", "5,0,0,0,0,0"], ParseError, 4),
        (["0,0,0,0,0,0,0", "5,0,0,0,0,0,0,0"], ParseError, 3),
        (["0,0,0,0,0,0,0", " \t ", "5,bad,0,0,0,0,0"], ParseError, 4),
        (["0,0,0,0,0,0,0", "5,0,0,0,0,0,"], ParseError, 3),
        (["1.5,0,0,0,0,0,0"], ParseError, 2),
        (["1e3,0,0,0,0,0,0"], ParseError, 2),
        (["0x10,0,0,0,0,0,0"], ParseError, 2),
        (["0,0,0,0,0,0,0", "9223372036854775808,0,0,0,0,0,0"], ParseError, 3),
        (["0,0,0,0,0,0,0 # note"], ParseError, 2),
        (["# 0,0,0,0,0,0,0"], ParseError, 2),
        (["0,0,0,0,0,0,0", "", "", "0,0,0,0,0,0,0"], TimestampOrderError, 5),
        (["5,0,0,0,0,0,0", "9,0,0,0,0,0,0", "7,0,0,0,0,0,0"], TimestampOrderError, 4),
        # the first faulty line wins, whichever its fault
        (["0,0,0,0,0,0,0", "5,0,0,0,0,0", "7,x,0,0,0,0,0"], ParseError, 3),
        (["0,y,0,0,0,0,0", "5,0,0"], ParseError, 2),
        # every line of a block parses before its stamps are ordered
        (["5,0,0,0,0,0,0", "3,0,0,0,0,0,0", "4,z,0,0,0,0,0"], ParseError, 4),
        # nan and inf parse as floats, and are faults of their own
        (["0,0,0,0,0,0,0", "", "5,0,nan,0,0,0,0"], ParseError, 4),
        (["0,0,0,0,0,0,0", "5,0,0,0,0,0,-inf"], ParseError, 3),
        (["0,0,0,0,0,0,0", "5,0,0,0,0,0,0", "4,NaN,0,0,0,0,0"], ParseError, 4),
    ])
    def test_imu_fault_names_its_line(self, tmp_path, rows, error, line):
        path = csv_file(tmp_path, "imu.csv", "timestamp_ns,wx,wy,wz,ax,ay,az", rows)
        with raises_at(error, path, line) as info:
            load_imu_csv(path)
        assert type(info.value) is error

    def test_value_error_keeps_the_parser_message(self, tmp_path):
        path = csv_file(tmp_path, "imu.csv", "timestamp_ns,wx,wy,wz,ax,ay,az",
                        ["0,0,0,0,0,0,0", "5,0,bad,0,0,0,0"])
        with pytest.raises(ParseError) as info:
            load_imu_csv(path)
        assert str(info.value) == f"{path}:3: could not convert string to float: 'bad'"

    @pytest.mark.parametrize("rows, error, line", [
        ([f"0,{GT_VALUES}", "", f"10,0,0,0,1,0.5,0,0,0,0,0,0,0,0,0,0,0"], ParseError, 4),
        ([f"0,{GT_VALUES}", "  ", f"0,{GT_VALUES}"], TimestampOrderError, 4),
        ([f"0,{GT_VALUES}", f"5,{GT_VALUES},0"], ParseError, 3),
        ([f"0,{GT_VALUES}", f"5.0,{GT_VALUES}"], ParseError, 3),
        # a non-finite position, or quaternion component, which no norm check sees
        ([f"0,{GT_VALUES}", "5,nan,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0"], ParseError, 3),
        ([f"0,{GT_VALUES}", "", "5,0,0,inf,1,0,0,0,0,0,0,0,0,0,0,0,0"], ParseError, 4),
        ([f"0,{GT_VALUES}", "5,0,0,0,nan,0,0,0,0,0,0,0,0,0,0,0,0"], ParseError, 3),
        ([f"0,{GT_VALUES}", "5,0,0,0,1,0,-inf,0,0,0,0,0,0,0,0,0,0"], ParseError, 3),
    ])
    def test_groundtruth_fault_names_its_line(self, tmp_path, rows, error, line):
        path = csv_file(tmp_path, "groundtruth.csv", GROUNDTRUTH_HEADER, rows)
        with raises_at(error, path, line) as info:
            load_groundtruth_csv(path)
        assert type(info.value) is error

    @pytest.mark.parametrize("rows, error, line", [
        (["0,0,0,0,1,0,0,0,0,0,0,0", "", "0.1,0,0,0,1,0.5,0,0,0,0,0,0"], ParseError, 4),
        (["0.5,0,0,0,1,0,0,0,0,0,0,0", "\t", "0.5,0,0,0,1,0,0,0,0,0,0,0"],
         TimestampOrderError, 4),
        (["0,0,0,0,1,0,0,0,0,0,0,0", "0.1,0,0,0,1,0,0,0,0,0,0"], ParseError, 3),
        (["0,0,0,0,1,0,0,0,0,0,0,0", "0.1,0,0,0,1,0,0,0,0,0,0,nope"], ParseError, 3),
        # non-finite: a position, a quaternion component, the time, the trace
        (["0,0,0,0,1,0,0,0,0,0,0,0", "0.1,nan,0,0,1,0,0,0,0,0,0,0"], ParseError, 3),
        (["0,0,0,0,1,0,0,0,0,0,0,0", "0.1,0,-inf,0,1,0,0,0,0,0,0,0"], ParseError, 3),
        (["0,0,0,0,1,0,0,0,0,0,0,0", "", "0.1,0,0,0,1,0,0,nan,0,0,0,0"], ParseError, 4),
        (["0,0,0,0,inf,0,0,0,0,0,0,0"], ParseError, 2),
        (["0,0,0,0,1,0,0,0,0,0,0,0", "nan,0,0,0,1,0,0,0,0,0,0,0"], ParseError, 3),
        (["0,0,0,0,1,0,0,0,0,0,0,0", "0.1,0,0,0,1,0,0,0,0,0,0,inf"], ParseError, 3),
    ])
    def test_trajectory_fault_names_its_line(self, tmp_path, rows, error, line):
        path = csv_file(tmp_path, "est.csv", "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,tr_P", rows)
        with raises_at(error, path, line) as info:
            read_trajectory_csv(path)
        assert type(info.value) is error

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 5])  # px, then qx
    def test_non_finite_value_names_its_line_in_every_reader(self, tmp_path, value, column):
        imu = ["0,0,0,0,0,0,9.8", "5,0,0,0,0,0,9.8"]
        gt = [f"0,{GT_VALUES}", f"5,{GT_VALUES}"]
        est = ["0,0,0,0,1,0,0,0,0,0,0,0", "0.1,0,0,0,1,0,0,0,0,0,0,0"]
        for rows in (imu, gt, est):
            fields = rows[1].split(",")
            fields[column] = value
            rows[1] = ",".join(fields)
        paths = {}
        for name, header, rows, read in (
            ("imu.csv", IMU_HEADER, imu, load_imu_csv),
            ("groundtruth.csv", GROUNDTRUTH_HEADER, gt, load_groundtruth_csv),
            ("est.csv", "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,tr_P", est, read_trajectory_csv),
        ):
            paths[name] = path = csv_file(tmp_path, name, header, rows)
            with pytest.raises(ParseError) as info:
                read(path)
            assert str(info.value) == f"{path}:3: non-finite value"
        # the streaming readers fail on the same line
        with pytest.raises(ParseError, match=":3: non-finite value"):
            list(read_imu_blocks(paths["imu.csv"])[1])
        with pytest.raises(ParseError, match=":3: non-finite value"):
            GroundTruthReader(paths["groundtruth.csv"], 0).at(np.array([0.0]))

    def test_empty_file_and_no_rows(self, tmp_path):
        empty = tmp_path / "imu.csv"
        empty.write_text("")
        with raises_at(ParseError, empty, 1):
            load_imu_csv(empty)
        blank = csv_file(tmp_path, "blank.csv", "timestamp_ns,wx,wy,wz,ax,ay,az", ["", " "])
        with pytest.raises(ParseError, match="no data rows"):
            load_imu_csv(blank)

    def test_python_number_syntax_is_accepted(self, tmp_path):
        # int() and float() syntax: padding, signs, digit separators,
        # non-ASCII digits, CRLF line ends
        plain = csv_file(tmp_path, "plain.csv", "timestamp_ns,wx,wy,wz,ax,ay,az",
                         ["10,0.5,-1,0,2,0,9.8", "20,0,0,0,0,0,0"])
        fancy = tmp_path / "fancy.csv"
        fancy.write_bytes(
            "timestamp_ns,wx,wy,wz,ax,ay,az\r\n"
            " 1_0 ,\t+0.5,-1, 0 ,٢,0,9.8\r\n\r\n+20,0,0,0,0,0,0_0\r\n".encode()
        )
        want, got = load_imu_csv(plain), load_imu_csv(fancy)
        for x, y in ((want.t, got.t), (want.w, got.w), (want.a, got.a)):
            assert np.array_equal(x, y)

    def test_single_row(self, tmp_path):
        path = csv_file(tmp_path, "imu.csv", "timestamp_ns,wx,wy,wz,ax,ay,az", [IMU_ROW])
        imu = load_imu_csv(path)
        assert imu.w.shape == (1, 3) and np.array_equal(imu.a[0], [0.0, 0.0, 9.8])
        stamps, values = load_groundtruth_csv(
            csv_file(tmp_path, "gt.csv", GROUNDTRUTH_HEADER, [f"7,{GT_VALUES}"]))
        assert stamps.dtype == np.int64 and stamps.tolist() == [7] and values.shape == (1, 16)
        est, traces = read_trajectory_csv(
            csv_file(tmp_path, "est.csv", "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,tr_P",
                     [f"0.5,{TRAJ_VALUES},2"]))
        assert est.t.tolist() == [0.5] and traces.tolist() == [2.0]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, (5, 6), elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_float_round_trip_is_bit_exact(readings):
    # %.17g text of any finite float64 reads back as the same bits
    imu = ImuWindow(t=np.arange(5) * 0.01, w=readings[:, :3], a=readings[:, 3:])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "imu.csv")
        write_imu_csv(path, imu)
        back = load_imu_csv(path)
    assert np.array_equal(back.w.view(np.int64), imu.w.view(np.int64))
    assert np.array_equal(back.a.view(np.int64), imu.a.view(np.int64))


# ---------------------------------------------------------------------------
# reading and writing in blocks

FAULTS = ("columns", "value", "order", "nonfinite", "quaternion")


@st.composite
def csv_case(draw):
    """(kind, text, rows, fault): a small IMU or ground-truth file with
    blank lines, its data rows as Python numbers, and (line, error,
    message) of the one fault written into it, or None."""
    kind = draw(st.sampled_from(["imu", "groundtruth"]))
    header, n_values = (IMU_HEADER, 6) if kind == "imu" else (GROUNDTRUTH_HEADER, 16)
    n = draw(st.integers(1, 10))
    steps = draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n))
    stamps = (draw(st.integers(-10**12, 10**12)) + np.cumsum(steps)).tolist()
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    values = [draw(st.lists(finite, min_size=n_values, max_size=n_values)) for _ in range(n)]
    if kind == "groundtruth":
        for row in values:
            q = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=4, max_size=4)))
            row[3:7] = (q / np.linalg.norm(q)).tolist()
    blanks = draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=n + 1))
    before = draw(st.lists(st.integers(0, n), min_size=len(blanks), max_size=len(blanks)))

    fault = draw(st.sampled_from((None,) + (FAULTS if kind == "groundtruth" else FAULTS[:-1])))
    lines = [[str(s)] + ["%.17g" % x for x in row] for s, row in zip(stamps, values)]
    bad = None
    if fault == "order" and n > 1:
        bad = draw(st.integers(1, n - 1))
        lines[bad][0] = lines[bad - 1][0]
        error, message = TimestampOrderError, "timestamps not strictly increasing"
    elif fault in ("columns", "value", "nonfinite", "quaternion"):
        bad = draw(st.integers(0, n - 1))
        if fault == "columns":
            lines[bad].append("0")
            error, message = ParseError, f"expected {n_values + 1} columns, got {n_values + 2}"
        elif fault == "value":
            col = draw(st.integers(0, n_values))
            lines[bad][col] = "1.5x"
            try:
                (int if col == 0 else float)("1.5x")
            except ValueError as exc:
                error, message = ParseError, str(exc)
        elif fault == "nonfinite":
            col = draw(st.integers(1, n_values))
            lines[bad][col] = draw(st.sampled_from(["nan", "inf", "-inf", "-NaN", "Infinity"]))
            error, message = ParseError, "non-finite value"
        else:
            lines[bad][4:8] = ["1", "0.5", "0", "0"]
            error, message = ParseError, "quaternion is not unit norm"

    text, lineno, fault_line = [header], 1, None
    for i, line in enumerate(lines):
        for blank, at in zip(blanks, before):
            if at == i:
                text.append(blank)
        text.append(",".join(line))
        if i == bad:
            fault_line = len(text)
    text += [blank for blank, at in zip(blanks, before) if at == n]
    return kind, "\n".join(text) + "\n", (stamps, values), (
        None if bad is None else (fault_line, error, message)
    )


def read_whole(kind, path):
    """(stamps, values) of a file as the whole-file readers return them."""
    if kind == "imu":
        origin, _ = read_imu_blocks(path)
        imu = load_imu_csv(path)
        return origin + np.rint(imu.t * 1e9).astype(np.int64), np.hstack([imu.w, imu.a])
    return load_groundtruth_csv(path)


@settings(max_examples=150, deadline=None)
@given(csv_case(), st.data())
def test_blocks_concatenate_to_the_file_and_name_the_faulty_line(case, data):
    kind, text, (stamps, values), fault = case
    block = data.draw(st.integers(1, len(stamps) + 1), label="BLOCK_LINES")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_io, "BLOCK_LINES", block)
        path = os.path.join(tmp, f"{kind}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if fault is not None:
            line, error, message = fault
            with pytest.raises(error) as info:
                read_whole(kind, path)
            assert type(info.value) is error
            assert str(info.value) == f"{path}:{line}: {message}"
            return
        got_stamps, got_values = read_whole(kind, path)
        if kind == "imu":
            blocks = list(read_imu_blocks(path)[1])
            assert [len(b) for b in blocks][:-1] == [block] * (len(blocks) - 1)
            assert np.array_equal(np.concatenate([b.t for b in blocks]),
                                  (np.array(stamps) - stamps[0]) * 1e-9)
    assert got_stamps.tolist() == stamps
    assert np.array_equal(got_values.view(np.int64), np.array(values).view(np.int64))


@pytest.mark.parametrize("block", [1, 2, 3])
def test_fault_on_a_block_boundary(tmp_path, monkeypatch, block):
    # the first row of the second block repeats the stamp of the last
    # row of the first, and carries a non-unit quaternion
    monkeypatch.setattr(dataset_io, "BLOCK_LINES", block)
    rows = [f"{10 * i},{GT_VALUES}" for i in range(block)]
    path = csv_file(tmp_path, "groundtruth.csv", GROUNDTRUTH_HEADER,
                    rows + ["", f"{10 * (block - 1)},{GT_VALUES}"])
    with raises_at(TimestampOrderError, path, block + 3):
        load_groundtruth_csv(path)
    path = csv_file(tmp_path, "groundtruth.csv", GROUNDTRUTH_HEADER,
                    rows + ["", f"{10 * block},0,0,0,1,0.5,0,0,0,0,0,0,0,0,0,0,0"])
    with raises_at(ParseError, path, block + 3):
        load_groundtruth_csv(path)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.floats(0.2, 5.0), st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(n_truth=9, ratio=1.0, block=1, seed=0)  # every IMU stamp on a truth record
def test_groundtruth_reader_equals_whole_file_interpolation(n_truth, ratio, block, seed):
    # IMU stamps denser or sparser than the records, some on a record,
    # asked for in blocks of rising stamps
    rng = np.random.default_rng(seed)
    traj = small_trajectory(duration=(n_truth - 1) * 0.01)
    times = np.sort(rng.uniform(0.0, traj.t[-1], max(2, int(n_truth * ratio))))
    times[0] = 0.0
    on_grid = rng.random(len(times)) < 0.3
    times[on_grid] = traj.t[rng.integers(0, n_truth, on_grid.sum())]
    times = np.unique(times)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_io, "BLOCK_LINES", block)
        path = os.path.join(tmp, "groundtruth.csv")
        write_groundtruth_csv(path, traj)
        want = interpolate_groundtruth(*load_groundtruth_csv(path), times, origin_ns=0)
        reader = GroundTruthReader(path, 0)
        cuts = np.sort(rng.integers(1, max(2, len(times)), rng.integers(0, 4)))
        pieces = [reader.at(part) for part in np.split(times, cuts) if len(part)]
    got = [np.concatenate([getattr(piece[0], name) for piece in pieces]) for name in "trvp"]
    assert all(np.array_equal(x, getattr(want[0], name)) for x, name in zip(got, "trvp"))
    for k in (1, 2):
        assert np.array_equal(np.concatenate([piece[k] for piece in pieces]), want[k])


def test_groundtruth_reader_reads_only_what_it_is_asked(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset_io, "BLOCK_LINES", 4)
    traj = small_trajectory(duration=0.2)  # 21 records, 10 ms apart
    path = tmp_path / "groundtruth.csv"
    write_groundtruth_csv(path, traj)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not,a,record\n")
    reader = GroundTruthReader(path, 0)
    assert np.array_equal(reader.at([0.0])[0].p, traj.p[:1])
    assert np.array_equal(reader.at(traj.t[:-1])[0].p, traj.p[:-1])
    with pytest.raises(ParseError, match=":23: expected 17 columns"):
        reader.at(traj.t[-1:])


def test_truth_ending_before_the_stamps_names_its_last_record(tmp_path):
    traj = small_trajectory(duration=0.2)
    path = tmp_path / "groundtruth.csv"
    write_groundtruth_csv(path, traj)
    want = "after its last record at 200000000.0 ns"
    with pytest.raises(DataError, match=want):
        GroundTruthReader(path, 0).at([0.1, 0.3])
    with pytest.raises(DataError, match=want):
        interpolate_groundtruth(*load_groundtruth_csv(path), [0.1, 0.3])


class TestTrajectoryWriter:
    def rows(self, n, seed=35):
        rng = np.random.default_rng(seed)
        traj = Trajectory(
            t=np.arange(n) * 0.005,
            r=np.array([exp_so3(rng.normal(size=3)) for _ in range(n)]),
            v=rng.normal(size=(n, 3)),
            p=rng.normal(size=(n, 3)),
        )
        return traj, rng.uniform(0.1, 1.0, n)

    @pytest.mark.parametrize("piece", [1, 7, 256, 700])
    def test_pieces_write_the_bytes_of_one_call(self, tmp_path, piece):
        traj, traces = self.rows(600)
        write_trajectory_csv(tmp_path / "whole.csv", traj, traces)
        with TrajectoryWriter(tmp_path / "pieces.csv") as out:
            for i in range(0, len(traj), piece):
                part = Trajectory(traj.t[i:i + piece], traj.r[i:i + piece],
                                  traj.v[i:i + piece], traj.p[i:i + piece])
                out.write(part, traces[i:i + piece])
        assert out.rows == 600
        assert (tmp_path / "pieces.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["pieces.csv", "whole.csv"]

    def test_a_failed_write_leaves_nothing_and_the_old_file(self, tmp_path):
        traj, traces = self.rows(600)
        (tmp_path / "out.csv").write_text("old\n")
        with pytest.raises(RuntimeError):
            with TrajectoryWriter(tmp_path / "out.csv") as out:
                out.write(traj, traces)  # more than a block: rows are on disk
                raise RuntimeError("late fault")
        assert os.listdir(tmp_path) == ["out.csv"]
        assert (tmp_path / "out.csv").read_text() == "old\n"


FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=80, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(8)), elements=FLOATS),
       st.integers(1, 40), st.integers(1, 9), st.integers(1, 7), st.integers(0, 2**32 - 1))
@example(values=np.array([[-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
                           0.1, 1.0 / 3.0, -0.0]]), piece=1, block=1, format_rows=1, seed=0)
def test_writer_bytes_are_per_row_formatting(values, piece, block, format_rows, seed):
    # rows formatted many at a time are the bytes of formatting each value of
    # each row with %.9g on its own, however they are written, flushed and formatted
    n = len(values)
    rng = np.random.default_rng(seed)
    traj = Trajectory(t=values[:, 0], r=np.array([exp_so3(rng.normal(size=3)) for _ in range(n)]),
                      p=values[:, 1:4], v=values[:, 4:7])
    traces = values[:, 7]
    rows = np.column_stack([traj.t, traj.p, dataset_io.quat_from_matrix(traj.r), traj.v, traces])
    want = dataset_io.TRAJECTORY_HEADER + "\n" + "".join(
        ",".join("%.9g" % x for x in row) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_io, "BLOCK_LINES", block)
        mp.setattr(dataset_io, "_FORMAT_ROWS", format_rows)
        path = os.path.join(tmp, "est.csv")
        with TrajectoryWriter(path) as out:
            for i in range(0, n, piece):
                part = slice(i, i + piece)
                out.write(Trajectory(traj.t[part], traj.r[part], traj.v[part], traj.p[part]),
                          traces[part])
        with open(path, "rb") as fh:
            assert fh.read() == want.encode()
