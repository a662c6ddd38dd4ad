import math

import numpy as np
import pytest

from bodyframe_io.dataset_io import (
    CorpusEntry,
    groundtruth_from_simulation,
    interpolate_biases,
    interpolate_groundtruth,
    load_groundtruth_csv,
    load_imu_csv,
    load_sequence,
    matrix_from_quat,
    quat_from_matrix,
    read_corpus_manifest,
    read_trajectory_csv,
    slerp,
    write_corpus_manifest,
    write_imu_csv,
    write_sequence,
    write_trajectory_csv,
)
from bodyframe_io.errors import DataError, ParseError, TimestampOrderError
from bodyframe_io.preintegration import NavState
from bodyframe_io.simulator import (
    NoiseSpec,
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

    def test_rejects_non_unit_quaternion(self):
        with pytest.raises(DataError):
            matrix_from_quat([1.0, 0.5, 0.0, 0.0])

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
        for x, y in zip(imu, back):
            assert abs(x.t - y.t) < 1e-9
            np.testing.assert_array_equal(x.w, y.w)  # %.17g is exact
            np.testing.assert_array_equal(x.a, y.a)

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


class TestGroundTruthCsv:
    def test_roundtrip_preserves_pose(self, tmp_path):
        traj = small_trajectory()
        records = groundtruth_from_simulation(traj)
        path = tmp_path / "groundtruth.csv"
        from bodyframe_io.dataset_io import write_groundtruth_csv

        write_groundtruth_csv(path, records)
        back = load_groundtruth_csv(path)
        assert len(back) == len(records)
        for orig, rec, sample in zip(records, back, traj):
            assert orig.t_ns == rec.t_ns
            np.testing.assert_array_equal(orig.p, rec.p)
            np.testing.assert_allclose(
                matrix_from_quat(rec.q), sample.r, atol=1e-13
            )

    def test_interpolation_hits_midpoints(self):
        traj = small_trajectory(rate=100.0)
        records = groundtruth_from_simulation(traj)
        # Query halfway between knots 10 and 11.
        t_mid = (traj[10].t + traj[11].t) / 2.0
        (sample,) = interpolate_groundtruth(records, [t_mid])
        np.testing.assert_allclose(
            sample.p, (traj[10].p + traj[11].p) / 2.0, atol=1e-9
        )
        np.testing.assert_allclose(
            sample.v, (traj[10].v + traj[11].v) / 2.0, atol=1e-9
        )
        # Orientation error at the midpoint is O(dt^2); dt = 10 ms here.
        geo = log_so3(sample.r.T @ traj[10].r @ exp_so3(traj[10].w_body * 0.005))
        assert np.linalg.norm(geo) < 1e-4

    def test_interpolation_at_knots_is_exact(self):
        traj = small_trajectory()
        records = groundtruth_from_simulation(traj)
        out = interpolate_groundtruth(records, [traj[7].t])
        np.testing.assert_allclose(out[0].p, traj[7].p, atol=1e-9)
        np.testing.assert_allclose(out[0].r, traj[7].r, atol=1e-9)

    def test_out_of_span_rejected(self):
        records = groundtruth_from_simulation(small_trajectory(duration=0.2))
        with pytest.raises(DataError, match="span"):
            interpolate_groundtruth(records, [5.0])

    def test_bias_interpolation(self):
        traj = small_trajectory(duration=0.2)
        imu = derive_imu(traj)
        _, bias = corrupt_imu(imu, NoiseSpec(sigma_bg=1e-3, b_a0=(0.1, 0.0, 0.0), seed=2))
        records = groundtruth_from_simulation(traj, bias)
        b_g, b_a = interpolate_biases(records, [s.t for s in traj])
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
        records = groundtruth_from_simulation(traj, bias)
        seq_dir = tmp_path / "seq_000"
        write_sequence(seq_dir, imu, records)
        imu_back, truth_back, (b_g, b_a) = load_sequence(seq_dir)
        assert len(imu_back) == len(imu) == len(truth_back)
        np.testing.assert_allclose(truth_back[3].p, traj[3].p, atol=1e-9)
        np.testing.assert_allclose(truth_back[3].r, traj[3].r, atol=1e-9)
        np.testing.assert_allclose(b_a[10], bias.b_a[10], atol=1e-12)


class TestTrajectoryCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        times = np.arange(5) * 0.05
        states = [
            NavState(
                r=exp_so3(rng.normal(size=3)),
                v=rng.normal(size=3),
                p=rng.normal(size=3),
                b_a=np.zeros(3),
                b_g=np.zeros(3),
            )
            for _ in range(5)
        ]
        traces = rng.uniform(0.1, 1.0, size=5)
        path = tmp_path / "est.csv"
        write_trajectory_csv(path, times, states, traces)
        t2, s2, tr2 = read_trajectory_csv(path)
        np.testing.assert_allclose(t2, times, atol=1e-9)
        np.testing.assert_allclose(tr2, traces, rtol=1e-8)
        for a, b in zip(states, s2):
            np.testing.assert_allclose(a.p, b.p, rtol=1e-8, atol=1e-9)
            np.testing.assert_allclose(a.r, b.r, atol=1e-7)

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "est.csv"
        states = [NavState.identity()]
        states[0].p = np.array([1.23456789123456, 0.0, 0.0])
        write_trajectory_csv(path, [0.0], states, [0.5])
        row = path.read_text().splitlines()[1]
        assert row.split(",")[1] == "1.23456789"
