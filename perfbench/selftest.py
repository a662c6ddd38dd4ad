#!/usr/bin/env python3
"""Self-tests of the benchmark's checks and tracing.

Run from the repository root: ``python3 perfbench/selftest.py``. Each
output check must fail on a deliberately broken output; span self time
must follow from a synthetic span tree; a traced run must put back every
name it patched.
"""

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
TMP_ROOT = HERE / "work"  # temporary files stay inside the checkout
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402


def _tmpdir():
    TMP_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=TMP_ROOT)


def _straight_flight(n=200, dt=0.005):
    """Ground truth and a perfect filter trajectory for a level 1 m/s flight."""
    t = np.arange(n) * dt
    p = np.column_stack([t, np.zeros(n), np.ones(n)])
    q = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    v = np.tile([1.0, 0.0, 0.0], (n, 1))
    stamps = (t * 1e9).round().astype(np.int64)
    gt = {"stamps_ns": stamps, "p": p, "q": q, "v": v,
          "b_g": np.zeros((n, 3)), "b_a": np.zeros((n, 3))}
    traj = {"t": t, "p": p.copy(), "q": q.copy(), "v": v.copy(), "tr_P": np.full(n, 1e-3)}
    return stamps, gt, traj


class OutputChecks(unittest.TestCase):
    def test_shifted_trajectory_fails(self):
        stamps, gt, traj = _straight_flight()
        _, fails = checks.check_trajectory(traj, stamps, gt, dr_ate=100.0)
        self.assertEqual(fails, [])
        traj["p"] = traj["p"] + [1.0, 0.0, 0.0]
        figures, fails = checks.check_trajectory(traj, stamps, gt, dr_ate=100.0)
        self.assertAlmostEqual(figures["ate_m"], 1.0)
        self.assertTrue(any("ATE" in f for f in fails))
        self.assertTrue(any("coverage" in f for f in fails))

    def test_trajectory_csv_round_trip(self):
        stamps, gt, traj = _straight_flight(n=5)
        rows = np.column_stack([traj["t"], traj["p"], traj["q"], traj["v"], traj["tr_P"]])
        with _tmpdir() as tmp:
            path = Path(tmp) / "traj.csv"
            path.write_text(
                "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz,tr_P\n"
                + "".join(",".join(format(x, ".9g") for x in row) + "\n" for row in rows)
            )
            loaded = checks.load_trajectory(path)
        _, fails = checks.check_trajectory(loaded, stamps, gt, dr_ate=100.0)
        self.assertEqual(fails, [])

    def test_flipped_bit_fails(self):
        text = b"t,px\n0,1.5\n0.005,1.25\n0.01,1.125\n"
        with _tmpdir() as tmp:
            ref, out = Path(tmp) / "zero.csv", Path(tmp) / "net.csv"
            ref.write_bytes(text)
            out.write_bytes(text)
            self.assertEqual(checks.check_identical(out, ref)[1], [])
            broken = bytearray(text)
            broken[text.index(b"1.25") + 3] ^= 0x01  # "1.25" -> "1.24"
            out.write_bytes(bytes(broken))
            fails = checks.check_identical(out, ref)[1]
        self.assertEqual(len(fails), 1)
        self.assertIn("line 3", fails[0])

    def _corrector_file(self, tmp, weight, bias, window_len=16):
        from bodyframe_io.corrector import LearnedAffineCorrector

        d = 6 * window_len
        path = Path(tmp) / "corrector.bfwt"
        LearnedAffineCorrector(
            weight=weight, bias=bias, feat_mean=np.full(d, 0.1), feat_scale=np.full(d, 2.0),
            raw_eta=np.zeros(6), window_len=window_len,
        ).save(str(path))
        return path

    def test_corrections_match_the_program(self):
        from bodyframe_io.corrector import LearnedAffineCorrector
        from bodyframe_io.imu_model import ImuWindow

        rng = np.random.default_rng(3)
        n = 40
        w, a = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        with _tmpdir() as tmp:
            path = self._corrector_file(tmp, rng.normal(size=(96, 6)), rng.normal(size=6))
            gyro, accel = checks.affine_corrections(path, w, a)
            out = LearnedAffineCorrector.load(str(path)).infer(
                ImuWindow(t=np.arange(n) * 0.005, w=w, a=a)
            )
        np.testing.assert_allclose(gyro, out.gyro_correction, rtol=0, atol=1e-12)
        np.testing.assert_allclose(accel, out.accel_correction, rtol=0, atol=1e-12)

    def test_reversed_corrector_fails(self):
        n = 64
        rng = np.random.default_rng(4)
        b = np.array([0.01, -0.015, 0.02, 0.1, -0.15, 0.2])
        imu = (np.arange(n), rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        gt = {"b_g": np.tile(b[:3], (n, 1)), "b_a": np.tile(b[3:], (n, 1))}
        with _tmpdir() as tmp:
            good = self._corrector_file(tmp, np.zeros((96, 6)), -b)
            self.assertEqual(checks.check_corrector(good, imu, gt)[1], [])
            reversed_ = self._corrector_file(tmp, np.zeros((96, 6)), b)
            fails = checks.check_corrector(reversed_, imu, gt)[1]
        self.assertEqual(len(fails), 2)

    def test_zero_velocity_fails(self):
        v_true = np.ones((2, 10, 3))
        self.assertEqual(checks.check_velocity(v_true + 0.1, v_true)[1], [])
        self.assertEqual(len(checks.check_velocity(np.zeros_like(v_true), v_true)[1]), 1)

    def test_rotvec_matches_log_so3(self):
        from bodyframe_io.dataset_io import quat_from_matrix
        from bodyframe_io.so3 import exp_so3, log_so3

        rng = np.random.default_rng(5)
        for xi in rng.normal(size=(20, 3)):
            r = exp_so3(xi)
            got = checks.quat_to_rotvec(quat_from_matrix(r)[None])[0]
            np.testing.assert_allclose(got, log_so3(r), atol=1e-9)
            np.testing.assert_allclose(
                checks.quat_to_matrix(quat_from_matrix(r)), r, atol=1e-12
            )


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_a_span_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1, "p"],
            ["a", 1.0, 4.0, 0, "p"],
            ["b", 5.0, 7.0, 0, "p"],
            ["c", 2.0, 3.0, 1, "p"],
            ["a", 8.0, 9.0, 0, "p"],
            ["root", 20.0, 21.0, -1, "q"],
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 2.0, 1.0, 1.0, 1.0])
        self.assertEqual(tracing.summarize(spans), {
            "p": {"root": (4.0, 1), "a": (3.0, 2), "b": (2.0, 1), "c": (1.0, 1)},
            "q": {"root": (1.0, 1)},
        })
        self.assertEqual(tracing.top_level_time(spans, "p"), 10.0)
        self.assertEqual(tracing.top_level_time(spans), 11.0)

    def test_overlapping_children_count_once(self):
        spans = [["root", 0.0, 10.0, -1, ""], ["a", 1.0, 4.0, 0, ""], ["b", 3.0, 5.0, 0, ""]]
        self.assertEqual(tracing.self_times(spans)[0], 6.0)


class PatchRestore(unittest.TestCase):
    def _targets(self):
        import importlib

        out = []
        for module_name, owner_name, attr, _, _ in tracing.TARGETS:
            module = importlib.import_module(f"bodyframe_io.{module_name}")
            owner = module if owner_name is None else getattr(module, owner_name)
            out.append((owner, attr, vars(owner)[attr]))
        return out

    def test_every_target_exists(self):
        tracer = tracing.Tracer()
        with tracer:
            self.assertEqual(tracer.missing, [])

    def test_traced_run_restores_every_name(self):
        from bodyframe_io import cli

        before = self._targets()
        tracer = tracing.Tracer()
        main = tracer.wrap("cli.main", cli.main)
        with _tmpdir() as tmp:
            ini = Path(tmp) / "sim.ini"
            ini.write_text("[simulator]\nduration = 1.0\nimu_rate = 50.0\n")
            data = str(Path(tmp) / "corpus")
            with tracer, contextlib.redirect_stdout(io.StringIO()):
                tracer.phase, tracer.active = "setup", True
                self.assertEqual(
                    main(["simulate", "--data", data, "--name", "s", "--config", str(ini)]), 0
                )
                self.assertEqual(main(["run-ekf", "--data", data, "--name", "s",
                                       "--provider", "oracle", "--out",
                                       str(Path(tmp) / "out.csv")]), 0)
        summary = tracing.summarize(tracer.spans)["setup"]
        self.assertEqual(summary["ekf.ekf_propagate"][1], 50)
        self.assertEqual(summary["cli.main"][1], 2)
        self.assertGreater(tracer.counts["setup", "corrector.frames_inferred"], 0)
        for (owner, attr, original), (_, _, now) in zip(before, self._targets()):
            self.assertIs(now, original, f"{owner.__name__}.{attr} not restored")

    def test_restore_after_an_exception(self):
        before = self._targets()
        with self.assertRaises(RuntimeError):
            with tracing.Tracer():
                raise RuntimeError("boom")
        for (owner, attr, original), (_, _, now) in zip(before, self._targets()):
            self.assertIs(now, original)


if __name__ == "__main__":
    unittest.main()
