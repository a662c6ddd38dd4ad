#!/usr/bin/env python3
"""Benchmark of the bodyframe-io pipeline: filter, network serving, training.

Run from the repository root:

    python3 perfbench/run.py --workload filter-oracle --seed 1 --seconds 15 --trace 0

A run builds seeded synthetic UAV corpora with the program's own
``simulate`` (three times, timed as ``setup_s``), then repeats the
workload's operation through the ``bodyframe-io`` command line for
``--seconds`` in a closed loop (one client; each command starts after
the previous one ended) and checks every output against computations
made apart from the program (see checks.py). ``--trace 0`` runs each
command as its own process and prints the end-to-end metrics;
``--trace 1`` calls ``bodyframe_io.cli.main`` in this process with
every layer wrapped (see tracing.py) and prints the per-layer metrics.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units come from BENCHMARK.json; README.md explains
each workload and metric.
"""

import os

# Cap BLAS threads before numpy loads; commands inherit the setting.
_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from itertools import zip_longest  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
TRACES = HERE / "traces"

SETUP_REPEATS = 3
# Injected initial biases: fixed magnitudes per axis, signs drawn from the
# workload seed, the same in every sequence of a corpus (so a corrector
# trained on the seen sequences can remove them from the unseen one). The
# sensor-noise realization is fixed per sequence (simulate --seed is the
# sequence's index): with it drawn from the workload seed as well, the
# oracle run's ATE spread by +-15% across seeds.
GYRO_BIAS = (0.010, 0.015, 0.020)  # rad/s
ACCEL_BIAS = (0.10, 0.15, 0.20)  # m/s^2
# train-motion settings; the filter workloads' probe trains one epoch.
TRAIN_EPOCHS = 8
PROBE_EPOCHS = 1
PROBE_REPEATS = 3
TRAIN_INI = "[motion]\nepochs = {epochs}\nlr = 3e-3\nbatch_size = 16\ndropout_p = 0.0\n"
# --seed of the training and filter commands (weight init, shuffling, the
# oracle's noise draw): the corpus alone varies with the workload seed.
PROGRAM_SEED = "0"


class CommandFailed(Exception):
    pass


@dataclass(frozen=True)
class Seq:
    """One simulated sequence of a corpus."""

    name: str
    role: str
    kind: str
    duration: float
    imu_rate: float
    amplitude: float
    rate: float
    yaw_mode: str = "follow_velocity"
    yaw_rate: float = 0.0
    phases: tuple = (0.0, 0.5, 1.0)

    def ini(self, b_g0, b_a0) -> str:
        return (
            "[simulator]\n"
            f"kind = {self.kind}\nduration = {self.duration}\n"
            f"imu_rate = {self.imu_rate}\namplitude = {self.amplitude}\n"
            f"rate = {self.rate}\nyaw_mode = {self.yaw_mode}\n"
            f"yaw_rate = {self.yaw_rate}\n"
            f"phases = {', '.join(map(str, self.phases))}\n"
            "[noise]\n"
            f"b_g0 = {', '.join(map(str, b_g0))}\n"
            f"b_a0 = {', '.join(map(str, b_a0))}\n"
        )


def injected_biases(seed):
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=6)
    return signs[:3] * GYRO_BIAS, signs[3:] * ACCEL_BIAS


# ---------------------------------------------------------------------------
# running commands


class Runner:
    """Runs bodyframe-io commands one at a time, as processes or in process."""

    def __init__(self, seed, work, tracer=None):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.peak_rss_kb = 0
        if tracer is not None:
            from bodyframe_io import cli

            self._main = tracer.wrap("cli.main", cli.main)

    def command(self, *argv, timed=False):
        """Run one command; returns its wall seconds, raises CommandFailed."""
        argv = [str(a) for a in argv]
        if self.tracer is None:
            return self._process(argv, timed)
        return self._in_process(argv)

    def _process(self, argv, timed):
        with open(self.work / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "bodyframe_io.cli", *argv],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode(errors="replace").strip()
        if code != 0:
            raise CommandFailed(f"{argv[0]} exited {code}: {message[-500:]}")
        if timed:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return wall

    def _in_process(self, argv):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self._main(argv)
        except Exception as exc:  # a crash of the program counts as a failed command
            raise CommandFailed(f"{argv[0]} raised {exc!r}") from exc
        if code != 0:
            raise CommandFailed(f"{argv[0]} returned {code}")
        return time.perf_counter() - start


def simulate_corpus(run, d, corpus):
    b_g0, b_a0 = injected_biases(run.seed)
    for i, seq in enumerate(corpus):
        ini = d / f"{seq.name}.ini"
        ini.write_text(seq.ini(b_g0, b_a0))
        run.command(
            "simulate", "--data", d / "corpus", "--name", seq.name, "--role", seq.role,
            "--config", ini, "--seed", i,
        )


def train_ini(d, epochs):
    path = d / f"train{epochs}.ini"
    path.write_text(TRAIN_INI.format(epochs=epochs))
    return path


def save_fresh_model(path, seed):
    """A freshly initialised network of the command line's default architecture."""
    from bodyframe_io import config
    from bodyframe_io.motion_model import MotionNet

    MotionNet(config.motion_net_config(config.load_config(None), seed)).save(str(path))


def load_sequence(d, name):
    seq = d / "corpus" / name
    return checks.load_imu(seq / "imu.csv"), checks.load_groundtruth(seq / "groundtruth.csv")


def median_of(rows, key):
    """Median of rows[i][key] over the rows that have it (0 if none do:
    a round whose output failed its checks may lack a figure)."""
    values = [row[key] for row in rows if key in row]
    return statistics.median(values) if values else 0.0


def same_bytes(a, b):
    return Path(a).read_bytes() == Path(b).read_bytes()


# ---------------------------------------------------------------------------
# workloads


LISSAJOUS = dict(kind="lissajous3d", amplitude=2.0, rate=0.6, yaw_mode="spin", yaw_rate=1.5)
SEEN_PHASES = (1.0, 2.0, 0.3)


class FilterWorkload:
    """run-ekf on a spinning-yaw 3-D Lissajous flight with a trained corrector."""

    def __init__(self, provider, imu_rate, seen_s, flight_s):
        self.provider = provider
        self.corpus = (
            Seq("seen", "seen", duration=seen_s, imu_rate=imu_rate,
                phases=SEEN_PHASES, **LISSAJOUS),
            Seq("flight", "unseen", duration=flight_s, imu_rate=imu_rate, **LISSAJOUS),
        )

    def setup(self, run, d):
        simulate_corpus(run, d, self.corpus)
        wall = run.command(
            "train-corrector", "--data", d / "corpus", "--out", d / "corrector.bfwt",
            "--seed", PROGRAM_SEED,
        )
        if self.provider == "network":
            save_fresh_model(d / "motion.bfwt", run.seed)
        return {"train_corrector_s": wall}

    def run_ekf(self, run, d, provider, out, timed):
        argv = [
            "run-ekf", "--data", d / "corpus", "--name", "flight", "--provider", provider,
            "--corrector-weights", d / "corrector.bfwt", "--out", out, "--seed", PROGRAM_SEED,
        ]
        if provider == "network":
            argv += ["--weights", d / "motion.bfwt"]
        return run.command(*argv, timed=timed)

    def prepare(self, run, d):
        self.imu, self.gt = load_sequence(d, "flight")
        stamps = self.imu[0]
        self.flight_s = (stamps[-1] - stamps[0]) * 1e-9
        if self.provider == "oracle":
            rot0 = checks.quat_to_matrix(self.gt["q"][0])
            t = (stamps - stamps[0]) * 1e-9
            dr = checks.dead_reckoning_positions(
                t, self.imu[1], self.imu[2], rot0, self.gt["v"][0], self.gt["p"][0]
            )
            self.dr_ate = checks.position_rmse(dr, self.gt["p"])
        else:
            # Untimed reference made fresh on every run: a fresh network
            # outputs v = 0 and eta = 1, exactly the zero provider's output.
            self.run_ekf(run, d, "zero", d / "zero.csv", timed=False)

    def probe(self, run, d):
        """train-motion for one epoch on the seen corpus (train_motion_s here)."""
        wall = run.command(
            "train-motion", "--data", d / "corpus", "--out", d / "probe.bfwt",
            "--config", train_ini(d, PROBE_EPOCHS), "--seed", PROGRAM_SEED,
        )
        return {"train_motion_s": wall}

    def operation(self, run, d, i):
        return {"wall": self.run_ekf(run, d, self.provider, d / f"out{i}.csv", timed=True)}

    def check(self, d, i):
        out = d / f"out{i}.csv"
        traj = checks.load_trajectory(out)
        if len(traj["t"]) != len(self.gt["p"]):
            return {}, [f"{out.name}: {len(traj['t'])} rows for {len(self.gt['p'])} frames"]
        figures = {
            "ate_m": checks.position_rmse(traj["p"], self.gt["p"]),
            "vel_rmse": checks.body_velocity_rmse(traj, self.gt),
        }
        if self.provider == "oracle":
            more, fails = checks.check_trajectory(traj, self.imu[0], self.gt, self.dr_ate)
            figures.update(more)
            if i > 0 and not same_bytes(out, d / "out0.csv"):
                fails.append(f"{out.name} differs from out0.csv on the same inputs")
        else:
            _, fails = checks.check_identical(out, d / "zero.csv")
        if i > 0:
            out.unlink()
        return figures, fails

    def metrics(self, setups, probes, ops):
        return {
            "realtime_factor": statistics.median(self.flight_s / op["wall"] for op in ops),
            "ate_m": median_of(ops, "ate_m"),
            "heldout_vel_rmse_mps": median_of(ops, "vel_rmse"),
            "train_corrector_s": statistics.median(s["train_corrector_s"] for s in setups),
            "train_motion_s": statistics.median(p["train_motion_s"] for p in probes),
        }


class TrainWorkload:
    """train-corrector, then train-motion for a fixed number of epochs."""

    corpus = (
        Seq("figure8", "seen", kind="figure8", duration=10.0, imu_rate=200.0,
            amplitude=1.0, rate=0.5),
        Seq("circle", "seen", kind="circle", duration=10.0, imu_rate=200.0,
            amplitude=1.0, rate=0.6),
        Seq("unseen", "unseen", kind="figure8", duration=6.0, imu_rate=200.0,
            amplitude=1.2, rate=0.55),
    )

    def setup(self, run, d):
        simulate_corpus(run, d, self.corpus)
        return {}

    probe = None

    def prepare(self, run, d):
        self.imu, self.gt = load_sequence(d, "unseen")
        self.corpus_s = sum(s.duration for s in self.corpus if s.role == "seen")
        self.ini = train_ini(d, TRAIN_EPOCHS)

    def operation(self, run, d, i):
        corrector = run.command(
            "train-corrector", "--data", d / "corpus", "--out", d / f"corrector{i}.bfwt",
            "--seed", PROGRAM_SEED, timed=True,
        )
        motion = run.command(
            "train-motion", "--data", d / "corpus", "--out", d / f"motion{i}.bfwt",
            "--config", self.ini, "--seed", PROGRAM_SEED, timed=True,
        )
        return {"train_corrector_s": corrector, "train_motion_s": motion}

    def check(self, d, i):
        from bodyframe_io.motion_model import MotionNet

        figures, fails = checks.check_corrector(d / f"corrector{i}.bfwt", self.imu, self.gt)
        model = MotionNet.load(str(d / f"motion{i}.bfwt"))
        imu, att, v_true = checks.heldout_inputs(self.imu, self.gt, model.config.window)
        v_pred, _ = model.forward_arrays(imu, att, train=False)
        more, vel_fails = checks.check_velocity(v_pred, v_true)
        figures.update(more)
        fails += vel_fails
        figures["ate_m"] = checks.integrated_ate(v_pred, self.imu, self.gt)
        if i > 0:
            for stem in ("corrector", "motion"):
                path = d / f"{stem}{i}.bfwt"
                if not same_bytes(path, d / f"{stem}0.bfwt"):
                    fails.append(f"{path.name} differs from the first round's on the same inputs")
                path.unlink()
        return figures, fails

    def metrics(self, setups, probes, ops):
        return {
            "realtime_factor": statistics.median(
                self.corpus_s / (op["train_corrector_s"] + op["train_motion_s"]) for op in ops
            ),
            "ate_m": median_of(ops, "ate_m"),
            "heldout_vel_rmse_mps": median_of(ops, "heldout_vel_rmse_mps"),
            "train_corrector_s": statistics.median(op["train_corrector_s"] for op in ops),
            "train_motion_s": statistics.median(op["train_motion_s"] for op in ops),
        }


WORKLOADS = {
    # 200 Hz, 15 s of flight: the per-frame filter core dominates.
    "filter-oracle": lambda: FilterWorkload("oracle", 200.0, seen_s=8.0, flight_s=15.0),
    # 2 kHz so that the 1000-frame buffer fills after 0.5 s: 15 of the 25
    # updates of a 1.25 s flight run the network on a full buffer.
    "filter-network": lambda: FilterWorkload("network", 2000.0, seen_s=1.0, flight_s=1.25),
    "train": TrainWorkload,
}


# ---------------------------------------------------------------------------
# per-layer metrics from the trace


def layer_metrics(tracer, names, setup_wall, round_walls, untraced_round):
    """Per-layer figures for one set-up plus one average round."""
    n = len(round_walls)
    spans = tracer.spans
    by_phase = tracing.summarize(spans)
    setup = by_phase.get("setup", {})
    rounds = [by_phase.get(f"round{i}", {}) for i in range(n)]

    def per_unit(name, k):
        total = sum(r.get(name, (0.0, 0))[k] for r in rounds)
        return setup.get(name, (0.0, 0))[k] + total / n

    def count(key):
        total = sum(tracer.counts[f"round{i}", key] for i in range(n))
        return tracer.counts["setup", key] + total / n

    def ratio(num, den):
        return num / den if den else 0.0

    round_wall = sum(round_walls) / n
    wall = setup_wall + round_wall
    covered = tracing.top_level_time(spans, "setup") + sum(
        tracing.top_level_time(spans, f"round{i}") for i in range(n)
    ) / n
    special = {
        "trace.round_s": round_wall,
        "trace.untraced_round_s": untraced_round,
        "trace.unattributed_s": wall - covered,
        "corrector.useful_ratio": ratio(
            per_unit("ekf.ekf_propagate", 1), count("corrector.frames_inferred")
        ),
        "motion_model.useful_ratio": ratio(
            count("motion_model.tail_frames"), count("motion_model.frames_predicted")
        ),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith("_s"):
            out[name] = per_unit(name[:-2], 0)
        elif name.endswith("_calls"):
            out[name] = per_unit(name[: -len("_calls")], 1)
        else:
            out[name] = count(name)
    return out


# ---------------------------------------------------------------------------


def tree_digest(d):
    digest = hashlib.sha256()
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(d)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # A termination request unwinds like an error, so the running command
    # is killed and waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "bodyframe_io" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bodyframe_io

    if Path(bodyframe_io.__file__).resolve().parent != SRC / "bodyframe_io":
        print(f"perfbench: imported {bodyframe_io.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work, declared):
    """Set up, run rounds for args.seconds, check, and print the result line."""
    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    run = Runner(args.seed, work, tracer)
    d = work / "setup0"
    fails, setups, setup_walls, probes, ops, round_walls = [], [], [], [], [], []
    digests = []
    attempted = failed = 0

    def timed_setup(k):
        here = work / f"setup{k}"
        here.mkdir()
        if tracer is not None:
            tracer.phase, tracer.active = "setup", True
        start = time.perf_counter()
        try:
            setups.append(workload.setup(run, here))
        finally:
            if tracer is not None:
                tracer.active = False
        setup_walls.append(time.perf_counter() - start)
        digests.append(tree_digest(here))
        if digests[-1] != digests[0]:
            fails.append(f"set-up {k} differs from set-up 0 on the same seed")
        if k:
            shutil.rmtree(here)

    # Set-up repeats and probes run between measured rounds, so that the
    # samples of every metric spread over the whole run and drifts in
    # machine speed weigh on all of them alike.
    side = []
    if tracer is None:
        repeats = [lambda k=k: timed_setup(k) for k in range(1, SETUP_REPEATS)]
        extra = []
        if workload.probe is not None:
            extra = [lambda: probes.append(workload.probe(run, d))] * PROBE_REPEATS
        side = [t for pair in zip_longest(repeats, extra) for t in pair if t is not None]

    def one_round(phase):
        """One operation and its checks; returns (wall seconds, succeeded)."""
        nonlocal attempted, failed
        attempted += 1
        if phase is not None:
            tracer.phase, tracer.active = phase, True
        began = time.perf_counter()
        try:
            figures = workload.operation(run, d, len(ops))
        except CommandFailed as exc:
            failed += 1
            print(f"perfbench: {exc}", file=sys.stderr)
            return time.perf_counter() - began, False
        finally:
            if tracer is not None:
                tracer.active = False
        wall = time.perf_counter() - began
        try:
            more, op_fails = workload.check(d, len(ops))
        except (OSError, ValueError) as exc:  # unreadable or malformed output
            more, op_fails = {}, [f"round {len(ops)}: {exc}"]
        figures.update(more)
        ops.append(figures)
        fails.extend(op_fails)
        return wall, True

    untraced_round = None
    try:
        if tracer is not None:
            tracer.install()
            for name in tracer.missing:
                print(f"perfbench: not traced, name not found: {name}", file=sys.stderr)
        timed_setup(0)
        workload.prepare(run, d)
        measured = 0.0
        while measured < args.seconds:
            phase = None if tracer is None else f"round{len(round_walls)}"
            wall, ok = one_round(phase)
            measured += wall
            if ok and tracer is not None:
                round_walls.append(wall)
            if side:
                side.pop(0)()
        for task in side:
            task()
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None and round_walls:
        # The same round in this process with nothing patched: the base of
        # the tracing overhead.
        wall, ok = one_round(None)
        untraced_round = wall if ok else 0.0
    for message in fails:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(f"perfbench: set-up walls {[round(w, 3) for w in setup_walls]}, probes {probes}, "
          f"rounds {[{k: round(v, 4) for k, v in op.items()} for op in ops]}", file=sys.stderr)
    if not ops or (tracer is not None and not round_walls):
        print("perfbench: every operation failed", file=sys.stderr)
        return 1

    names = [m["name"] for m in declared]
    if tracer is not None:
        TRACES.mkdir(exist_ok=True)
        tracer.save(TRACES / f"{args.workload}-seed{args.seed}.npz")
        values = layer_metrics(tracer, names, setup_walls[0], round_walls, untraced_round)
    else:
        values = workload.metrics(setups, probes, ops)
        values["setup_s"] = statistics.median(setup_walls)
        values["peak_rss_mb"] = run.peak_rss_kb / 1024.0
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
