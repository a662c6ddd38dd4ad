"""In-process span tracing of bodyframe_io from outside the program.

A Tracer wraps each traced function at the name its caller looks it
up: a module global such as ``bodyframe_io.ekf.propagate_state`` (ekf
imports it by name, so patching ``preintegration`` alone would miss the
call) or a method on its class such as ``Gru.forward``. Each call
records a span (name, start, end, parent, phase) in memory; some
wrappers also add to counters. ``Tracer.restore`` puts every original
back.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

import numpy as np


def _frames(arg_index):
    """Counter increment: the length of positional argument arg_index."""
    return lambda args, kwargs: len(args[arg_index])


def _gru_name(kind):
    return lambda args: f"nn.Gru.{'bwd' if args[0].reverse else 'fwd'}.{kind}"


# (module, owner or None for a module global, attribute, span name or
#  callable(args) -> name, {counter: callable(args, kwargs) -> increment}).
# A span name of None records no span, only the counters.
TARGETS = [
    ("cli", None, "streaming_run", "ekf.runner", {}),
    ("ekf", None, "ekf_propagate", "ekf.ekf_propagate", {}),
    ("ekf", None, "ekf_update", "ekf.ekf_update", {}),
    ("ekf", None, "propagate_state", "preintegration.propagate_state", {}),
    ("ekf", None, "propagation_jacobians", "preintegration.propagation_jacobians", {}),
    ("ekf", None, "propagate_covariance", "preintegration.propagate_covariance", {}),
    ("ekf", None, "state_boxplus", "preintegration.state_boxplus", {}),
    ("ekf", None, "correct_and_quantify", "corrector.correct_and_quantify", {}),
    ("preintegration", None, "exp_so3", "so3.exp_so3", {}),
    ("simulator", None, "exp_so3", "so3.exp_so3", {}),
    ("preintegration", None, "right_jacobian", "so3.right_jacobian", {}),
    ("so3", None, "is_rotation", "so3.is_rotation", {}),
    ("preintegration", None, "is_rotation", "so3.is_rotation", {}),
    ("imu_model", None, "log_so3", "so3.log_so3", {}),
    ("simulator", None, "log_so3", "so3.log_so3", {}),
    ("preintegration", None, "log_so3", "so3.log_so3", {}),
    ("corrector", "LearnedAffineCorrector", "infer", "corrector.infer",
     {"corrector.frames_inferred": _frames(1)}),
    ("corrector", "IdentityCorrector", "infer", "corrector.infer",
     {"corrector.frames_inferred": _frames(1)}),
    ("corrector", "LearnedAffineCorrector", "features", "corrector.features", {}),
    ("cli", None, "train_corrector", "corrector.train_corrector", {}),
    ("ekf", None, "transform_representation", "imu_model.transform_representation",
     {"imu_model.frames_transformed": _frames(0)}),
    ("cli", None, "transform_representation", "imu_model.transform_representation",
     {"imu_model.frames_transformed": _frames(0)}),
    ("imu_model", "ImuWindow", "__post_init__", None,
     {"imu_model.window_builds": lambda args, kwargs: 1}),
    ("motion_model", "NetworkProvider", "predict_window", "motion_model.predict_window",
     {"motion_model.frames_predicted": _frames(1),
      "motion_model.tail_frames": lambda args, kwargs: min(args[2], len(args[1]))}),
    ("motion_model", "OracleProvider", "predict_window", "motion_model.predict_window", {}),
    ("motion_model", "ConstantZeroProvider", "predict_window",
     "motion_model.predict_window", {}),
    ("motion_model", "VelocityMeasurement", "__post_init__", None,
     {"motion_model.measurements_built": lambda args, kwargs: 1}),
    ("motion_model", "MotionNet", "forward_arrays", "motion_model.forward_arrays", {}),
    ("motion_model", "MotionNet", "backward_arrays", "motion_model.backward_arrays", {}),
    ("cli", None, "train_motion_model", "motion_model.train_motion_model", {}),
    ("nn", "Conv1d", "forward", "nn.Conv1d.forward", {}),
    ("nn", "Conv1d", "backward", "nn.Conv1d.backward", {}),
    ("nn", "Gru", "forward", _gru_name("forward"), {}),
    ("nn", "Gru", "backward", _gru_name("backward"), {}),
    ("nn", "Linear", "forward", "nn.Linear.forward", {}),
    ("nn", "Linear", "backward", "nn.Linear.backward", {}),
    ("nn", "Gelu", "forward", "nn.Gelu.forward", {}),
    ("nn", "Gelu", "backward", "nn.Gelu.backward", {}),
    ("nn", "Adam", "step", "nn.Adam.step", {}),
    ("cli", None, "load_sequence", "dataset_io.load_sequence", {}),
    ("cli", None, "write_trajectory_csv", "dataset_io.write_trajectory_csv", {}),
    ("cli", None, "write_sequence", "dataset_io.write_sequence", {}),
    ("cli", None, "generate_trajectory", "simulator.generate_trajectory", {}),
    ("cli", None, "derive_imu", "simulator.derive_imu", {}),
    ("cli", None, "corrupt_imu", "simulator.corrupt_imu", {}),
]


class Tracer:
    """Span recorder that patches bodyframe_io while installed.

    Spans are rows [name, start, end, parent index, phase]; the parent
    is the innermost open span (-1 at top level). Counters are keyed by
    (phase, name). Nothing is recorded
    while ``active`` is false, so checks can call the program between
    traced commands without adding spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.phase = ""
        self.active = False
        self.missing: list[str] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name, fn, counters=None):
        """fn wrapped to record a span (name may depend on the arguments)."""
        counters = counters or {}
        name_of = name if callable(name) else (lambda args: name)
        spans, counts, open_ = self.spans, self.counts, self._open

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            for key, inc in counters.items():
                counts[self.phase, key] += inc(args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name_of(args), 0.0, 0.0, open_[-1] if open_ else -1, self.phase]
            spans.append(span)
            open_.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package="bodyframe_io", targets=TARGETS):
        """Patch every target; names that no longer exist are listed in missing."""
        for module_name, owner_name, attr, span_name, counters in targets:
            module = importlib.import_module(f"{package}.{module_name}")
            owner = module if owner_name is None else getattr(module, owner_name, None)
            where = f"{package}.{module_name}.{owner_name + '.' if owner_name else ''}{attr}"
            if owner is None or attr not in vars(owner):
                self.missing.append(where)
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original, counters))

    def restore(self):
        """Put back every patched name, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        self.active = False
        return False

    def save(self, path):
        """Write the spans and counters as a compressed numpy archive."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        phases = sorted({s[4] for s in self.spans})
        phase_index = {p: i for i, p in enumerate(phases)}
        np.savez_compressed(
            path,
            names=np.array(names, dtype=str),
            phases=np.array(phases, dtype=str),
            name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            phase=np.array([phase_index[s[4]] for s in self.spans], dtype=np.int32),
            counter_names=np.array([f"{p}/{k}" for p, k in self.counts], dtype=str),
            counter_values=np.array(list(self.counts.values()), dtype=float),
        )


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _covered(children.get(i, ())) for i, span in enumerate(spans)
    ]


def summarize(spans):
    """{phase: {name: (self seconds, calls)}} over spans."""
    out = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[4]][span[0]]
        entry[0] += own
        entry[1] += 1
    return {phase: {name: tuple(v) for name, v in names.items()} for phase, names in out.items()}


def top_level_time(spans, phase=None):
    """Time covered by top-level spans (parent -1)."""
    return _covered(
        (s[1], s[2]) for s in spans if s[3] < 0 and (phase is None or s[4] == phase)
    )
