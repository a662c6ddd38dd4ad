"""Command line front end.

Subcommands cover the whole pipeline on a corpus directory (a folder of
sequence subdirectories plus a manifest):

  simulate         write a synthetic IMU sequence + ground truth
  deadreckon       open-loop integration baseline
  train-corrector  fit the affine IMU corrector on the seen sequences
  train-motion     fit the body-frame velocity network
  run-ekf          closed-loop filter with a chosen velocity provider
  eval             ATE / RTE / AUC report against ground truth
  analyze          latent PCA spectrum of a trained network

All numeric behaviour is driven by an INI run config (see
``--dump-defaults``); unknown keys are rejected. ``--seed`` falls back
to the BODYFRAME_IO_SEED environment variable, then 0.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import config as cfgmod
from .analysis import collect_latents, pca_cumulative_variance
from .corrector import IdentityCorrector, LearnedAffineCorrector, train_corrector
from .dataset_io import (
    CorpusEntry,
    MANIFEST_NAME,
    ROLES,
    groundtruth_from_simulation,
    load_sequence,
    read_corpus_manifest,
    read_trajectory_csv,
    write_corpus_manifest,
    write_sequence,
    write_trajectory_csv,
)
from .ekf import streaming_run
from .errors import ConfigError, DataError, NumericalError
from .imu_model import ImuWindow, RepresentationKind, transform_representation
from .metrics import AlignedPair, accuracy_auc, ate, improvement_percentage, rte
from .motion_model import (
    ConstantZeroProvider,
    MotionNet,
    NetworkProvider,
    OracleProvider,
    train_motion_model,
)
from .preintegration import NavState, dead_reckon
from .simulator import TrajectorySample, corrupt_imu, derive_imu, generate_trajectory

REPORT_COLUMNS = ("seq", "ate_m", "rte_m", "auc", "vs_baseline_pct")


# ---------------------------------------------------------------------------
# Shared helpers


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get("BODYFRAME_IO_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"BODYFRAME_IO_SEED: expected an integer, got {raw!r}") from None


def _load(args) -> cfgmod.RunConfig:
    return cfgmod.load_config(getattr(args, "config", None))


def _seq_dir(data: str, name: str) -> str:
    path = os.path.join(data, name)
    if not os.path.isdir(path):
        raise DataError(f"no sequence directory {path}")
    return path


def _seen_entries(data: str) -> list[CorpusEntry]:
    entries = [e for e in read_corpus_manifest(data) if e.role == "seen"]
    if not entries:
        raise DataError(f"no seen sequences in {os.path.join(data, MANIFEST_NAME)}")
    return entries


def _initial_state(truth) -> NavState:
    zero = np.zeros(3)
    return NavState(r=truth[0].r, v=truth[0].v, p=truth[0].p, b_a=zero, b_g=zero)


def _sample_rate(imu) -> float:
    if len(imu) < 2:
        raise DataError("need at least 2 IMU samples")
    return (len(imu) - 1) / (imu[-1].t - imu[0].t)


def _parse_named(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise ConfigError(f"expected NAME=PATH, got {item!r}")
    name, path = item.split("=", 1)
    if not name or not path:
        raise ConfigError(f"expected NAME=PATH, got {item!r}")
    return name, path


def _estimate_pair(data: str, name: str, csv_path: str) -> AlignedPair:
    """Ground truth vs an estimated trajectory CSV, at the IMU stamps."""
    _, truth, _ = load_sequence(_seq_dir(data, name))
    times, states, _ = read_trajectory_csv(csv_path)
    if len(times) != len(truth):
        raise DataError(
            f"{csv_path}: {len(times)} rows but sequence {name} has"
            f" {len(truth)} frames"
        )
    est = [
        TrajectorySample(t=float(t), r=x.r, v=x.v, p=x.p)
        for t, x in zip(times, states)
    ]
    return AlignedPair(truth=truth, estimate=est)


def _representation_windows(data: str, entries, cfg_net, stride: int):
    """Chop corpus sequences into network-ready (window, v_body) pairs.

    Raw body-frame windows are re-expressed in the network's input
    representation using the ground-truth attitudes; the target is the
    ground-truth velocity rotated into the body frame.
    """
    if stride < 1:
        raise ConfigError("config key motion.stride: must be >= 1")
    length = cfg_net.window
    dataset = []
    for entry in entries:
        imu, truth, _ = load_sequence(_seq_dir(data, entry.path))
        if len(imu) < length:
            continue
        rotations = np.stack([s.r for s in truth])
        full = transform_representation(
            ImuWindow.from_samples(imu, kind=RepresentationKind.BODY),
            cfg_net.representation,
            rotations,
        )
        for start in range(0, len(imu) - length + 1, stride):
            window = full.slice(start, start + length)
            v_body = np.stack(
                [s.r.T @ s.v for s in truth[start : start + length]]
            )
            dataset.append((window, v_body))
    if not dataset:
        raise DataError(
            f"no window of {length} frames fits any seen sequence in {data}"
        )
    return dataset


def _fmt(value) -> str:
    return "" if value is None else format(float(value), ".6g")


def emit_report(rows, csv_path: str | None = None) -> str:
    """Render metric rows as aligned text, optionally writing a CSV.

    rows are dicts keyed by REPORT_COLUMNS (vs_baseline_pct may be
    None). A final ``mean`` row holds the unweighted column means; the
    baseline column is averaged only when every row has one. The CSV
    and the text carry identical formatted values.
    """
    cells = [["seq", "ate_m", "rte_m", "auc", "vs_baseline_pct"]]
    for row in rows:
        cells.append([str(row["seq"])] + [
            _fmt(row[key]) for key in REPORT_COLUMNS[1:]
        ])
    if rows:
        means = []
        for key in REPORT_COLUMNS[1:]:
            vals = [row[key] for row in rows]
            if any(v is None for v in vals):
                means.append(None)
            else:
                means.append(float(np.mean([float(v) for v in vals])))
        cells.append(["mean"] + [_fmt(m) for m in means])

    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8") as fh:
            for line in cells:
                fh.write(",".join(line) + "\n")

    if not rows:
        return ",".join(cells[0]) + "\nno sequences"
    widths = [max(len(r[c]) for r in cells) for c in range(len(cells[0]))]
    out = []
    for line in cells:
        first = line[0].ljust(widths[0])
        rest = [v.rjust(w) for v, w in zip(line[1:], widths[1:])]
        out.append("  ".join([first] + rest).rstrip())
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    seed = _resolve_seed(args)
    trajectory = generate_trajectory(cfgmod.trajectory_spec(cfg))
    ideal = derive_imu(trajectory)
    corrupted, bias = corrupt_imu(ideal, cfgmod.noise_spec(cfg, seed))
    seq_dir = os.path.join(args.data, args.name)
    write_sequence(seq_dir, corrupted, groundtruth_from_simulation(trajectory, bias))

    entries = []
    if os.path.exists(os.path.join(args.data, MANIFEST_NAME)):
        entries = [e for e in read_corpus_manifest(args.data) if e.name != args.name]
    entries.append(CorpusEntry(name=args.name, role=args.role, path=args.name))
    write_corpus_manifest(args.data, entries)
    print(f"wrote {len(corrupted)} frames to {seq_dir} (role {args.role})")
    return 0


def _cmd_deadreckon(args) -> int:
    imu, truth, _ = load_sequence(_seq_dir(args.data, args.name))
    states = dead_reckon(_initial_state(truth), imu)
    write_trajectory_csv(args.out, [s.t for s in imu], states, [0.0] * len(states))
    print(f"wrote {args.out}")
    return 0


def _cmd_train_corrector(args) -> int:
    cfg = _load(args)
    dataset = []
    for entry in _seen_entries(args.data):
        imu, _, (b_g, b_a) = load_sequence(_seq_dir(args.data, entry.path))
        window = ImuWindow.from_samples(imu, kind=RepresentationKind.BODY)
        dataset.append((window, b_g, b_a))
    model, history = train_corrector(
        dataset,
        epochs=cfg.getint("corrector", "epochs"),
        lr=cfg.getfloat("corrector", "lr"),
        window_len=cfg.getint("corrector", "window_len"),
    )
    model.save(args.out)
    print(f"wrote {args.out} (final loss {history[-1]:.6g})")
    return 0


def _cmd_train_motion(args) -> int:
    cfg = _load(args)
    seed = _resolve_seed(args)
    net_cfg = cfgmod.motion_net_config(cfg, seed)
    dataset = _representation_windows(
        args.data, _seen_entries(args.data), net_cfg, cfg.getint("motion", "stride")
    )
    frac = cfg.getfloat("motion", "val_fraction")
    if not 0.0 < frac < 1.0:
        raise ConfigError("config key motion.val_fraction: must be in (0, 1)")
    order = np.random.default_rng(seed).permutation(len(dataset))
    n_val = max(1, int(round(frac * len(dataset))))
    if n_val >= len(dataset):
        raise DataError("too few windows to hold out a validation split")
    val_set = [dataset[i] for i in order[:n_val]]
    train_set = [dataset[i] for i in order[n_val:]]
    model, history = train_motion_model(
        train_set,
        val_set,
        net_cfg,
        cfgmod.motion_loss_config(cfg),
        cfgmod.motion_train_config(cfg, seed),
    )
    model.save(args.out)
    print(
        f"wrote {args.out} ({len(train_set)} train / {n_val} val windows,"
        f" best val loss {min(history['val_loss']):.6g})"
    )
    return 0


def _cmd_run_ekf(args) -> int:
    cfg = _load(args)
    seed = _resolve_seed(args)
    imu, truth, _ = load_sequence(_seq_dir(args.data, args.name))

    if args.corrector_weights:
        corrector = LearnedAffineCorrector.load(args.corrector_weights)
    else:
        # Identity fallback: discrete white-noise stds from the config
        # densities at the sequence's sample rate.
        root_rate = float(np.sqrt(_sample_rate(imu)))
        corrector = IdentityCorrector(
            eta_g=cfg.getfloat("noise", "sigma_g") * root_rate,
            eta_a=cfg.getfloat("noise", "sigma_a") * root_rate,
        )

    if args.provider == "zero":
        provider = ConstantZeroProvider(eta=cfg.getfloat("ekf", "zero_eta"))
    elif args.provider == "oracle":
        provider = OracleProvider(
            truth, noise_std=cfg.getfloat("ekf", "oracle_noise"), seed=seed
        )
    else:
        if not args.weights:
            raise ConfigError("--provider network requires --weights")
        provider = NetworkProvider(MotionNet.load(args.weights))

    states = streaming_run(
        imu, provider, corrector, cfgmod.ekf_config(cfg), _initial_state(truth)
    )
    write_trajectory_csv(
        args.out,
        [fs.t for fs in states],
        [fs.x for fs in states],
        [float(np.trace(fs.P)) for fs in states],
    )
    print(f"wrote {args.out} ({len(states)} frames, provider {args.provider})")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load(args)
    interval = cfg.getfloat("eval", "rte_interval")
    tau_max = cfg.getfloat("eval", "tau_max")
    n_thresholds = cfg.getint("eval", "n_thresholds")
    baselines = dict(_parse_named(item) for item in args.baseline or [])

    rows = []
    for item in args.estimate or []:
        name, path = _parse_named(item)
        pair = _estimate_pair(args.data, name, path)
        vs = None
        if name in baselines:
            base = _estimate_pair(args.data, name, baselines[name])
            vs = improvement_percentage(ate(base), ate(pair))
        rows.append(
            {
                "seq": name,
                "ate_m": ate(pair),
                "rte_m": rte(pair, interval=interval),
                "auc": accuracy_auc(
                    pair, interval=interval, tau_max=tau_max, n_thresholds=n_thresholds
                ),
                "vs_baseline_pct": vs,
            }
        )
    print(emit_report(rows, csv_path=args.out))
    return 0


def _cmd_analyze(args) -> int:
    cfg = _load(args)
    model = MotionNet.load(args.weights)
    if args.names:
        entries = [CorpusEntry(name=n, role="seen", path=n) for n in args.names]
    else:
        entries = _seen_entries(args.data)
    dataset = _representation_windows(
        args.data, entries, model.config, cfg.getint("motion", "stride")
    )
    features = collect_latents(model, [w for w, _ in dataset])
    fractions = pca_cumulative_variance(features, standardize=args.standardize)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("k,cumulative_fraction\n")
        for k, frac in enumerate(fractions, start=1):
            fh.write(f"{k},{frac:.9g}\n")
    knee = int(np.searchsorted(fractions, 0.9) + 1)
    print(
        f"wrote {args.out} ({features.shape[0]} windows x {features.shape[1]} dims,"
        f" 90% variance at k={knee})"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch


def _add_common(sub, config_keys: str):
    sub.add_argument("--config", help="INI run config (defaults if omitted)")
    sub.add_argument(
        "--seed", type=int, help="RNG seed (default: $BODYFRAME_IO_SEED, then 0)"
    )
    sub.epilog = f"config keys used: {config_keys}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bodyframe-io",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--dump-defaults",
        action="store_true",
        help="print the full default run config and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="write a synthetic sequence")
    p.add_argument("--data", required=True, help="corpus root directory")
    p.add_argument("--name", required=True, help="sequence name")
    p.add_argument("--role", default="seen", choices=ROLES)
    _add_common(p, "simulator.* (trajectory shape), noise.* (IMU corruption)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("deadreckon", help="open-loop integration baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True, help="trajectory CSV to write")
    _add_common(p, "none")
    p.set_defaults(func=_cmd_deadreckon)

    p = sub.add_parser("train-corrector", help="fit the affine IMU corrector")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="weights file to write")
    _add_common(p, "corrector.window_len/epochs/lr")
    p.set_defaults(func=_cmd_train_corrector)

    p = sub.add_parser("train-motion", help="fit the body-frame velocity network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="weights file to write")
    _add_common(
        p,
        "motion.representation/window/stride/latent_dim/gru_layers/"
        "imu_encoder_channels/attitude_encoder_channels/dropout_p/kernel/"
        "epochs/lr/batch_size/patience/lr_decay/delta/lambda/val_fraction",
    )
    p.set_defaults(func=_cmd_train_motion)

    p = sub.add_parser("run-ekf", help="closed-loop filter over a sequence")
    p.add_argument("--data", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--provider", required=True, choices=("oracle", "zero", "network"))
    p.add_argument("--weights", help="motion network weights (--provider network)")
    p.add_argument("--corrector-weights", help="affine corrector weights (optional)")
    p.add_argument("--out", required=True, help="trajectory CSV to write")
    _add_common(
        p,
        "ekf.update_rate/buffer_len/eta_bg/eta_ba/oracle_noise/zero_eta,"
        " noise.sigma_g/sigma_a (identity corrector stds)",
    )
    p.set_defaults(func=_cmd_run_ekf)

    p = sub.add_parser("eval", help="metric report for estimated trajectories")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--estimate",
        action="append",
        metavar="NAME=PATH",
        help="sequence name = trajectory CSV (repeatable)",
    )
    p.add_argument(
        "--baseline",
        action="append",
        metavar="NAME=PATH",
        help="baseline trajectory CSV for the same sequence (repeatable)",
    )
    p.add_argument("--out", help="report CSV to write")
    _add_common(p, "eval.rte_interval/tau_max/n_thresholds")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="latent PCA spectrum of a trained network")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True, help="motion network weights")
    p.add_argument("--names", nargs="*", help="sequence names (default: seen)")
    p.add_argument("--standardize", action="store_true", help="per-dim unit variance")
    p.add_argument("--out", required=True, help="spectrum CSV to write")
    _add_common(p, "motion.stride")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_defaults:
        print(cfgmod.dump_defaults(), end="")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
