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
``--dump-defaults``), which every command but deadreckon takes;
unknown keys are rejected. ``--seed`` (default 0) is taken by the
commands that draw random numbers (simulate, train-motion, run-ekf);
train-corrector accepts it and ignores it, since corrector training is
deterministic.

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
    load_sequence,
    read_corpus_manifest,
    read_trajectory_csv,
    write_corpus_manifest,
    write_sequence,
    write_trajectory_csv,
)
from .ekf import streaming_run
from .errors import ConfigError, DataError, NumericalError
from .imu_model import ImuWindow, transform_representation
from .metrics import accuracy_auc, ate, improvement_percentage, rte
from .motion_model import (
    ConstantZeroProvider,
    MotionNet,
    NetworkProvider,
    OracleProvider,
    train_motion_model,
    velocity_windows,
)
from .preintegration import NavState, dead_reckon
from .simulator import Trajectory, corrupt_imu, derive_imu, generate_trajectory

REPORT_COLUMNS = ("seq", "ate_m", "rte_m", "auc", "vs_baseline_pct")


# ---------------------------------------------------------------------------
# Shared helpers


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


def _initial_state(truth: Trajectory) -> NavState:
    zero = np.zeros(3)
    return NavState(r=truth.r[0], v=truth.v[0], p=truth.p[0], b_a=zero, b_g=zero)


def _sample_rate(imu: ImuWindow) -> float:
    if len(imu) < 2:
        raise DataError("need at least 2 IMU samples")
    return (len(imu) - 1) / (imu.t[-1] - imu.t[0])


def _parse_named(item: str) -> tuple[str, str]:
    if "=" not in item:
        raise ConfigError(f"expected NAME=PATH, got {item!r}")
    name, path = item.split("=", 1)
    if not name or not path:
        raise ConfigError(f"expected NAME=PATH, got {item!r}")
    return name, path


def _estimate_pair(data: str, name: str, csv_path: str):
    """(truth, estimate) Trajectories: ground truth at the IMU stamps and
    an estimated trajectory CSV."""
    _, truth, _ = load_sequence(_seq_dir(data, name))
    estimate, _ = read_trajectory_csv(csv_path)
    if len(estimate) != len(truth):
        raise DataError(
            f"{csv_path}: {len(estimate)} rows but sequence {name} has"
            f" {len(truth)} frames"
        )
    return truth, estimate


def _network_windows(data: str, entries, net_cfg, stride: int):
    """The entries' network windows; each whole sequence is re-expressed
    in the network's representation with its ground-truth attitudes."""
    sequences = []
    for entry in entries:
        imu, truth, _ = load_sequence(_seq_dir(data, entry.path))
        full = transform_representation(imu, net_cfg.representation, truth.r)
        sequences.append((full, truth.body_velocities()))
    return velocity_windows(sequences, net_cfg.window, stride)


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
    trajectory = generate_trajectory(cfgmod.trajectory_spec(cfg))
    ideal = derive_imu(trajectory)
    corrupted, bias = corrupt_imu(ideal, cfgmod.noise_spec(cfg, args.seed))
    # read the manifest first, so that a malformed one leaves nothing written
    entries = []
    if os.path.exists(os.path.join(args.data, MANIFEST_NAME)):
        entries = [e for e in read_corpus_manifest(args.data) if e.name != args.name]
    entries.append(CorpusEntry(name=args.name, role=args.role, path=args.name))
    seq_dir = os.path.join(args.data, args.name)
    write_sequence(seq_dir, corrupted, trajectory, bias)
    write_corpus_manifest(args.data, entries)
    print(f"wrote {len(corrupted)} frames to {seq_dir} (role {args.role})")
    return 0


def _cmd_deadreckon(args) -> int:
    imu, truth, _ = load_sequence(_seq_dir(args.data, args.name))
    estimate = dead_reckon(_initial_state(truth), imu)
    write_trajectory_csv(args.out, estimate, np.zeros(len(estimate)))
    print(f"wrote {args.out}")
    return 0


def _cmd_train_corrector(args) -> int:
    cfg = _load(args)
    dataset = []
    for entry in _seen_entries(args.data):
        imu, _, (b_g, b_a) = load_sequence(_seq_dir(args.data, entry.path))
        dataset.append((imu, b_g, b_a))
    model, mse = train_corrector(dataset, window_len=cfg.getint("corrector", "window_len"))
    model.save(args.out)
    print(f"wrote {args.out} (training MSE {mse:.6g})")
    return 0


def _cmd_train_motion(args) -> int:
    cfg = _load(args)
    net_cfg = cfgmod.motion_net_config(cfg, args.seed)
    windows = _network_windows(
        args.data, _seen_entries(args.data), net_cfg, cfg.getint("motion", "stride")
    )
    train, val = windows.split(cfg.getfloat("motion", "val_fraction"), args.seed)
    model, history = train_motion_model(
        train,
        val,
        net_cfg,
        cfgmod.motion_loss_config(cfg),
        cfgmod.motion_train_config(cfg, args.seed),
    )
    model.save(args.out)
    print(
        f"wrote {args.out} ({len(train)} train / {len(val)} val windows,"
        f" best val loss {min(history['val_loss']):.6g})"
    )
    return 0


def _cmd_run_ekf(args) -> int:
    cfg = _load(args)
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
            truth, noise_std=cfg.getfloat("ekf", "oracle_noise"), seed=args.seed
        )
    else:
        if not args.weights:
            raise ConfigError("--provider network requires --weights")
        provider = NetworkProvider(MotionNet.load(args.weights))

    run = streaming_run(imu, provider, corrector, cfgmod.ekf_config(cfg), _initial_state(truth))
    write_trajectory_csv(args.out, run, np.trace(run.P, axis1=1, axis2=2))
    print(f"wrote {args.out} ({len(run)} frames, provider {args.provider})")
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
            vs = improvement_percentage(ate(*base), ate(*pair))
        rows.append(
            {
                "seq": name,
                "ate_m": ate(*pair),
                "rte_m": rte(*pair, interval=interval),
                "auc": accuracy_auc(
                    *pair, interval=interval, tau_max=tau_max, n_thresholds=n_thresholds
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
    windows = _network_windows(
        args.data, entries, model.config, cfg.getint("motion", "stride")
    )
    features = collect_latents(model, windows)
    fractions = pca_cumulative_variance(features, standardize=args.standardize)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("k,cumulative_fraction\n")
        for k, frac in enumerate(fractions, start=1):
            fh.write(f"{k},{frac:.9g}\n")
    knee = int(np.searchsorted(fractions, 0.9) + 1)
    print(
        f"wrote {args.out} ({len(windows)} windows, {features.shape[0]} frames x"
        f" {features.shape[1]} dims, 90% variance at k={knee})"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch


_SEED_HELP = "RNG seed (default: 0)"


def _add_common(sub, config_keys: str, seed_help: str | None = None):
    """--config and the epilog; --seed only where seed_help is given."""
    sub.add_argument("--config", help="INI run config (defaults if omitted)")
    if seed_help is not None:
        sub.add_argument("--seed", type=int, default=0, help=seed_help)
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
    _add_common(
        p, "simulator.* (trajectory shape), noise.* (IMU corruption)", _SEED_HELP
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("deadreckon", help="open-loop integration baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True, help="trajectory CSV to write")
    p.epilog = "config keys used: none (deadreckon takes no --config)"
    p.set_defaults(func=_cmd_deadreckon)

    p = sub.add_parser("train-corrector", help="fit the affine IMU corrector")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="weights file to write")
    _add_common(
        p,
        "corrector.window_len",
        "unused: the closed-form corrector fit is deterministic",
    )
    p.set_defaults(func=_cmd_train_corrector)

    p = sub.add_parser("train-motion", help="fit the body-frame velocity network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="weights file to write")
    _add_common(
        p,
        "motion.representation/window/stride/latent_dim/gru_layers/"
        "imu_encoder_channels/attitude_encoder_channels/dropout_p/kernel/"
        "epochs/lr/batch_size/patience/lr_decay/delta/lambda/val_fraction",
        _SEED_HELP,
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
        "ekf.update_rate/eta_bg/eta_ba/oracle_noise/zero_eta,"
        " noise.sigma_g/sigma_a (identity corrector stds)",
        _SEED_HELP,
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
