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

Numeric settings come from an INI run config (see ``--dump-defaults``),
which every command but deadreckon and train-corrector takes; unknown
keys and a [DEFAULT] section are rejected. Each key's type is its
default's, and every value in the file is parsed when it loads, so a
value that does not parse is a configuration error whichever command
reads the file. ``--dump-defaults`` prints numbers as Python writes them
(``0.001``, not ``1e-3``). ``--seed`` (default 0,
nonnegative) is taken by the commands that draw random numbers
(simulate, train-motion, run-ekf); train-corrector accepts it and
ignores it, since corrector training is deterministic.

Each command imports only the modules it runs. simulate,
train-corrector, deadreckon and eval never load the filter (ekf), the
network (motion_model, nn) or the latent analysis; simulate loads no
corrector either, and run-ekf no analysis.

Exit codes: 0 success, 2 configuration error (an --out that is a
directory or lies in one that does not exist, and --weights without
--provider network or the reverse, among them, refused before any
work), 3 data error (a missing input file among them), 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import config as cfgmod
from .dataset_io import (
    CorpusEntry,
    GroundTruthReader,
    MANIFEST_NAME,
    ROLES,
    TrajectoryWriter,
    load_sequence,
    read_corpus_manifest,
    read_imu_blocks,
    read_trajectory_csv,
    write_corpus_manifest,
    write_sequence,
    write_trajectory_csv,
)
from .errors import ConfigError, DataError, InsufficientDataError, NumericalError
from .imu_model import transform_representation
from .simulator import Trajectory, corrupt_imu, derive_imu, generate_trajectory

if TYPE_CHECKING:
    from .motion_model import OracleProvider
    from .preintegration import NavState

REPORT_COLUMNS = ("seq", "ate_m", "rte_m", "auc", "vs_baseline_pct")
ORACLE_NOISE_STD = 0.05  # m/s, the oracle provider's velocity noise


# ---------------------------------------------------------------------------
# Shared helpers


def streaming_run(*args, **kwargs):
    """ekf.streaming_run, importing the filter on the first call."""
    from .ekf import streaming_run

    return streaming_run(*args, **kwargs)


def train_corrector(*args, **kwargs):
    """corrector.train_corrector, importing the corrector on the first call."""
    from .corrector import train_corrector

    return train_corrector(*args, **kwargs)


def train_motion_model(*args, **kwargs):
    """motion_model.train_motion_model, importing the network on the first call."""
    from .motion_model import train_motion_model

    return train_motion_model(*args, **kwargs)


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


def _check_out_dir(out: str | None):
    """An --out that is a directory, or whose directory does not exist,
    is refused before any work."""
    if out is not None and os.path.isdir(out):
        raise ConfigError(f"--out {out} is a directory")
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"--out {out}: no directory {os.path.dirname(out)}")


def _initial_state(truth: Trajectory) -> NavState:
    from .preintegration import NavState

    zero = np.zeros(3)
    return NavState(r=truth.r[0], v=truth.v[0], p=truth.p[0], b_a=zero, b_g=zero)


def _sample_rate(blocks) -> float:
    """(n - 1) / (t_last - t_0) over the n frames of consecutive IMU blocks."""
    spans = [(len(block), block.t[0], block.t[-1]) for block in blocks]
    n = sum(m for m, _, _ in spans)
    if n < 2:
        raise DataError("need at least 2 IMU samples")
    return (n - 1) / (spans[-1][2] - spans[0][1])


def _feeding(oracle: OracleProvider, truth: GroundTruthReader, blocks):
    """The IMU blocks, each fed to the oracle as ground truth at its
    stamps before the filter reads it."""
    for block in blocks:
        oracle.feed(truth.at(block.t)[0])
        yield block


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
    from .motion_model import velocity_windows

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
    # the name is a directory of the corpus and a line of its manifest
    name = args.name
    if name in (".", "..") or os.path.basename(name) != name or name.splitlines() != [name]:
        raise ConfigError(f"sequence name must be one path component on one line, got {name!r}")
    cfg = cfgmod.load_config(args.config)
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
    from .preintegration import dead_reckon

    imu, truth, _ = load_sequence(_seq_dir(args.data, args.name))
    estimate = dead_reckon(_initial_state(truth), imu)
    write_trajectory_csv(args.out, estimate, np.zeros(len(estimate)))
    print(f"wrote {args.out}")
    return 0


def _cmd_train_corrector(args) -> int:
    dataset = []
    for entry in _seen_entries(args.data):
        imu, _, (b_g, b_a) = load_sequence(_seq_dir(args.data, entry.path))
        dataset.append((imu, b_g, b_a))
    model, mse = train_corrector(dataset)
    model.save(args.out)
    print(f"wrote {args.out} (training MSE {mse:.6g})")
    return 0


def _cmd_train_motion(args) -> int:
    cfg = cfgmod.load_config(args.config)
    net_cfg = cfgmod.motion_net_config(cfg, args.seed)
    entries = _seen_entries(args.data)
    windows = _network_windows(args.data, entries, net_cfg, cfg["motion"]["stride"])
    train, val = windows.split(cfg["motion"]["val_fraction"], args.seed)
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
        f" best val loss {np.nanmin(history['val_loss']):.6g})"
    )
    return 0


def _cmd_run_ekf(args) -> int:
    if args.weights and args.provider != "network":
        raise ConfigError(f"--weights is for --provider network, not {args.provider}")
    if args.provider == "network" and not args.weights:
        raise ConfigError("--provider network requires --weights")
    from .corrector import IdentityCorrector, LearnedAffineCorrector
    from .motion_model import ConstantZeroProvider, MotionNet, NetworkProvider, OracleProvider

    cfg = cfgmod.load_config(args.config)
    seq_dir = _seq_dir(args.data, args.name)
    imu_path = os.path.join(seq_dir, "imu.csv")

    if args.corrector_weights:
        corrector = LearnedAffineCorrector.load(args.corrector_weights)
    else:
        # Identity fallback: discrete white-noise stds from the config
        # densities at the sequence's sample rate, from a first pass over imu.csv.
        root_rate = float(np.sqrt(_sample_rate(read_imu_blocks(imu_path)[1])))
        corrector = IdentityCorrector(
            eta_g=cfg["noise"]["sigma_g"] * root_rate,
            eta_a=cfg["noise"]["sigma_a"] * root_rate,
        )

    origin_ns, blocks = read_imu_blocks(imu_path)
    truth = GroundTruthReader(os.path.join(seq_dir, "groundtruth.csv"), origin_ns)
    x0 = _initial_state(truth.at([0.0])[0])
    if args.provider == "zero":
        provider = ConstantZeroProvider()
    elif args.provider == "oracle":
        provider = OracleProvider(noise_std=ORACLE_NOISE_STD, seed=args.seed)
        blocks = _feeding(provider, truth, blocks)
    else:
        provider = NetworkProvider(MotionNet.load(args.weights))

    with TrajectoryWriter(args.out) as out:
        streaming_run(blocks, provider, corrector, cfgmod.ekf_config(cfg), x0,
                      sink=lambda run: out.write(run, run.P_diag.sum(axis=1)))
    print(f"wrote {args.out} ({out.rows} frames, provider {args.provider})")
    return 0


def _cmd_eval(args) -> int:
    from .metrics import accuracy_auc, ate, improvement_percentage, rte

    interval = cfgmod.load_config(args.config)["eval"]["rte_interval"]
    estimates = [_parse_named(item) for item in args.estimate or []]
    baselines = dict(_parse_named(item) for item in args.baseline or [])
    unmatched = sorted(set(baselines) - {name for name, _ in estimates})
    if unmatched:
        raise ConfigError(f"--baseline for {unmatched} without an --estimate of that name")

    rows = []
    for name, path in estimates:
        pair = _estimate_pair(args.data, name, path)
        vs = None
        if name in baselines:
            base = _estimate_pair(args.data, name, baselines[name])
            vs = improvement_percentage(ate(*base), ate(*pair))
        row = {"seq": name, "ate_m": ate(*pair), "vs_baseline_pct": vs}
        try:
            row["auc"] = accuracy_auc(*pair, interval=interval)
            row["rte_m"] = rte(*pair, interval=interval)
        except InsufficientDataError:  # a flight no longer than the interval has no RTE
            row["auc"] = row["rte_m"] = None
        rows.append(row)
    print(emit_report(rows, csv_path=args.out))
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import collect_latents, pca_cumulative_variance
    from .motion_model import MotionNet

    cfg = cfgmod.load_config(args.config)
    model = MotionNet.load(args.weights)
    if args.names:
        entries = [CorpusEntry(name=n, role="seen", path=n) for n in args.names]
    else:
        entries = _seen_entries(args.data)
    windows = _network_windows(args.data, entries, model.config, cfg["motion"]["stride"])
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


_SEED_HELP = "RNG seed, a nonnegative integer (default: 0)"


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take only nonnegative seeds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_common(sub, config_keys: str, seed_help: str | None = None):
    """--config and the epilog; --seed only where seed_help is given."""
    sub.add_argument("--config", help="INI run config (defaults if omitted)")
    if seed_help is not None:
        sub.add_argument("--seed", type=_seed, default=0, help=seed_help)
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
    p.add_argument("--seed", type=_seed, default=0,
                   help="unused: the closed-form corrector fit is deterministic")
    p.epilog = "config keys used: none (train-corrector takes no --config)"
    p.set_defaults(func=_cmd_train_corrector)

    p = sub.add_parser("train-motion", help="fit the body-frame velocity network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="weights file to write")
    _add_common(
        p,
        "motion.representation/window/stride/latent_dim/gru_layers/"
        "imu_encoder_channels/attitude_encoder_channels/dropout_p/kernel/"
        "epochs/lr/batch_size/delta/lambda/val_fraction",
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
        "ekf.update_rate, noise.sigma_bg/sigma_ba (bias walk),"
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
    _add_common(p, "eval.rte_interval")
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
        _check_out_dir(getattr(args, "out", None))
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
