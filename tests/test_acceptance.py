"""Acceptance gate: eleven go/no-go checks across the whole pipeline.

Each criterion is one test that prints a single [PASS]/[FAIL] line with
its measured numbers (written to the real stdout so the line survives
pytest's capture) and then asserts. Thresholds are fixed; if one of
these goes red the package is not releasable.

  1  rotation kernel round trips + series oracle        (< 1 s)
  2  propagation A/B and measurement H vs central FD    (< 10 s)
  3  dead-reckoning error halves when dt halves
  4  EKF fusion gain over dead reckoning                (< 30 s)
  5  covariance health + Monte Carlo 3-sigma coverage
  6  loss branch unit values
  7  motion network learns held-out body velocity
  8  input-representation ablation ordering
  9  PCA spectrum vs eigen-oracle
 10  improvement / RTE hand values
 11  streaming runner == batch runner
"""

import math
import time

import numpy as np
import pytest
from test_motion_model import simulated_sequence, window_rmse
from test_preintegration import fd_jacobians

from bodyframe_io.corrector import IdentityCorrector
from bodyframe_io.ekf import (
    EkfConfig,
    FilterState,
    batch_run,
    measurement_jacobian,
    streaming_run,
)
from bodyframe_io.analysis import pca_cumulative_variance
from bodyframe_io.imu_model import RepresentationKind
from bodyframe_io.metrics import improvement_percentage, rte
from bodyframe_io.motion_model import (
    LossConfig,
    MotionNet,
    MotionNetConfig,
    OracleProvider,
    TrainConfig,
    _combined_loss_grads,
    covariance_loss,
    huber_loss,
    train_motion_model,
    velocity_windows,
)
from bodyframe_io.preintegration import (
    NavState,
    dead_reckon,
    propagation_jacobians,
    state_boxplus,
)
from bodyframe_io.simulator import (
    NoiseSpec,
    Trajectory,
    TrajectoryKind,
    TrajectorySpec,
    YawMode,
    corrupt_imu,
    derive_imu,
    generate_trajectory,
)
from bodyframe_io.so3 import exp_so3, hat, log_so3


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    """Hold the capture handle so check() can print past fd capture."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def check(num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}"
    with _CAPSYS.disabled():
        print(line, flush=True)
    assert ok, line


def initial_state(traj):
    return NavState(
        traj.r[0].copy(), traj.v[0].copy(), traj.p[0].copy(), np.zeros(3), np.zeros(3)
    )


def position_rms(estimate, trajectory):
    p_est = estimate.p
    p_true = trajectory.p
    return float(np.sqrt(np.mean(np.sum((p_est - p_true) ** 2, axis=1))))


def zero_rmse(windows):
    return float(np.sqrt(np.mean(np.sum(windows.v**2, axis=2))))


# ---------------------------------------------------------------------------
# 1. Rotation kernel


def rodrigues_series(xi, terms=12):
    """exp(hat(xi)) through truncated series of the two Rodrigues
    coefficients; an independent oracle with no trig calls."""
    theta_sq = float(xi @ xi)
    a = b = 0.0
    for k in range(terms):
        a += (-theta_sq) ** k / math.factorial(2 * k + 1)
        b += (-theta_sq) ** k / math.factorial(2 * k + 2)
    k_mat = hat(xi)
    return np.eye(3) + a * k_mat + b * (k_mat @ k_mat)


def test_criterion_01_rotation_kernel():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rt = 0.0
    for _ in range(10_000):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        xi = axis * rng.uniform(1e-12, np.pi - 1e-3)
        worst_rt = max(worst_rt, float(np.linalg.norm(log_so3(exp_so3(xi)) - xi)))
    worst_series = 0.0
    for _ in range(500):
        xi = rng.normal(size=3)
        norm = np.linalg.norm(xi)
        if norm > 1.0:
            xi *= rng.uniform(0.0, 1.0) / norm
        worst_series = max(
            worst_series, float(np.abs(exp_so3(xi) - rodrigues_series(xi)).max())
        )
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-8 and worst_series <= 1e-10 and elapsed < 1.0
    check(
        1,
        "rotation kernel",
        ok,
        f"round-trip {worst_rt:.2e} (<=1e-8), series {worst_series:.2e}"
        f" (<=1e-10), {elapsed:.2f} s (<1)",
    )


# ---------------------------------------------------------------------------
# 2. Jacobians vs finite differences


def test_criterion_02_jacobian_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_ab = 0.0
    for _ in range(100):
        x = NavState(
            r=exp_so3(rng.normal(size=3)),
            v=rng.normal(size=3) * 2.0,
            p=rng.normal(size=3) * 5.0,
            b_a=rng.normal(size=3) * 0.1,
            b_g=rng.normal(size=3) * 0.01,
        )
        w = rng.normal(size=3)
        a = rng.normal(size=3) * 3.0
        dt = 0.005
        a_mat, b_mat = propagation_jacobians(x, w, a, dt)
        a_fd, b_fd = fd_jacobians(x, w, a, dt, step=1e-6)
        worst_ab = max(
            worst_ab,
            float(np.abs(a_mat - a_fd).max()),
            float(np.abs(b_mat - b_fd).max()),
        )
    worst_h = 0.0
    for _ in range(100):
        fs = FilterState(
            x=NavState(
                r=exp_so3(rng.normal(size=3)),
                v=rng.normal(size=3) * 2.0,
                p=rng.normal(size=3),
                b_a=rng.normal(size=3) * 0.1,
                b_g=rng.normal(size=3) * 0.01,
            ),
            P=np.eye(15),
        )
        h = measurement_jacobian(fs)
        fd = np.zeros((3, 15))
        step = 1e-6
        for col in range(15):
            delta = np.zeros(15)
            delta[col] = step
            xp = state_boxplus(fs.x, delta)
            xm = state_boxplus(fs.x, -delta)
            fd[:, col] = (xp.r.T @ xp.v - xm.r.T @ xm.v) / (2 * step)
        worst_h = max(worst_h, float(np.abs(h - fd).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_ab < 1e-5 and worst_h < 1e-5 and elapsed < 10.0
    check(
        2,
        "jacobian suite",
        ok,
        f"A/B {worst_ab:.2e}, H {worst_h:.2e} (<1e-5), {elapsed:.1f} s (<10)",
    )


# ---------------------------------------------------------------------------
# 3. Integrator order


def circle_error(imu_rate):
    spec = TrajectorySpec(
        kind=TrajectoryKind.CIRCLE,
        duration=60.0,
        imu_rate=imu_rate,
        amplitude=1.0,
        rate=0.5,
    )
    traj = generate_trajectory(spec)
    states = dead_reckon(initial_state(traj), derive_imu(traj))
    return position_rms(states, traj)


def test_criterion_03_integration_convergence():
    e200 = circle_error(200.0)
    e400 = circle_error(400.0)
    ratio = e200 / e400
    ok = e200 < 0.05 and 1.8 <= ratio <= 2.2
    check(
        3,
        "integration convergence",
        ok,
        f"rms {e200:.4f} m at 200 Hz (<0.05), halving ratio {ratio:.3f}"
        f" (in [1.8, 2.2])",
    )


# ---------------------------------------------------------------------------
# 4-5. Fusion gain and filter health


@pytest.fixture(scope="module")
def fusion_run():
    spec = TrajectorySpec(
        kind=TrajectoryKind.FIGURE8,
        duration=120.0,
        imu_rate=200.0,
        amplitude=1.0,
        rate=np.pi / 4,
    )
    traj = generate_trajectory(spec)
    noise = NoiseSpec(sigma_g=1e-3, sigma_a=1e-2, sigma_bg=1e-5, sigma_ba=1e-4, seed=7)
    imu, _ = corrupt_imu(derive_imu(traj), noise)
    corrector = IdentityCorrector(
        eta_g=1e-3 * np.sqrt(200.0), eta_a=1e-2 * np.sqrt(200.0)
    )
    cfg = EkfConfig(
        update_rate=20.0,
        eta_bg=1e-5 * np.sqrt(1 / 200.0),
        eta_ba=1e-4 * np.sqrt(1 / 200.0),
    )
    provider = OracleProvider(traj, noise_std=0.05, seed=4)
    t0 = time.perf_counter()
    states = streaming_run(imu, provider, corrector, cfg, initial_state(traj))
    elapsed = time.perf_counter() - t0
    return traj, imu, states, elapsed


def test_criterion_04_fusion_gain(fusion_run):
    traj, imu, states, elapsed = fusion_run
    ekf_ate = position_rms(states, traj)
    dr_ate = position_rms(dead_reckon(initial_state(traj), imu), traj)
    ok = ekf_ate < 0.5 and ekf_ate <= 0.10 * dr_ate and elapsed < 30.0
    check(
        4,
        "fusion gain",
        ok,
        f"EKF ATE {ekf_ate:.3f} m (<0.5), {100 * ekf_ate / dr_ate:.2f}% of"
        f" dead reckoning (<=10%), filter {elapsed:.1f} s (<30)",
    )


def test_criterion_05_filter_health(fusion_run):
    _, _, states, _ = fusion_run
    worst_asym = 0.0
    min_eig = np.inf
    for p_cov in states.P:
        worst_asym = max(worst_asym, float(np.abs(p_cov - p_cov.T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(p_cov)[0]))

    spec = TrajectorySpec(
        kind=TrajectoryKind.FIGURE8,
        duration=30.0,
        imu_rate=100.0,
        amplitude=1.0,
        rate=np.pi / 4,
    )
    traj = generate_trajectory(spec)
    ideal = derive_imu(traj)
    p_true = traj.p
    corrector = IdentityCorrector(
        eta_g=1e-3 * np.sqrt(100.0), eta_a=1e-2 * np.sqrt(100.0)
    )
    cfg = EkfConfig(
        update_rate=20.0,
        eta_bg=1e-5 * np.sqrt(1 / 100.0),
        eta_ba=1e-4 * np.sqrt(1 / 100.0),
    )
    x0 = initial_state(traj)
    inside = total = 0
    for seed in range(20):
        noise = NoiseSpec(
            sigma_g=1e-3, sigma_a=1e-2, sigma_bg=1e-5, sigma_ba=1e-4, seed=seed
        )
        imu, _ = corrupt_imu(ideal, noise)
        provider = OracleProvider(traj, noise_std=0.05, seed=500 + seed)
        run = streaming_run(imu, provider, corrector, cfg, x0)
        err = run.p - p_true
        sig = np.sqrt(np.diagonal(run.P, axis1=1, axis2=2)[:, 6:9])
        hits = np.abs(err) <= 3.0 * sig
        inside += int(hits.sum())
        total += hits.size
    coverage = inside / total
    ok = worst_asym < 1e-9 and min_eig > -1e-9 and coverage >= 0.90
    check(
        5,
        "filter health",
        ok,
        f"asymmetry {worst_asym:.1e}, min eig {min_eig:.1e}, 3-sigma"
        f" coverage {100 * coverage:.1f}% (>=90%) over 20 seeds",
    )


# ---------------------------------------------------------------------------
# 6. Loss unit values


def test_criterion_06_loss_unit_values():
    e_small = np.array([[1e-3, 0.0, 0.0]])
    e_large = np.array([[1e-2, 0.0, 0.0]])
    zero = np.zeros((1, 3))
    ones = np.ones((1, 3))
    h_small = huber_loss(e_small, zero)
    h_large = huber_loss(e_large, zero)
    c_zero = covariance_loss(zero, zero, ones)
    c_one = covariance_loss(np.array([[1.0, 0.0, 0.0]]), zero, ones)
    errs = (
        abs(h_small - 5e-7),
        abs(h_large - 3.75e-5),
        abs(c_zero - 0.0),
        abs(c_one - 1.0),
    )
    ok = max(errs) <= 1e-12
    check(
        6,
        "loss unit values",
        ok,
        f"huber {h_small:.3e}/{h_large:.3e}, covariance {c_zero:.1e}/{c_one:.6f},"
        f" max dev {max(errs):.1e} (<=1e-12)",
    )


# ---------------------------------------------------------------------------
# 7. Learning at desk scale


def learning_corpus():
    kinds = [TrajectoryKind.FIGURE8, TrajectoryKind.CIRCLE, TrajectoryKind.LISSAJOUS3D]
    rep = RepresentationKind.BODY_PLUS_ATTITUDE
    sequences = []
    for i in range(20):
        spec = TrajectorySpec(
            kind=kinds[i % 3],
            duration=12.0,
            imu_rate=50.0,
            amplitude=0.8 + 0.04 * i,
            rate=0.45 + 0.05 * (i % 7),
        )
        sequences.append(simulated_sequence(spec, rep))
    test_idx = {2, 7, 11, 16}
    val_idx = {5, 13}

    def windows(indices):
        return velocity_windows([sequences[i] for i in indices], length=200, stride=100)

    train = windows(i for i in range(20) if i not in test_idx | val_idx)
    return train, windows(sorted(val_idx)), windows(sorted(test_idx))


def gradient_check_worst():
    """Max relative error of the analytic gradient on a small model."""
    cfg = MotionNetConfig(
        representation=RepresentationKind.BODY_PLUS_ATTITUDE,
        window=8,
        latent_dim=8,
        gru_layers=2,
        imu_encoder_channels=(8, 8),
        attitude_encoder_channels=(4, 4),
        dropout_p=0.0,
        kernel=3,
        seed=3,
    )
    model = MotionNet(cfg)
    rng = np.random.default_rng(21)
    params = model.parameters()
    for p in params.values():
        p[...] = 0.3 * rng.standard_normal(p.shape)
    imu = 0.5 * rng.standard_normal((2, 6, 6))
    att = 0.5 * rng.standard_normal((2, 6, 3))
    truth = 0.3 * rng.standard_normal((2, 6, 3))
    loss_cfg = LossConfig()

    def loss():
        v, eta = model.forward_arrays(imu, att, train=False)
        value, _, _ = _combined_loss_grads(v, truth, eta, loss_cfg)
        return value

    model.zero_grads()
    v, eta = model.forward_arrays(imu, att, train=False)
    _, dv, deta = _combined_loss_grads(v, truth, eta, loss_cfg)
    model.backward_arrays(dv, deta)
    grads = model.gradients()

    step = 1e-5
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        picks = rng.choice(flat.size, size=min(20, flat.size), replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + step
            lp = loss()
            flat[idx] = orig - step
            lm = loss()
            flat[idx] = orig
            fd = (lp - lm) / (2.0 * step)
            g = float(grads[name].reshape(-1)[idx])
            worst = max(worst, abs(g - fd) / (abs(g) + abs(fd) + 1e-6))
    return worst


def test_criterion_07_learning():
    grad_worst = gradient_check_worst()

    train, val, test = learning_corpus()
    cfg = MotionNetConfig(
        representation=RepresentationKind.BODY_PLUS_ATTITUDE,
        window=200,
        latent_dim=64,
        dropout_p=0.0,
        seed=0,
    )
    tcfg = TrainConfig(epochs=50, lr=3e-3, batch_size=16, seed=0)
    model, _ = train_motion_model(train, val, cfg, LossConfig(), tcfg)
    net = window_rmse(model, test)
    base = zero_rmse(test)

    # bit-reproducibility on a short rerun of the same seed
    micro_cfg = MotionNetConfig(
        representation=RepresentationKind.BODY_PLUS_ATTITUDE,
        window=200,
        latent_dim=8,
        gru_layers=1,
        imu_encoder_channels=(4,),
        attitude_encoder_channels=(4,),
        dropout_p=0.5,
        kernel=3,
        seed=5,
    )
    micro_t = TrainConfig(epochs=2, lr=1e-3, batch_size=4, seed=5)
    m1, _ = train_motion_model(train[:8], val[:4], micro_cfg, LossConfig(), micro_t)
    m2, _ = train_motion_model(train[:8], val[:4], micro_cfg, LossConfig(), micro_t)
    reproducible = all(
        np.array_equal(p1, p2)
        for p1, p2 in zip(m1.parameters().values(), m2.parameters().values())
    )

    ok = net < 0.5 * base and grad_worst < 1e-3 and reproducible
    check(
        7,
        "learning",
        ok,
        f"held-out RMSE {net:.3f} vs zero {base:.3f} ({100 * net / base:.0f}%,"
        f" <50%), grad check {grad_worst:.1e} (<1e-3), bit-reproducible"
        f" {reproducible}",
    )


# ---------------------------------------------------------------------------
# 8. Input representation ablation


def test_criterion_08_representation_ablation():
    def spec(rate):
        return TrajectorySpec(
            kind=TrajectoryKind.LISSAJOUS3D,
            duration=24.0,
            imu_rate=50.0,
            amplitude=1.0,
            rate=rate,
            yaw_mode=YawMode.SPIN,
            yaw_rate=2.0,
        )

    def windows(kind, *rates):
        return velocity_windows(
            [simulated_sequence(spec(rate), kind) for rate in rates], length=100, stride=100
        )

    medians = {}
    for rep in (
        RepresentationKind.BODY,
        RepresentationKind.GLOBAL,
        RepresentationKind.BODY_MINUS_GRAVITY,
    ):
        train = windows(rep, 0.5, 0.6)
        val = windows(rep, 0.55)
        test = windows(rep, 0.575)
        rmses = []
        for seed in (0, 1, 2):
            cfg = MotionNetConfig(
                representation=rep,
                window=100,
                latent_dim=16,
                gru_layers=1,
                imu_encoder_channels=(8, 16),
                attitude_encoder_channels=(4, 8),
                dropout_p=0.0,
                kernel=5,
                seed=seed,
            )
            tcfg = TrainConfig(epochs=40, lr=5e-3, batch_size=8, seed=seed)
            model, _ = train_motion_model(train, val, cfg, LossConfig(), tcfg)
            rmses.append(window_rmse(model, test))
        medians[rep] = float(np.median(rmses))

    body = medians[RepresentationKind.BODY]
    glob = medians[RepresentationKind.GLOBAL]
    bmg = medians[RepresentationKind.BODY_MINUS_GRAVITY]
    ok = body < glob and bmg > body
    check(
        8,
        "representation ablation",
        ok,
        f"median held-out RMSE body {body:.3f} < global {glob:.3f}:"
        f" {body < glob}; body-minus-gravity {bmg:.3f} > body: {bmg > body}",
    )


# ---------------------------------------------------------------------------
# 9. PCA spectrum


def test_criterion_09_pca():
    rng = np.random.default_rng(909)
    features = rng.normal(size=(400, 5)) @ rng.normal(size=(5, 32))
    frac = pca_cumulative_variance(features)
    at_5 = float(frac[4])

    small = rng.normal(size=(60, 9)) * rng.uniform(0.5, 3.0, size=9)
    got = pca_cumulative_variance(small)
    centered = small - small.mean(axis=0)
    eigs = np.sort(np.linalg.eigvalsh(centered.T @ centered / (len(small) - 1)))[::-1]
    oracle = np.cumsum(eigs) / eigs.sum()
    worst = float(np.abs(got - oracle).max())
    ok = at_5 >= 0.999 and worst <= 1e-9
    check(
        9,
        "pca spectrum",
        ok,
        f"rank-5 cumulative at k=5: {at_5:.6f} (>=0.999), eigen-oracle"
        f" deviation {worst:.1e} (<=1e-9)",
    )


# ---------------------------------------------------------------------------
# 10. Metric hand values


def line_pair(yaw_err=0.0, offset=(0.0, 0.0, 0.0)):
    n, dt, speed = 101, 0.1, 1.0
    c, s = np.cos(yaw_err), np.sin(yaw_err)
    r_err = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    t = np.arange(n) * dt
    p = np.outer(speed * t, [1.0, 0.0, 0.0])
    v = np.tile([speed, 0.0, 0.0], (n, 1))
    truth = Trajectory(t=t, r=np.tile(np.eye(3), (n, 1, 1)), v=v, p=p)
    est = Trajectory(t=t, r=np.tile(r_err, (n, 1, 1)), v=v, p=p + np.asarray(offset))
    return truth, est


def test_criterion_10_metric_hand_values():
    imp = improvement_percentage(1.189, 0.403)
    imp_ok = abs(imp - 66.1) <= 0.05

    # pure translation offset leaves relative error untouched
    shift = rte(*line_pair(offset=(3.0, -2.0, 1.0)), interval=5.0)
    # a 90 degree yaw error turns a 5 m stretch into a 5*sqrt(2) residual
    yaw = rte(*line_pair(yaw_err=np.pi / 2), interval=5.0)
    rte_ok = shift <= 1e-9 and abs(yaw - 5.0 * np.sqrt(2.0)) <= 1e-9
    ok = imp_ok and rte_ok
    check(
        10,
        "metric hand values",
        ok,
        f"improvement {imp:.2f}% (66.1 +/- 0.05), offset RTE {shift:.1e}"
        f" (<=1e-9), yaw RTE dev {abs(yaw - 5.0 * np.sqrt(2.0)):.1e} (<=1e-9)",
    )


# ---------------------------------------------------------------------------
# 11. Streaming == batch


def test_criterion_11_streaming_contract():
    spec = TrajectorySpec(
        kind=TrajectoryKind.FIGURE8,
        duration=20.0,
        imu_rate=100.0,
        amplitude=1.0,
        rate=np.pi / 4,
    )
    traj = generate_trajectory(spec)
    noise = NoiseSpec(sigma_g=1e-3, sigma_a=1e-2, sigma_bg=1e-5, sigma_ba=1e-4, seed=3)
    imu, _ = corrupt_imu(derive_imu(traj), noise)
    corrector = IdentityCorrector(
        eta_g=1e-3 * np.sqrt(100.0), eta_a=1e-2 * np.sqrt(100.0)
    )
    cfg = EkfConfig(
        update_rate=20.0,
        eta_bg=1e-5 * np.sqrt(1 / 100.0),
        eta_ba=1e-4 * np.sqrt(1 / 100.0),
    )
    x0 = initial_state(traj)
    online = streaming_run(imu, OracleProvider(traj, 0.05, seed=6), corrector, cfg, x0)
    offline = batch_run(imu, OracleProvider(traj, 0.05, seed=6), corrector, cfg, x0)
    pairs = [
        (online.r, offline.r),
        (online.v, offline.v),
        (online.p, offline.p),
        (online.b_a, offline.b_a),
        (online.b_g, offline.b_g),
        (online.P, offline.P),
    ]
    worst = max(float(np.abs(a - b).max()) for a, b in pairs)
    ok = len(online) == len(offline) == len(imu) and worst <= 1e-12
    check(
        11,
        "streaming contract",
        ok,
        f"{len(online)} frames, max state/covariance"
        f" difference {worst:.1e} (<=1e-12)",
    )
