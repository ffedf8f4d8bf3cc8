"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from hybridprec.channel import DATASET_STREAM, draw_channels
from hybridprec.cli import parse_config, run_experiment
from hybridprec.decomp import gmd
from hybridprec.dnn import (
    LayerSpec,
    backward,
    build_dataset,
    build_mlp,
    build_precoder_mlp,
    forward,
    infer_precoders,
    train,
)
from hybridprec.precoder import (
    FactorizeConfig,
    HybridFactors,
    SystemDims,
    analog_from_phases,
    factorization_gradient,
    factorize_sgd,
    factorize_sgd_batch,
    hybrid_loss,
    init_factor_params,
    phase_projection_baseline,
)
from hybridprec.simulate import (
    ber_curve,
    iterations_to_plateau,
    mse_vs_iterations,
    se_curve,
)

DIMS = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:>2}] {'PASS' if ok else 'FAIL'} {detail}")


def representable_target(nt, nt_rf, ns, seed):
    rng = np.random.default_rng(seed)
    analog = analog_from_phases(rng.uniform(0, 2 * np.pi, (nt, nt_rf)))
    digital = rng.standard_normal((nt_rf, ns)) + 1j * rng.standard_normal((nt_rf, ns))
    q, _ = np.linalg.qr(analog @ digital)
    return q


def test_criterion_1_gmd_correctness():
    """500 random channels up to 64x16, ns up to 8: every GMD invariant holds."""
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst_orth = worst_diag = worst_recon = 0.0
    for _ in range(500):
        nr = int(rng.integers(2, 65))
        nt = int(rng.integers(2, 17))
        ns = int(rng.integers(1, min(8, nr, nt) + 1))
        m = rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))
        f = gmd(m, ns)
        eye = np.eye(ns)
        worst_orth = max(
            worst_orth,
            np.linalg.norm(f.w1.conj().T @ f.w1 - eye),
            np.linalg.norm(f.r1.conj().T @ f.r1 - eye),
        )
        worst_diag = max(worst_diag, np.max(np.abs(np.diag(f.q1).real - f.sigma_bar)) / f.sigma_bar)
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        m_ns = (u[:, :ns] * s[:ns]) @ vh[:ns]
        worst_recon = max(
            worst_recon, np.linalg.norm(f.reconstruct() - m_ns) / np.linalg.norm(m_ns)
        )
    elapsed = time.perf_counter() - t0
    ok = worst_orth <= 1e-10 and worst_diag <= 1e-8 and worst_recon <= 1e-8 and elapsed < 5.0
    report(
        1,
        ok,
        f"GMD invariants on 500 channels: orth {worst_orth:.2e} (<=1e-10), "
        f"diag {worst_diag:.2e} (<=1e-8), recon {worst_recon:.2e} (<=1e-8), {elapsed:.2f}s (<5s)",
    )
    assert ok


def test_criterion_2_loss_form_equivalence():
    """Frobenius, trace and singular-value forms of the loss agree to 1e-10."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        r1 = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        hf = HybridFactors(
            analog=analog_from_phases(rng.uniform(0, 2 * np.pi, (12, 5))),
            digital=rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)),
        )
        diff = r1 - hf.product
        frob = hybrid_loss(r1, hf)
        trace_form = float(np.sqrt(np.trace(diff @ diff.conj().T).real))
        sv_form = float(np.sqrt(np.sum(np.linalg.svd(diff, compute_uv=False) ** 2)))
        worst = max(worst, abs(frob - trace_form), abs(frob - sv_form))
    ok = worst <= 1e-10
    report(2, ok, f"loss-form equivalence on 100 instances: worst gap {worst:.2e} (<=1e-10)")
    assert ok


def test_criterion_3_gradient_audit():
    """Backprop and factorization gradients match central differences to 1e-4."""
    h = 1e-6
    # network below 1e3 parameters
    rng = np.random.default_rng(3)
    net = build_mlp(
        8, [LayerSpec(10, "relu"), LayerSpec(8, "relu"), LayerSpec(6, "clamp")], clamp_max=2.0, seed=13
    )
    n_params = sum(w.size for w in net.weights) + sum(b.size for b in net.biases)
    assert n_params <= 1000
    x = rng.standard_normal((4, 8))
    target = rng.standard_normal((4, 6))

    def net_loss():
        out, _ = forward(net, x)
        return 0.5 * np.sum((out - target) ** 2)

    out, cache = forward(net, x)
    d_weights, d_biases = backward(net, cache, out - target)
    worst_net = 0.0
    for li in range(3):
        for arr, grad in ((net.weights[li], d_weights[li]), (net.biases[li], d_biases[li])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                up = net_loss()
                arr[idx] = old - h
                down = net_loss()
                arr[idx] = old
                fd = (up - down) / (2 * h)
                if abs(fd) > 1e-8:
                    worst_net = max(worst_net, abs(grad[idx] - fd) / abs(fd))

    # factorization parameterization below 1e3 parameters (32 + 16 here)
    r1 = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    phases, digital = init_factor_params(8, 4, 2, seed=5)
    g_phases, g_digital = factorization_gradient(r1, phases, digital)

    def fac_loss(ph, d):
        return np.linalg.norm(r1 - analog_from_phases(ph) @ d) ** 2

    worst_fac = 0.0
    for i in range(8):
        for j in range(4):
            up, down = phases.copy(), phases.copy()
            up[i, j] += h
            down[i, j] -= h
            fd = (fac_loss(up, digital) - fac_loss(down, digital)) / (2 * h)
            if abs(fd) > 1e-8:
                worst_fac = max(worst_fac, abs(g_phases[i, j] - fd) / abs(fd))
    for i in range(4):
        for j in range(2):
            for direction in (1.0, 1.0j):
                up, down = digital.copy(), digital.copy()
                up[i, j] += direction * h
                down[i, j] -= direction * h
                fd = (fac_loss(phases, up) - fac_loss(phases, down)) / (2 * h)
                got = g_digital[i, j].real if direction == 1.0 else g_digital[i, j].imag
                if abs(fd) > 1e-8:
                    worst_fac = max(worst_fac, abs(got - fd) / abs(fd))
    ok = worst_net < 1e-4 and worst_fac < 1e-4
    report(
        3,
        ok,
        f"gradient audit: backprop worst {worst_net:.2e}, factorization worst {worst_fac:.2e} (<1e-4)",
    )
    assert ok


def test_criterion_4_factorization_quality():
    """50-seed median beats phase projection; exact instances converge below 1e-6."""
    t0 = time.perf_counter()
    sgd_losses, base_losses = [], []
    for seed, h in enumerate(draw_channels(DIMS, 50, 0, DATASET_STREAM)):
        r1 = gmd(h, DIMS.ns).r1
        base_losses.append(hybrid_loss(r1, phase_projection_baseline(r1)))
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=1500, tolerance=0.0, seed=seed)
        sgd_losses.append(factorize_sgd(r1, DIMS.nt_rf, cfg).loss_trace[-1])
    median_sgd = float(np.median(sgd_losses))
    median_base = float(np.median(base_losses))

    exact_losses = []
    for seed in (100, 101, 102):
        r1 = representable_target(16, 4, 2, seed)
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=120_000, tolerance=1e-12, seed=seed)
        exact_losses.append(factorize_sgd(r1, 4, cfg).loss_trace[-1])
    elapsed = time.perf_counter() - t0
    ok = (
        median_sgd < median_base
        and all(loss < 1e-6 for loss in exact_losses)
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"factorization quality: median {median_sgd:.4f} < baseline {median_base:.4f}; "
        f"exact-instance losses {['%.1e' % l for l in exact_losses]} (<1e-6); {elapsed:.1f}s (<60s)",
    )
    assert ok


def test_criterion_5_constraint_enforcement():
    """Every emitted hybrid factor meets the modulus and trace power constraints."""
    emitted: list[tuple[str, HybridFactors]] = []
    for seed, h in enumerate(draw_channels(DIMS, 5, 0, DATASET_STREAM)):
        r1 = gmd(h, DIMS.ns).r1
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=300, tolerance=0.0, seed=seed)
        emitted.append(("factorize_sgd", factorize_sgd(r1, DIMS.nt_rf, cfg).factors))
        emitted.append(("phase_projection", phase_projection_baseline(r1)))
    targets = gmd(draw_channels(DIMS, 8, 5, DATASET_STREAM), 2).r1
    batch_factors, _, _ = factorize_sgd_batch(
        targets, 4, FactorizeConfig(learning_rate=0.02, max_iters=200, tolerance=0.0, seed=0)
    )
    emitted.extend(("factorize_sgd_batch", f) for f in batch_factors)
    small = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)
    net = build_precoder_mlp(small, seed=1)
    for h in draw_channels(small, 5, 50, DATASET_STREAM):
        emitted.append(("dnn_infer", infer_precoders(net, h)))
    worst_modulus = 0.0
    worst_power = 0.0
    for _, hf in emitted:
        nt = hf.analog.shape[0]
        ns = hf.digital.shape[1]
        worst_modulus = max(worst_modulus, float(np.max(np.abs(np.abs(hf.analog) - 1 / np.sqrt(nt)))))
        worst_power = max(worst_power, float(np.linalg.norm(hf.product) ** 2 - ns))
    ok = worst_modulus <= 1e-12 and worst_power <= 1e-9
    report(
        5,
        ok,
        f"constraints on {len(emitted)} emitted factors: modulus dev {worst_modulus:.2e} (<=1e-12), "
        f"power excess {worst_power:.2e} (<=1e-9)",
    )
    assert ok


def test_criterion_6_ber_sanity_suite():
    """2e4-trial BER suite: deep-noise anchor, monotonicity, 10 dB scheme ordering."""
    trials = 20_000
    t0 = time.perf_counter()
    grid = [-20.0, -10.0, 0.0, 5.0, 10.0]
    cheap = FactorizeConfig(learning_rate=0.02, max_iters=150, tolerance=0.0, seed=0)
    strong = FactorizeConfig(learning_rate=0.02, max_iters=600, tolerance=0.0, seed=0)

    # a quickly trained network; the anchor check needs valid factors, not a good net
    train_dims = DIMS
    data = build_dataset(train_dims, 200, 60)
    net = build_precoder_mlp(train_dims, seed=2)
    net, _ = train(
        net, data, FactorizeConfig(learning_rate=0.003, max_iters=1500, tolerance=0.0, batch=20, seed=3)
    )

    gmd_curve = ber_curve(["fully_digital_gmd"], grid, trials, DIMS, seed=42)[0]
    svd_anchor = ber_curve(["fully_digital_svd"], [-20.0], trials, DIMS, seed=42)[0]
    proj_curve = ber_curve(["phase_projection"], [-20.0, 10.0], trials, DIMS, seed=42)[0]
    sgd_anchor = ber_curve(["sgd_hybrid"], [-20.0], trials, DIMS, seed=42, cfg=cheap)[0]
    dnn_anchor = ber_curve(["dnn_hybrid"], [-20.0], trials, DIMS, seed=42, net=net)[0]
    sgd_10 = ber_curve(["sgd_hybrid"], [-20.0, 10.0], trials, DIMS, seed=42, cfg=strong)[0]

    anchors = {
        "fully_digital_gmd": (gmd_curve.ber[0], gmd_curve.ci_halfwidth[0]),
        "fully_digital_svd": (svd_anchor.ber[0], svd_anchor.ci_halfwidth[0]),
        "phase_projection": (proj_curve.ber[0], proj_curve.ci_halfwidth[0]),
        "sgd_hybrid": (sgd_anchor.ber[0], sgd_anchor.ci_halfwidth[0]),
        "dnn_hybrid": (dnn_anchor.ber[0], dnn_anchor.ci_halfwidth[0]),
    }
    sub_a = all(abs(ber - 0.5) <= hw for ber, hw in anchors.values())
    anchor_text = ", ".join(f"{k}={v[0]:.3f}+-{v[1]:.3f}" for k, v in anchors.items())

    sub_b = all(
        gmd_curve.ber[i + 1] <= gmd_curve.ber[i] + gmd_curve.ci_halfwidth[i] + gmd_curve.ci_halfwidth[i + 1]
        for i in range(len(grid) - 1)
    )

    gmd_10, gmd_10_hw = gmd_curve.ber[-1], gmd_curve.ci_halfwidth[-1]
    sgd_10_ber, sgd_10_hw = sgd_10.ber[-1], sgd_10.ci_halfwidth[-1]
    proj_10, proj_10_hw = proj_curve.ber[-1], proj_curve.ci_halfwidth[-1]
    sub_c = (
        gmd_10 <= sgd_10_ber + gmd_10_hw + sgd_10_hw
        and sgd_10_ber <= proj_10 + sgd_10_hw + proj_10_hw
    )
    elapsed = time.perf_counter() - t0
    ok = sub_a and sub_b and sub_c and elapsed < 300.0
    report(
        6,
        ok,
        f"BER suite ({elapsed:.0f}s < 300s): "
        f"(a) -20 dB anchors within Wilson of 0.5: {sub_a} [{anchor_text}]; "
        f"(b) gmd monotone: {sub_b} [{np.array2string(gmd_curve.ber, precision=4)}]; "
        f"(c) 10 dB ordering gmd {gmd_10:.5f} <= sgd {sgd_10_ber:.5f} <= proj {proj_10:.5f}: {sub_c}",
    )
    assert ok


def test_criterion_7_spectral_efficiency_ordering():
    """SVD bound on top, sgd above phase projection, all non-decreasing in SNR."""
    grid = [0.0, 5.0, 10.0, 15.0]
    cfg = FactorizeConfig(learning_rate=0.02, max_iters=800, tolerance=0.0, seed=0)
    svd_c = se_curve(["fully_digital_svd"], grid, 100, DIMS, seed=7)[0]
    sgd_c = se_curve(["sgd_hybrid"], grid, 100, DIMS, seed=7, cfg=cfg)[0]
    proj_c = se_curve(["phase_projection"], grid, 100, DIMS, seed=7)[0]
    order_ok = bool(
        np.all(svd_c.bits_per_s_hz >= sgd_c.bits_per_s_hz)
        and np.all(sgd_c.bits_per_s_hz >= proj_c.bits_per_s_hz)
    )
    mono_ok = all(
        bool(np.all(np.diff(c.bits_per_s_hz) >= 0)) for c in (svd_c, sgd_c, proj_c)
    )
    ok = order_ok and mono_ok
    report(
        7,
        ok,
        f"SE ordering on 100-channel averages over {grid}: "
        f"svd {np.round(svd_c.bits_per_s_hz, 2)} >= sgd {np.round(sgd_c.bits_per_s_hz, 2)} "
        f">= proj {np.round(proj_c.bits_per_s_hz, 2)}; monotone {mono_ok}",
    )
    assert ok


def test_criterion_8_mse_convergence():
    """Joint updates settle to their floor sooner than the analog-only variant."""
    joint_iters, analog_iters = [], []
    for seed in range(20):
        chans = draw_channels(DIMS, 8, seed, DATASET_STREAM)
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=1500, tolerance=0.0, seed=seed)
        joint = mse_vs_iterations("sgd_hybrid", chans, DIMS, cfg)
        analog = mse_vs_iterations("analog_only", chans, DIMS, cfg)
        joint_iters.append(iterations_to_plateau(joint))
        analog_iters.append(iterations_to_plateau(analog))
    med_joint = float(np.median(joint_iters))
    med_analog = float(np.median(analog_iters))
    ok = med_joint < med_analog
    report(
        8,
        ok,
        f"MSE settling (20-seed medians): joint {med_joint:.0f} iters < analog-only {med_analog:.0f} iters",
    )
    assert ok


def test_criterion_9_complexity_trend(tmp_path):
    """Factorization wall-clock grows no faster than quadratic-with-margin in nt."""
    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(
        "nt_sweep = 16, 32, 64\nnt_rf = 4\nns = 2\nnr = 8\n"
        "bench_repeats = 7\nbench_iters = 100\nseed = 1\n"
    )
    cfg = parse_config(cfg_path, kind="complexity-bench")
    run_experiment(cfg, tmp_path / "out")
    rows = (tmp_path / "out" / "complexity.csv").read_text().splitlines()[1:]
    nts = [int(r.split(",")[0]) for r in rows]
    medians = [float(r.split(",")[1]) for r in rows]
    ratio = medians[-1] / medians[0]
    ok = nts == [16, 32, 64] and ratio <= 25.0
    report(
        9,
        ok,
        f"complexity trend: medians {['%.4fs' % m for m in medians]} for nt {nts}, "
        f"ratio time(64)/time(16) = {ratio:.2f} (<=25)",
    )
    assert ok


def test_criterion_10_dnn_overfit_and_sweeps():
    """Single-sample overfit below 0.05 within 2000 iterations; sweeps stay finite."""
    dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)
    data1 = build_dataset(dims, 1, 42)
    net = build_precoder_mlp(dims, seed=1)
    net, history = train(
        net, data1, FactorizeConfig(learning_rate=0.01, max_iters=2000, tolerance=0.0, batch=1, seed=2)
    )
    overfit_ok = bool(history.min() < 0.05)

    data = build_dataset(dims, 120, 43)
    finite = {}
    for batch in (10, 20, 50, 100):
        n = build_precoder_mlp(dims, seed=3)
        _, hist = train(
            n, data, FactorizeConfig(learning_rate=0.001, max_iters=150, tolerance=0.0, batch=batch, seed=4)
        )
        finite[f"batch{batch}"] = bool(np.all(np.isfinite(hist)))
    for lr in (0.01, 0.001, 0.0001):
        n = build_precoder_mlp(dims, seed=5)
        _, hist = train(
            n, data, FactorizeConfig(learning_rate=lr, max_iters=150, tolerance=0.0, batch=20, seed=6)
        )
        finite[f"lr{lr}"] = bool(np.all(np.isfinite(hist)))
    sweeps_ok = all(finite.values())
    ok = overfit_ok and sweeps_ok
    report(
        10,
        ok,
        f"overfit-one-sample min loss {history.min():.4f} (<0.05) in {len(history)} epochs; "
        f"sweeps finite: {finite}",
    )
    assert ok


def test_criterion_11_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV output."""
    cfg_path = tmp_path / "ber.cfg"
    cfg_path.write_text(
        "nt = 16\nnr = 8\nnt_rf = 4\nnr_rf = 4\nns = 2\n"
        "snr_grid_db = -5, 5\ntrials = 300\nseed = 7\n"
        "schemes = fully_digital_gmd, sgd_hybrid\n"
        "max_iters = 120\nlearning_rate = 0.02\ntolerance = 0.0\n"
    )
    cfg = parse_config(cfg_path, kind="ber")
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    a = (tmp_path / "a" / "ber.csv").read_bytes()
    b = (tmp_path / "b" / "ber.csv").read_bytes()
    ok = a == b
    report(11, ok, f"determinism: rerun CSV byte-identical = {ok} ({len(a)} bytes)")
    assert ok
