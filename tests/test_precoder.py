import functools
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridprec.precoder as precoder_module
from hybridprec.channel import DATASET_STREAM, draw_channels
from hybridprec.decomp import RankDeficiencyError, gmd, svd
from hybridprec.precoder import (
    STOP_WINDOW,
    FactorizationDivergedError,
    FactorizeConfig,
    HybridFactors,
    SystemDims,
    _momentum_sgd,
    analog_from_phases,
    factorization_gradient,
    factorization_gradient_batch,
    factorize_sgd,
    factorize_sgd_batch,
    hybrid_loss,
    init_factor_params,
    phase_project,
    phase_projection_baseline,
    power_normalize,
)
from hybridprec.simulate import draw_ensemble


def representable_target(nt, nt_rf, ns, seed):
    """A semi-unitary matrix that factors exactly into constant-modulus x digital."""
    rng = np.random.default_rng(seed)
    analog = analog_from_phases(rng.uniform(0, 2 * np.pi, (nt, nt_rf)))
    digital = rng.standard_normal((nt_rf, ns)) + 1j * rng.standard_normal((nt_rf, ns))
    q, _ = np.linalg.qr(analog @ digital)
    return q


class TestFullyDigital:
    """The precoder/combiner pairs of the fully digital schemes: GMD and rank-ns SVD factors."""

    def test_identity_channel_gmd(self):
        f = gmd(np.eye(4), 2)
        np.testing.assert_allclose(f.q1, np.eye(2), atol=1e-10)

    def test_effective_channel_is_triangular_core(self):
        h = draw_channels(SystemDims(nt=12, nr=6, nt_rf=3, nr_rf=3, ns=3), 1, 0, DATASET_STREAM)[0]
        f = gmd(h, 3)
        eff = f.w1.conj().T @ h @ f.r1
        np.testing.assert_allclose(eff, f.q1, atol=1e-8)

    def test_diagonal_channel_equal_gains(self):
        f = gmd(np.diag([4.0, 1.0]), 2)
        np.testing.assert_allclose(np.diag(f.q1).real, [2.0, 2.0], atol=1e-10)

    def test_svd_diagonal_channel(self):
        f = svd(np.diag([4.0, 1.0]), 1)
        np.testing.assert_allclose(f.sigma, [4.0])
        np.testing.assert_allclose(np.abs(f.v[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_svd_product_oracle(self):
        h = draw_channels(SystemDims(nt=10, nr=5, nt_rf=3, nr_rf=3, ns=3), 1, 1, DATASET_STREAM)[0]
        f = svd(h, 3)
        np.testing.assert_allclose(f.u.conj().T @ h @ f.v, np.diag(f.sigma), atol=1e-10)

    def test_svd_unitary_channel_unit_gains(self):
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))
        np.testing.assert_allclose(svd(q, 4).sigma, np.ones(4), atol=1e-12)

    def test_rank_deficiency_propagates(self):
        with pytest.raises(RankDeficiencyError):
            svd(np.outer([1, 2, 3.0], [1, 0, 1.0]), 2)


class TestPhaseProject:
    def test_constant_modulus_fixed_point(self):
        rng = np.random.default_rng(3)
        x = analog_from_phases(rng.uniform(0, 2 * np.pi, (4, 3)))
        np.testing.assert_allclose(phase_project(x), x, atol=1e-14)

    def test_negative_real_entry(self):
        target = np.zeros((4, 1), dtype=complex)
        target[0, 0] = -5.0
        out = phase_project(target)
        assert out[0, 0] == pytest.approx(-0.5)

    def test_zero_entries_get_phase_zero(self):
        out = phase_project(np.zeros((4, 2)))
        np.testing.assert_allclose(out, np.full((4, 2), 0.5), atol=1e-14)

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(6)
        targets = rng.standard_normal((6, 8, 2)) + 1j * rng.standard_normal((6, 8, 2))
        targets[0, 3] = 0.0
        projected = phase_project(targets)
        baseline = phase_projection_baseline(targets)
        # some targets exceed the power budget, so the scaled digital part is compared too
        assert np.any(baseline.digital != np.conj(np.swapaxes(projected, 1, 2)) @ targets)
        for i, target in enumerate(targets):
            single = phase_projection_baseline(target)
            np.testing.assert_array_equal(projected[i], phase_project(target))
            np.testing.assert_array_equal(baseline.analog[i], single.analog)
            np.testing.assert_array_equal(baseline.digital[i], single.digital)

    def test_global_minimizer_random_perturbations(self):
        # no constant-modulus matrix sampled or locally perturbed ever does better
        rng = np.random.default_rng(4)
        target = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        best = phase_project(target)
        best_err = np.linalg.norm(target - best)
        n = 100_000
        base_phases = np.angle(target)
        for phases in (
            rng.uniform(0, 2 * np.pi, (n, 4, 2)),
            base_phases + 0.3 * rng.standard_normal((n, 4, 2)),
        ):
            cand = np.exp(1j * phases) / 2.0
            errs = np.linalg.norm(target - cand, axis=(1, 2))
            assert errs.min() >= best_err - 1e-12


class TestHybridLoss:
    def test_exact_factorization_zero(self):
        rng = np.random.default_rng(5)
        hf = HybridFactors(
            analog=analog_from_phases(rng.uniform(0, 2 * np.pi, (6, 3))),
            digital=rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
        )
        assert hybrid_loss(hf.product, hf) == pytest.approx(0.0, abs=1e-14)

    def test_zero_digital_gives_sqrt_ns(self):
        r1 = representable_target(8, 4, 2, seed=0)
        hf = HybridFactors(
            analog=analog_from_phases(np.zeros((8, 4))), digital=np.zeros((4, 2), dtype=complex)
        )
        assert hybrid_loss(r1, hf) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_three_forms_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            r1 = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
            hf = HybridFactors(
                analog=analog_from_phases(rng.uniform(0, 2 * np.pi, (8, 4))),
                digital=rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)),
            )
            diff = r1 - hf.product
            frob = hybrid_loss(r1, hf)
            trace_form = np.sqrt(np.trace(diff @ diff.conj().T).real)
            sv_form = np.sqrt(np.sum(np.linalg.svd(diff, compute_uv=False) ** 2))
            assert abs(frob - trace_form) <= 1e-10 * max(frob, 1.0)
            assert abs(frob - sv_form) <= 1e-10 * max(frob, 1.0)

    def test_dimension_mismatch(self):
        hf = HybridFactors(
            analog=analog_from_phases(np.zeros((8, 4))), digital=np.zeros((4, 2), dtype=complex)
        )
        with pytest.raises(ValueError):
            hybrid_loss(np.zeros((6, 2), dtype=complex), hf)


class TestPowerNormalize:
    def test_within_budget_unchanged(self):
        hf = HybridFactors(
            analog=analog_from_phases(np.zeros((4, 2))), digital=0.1 * np.eye(2, dtype=complex)
        )
        out = power_normalize(hf)
        assert np.array_equal(out.digital, hf.digital)

    def test_four_times_budget_halves_digital(self):
        # orthonormal analog columns so the product power equals the digital power
        analog = analog_from_phases(np.zeros((4, 2)))
        analog = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
        ns = 2
        digital = np.sqrt(4.0) * np.eye(2, dtype=complex)  # trace = 4 * ns
        out = power_normalize(HybridFactors(analog=analog, digital=digital))
        np.testing.assert_allclose(out.digital, digital / 2.0, atol=1e-12)

    def test_random_factors_meet_budget(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            hf = HybridFactors(
                analog=analog_from_phases(rng.uniform(0, 2 * np.pi, (8, 4))),
                digital=2.0 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))),
            )
            out = power_normalize(hf)
            assert np.linalg.norm(out.product) ** 2 <= 2 + 1e-12
            assert np.array_equal(out.analog, hf.analog)


class TestFactorizationGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        nt, nt_rf, ns = 6, 3, 2
        r1 = rng.standard_normal((nt, ns)) + 1j * rng.standard_normal((nt, ns))
        phases, digital = init_factor_params(nt, nt_rf, ns, seed=1)
        g_phases, g_digital = factorization_gradient(r1, phases, digital)

        def loss_sq(ph, d):
            return np.linalg.norm(r1 - analog_from_phases(ph) @ d) ** 2

        h = 1e-6
        for i in range(nt):
            for j in range(nt_rf):
                up, down = phases.copy(), phases.copy()
                up[i, j] += h
                down[i, j] -= h
                fd = (loss_sq(up, digital) - loss_sq(down, digital)) / (2 * h)
                assert abs(g_phases[i, j] - fd) <= 1e-4 * max(abs(fd), 1e-8)
        for i in range(nt_rf):
            for j in range(ns):
                for direction, part in ((1.0, "real"), (1.0j, "imag")):
                    up, down = digital.copy(), digital.copy()
                    up[i, j] += direction * h
                    down[i, j] -= direction * h
                    fd = (loss_sq(phases, up) - loss_sq(phases, down)) / (2 * h)
                    got = g_digital[i, j].real if part == "real" else g_digital[i, j].imag
                    assert abs(got - fd) <= 1e-4 * max(abs(fd), 1e-8)


    def test_batched_kernel_matches_single_instances(self):
        rng = np.random.default_rng(12)
        nt, nt_rf, ns, b = 8, 4, 2, 5
        r1 = rng.standard_normal((b, nt, ns)) + 1j * rng.standard_normal((b, nt, ns))
        phases = rng.uniform(0, 2 * np.pi, (b, nt, nt_rf))
        digital = rng.standard_normal((b, nt_rf, ns)) + 1j * rng.standard_normal((b, nt_rf, ns))
        analog = np.exp(1j * phases) / np.sqrt(nt)
        g_phases, g_digital = factorization_gradient_batch(analog, digital, r1 - analog @ digital)
        for i in range(b):
            single_phases, single_digital = factorization_gradient(r1[i], phases[i], digital[i])
            np.testing.assert_array_equal(g_phases[i], single_phases)
            np.testing.assert_array_equal(g_digital[i], single_digital)


class TestFactorizeSgd:
    def test_zero_learning_rate_freezes_factors(self):
        r1 = representable_target(8, 4, 2, seed=2)
        cfg = FactorizeConfig(learning_rate=0.0, max_iters=300, tolerance=0.0, seed=5)
        res = factorize_sgd(r1, 4, cfg)
        phases0, digital0 = init_factor_params(8, 4, 2, seed=5)
        np.testing.assert_array_equal(res.factors.analog, analog_from_phases(phases0))
        scale = np.linalg.norm(res.factors.digital) / np.linalg.norm(digital0)
        np.testing.assert_allclose(res.factors.digital, digital0 * scale, atol=1e-15)
        assert np.all(res.loss_trace == res.loss_trace[0])

    def test_single_step_without_momentum_is_plain_descent(self):
        r1 = representable_target(8, 4, 2, seed=3)
        eps = 1e-3
        for seed in range(10):
            phases0, digital0 = init_factor_params(8, 4, 2, seed=seed)
            g_phases, g_digital = factorization_gradient(r1, phases0, digital0)
            analog1, digital1 = analog_from_phases(phases0 - eps * g_phases), digital0 - eps * g_digital
            if np.sum(np.abs(analog1 @ digital1) ** 2) > 2:
                continue  # over the power budget ns = 2: normalization would obscure the raw step
            cfg = FactorizeConfig(learning_rate=eps, momentum=0.0, max_iters=1, tolerance=0.0, seed=seed)
            res = factorize_sgd(r1, 4, cfg)
            np.testing.assert_allclose(res.factors.analog, analog1, atol=1e-12)
            np.testing.assert_allclose(res.factors.digital, digital1, atol=1e-12)
            break
        else:
            pytest.fail("no instance stayed inside the power budget")

    def test_representable_instance_reaches_tiny_loss(self):
        r1 = representable_target(16, 4, 2, seed=100)
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=40_000, tolerance=1e-12, seed=0)
        res = factorize_sgd(r1, 4, cfg)
        assert res.loss_trace[-1] < 1e-6

    def test_median_beats_phase_projection_baseline(self):
        dims = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)
        sgd_losses, base_losses = [], []
        for seed, h in enumerate(draw_channels(dims, 10, 0, DATASET_STREAM)):
            r1 = gmd(h, dims.ns).r1
            base_losses.append(hybrid_loss(r1, phase_projection_baseline(r1)))
            cfg = FactorizeConfig(learning_rate=0.02, max_iters=800, tolerance=0.0, seed=seed)
            sgd_losses.append(factorize_sgd(r1, dims.nt_rf, cfg).loss_trace[-1])
        assert np.median(sgd_losses) < np.median(base_losses)

    def test_constant_modulus_every_entry(self):
        r1 = representable_target(8, 4, 2, seed=4)
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=100, tolerance=0.0, seed=1)
        res = factorize_sgd(r1, 4, cfg)
        np.testing.assert_allclose(np.abs(res.factors.analog), 1 / np.sqrt(8), atol=1e-12)

    def test_constant_modulus_at_every_iterate(self):
        # the phase parameterization makes the constraint structural; check the
        # trajectory prefix after each iteration count explicitly
        r1 = representable_target(8, 4, 2, seed=4)
        for iters in range(1, 15):
            cfg = FactorizeConfig(learning_rate=0.05, max_iters=iters, tolerance=0.0, seed=1)
            res = factorize_sgd(r1, 4, cfg)
            np.testing.assert_allclose(np.abs(res.factors.analog), 1 / np.sqrt(8), atol=1e-12)

    def test_best_so_far_monotone_and_windows_non_increasing(self):
        h = draw_channels(SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2), 1, 20, DATASET_STREAM)[0]
        r1 = gmd(h, 2).r1
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=2000, tolerance=0.0, seed=2)
        trace = factorize_sgd(r1, 4, cfg).loss_trace
        best = np.minimum.accumulate(trace)
        assert np.all(np.diff(best) <= 0)
        window = 50
        mins = [trace[k : k + window].min() for k in range(0, len(trace) - window, window)]
        assert all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))

    def test_trace_starts_at_initial_loss(self):
        r1 = representable_target(8, 4, 2, seed=6)
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=10, tolerance=0.0, seed=3)
        phases0, digital0 = init_factor_params(8, 4, 2, seed=3)
        initial = np.linalg.norm(r1 - analog_from_phases(phases0) @ digital0)
        res = factorize_sgd(r1, 4, cfg)
        assert res.loss_trace[0] == pytest.approx(initial, rel=1e-12)
        assert not res.converged  # stop rule cannot fire inside 10 iterations

    def test_invalid_rf_count(self):
        with pytest.raises(ValueError):
            factorize_sgd(representable_target(8, 4, 2, seed=0), 1, FactorizeConfig())

    def test_divergence_raises(self):
        # the stop rule reads the growing loss as converged; the divergence check still fires
        cfg = FactorizeConfig(learning_rate=5.0, max_iters=600, tolerance=0.0, seed=0)
        with pytest.raises(FactorizationDivergedError, match=r"in 1 of 1 instances.*learning_rate = 5\.0"):
            factorize_sgd(representable_target(8, 4, 2, seed=1), 4, cfg)


class TestFactorizeSgdBatch:
    def test_matches_single_instance_runs(self):
        targets = np.stack([representable_target(8, 4, 2, seed=s) for s in (10, 11, 12)])
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=60, tolerance=0.0, seed=0)
        factors, trace, _ = factorize_sgd_batch(targets, 4, cfg, seeds=[10, 11, 12])
        for i, seed in enumerate((10, 11, 12)):
            single = factorize_sgd(
                targets[i], 4, FactorizeConfig(learning_rate=0.01, max_iters=60, tolerance=0.0, seed=seed)
            )
            np.testing.assert_allclose(trace[:, i], single.loss_trace, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(factors[i].product, single.factors.product, rtol=1e-9, atol=1e-11)

    def test_divergence_raises(self):
        targets = np.stack([representable_target(8, 4, 2, seed=s) for s in (1, 2, 3)])
        cfg = FactorizeConfig(learning_rate=5.0, max_iters=100, tolerance=0.0, seed=0)
        with pytest.raises(FactorizationDivergedError, match=r"in 3 of 3 instances.*learning_rate = 5\.0"):
            factorize_sgd_batch(targets, 4, cfg)

    def test_non_finite_loss_raises(self):
        targets = np.stack([representable_target(8, 4, 2, seed=s) for s in (1, 2)])
        targets[1, 0, 0] = np.nan
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=5, tolerance=0.0, seed=0)
        with pytest.raises(FactorizationDivergedError, match="in 1 of 2 instances: worst final loss nan"):
            factorize_sgd_batch(targets, 4, cfg)

    def test_analog_only_mode_freezes_digital(self):
        targets = np.stack([representable_target(8, 4, 2, seed=s) for s in (1, 2)])
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=40, tolerance=0.0, seed=0)
        factors, _, _ = factorize_sgd_batch(targets, 4, cfg, seeds=[1, 2], optimize_digital=False)
        for i, seed in enumerate((1, 2)):
            _, digital0 = init_factor_params(8, 4, 2, seed=seed)
            scale = np.linalg.norm(factors[i].digital) / np.linalg.norm(digital0)
            np.testing.assert_allclose(factors[i].digital, digital0 * scale, atol=1e-12)

    @pytest.mark.parametrize("n_seeds", [1, 2, 4])
    def test_seed_count_must_match_batch(self, n_seeds):
        # too few seeds would leave instances without a start, too many have no instance
        targets = np.stack([representable_target(8, 4, 2, seed=s) for s in (1, 2, 3)])
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=5, tolerance=0.0, seed=0)
        with pytest.raises(ValueError, match=f"got {n_seeds} seeds for 3 instances"):
            factorize_sgd_batch(targets, 4, cfg, seeds=list(range(n_seeds)))

    def test_empty_stack(self):
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=120, tolerance=0.0, seed=0)
        factors, trace, converged = factorize_sgd_batch(np.empty((0, 8, 2), dtype=complex), 4, cfg)
        assert factors.analog.shape == (0, 8, 4) and factors.digital.shape == (0, 4, 2)
        assert trace.shape == (121, 0) and trace.dtype == float
        assert converged.shape == (0,) and converged.dtype == bool

    def test_peak_memory_is_about_one_loss_matrix(self):
        # the loss matrix is written in place: no per-iteration rows, no stacking
        # copy, and four blocks of 16 write into the same matrix as one block does
        ens = draw_ensemble(SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2), 64, 1, 0)
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=3000, tolerance=0.0)
        for block, bound in ((precoder_module._BLOCK, 1.75), (16, 1.25)):
            tracemalloc.start()
            try:
                with mock.patch.object(precoder_module, "_BLOCK", block):
                    _, trace, _ = factorize_sgd_batch(ens.r1, 4, cfg, seeds=ens.factor_seeds)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert trace.shape == (3001, 64)
            assert peak < bound * trace.nbytes, block

    def test_one_batched_normalization_equals_per_instance_calls(self):
        ens = draw_ensemble(SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2), 40, 5, 0)
        r1 = ens.r1.copy()
        r1[::2] *= 3.0  # targets at 9 times the power budget
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=100, tolerance=0.0)
        factors, _, _ = factorize_sgd_batch(r1, 4, cfg, seeds=ens.factor_seeds)
        analog = np.empty((40, 16, 4), dtype=complex)
        digital = np.empty((40, 4, 2), dtype=complex)
        trace, converged = np.empty((101, 40)), np.zeros(40, dtype=bool)
        assert _momentum_sgd(r1, 4, cfg, ens.factor_seeds, True, analog, digital, trace, converged) == 100
        assert len(factors) == 40
        products = []
        scaled = 0
        for f, a, d in zip(factors, analog, digital):
            want = power_normalize(HybridFactors(analog=a, digital=d))
            np.testing.assert_array_equal(f.analog, want.analog)
            np.testing.assert_array_equal(f.digital, want.digital)
            np.testing.assert_array_equal(f.product, want.product)
            products.append(want.product)
            scaled += not np.array_equal(want.digital, d)
        assert 0 < scaled < len(factors)  # both sides of the power budget occur
        np.testing.assert_array_equal(factors.product, np.stack(products))


def exact_exp_reference(r1_stack, nt_rf, cfg, seeds):
    """The batched momentum-SGD loop with analog = exp(j*phases)/sqrt(nt) recomputed every iteration."""
    b, nt, ns = r1_stack.shape
    phases = np.empty((b, nt, nt_rf))
    digital = np.empty((b, nt_rf, ns), dtype=complex)
    for i, seed in enumerate(seeds):
        phases[i], digital[i] = init_factor_params(nt, nt_rf, ns, seed)
    v_phases = np.zeros_like(phases)
    v_digital = np.zeros_like(digital)
    analog = np.exp(1j * phases) / np.sqrt(nt)
    err = r1_stack - analog @ digital
    trace = [np.linalg.norm(err, axis=(1, 2))]
    for _ in range(cfg.max_iters):
        g_phases, g_digital = factorization_gradient_batch(analog, digital, err)
        v_phases = cfg.momentum * v_phases - cfg.learning_rate * g_phases
        phases = phases + v_phases
        v_digital = cfg.momentum * v_digital - cfg.learning_rate * g_digital
        digital = digital + v_digital
        analog = np.exp(1j * phases) / np.sqrt(nt)
        err = r1_stack - analog @ digital
        trace.append(np.linalg.norm(err, axis=(1, 2)))
    return np.asarray(trace), analog, digital


class TestRotatedAnalogStep:
    """The batched loop rotates R_A by exp(j*step) between exact recomputations."""

    DIMS = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)

    def ensemble(self, n, seed=3):
        ens = draw_ensemble(self.DIMS, n, seed, 0)
        return ens.r1, ens.factor_seeds

    def test_instance_independent_of_its_batch(self, monkeypatch):
        r1, seeds = self.ensemble(5)
        r1 = r1.copy()
        r1[2] *= 20.0  # a large first phase step: this instance takes the exact fallback
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=2 * STOP_WINDOW + 17, tolerance=0.0)
        first_step = np.stack(
            [
                cfg.learning_rate * np.abs(factorization_gradient(r1[i], *init_factor_params(16, 4, 2, seeds[i]))[0])
                for i in range(5)
            ]
        ).max(axis=(1, 2))
        assert first_step[2] > 0.05 and np.all(np.delete(first_step, 2) < 0.05)
        full_factors, full_trace, _ = factorize_sgd_batch(r1, 4, cfg, seeds=seeds)
        runs = [(i, i + 1) for i in range(5)] + [(0, 3)]
        for lo, hi in runs:
            factors, trace, _ = factorize_sgd_batch(r1[lo:hi], 4, cfg, seeds=seeds[lo:hi])
            for k, i in enumerate(range(lo, hi)):
                np.testing.assert_array_equal(trace[:, k], full_trace[:, i])
                np.testing.assert_array_equal(factors[k].analog, full_factors[i].analog)
                np.testing.assert_array_equal(factors[k].digital, full_factors[i].digital)
        # factorizer blocks of two instances: 2, 2 and 1
        monkeypatch.setattr(precoder_module, "_BLOCK", 2)
        factors, trace, _ = factorize_sgd_batch(r1, 4, cfg, seeds=seeds)
        np.testing.assert_array_equal(trace, full_trace)
        for k in range(5):
            np.testing.assert_array_equal(factors[k].analog, full_factors[k].analog)

    def test_trace_matches_exact_exp_loop(self):
        r1, seeds = self.ensemble(50)
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=600, tolerance=0.0)
        factors, trace, _ = factorize_sgd_batch(r1, 4, cfg, seeds=seeds)
        ref_trace, ref_analog, _ = exact_exp_reference(r1, 4, cfg, seeds)
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-11)
        np.testing.assert_allclose(factors.analog, ref_analog, rtol=0, atol=1e-11)

    def test_zero_learning_rate_keeps_analog_exact(self):
        r1, seeds = self.ensemble(4)
        cfg = FactorizeConfig(learning_rate=0.0, max_iters=STOP_WINDOW + 7, tolerance=0.0)
        factors, trace, _ = factorize_sgd_batch(r1, 4, cfg, seeds=seeds)
        assert np.all(trace == trace[0])
        for i, seed in enumerate(seeds):
            phases0, _ = init_factor_params(16, 4, 2, seed)
            np.testing.assert_array_equal(factors[i].analog, np.exp(1j * phases0) / np.sqrt(16))

    def test_returned_analog_has_constant_modulus(self):
        r1, seeds = self.ensemble(40)
        for iters in (STOP_WINDOW - 1, 3 * STOP_WINDOW + 11):
            cfg = FactorizeConfig(learning_rate=0.02, max_iters=iters, tolerance=0.0)
            factors, _, _ = factorize_sgd_batch(r1, 4, cfg, seeds=seeds)
            for f in factors:
                assert np.max(np.abs(np.abs(f.analog) - 1 / np.sqrt(16))) <= 1e-15

    def test_exact_every_window_and_before_returning(self, monkeypatch):
        seen = []
        rotate = precoder_module._rotate_analog

        def recording(analog, phases, step, root_nt):
            seen.append(phases)  # the loop updates this array in place
            rotate(analog, phases, step, root_nt)

        monkeypatch.setattr(precoder_module, "_rotate_analog", recording)
        r1, seeds = self.ensemble(6)
        iters = 2 * STOP_WINDOW + 17
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=iters, tolerance=0.0)
        factors, _, _ = factorize_sgd_batch(r1, 4, cfg, seeds=seeds)
        assert len(seen) == iters - 3  # exact at iterations 50, 100 and the last
        final_phases = seen[-1]
        np.testing.assert_array_equal(factors.analog, np.exp(1j * final_phases) / np.sqrt(16))


# nt_rf = ns and a large step make these 12 instances stop at iterations
# 200-600, and some of them run to the cap at tolerance 1e-2
STOP_DIMS = SystemDims(nt=8, nr=4, nt_rf=2, nr_rf=2, ns=2)


def stop_config(tolerance):
    return FactorizeConfig(learning_rate=0.1, momentum=0.5, max_iters=600, tolerance=tolerance)


@functools.cache
def stop_ensemble():
    ens = draw_ensemble(STOP_DIMS, 12, 3, 0)
    return ens.r1, ens.factor_seeds


@functools.cache
def alone(i, tolerance):
    """Instance i of the stop ensemble as a batch of one and through factorize_sgd."""
    r1, seeds = stop_ensemble()
    cfg = stop_config(tolerance)
    batch = factorize_sgd_batch(r1[i : i + 1], 2, cfg, seeds=seeds[i : i + 1])
    return batch, factorize_sgd(r1[i], 2, replace(cfg, seed=int(seeds[i])))


class TestPerInstanceStop:
    """Each instance stops on its own trace, so its result does not depend on its batch."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.permutations(range(12)).flatmap(lambda order: st.integers(1, 12).map(lambda n: order[:n])),
        st.sampled_from([1e-2, 3e-2]),
    )
    def test_instance_matches_its_batch_of_one(self, idx, tolerance):
        r1, seeds = stop_ensemble()
        cfg = stop_config(tolerance)
        # blocks of 5 instances stop at different iterations, so the loss
        # matrix holds blocks of different lengths, each padded to the longest
        for block in (precoder_module._BLOCK, 5):
            with mock.patch.object(precoder_module, "_BLOCK", block):
                factors, trace, converged = factorize_sgd_batch(r1[idx], 2, cfg, seeds=seeds[idx])
            assert converged.dtype == bool and converged.shape == (len(idx),)
            assert len(trace) == max(len(alone(i, tolerance)[0][1]) for i in idx)  # the longest run
            for k, i in enumerate(idx):
                (one_factors, one_trace, one_converged), single = alone(i, tolerance)
                stop = len(one_trace) - 1
                np.testing.assert_array_equal(trace[: stop + 1, k], one_trace[:, 0])
                np.testing.assert_array_equal(single.loss_trace, one_trace[:, 0])
                assert np.all(trace[stop + 1 :, k] == trace[-1, k])  # padded with its final loss
                assert trace[-1, k] == one_trace[-1, 0] == single.loss_trace[-1]
                assert converged[k] == one_converged[0] == single.converged
                for f in (one_factors[0], single.factors):
                    np.testing.assert_array_equal(factors[k].analog, f.analog)
                    np.testing.assert_array_equal(factors[k].digital, f.digital)
                if stop < cfg.max_iters:
                    assert single.converged

    @pytest.mark.parametrize("tolerance", [1e-2, 3e-2])
    @pytest.mark.parametrize("block", [precoder_module._BLOCK, 5])
    def test_early_stop_returns_only_the_rows_run(self, tolerance, block):
        # every instance stops by iteration 600, far below a cap of 20000
        r1, seeds = stop_ensemble()
        cfg = replace(stop_config(tolerance), max_iters=20000)
        with mock.patch.object(precoder_module, "_BLOCK", block):
            _, trace, converged = factorize_sgd_batch(r1, 2, cfg, seeds=seeds)
        _, capped, _ = factorize_sgd_batch(r1, 2, stop_config(tolerance), seeds=seeds)
        assert converged.all()
        assert trace.base is None  # not a view that keeps the unrun rows alive
        assert trace.shape == (max(len(alone(i, tolerance)[0][1]) for i in range(12)), 12)
        np.testing.assert_array_equal(trace, capped)


class TestSystemDims:
    def test_rf_chain_bounds(self):
        with pytest.raises(ValueError):
            SystemDims(nt=4, nr=4, nt_rf=2, nr_rf=4, ns=3)
        with pytest.raises(ValueError):
            SystemDims(nt=8, nr=2, nt_rf=4, nr_rf=1, ns=2)

    @pytest.mark.parametrize("spacing_ratio", [0.0, -0.5])
    def test_spacing_ratio_must_be_positive(self, spacing_ratio):
        with pytest.raises(ValueError, match="spacing_ratio must be > 0"):
            SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2, spacing_ratio=spacing_ratio)

    def test_valid_dims(self):
        d = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)
        assert d.nt == 16
