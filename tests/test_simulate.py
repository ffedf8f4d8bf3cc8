import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridprec import simulate
from hybridprec.channel import DATASET_STREAM, _trial_words, draw_channels, sample_path_params
from hybridprec.decomp import RankDeficiencyError, gmd, svd
from hybridprec.dnn import build_precoder_mlp
from hybridprec.precoder import (
    FactorizeConfig,
    HybridFactors,
    SystemDims,
    analog_from_phases,
    factorize_sgd,
    hybrid_loss,
    phase_projection_baseline,
)
from hybridprec.simulate import (
    SCHEME_IDS,
    PointEnsemble,
    _payload,
    ber_curve,
    build_scheme_factors,
    draw_ensemble,
    draw_payload,
    iterations_to_plateau,
    mse_vs_iterations,
    noise_sigma_for_snr,
    qpsk_demap,
    qpsk_map,
    se_curve,
    sic_detect,
    spectral_efficiency,
    wilson_halfwidth,
)

DIMS = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)
SMALL = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)


def dataset_channel(dims, seed):
    """Channel 0 of the dataset stream at ``seed``, an (nr, nt) matrix."""
    return draw_channels(dims, 1, seed, DATASET_STREAM)[0]


def link(h, precoders, combiners, s, noise):
    """The link of ber_curve, y = B^H H D s + B^H n, for one trial or a stack of trials."""
    comb_h = np.conj(np.swapaxes(combiners, -1, -2))
    return (comb_h @ h @ precoders @ s[..., None])[..., 0] + (comb_h @ noise[..., None])[..., 0]


class TestQpsk:
    def test_zero_bits_map_to_first_quadrant(self):
        np.testing.assert_allclose(qpsk_map(np.array([0, 0])), [(1 + 1j) / np.sqrt(2)])

    def test_round_trip(self):
        bits = np.random.default_rng(0).integers(0, 2, 64)
        np.testing.assert_array_equal(qpsk_demap(qpsk_map(bits)), bits)

    def test_unit_energy(self):
        s = qpsk_map(np.random.default_rng(1).integers(0, 2, 32))
        np.testing.assert_allclose(np.abs(s), 1.0, atol=1e-12)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError):
            qpsk_map(np.array([0, 1, 0]))


class TestTransmit:
    def test_noiseless_gmd_gives_triangular_channel(self):
        ens = draw_ensemble(DIMS, 50, seed=2, point=0)
        f = gmd(ens.h, 2)
        bits, _ = draw_payload(DIMS, 50, seed=2, point=0)
        s = qpsk_map(bits)
        y = link(ens.h, f.r1, f.w1, s, np.zeros((50, DIMS.nr)))
        np.testing.assert_allclose(y, (f.q1 @ s[..., None])[..., 0], atol=1e-10)

    def test_zero_symbols_leave_only_noise(self):
        ens = draw_ensemble(SMALL, 20, seed=3, point=0)
        _, noise = draw_payload(SMALL, 20, seed=3, point=0)
        y = link(ens.h, ens.r1, ens.w1, np.zeros((20, 2)), noise)
        assert np.all(np.linalg.norm(y, axis=1) > 0)

    def test_combined_noise_second_moment(self):
        # E||B^H n||^2 = sigma^2 * trace(B^H B) over many draws
        h = dataset_channel(SMALL, 4)
        f = gmd(h, 2)
        sigma = 1.7
        n_draws = 10_000
        _, noise = draw_payload(SMALL, n_draws, seed=8, point=0)
        y = link(h, f.r1, f.w1, np.zeros((n_draws, 2)), sigma * noise)
        expected = sigma**2 * np.trace(f.w1.conj().T @ f.w1).real
        assert np.mean(np.linalg.norm(y, axis=1) ** 2) == pytest.approx(expected, rel=0.05)

    def test_power_budget_enforced(self, monkeypatch):
        def doubled(r1):
            f = phase_projection_baseline(r1)
            return HybridFactors(analog=f.analog, digital=2.0 * f.digital)

        monkeypatch.setattr(simulate, "phase_projection_baseline", doubled)
        ens = draw_ensemble(SMALL, 5, seed=5, point=0)
        with pytest.raises(ValueError, match="phase_projection precoder .* over the budget ns=2"):
            build_scheme_factors("phase_projection", ens, SMALL)
        with pytest.raises(ValueError, match="phase_projection"):
            ber_curve(["fully_digital_gmd", "phase_projection"], [0.0], 5, SMALL, seed=5)

    def test_non_finite_precoder_rejected(self):
        # one NaN weight makes every dnn_hybrid precoder NaN, whose power compares False with the budget
        net = build_precoder_mlp(DIMS, seed=0)
        net.weights[0][0, 0] = np.nan
        for curve in (ber_curve, se_curve):
            with pytest.raises(ValueError, match="dnn_hybrid precoder of trial 0 has power nan"):
                with np.errstate(invalid="ignore"):
                    curve(["dnn_hybrid"], [0.0, 10.0], 20, DIMS, seed=1, net=net)


class TestSicDetect:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(6)
        f = gmd(dataset_channel(DIMS, 6), 2)
        bits = rng.integers(0, 2, 4)
        s = qpsk_map(bits)
        s_hat = sic_detect(f.q1, f.q1 @ s)
        np.testing.assert_array_equal(qpsk_demap(s_hat), bits)

    def test_diagonal_reduces_to_per_stream_slicing(self):
        q = np.diag([3.0, 2.0]).astype(complex)
        s = qpsk_map(np.array([1, 0, 0, 1]))
        np.testing.assert_allclose(sic_detect(q, q @ s), s, atol=1e-12)

    def test_high_snr_error_rate(self):
        # 40 dB: interference-free triangular detection is essentially error-free
        n_trials = 25_000  # 100k bits at 4 bits per trial
        sigma = noise_sigma_for_snr(40.0, 2)
        ens = draw_ensemble(DIMS, n_trials, seed=123, point=0)
        bits, noise = draw_payload(DIMS, n_trials, seed=123, point=0)
        y = link(ens.h, ens.r1, ens.w1, qpsk_map(bits), sigma * noise)
        q = np.conj(np.swapaxes(ens.w1, 1, 2)) @ ens.h @ ens.r1
        s_hat = sic_detect(np.triu(q), y)
        errors = int(np.sum(qpsk_demap(s_hat) != bits))
        assert errors / (n_trials * 4) < 1e-4

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            sic_detect(np.array([[0.0, 1.0], [0.0, 1.0]]), np.zeros(2))

    def test_point_stack_equals_per_point_loop_bit_for_bit(self):
        # (points, trials, ns) observations against one (ns, ns) matrix per trial
        ens = draw_ensemble(DIMS, 300, seed=31, point=0)
        q = np.triu(np.conj(np.swapaxes(ens.w1, 1, 2)) @ ens.h @ ens.r1)
        ys = []
        for point, snr_db in enumerate((-10.0, 0.0, 10.0)):
            bits, noise = draw_payload(DIMS, 300, seed=31, point=point)
            ys.append(link(ens.h, ens.r1, ens.w1, qpsk_map(bits), noise_sigma_for_snr(snr_db, 2) * noise))
        stacked = sic_detect(q, np.stack(ys))
        assert stacked.shape == (3, 300, 2)
        for point, y in enumerate(ys):
            np.testing.assert_array_equal(stacked[point], sic_detect(q, y))
        # one observation vector against one matrix
        np.testing.assert_array_equal(sic_detect(q[7], ys[0][7]), stacked[0, 7])


class TestDrawEnsemble:
    def test_prefix_and_thread_invariance_bit_for_bit(self):
        # 2500 trials span three 1024-trial chunks
        full = draw_ensemble(DIMS, 2500, seed=21, point=3)
        threaded = draw_ensemble(DIMS, 2500, seed=21, point=3, threads=4)
        short = draw_ensemble(DIMS, 1000, seed=21, point=3)
        across = draw_ensemble(DIMS, 1500, seed=21, point=3)
        for f in fields(PointEnsemble):
            a = getattr(full, f.name)
            assert np.array_equal(a, getattr(threaded, f.name)), f.name
            assert np.array_equal(a[:1000], getattr(short, f.name)), f.name
            assert np.array_equal(a[:1500], getattr(across, f.name)), f.name

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rank_deficient_trial_is_named(self, monkeypatch, threads):
        real = simulate.generate_channel

        def deficient_at_1030(*args):
            h = real(*args)
            if len(h) != simulate._SETUP_CHUNK:  # the second chunk starts at trial 1024
                h[1030 - 1024] = np.outer(h[0, :, 0], h[0, 0, :])
            return h

        monkeypatch.setattr(simulate, "generate_channel", deficient_at_1030)
        with pytest.raises(RankDeficiencyError, match="point 3, trial 1030") as info:
            draw_ensemble(DIMS, 1100, seed=21, point=3, threads=threads)
        assert info.value.index == 1030

    @pytest.mark.parametrize("call", ["draw_ensemble", "se_curve", "ber_curve"])
    def test_zero_trials_rejected(self, call):
        # both curves leave the rule to the draw they share
        args = (DIMS, 0, 0, 0) if call == "draw_ensemble" else (["fully_digital_gmd"], [0.0], 0, DIMS, 0)
        with pytest.raises(ValueError, match=r"trials must be >= 1, got 0"):
            getattr(simulate, call)(*args)

    def test_fields_are_what_curves_read(self):
        assert [f.name for f in fields(PointEnsemble)] == ["h", "u", "v", "w1", "r1", "factor_seeds"]
        ens = draw_ensemble(DIMS, 10, seed=21, point=3)
        f = gmd(ens.h, DIMS.ns)
        assert ens.u.shape == (10, DIMS.nr, DIMS.ns) and ens.v.shape == (10, DIMS.nt, DIMS.ns)
        assert np.array_equal(ens.w1, f.w1) and np.array_equal(ens.r1, f.r1)

    def test_points_draw_different_streams(self):
        a = draw_ensemble(DIMS, 10, seed=21, point=3)
        b = draw_ensemble(DIMS, 10, seed=21, point=4)
        assert not np.any(a.h == b.h)

    def test_sampler_moments(self):
        words = _trial_words(DIMS, 22, 0, 0, 20_000)
        gains, aod, aoa = sample_path_params(words)
        bits, noise = _payload(*words[4:7])
        factor_seeds = words[7][:, 0]
        for angles in (aod, aoa):
            assert np.all(np.abs(angles) <= np.pi / 2)
            assert abs(np.mean(angles)) < 0.02
            assert np.var(angles) == pytest.approx(np.pi**2 / 12, rel=0.02)
        power = np.abs(gains) ** 2
        np.testing.assert_allclose(np.mean(power, axis=0), [1.0, 0.1, 0.1, 0.1], rtol=0.05)
        # complex Gaussian: E|g|^4 = 2 (E|g|^2)^2
        np.testing.assert_allclose(np.mean(power**2, axis=0) / np.mean(power, axis=0) ** 2, 2.0, rtol=0.1)
        assert set(np.unique(bits)) == {0, 1}
        assert abs(np.mean(bits) - 0.5) < 0.01
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(1.0, rel=0.02)
        assert np.mean(np.abs(noise) ** 4) == pytest.approx(2.0, rel=0.05)
        assert abs(np.mean(noise**2)) < 0.02  # circular
        assert len(np.unique(factor_seeds)) == len(factor_seeds)


class TestBerCurve:
    def test_deep_noise_limit_is_coin_flip(self):
        # the random-guessing limit: noise overwhelming any received signal
        c = ber_curve(["fully_digital_gmd"], [-60.0], 4000, DIMS, seed=11)[0]
        assert abs(c.ber[0] - 0.5) <= c.ci_halfwidth[0]

    def test_monotone_in_snr_within_intervals(self):
        c = ber_curve(["fully_digital_gmd"], [-10.0, -5.0, 0.0, 5.0], 4000, DIMS, seed=12)[0]
        for i in range(len(c.ber) - 1):
            assert c.ber[i + 1] <= c.ber[i] + c.ci_halfwidth[i] + c.ci_halfwidth[i + 1]

    def test_doubled_trials_consistent(self):
        a = ber_curve(["fully_digital_gmd"], [0.0], 2000, DIMS, seed=13)[0]
        b = ber_curve(["fully_digital_gmd"], [0.0], 4000, DIMS, seed=13)[0]
        assert abs(a.ber[0] - b.ber[0]) <= a.ci_halfwidth[0] + b.ci_halfwidth[0]

    def test_deterministic_under_seed(self):
        a = ber_curve(["phase_projection"], [0.0, 5.0], 500, DIMS, seed=14)[0]
        b = ber_curve(["phase_projection"], [0.0, 5.0], 500, DIMS, seed=14)[0]
        np.testing.assert_array_equal(a.ber, b.ber)

    def test_threads_do_not_change_results(self):
        a = ber_curve(["fully_digital_gmd"], [0.0], 2500, DIMS, seed=15, threads=1)[0]
        b = ber_curve(["fully_digital_gmd"], [0.0], 2500, DIMS, seed=15, threads=4)[0]
        np.testing.assert_array_equal(a.ber, b.ber)

    def test_svd_errors_match_closed_form(self):
        # fully digital SVD turns the link into ns parallel channels sigma_i s_i + n_i
        # with white noise, so each bit is wrong with probability
        # p = Q(sigma_i / sigma) on its own; the count over trials, streams and the
        # two bits of a QPSK symbol is then compared by its z-score
        grid = [-20.0, -10.0, 0.0, 5.0]
        trials = 20000
        curve = ber_curve(["fully_digital_svd"], grid, trials, DIMS, seed=42)[0]
        sigma_i = svd(draw_ensemble(DIMS, trials, seed=42, point=0).h, DIMS.ns).sigma
        q = np.frompyfunc(lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)), 1, 1)
        for snr_db, errors in zip(grid, curve.errors):
            p = q(sigma_i / noise_sigma_for_snr(snr_db, DIMS.ns)).astype(float)
            mean, var = 2.0 * np.sum(p), 2.0 * np.sum(p * (1.0 - p))
            z = (errors - mean) / np.sqrt(var)
            assert abs(z) <= 4.0, f"{snr_db} dB: {errors} errors against {mean:.1f} predicted, z = {z:.2f}"

    def test_gmd_last_stream_errors_match_closed_form(self):
        # GMD makes W1^H H R1 upper triangular with every diagonal entry equal to
        # sigma_bar, the geometric mean of the ns singular values, and keeps the
        # noise white; SIC detects the last stream first, with no interference,
        # so each of its two bits is wrong with probability Q(sigma_bar / sigma)
        grid = [-20.0, -10.0, 0.0, 5.0, 10.0]
        trials = 20000
        ens = draw_ensemble(DIMS, trials, seed=42, point=0)
        sigma_bar = np.prod(svd(ens.h, DIMS.ns).sigma, axis=1) ** (1.0 / DIMS.ns)
        q_true = np.conj(np.swapaxes(ens.w1, 1, 2)) @ ens.h @ ens.r1
        q = np.frompyfunc(lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)), 1, 1)
        for point, snr_db in enumerate(grid):
            sigma = noise_sigma_for_snr(snr_db, DIMS.ns)
            bits, noise = draw_payload(DIMS, trials, seed=42, point=point)
            y = link(ens.h, ens.r1, ens.w1, qpsk_map(bits), sigma * noise)
            errors = np.sum(qpsk_demap(sic_detect(np.triu(q_true), y))[:, -2:] != bits[:, -2:])
            p = q(sigma_bar / sigma).astype(float)
            mean, var = 2.0 * np.sum(p), 2.0 * np.sum(p * (1.0 - p))
            z = (errors - mean) / np.sqrt(var)
            assert abs(z) <= 4.0, f"{snr_db} dB: {errors} errors against {mean:.1f} predicted, z = {z:.2f}"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ber_curve(["zero_forcing"], [0.0], 10, DIMS, seed=0)
        with pytest.raises(ValueError, match="unknown scheme 'zero_forcing'"):
            build_scheme_factors("zero_forcing", draw_ensemble(DIMS, 5, seed=0, point=0), DIMS)

    def test_sgd_requires_config(self):
        with pytest.raises(ValueError):
            ber_curve(["sgd_hybrid"], [0.0], 10, DIMS, seed=0)

    def test_dnn_requires_network(self):
        with pytest.raises(ValueError):
            ber_curve(["dnn_hybrid"], [0.0], 10, DIMS, seed=0)


CHEAP = FactorizeConfig(learning_rate=0.02, max_iters=30, tolerance=0.0, seed=0)


class TestSharedEnsemble:
    """One ensemble per curve: channels and factors from point 0, payload per point."""

    NET = build_precoder_mlp(DIMS, seed=0)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_multi_scheme_equals_one_scheme_calls(self, threads):
        # 1100 trials span two 1024-trial chunks
        grid = [-5.0, 0.0, 5.0]
        kwargs = dict(cfg=CHEAP, net=self.NET)
        singles = {s: ber_curve([s], grid, 1100, DIMS, seed=31, **kwargs)[0] for s in SCHEME_IDS}
        for order in (SCHEME_IDS, SCHEME_IDS[::-1], ("phase_projection", "sgd_hybrid")):
            curves = ber_curve(order, grid, 1100, DIMS, seed=31, threads=threads, **kwargs)
            assert [c.scheme for c in curves] == list(order)
            for c in curves:
                ref = singles[c.scheme]
                assert np.array_equal(c.errors, ref.errors), c.scheme
                assert np.array_equal(c.ber, ref.ber), c.scheme
                assert np.array_equal(c.ci_halfwidth, ref.ci_halfwidth), c.scheme

    @pytest.mark.parametrize("point", [0, 1, 5])
    def test_payload_equals_point_draw(self, point):
        # the chunked decode equals one decode of the point's 1500 blocks
        bits_ref, noise_ref = _payload(*_trial_words(DIMS, 32, point, 0, 1500)[4:7])
        for threads in (1, 4):
            bits, noise = draw_payload(DIMS, 1500, seed=32, point=point, threads=threads)
            assert np.array_equal(bits, bits_ref)
            assert np.array_equal(noise, noise_ref)

    def test_points_use_point_zero_channels_and_their_own_payload(self):
        grid = [0.0, 3.0, 6.0]
        curve = ber_curve(["fully_digital_gmd"], grid, 800, DIMS, seed=33)[0]
        channels = draw_ensemble(DIMS, 800, seed=33, point=0)
        comb_h = np.conj(np.swapaxes(channels.w1, 1, 2))
        q = comb_h @ channels.h @ channels.r1
        for point, snr in enumerate(grid):
            bits, noise = draw_payload(DIMS, 800, seed=33, point=point)
            y = link(channels.h, channels.r1, channels.w1, qpsk_map(bits), noise_sigma_for_snr(snr, DIMS.ns) * noise)
            errors = np.sum(qpsk_demap(sic_detect(np.triu(q), y)) != bits)
            assert curve.errors[point] == errors

    def test_one_draw_and_one_factorization_per_sgd_scheme(self, monkeypatch):
        calls = {"draw_ensemble": 0, "factorize_sgd_batch": 0}

        def counting(name):
            real = getattr(simulate, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(simulate, name, counting(name))
        schemes = ("sgd_hybrid", "fully_digital_gmd", "sgd_hybrid", "phase_projection")
        curves = ber_curve(schemes, [-5.0, 0.0, 5.0, 10.0], 300, DIMS, seed=34, cfg=CHEAP)
        assert len(curves) == 4
        assert calls == {"draw_ensemble": 1, "factorize_sgd_batch": 2}
        se_curve(schemes, [0.0, 10.0], 50, DIMS, seed=34, cfg=CHEAP)
        assert calls == {"draw_ensemble": 2, "factorize_sgd_batch": 4}

    def test_multi_scheme_se_equals_one_scheme_calls(self):
        grid = [0.0, 10.0]
        kwargs = dict(cfg=CHEAP, net=self.NET)
        curves = se_curve(SCHEME_IDS[::-1], grid, 60, DIMS, seed=35, **kwargs)
        for c in curves:
            ref = se_curve([c.scheme], grid, 60, DIMS, seed=35, **kwargs)[0]
            assert np.array_equal(c.bits_per_s_hz, ref.bits_per_s_hz), c.scheme

    def test_bare_string_rejected(self):
        with pytest.raises(ValueError, match="sequence"):
            ber_curve("fully_digital_gmd", [0.0], 10, DIMS, seed=0)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(1, 3 * simulate._SETUP_CHUNK), st.integers(2, 3))
    def test_errors_do_not_depend_on_threads(self, trials, threads):
        # 1 to 3 chunks of trials; sgd_hybrid reads the chunks' factorization seeds
        schemes = ("fully_digital_svd", "sgd_hybrid", "phase_projection")
        kwargs = dict(cfg=FactorizeConfig(learning_rate=0.02, max_iters=10, tolerance=0.0))
        one = ber_curve(schemes, [-5.0, 5.0], trials, SMALL, seed=37, threads=1, **kwargs)
        many = ber_curve(schemes, [-5.0, 5.0], trials, SMALL, seed=37, threads=threads, **kwargs)
        for a, b in zip(one, many):
            assert np.array_equal(a.errors, b.errors), a.scheme


@st.composite
def system_dims(draw):
    ns = draw(st.integers(1, 3))
    nt = draw(st.integers(ns, 12))
    nr = draw(st.integers(ns, 6))
    return SystemDims(
        nt=nt,
        nr=nr,
        nt_rf=draw(st.integers(ns, nt)),
        nr_rf=draw(st.integers(ns, nr)),
        ns=ns,
        p_nlos=draw(st.integers(ns - 1, 4)),
    )


class TestSchemeConstraints:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(system_dims())
    def test_power_budget_and_constant_modulus(self, dims):
        # record the analog factors that build_scheme_factors forms, at the
        # names it looks them up by
        analogs = []

        def recording(real, factors_of):
            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                analogs.extend(np.ravel(f.analog) for f in factors_of(result))
                return result

            return wrapper

        ens = draw_ensemble(dims, 8, seed=36, point=0)
        net = build_precoder_mlp(dims, seed=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "factorize_sgd_batch", recording(simulate.factorize_sgd_batch, lambda r: r[0]))
            mp.setattr(simulate, "infer_precoders", recording(simulate.infer_precoders, lambda r: [r]))
            mp.setattr(
                simulate, "phase_projection_baseline", recording(simulate.phase_projection_baseline, lambda r: [r])
            )
            for scheme in SCHEME_IDS:
                analogs.clear()
                precoders, _ = build_scheme_factors(scheme, ens, dims, cfg=CHEAP, net=net)
                assert precoders.shape == (8, dims.nt, dims.ns)
                assert np.all(np.sum(np.abs(precoders) ** 2, axis=(1, 2)) <= dims.ns + 1e-9), scheme
                if scheme in ("sgd_hybrid", "phase_projection", "dnn_hybrid"):
                    analog = np.concatenate(analogs)
                    assert analog.size >= 8 * dims.nt * dims.ns, scheme  # phase projection has ns columns
                    assert np.max(np.abs(np.abs(analog) - 1.0 / np.sqrt(dims.nt))) <= 1e-12, scheme


class TestNoiselessLoopback:
    def test_accurate_hybrid_recovers_bits_exactly(self):
        # an exactly representable precoder factorized to tiny loss, no noise
        rng = np.random.default_rng(16)
        analog = analog_from_phases(rng.uniform(0, 2 * np.pi, (16, 4)))
        digital = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        r1, _ = np.linalg.qr(analog @ digital)
        h = dataset_channel(DIMS, 16)
        f = gmd(h, 2)
        res = factorize_sgd(f.r1, 4, FactorizeConfig(learning_rate=0.02, max_iters=40_000, tolerance=1e-12, seed=3))
        if res.loss_trace[-1] >= 1e-3:
            pytest.skip("factorization did not reach the loopback accuracy gate")
        bits = rng.integers(0, 2, 4)
        y = link(h, res.factors.product, f.w1, qpsk_map(bits), np.zeros(DIMS.nr))
        q_eff = np.triu(f.w1.conj().T @ h @ res.factors.product)
        np.testing.assert_array_equal(qpsk_demap(sic_detect(q_eff, y)), bits)


class TestSpectralEfficiency:
    def test_diagonal_channel_closed_form(self):
        h = np.diag([4.0, 1.0])
        prec = np.eye(2, dtype=complex)
        comb = np.eye(2, dtype=complex)
        snr_db = 3.0
        rho_over_sigma2 = 10.0 ** (snr_db / 10.0) / 2.0  # (rho/ns) / sigma^2
        expected = np.log2(1 + 16 * rho_over_sigma2) + np.log2(1 + 1 * rho_over_sigma2)
        assert spectral_efficiency(h, prec, comb, snr_db) == pytest.approx(expected, rel=1e-10)

    def test_vanishes_at_deep_noise(self):
        h = np.diag([4.0, 1.0])
        se = spectral_efficiency(h, np.eye(2, dtype=complex), np.eye(2, dtype=complex), -120.0)
        assert se == pytest.approx(0.0, abs=1e-6)

    def test_nondecreasing_in_snr(self):
        h = dataset_channel(SMALL, 17)
        f = gmd(h, 2)
        values = [spectral_efficiency(h, f.r1, f.w1, snr) for snr in (-10, 0, 10, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_stack_matches_single_channels(self):
        ens = draw_ensemble(DIMS, 6, seed=23, point=0)
        rates = spectral_efficiency(ens.h, ens.r1, ens.w1, 5.0)
        singles = [spectral_efficiency(h, r, w, 5.0) for h, r, w in zip(ens.h, ens.r1, ens.w1)]
        np.testing.assert_allclose(rates, singles, rtol=1e-12)

    def test_rank_deficient_combiner_rejected(self):
        h = np.diag([4.0, 1.0])
        bad = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            spectral_efficiency(h, np.eye(2, dtype=complex), bad, 0.0)

    def test_grid_prepends_a_point_axis(self):
        ens = draw_ensemble(DIMS, 6, seed=23, point=0)
        grid = [-5.0, 5.0, 15.0]
        rates = spectral_efficiency(ens.h, ens.r1, ens.w1, np.array(grid))
        assert rates.shape == (3, 6)
        for row, snr in zip(rates, grid):
            np.testing.assert_array_equal(row, spectral_efficiency(ens.h, ens.r1, ens.w1, snr))

    def test_svd_curve_matches_closed_form(self):
        # fully digital SVD diagonalizes the channel: the rate of a channel is
        # sum_i log2(1 + sigma_i^2 / sigma^2) over its ns singular values
        grid = np.arange(-20.0, 20.5, 5.0)
        curve = se_curve(["fully_digital_svd"], grid, 2000, DIMS, seed=42)[0]
        sigma = svd(draw_ensemble(DIMS, 2000, seed=42, point=0).h, DIMS.ns).sigma
        noise = DIMS.ns * 10.0 ** (-grid / 10.0)
        expected = [np.mean(np.sum(np.log2(1.0 + sigma**2 / n), axis=1)) for n in noise]
        np.testing.assert_allclose(curve.bits_per_s_hz, expected, rtol=1e-12, atol=0)

    def test_unconstrained_svd_dominates_hybrids(self):
        cfg = FactorizeConfig(learning_rate=0.02, max_iters=600, tolerance=0.0, seed=0)
        svd_c = se_curve(["fully_digital_svd"], [0.0, 10.0], 40, DIMS, seed=18)[0]
        for scheme in ("sgd_hybrid", "phase_projection"):
            hyb = se_curve([scheme], [0.0, 10.0], 40, DIMS, seed=18, cfg=cfg)[0]
            assert np.all(svd_c.bits_per_s_hz >= hyb.bits_per_s_hz - 1e-9)


class TestMseVsIterations:
    def test_starts_at_initial_point(self):
        chans = draw_channels(DIMS, 4, 19, DATASET_STREAM)
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=50, tolerance=0.0, seed=5)
        curve = mse_vs_iterations("sgd_hybrid", chans, DIMS, cfg)
        assert curve.iteration[0] == 0
        assert len(curve.mse) == 51

    def test_plateau_below_initial(self):
        chans = draw_channels(DIMS, 4, 30, DATASET_STREAM)
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=300, tolerance=0.0, seed=6)
        curve = mse_vs_iterations("sgd_hybrid", chans, DIMS, cfg)
        assert curve.mse[-1] <= curve.mse[0]
        assert 0 <= iterations_to_plateau(curve) <= 300

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            mse_vs_iterations("phase_projection", [], DIMS, FactorizeConfig())


class TestWilson:
    def test_halfwidth_shrinks_with_n(self):
        assert wilson_halfwidth(10, 100) > wilson_halfwidth(100, 1000)

    def test_extremes_bounded(self):
        assert 0 < wilson_halfwidth(0, 1000) < 0.01
        assert 0 < wilson_halfwidth(1000, 1000) < 0.01
