import inspect
import re
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridprec.dnn as dnn_module
from hybridprec.channel import DATASET_STREAM, draw_channels
from hybridprec.decomp import RankDeficiencyError, gmd
from hybridprec.dnn import (
    PRECODER_DTYPE,
    LayerSpec,
    PrecoderCodec,
    _gradients,
    _mean_loss,
    backward,
    build_dataset,
    build_mlp,
    build_precoder_mlp,
    default_architecture,
    feature_vector,
    forward,
    infer_precoders,
    load_mlp,
    save_mlp,
    sgd_momentum_step,
    train,
)
from hybridprec.precoder import STOP_WINDOW, FactorizationDivergedError, FactorizeConfig, SystemDims
from hybridprec.simulate import draw_ensemble


class TestArchitecture:
    def test_hidden_widths(self):
        specs = default_architecture(64, 48)
        assert [s.width for s in specs[:-1]] == [128, 400, 256, 200, 128, 64]

    def test_output_layer_clamped(self):
        specs = default_architecture(64, 48)
        assert specs[-1].activation == "clamp"
        assert specs[-1].width == 48

    def test_layer_count_including_input(self):
        specs = default_architecture(64, 48)
        net = build_mlp(64, specs, clamp_max=2.0, seed=0)
        # eight layers counting the input: one weight matrix and bias per layer after it
        assert len(net.weights) == len(net.biases) == 7

    def test_noise_layer_position_and_sigma(self):
        specs = default_architecture(64, 48, noise_sigma=0.2)
        sigmas = [s.noise_sigma for s in specs]
        assert sigmas[3] == 0.2
        assert all(s == 0 for i, s in enumerate(sigmas) if i != 3)

    def test_bad_activation_rejected(self):
        for activation in ("sigmoid", "linear"):
            with pytest.raises(ValueError, match="activation must be one of"):
                LayerSpec(4, activation)

    @pytest.mark.parametrize(
        "width, noise_sigma, message",
        [(0, 0.0, "width must be >= 1, got 0"), (4, -0.1, "noise_sigma must be >= 0, got -0.1")],
    )
    def test_bad_width_or_noise_rejected(self, width, noise_sigma, message):
        with pytest.raises(ValueError, match=message):
            LayerSpec(width, noise_sigma=noise_sigma)

    def test_clamp_max_below_one_rejected_with_a_clamp_layer(self):
        with pytest.raises(ValueError, match="clamp_max must be >= 1, got 0.5"):
            build_mlp(3, [LayerSpec(4, "relu"), LayerSpec(2, "clamp")], clamp_max=0.5, seed=0)
        build_mlp(3, [LayerSpec(4, "relu")], clamp_max=0.5, seed=0)

    def test_one_weight_and_bias_per_layer(self):
        net = build_mlp(3, [LayerSpec(4, "relu"), LayerSpec(2, "clamp")], clamp_max=2.0, seed=0)
        with pytest.raises(ValueError, match="2 layers, 2 weights and 1 biases"):
            replace(net, biases=net.biases[:1])

    def test_weight_of_wrong_shape_rejected(self):
        net = build_mlp(3, [LayerSpec(4, "relu"), LayerSpec(2, "clamp")], clamp_max=2.0, seed=0)
        with pytest.raises(ValueError, match=re.escape("weight 0 shape (4, 3) != (3, 4)")):
            replace(net, weights=[net.weights[0].T, net.weights[1]])

    def test_codec_must_fit_the_output_layer(self):
        codec = PrecoderCodec(nt=16, nt_rf=4, ns=2)
        specs = default_architecture(256, codec.output_dim - 1)
        with pytest.raises(ValueError, match="codec output_dim 80 != output layer width 79"):
            build_mlp(256, specs, clamp_max=2.0, seed=0, codec=codec)


def identity_layer(width, activation, clamp_max=2.0, noise_sigma=0.0):
    net = build_mlp(width, [LayerSpec(width, activation, noise_sigma)], clamp_max=clamp_max, seed=0)
    net.weights[0][:] = np.eye(width)
    net.biases[0][:] = 0.0
    return net


class TestActivations:
    """The activations and the noise, seen through forward on one identity layer."""

    def test_relu(self):
        out, _ = forward(identity_layer(4, "relu"), np.array([-1.0, -0.0, 0.0, 2.5]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 2.5])
        assert not np.any(np.signbit(out))

    def test_clamp(self):
        out, cache = forward(identity_layer(5, "clamp", clamp_max=2.5), np.array([-1.0, 0.0, 1.25, 2.5, 7.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.25, 2.5, 2.5])
        assert cache[0][1] is out.base

    def test_clamp_range_property(self):
        x = 10 * np.random.default_rng(0).standard_normal((250, 4))
        out, _ = forward(identity_layer(4, "clamp"), x)
        assert np.all(out >= 0) and np.all(out <= 2)

    def test_noise_zero_sigma_unchanged(self):
        net = build_mlp(4, [LayerSpec(6, "relu", noise_sigma=0.0), LayerSpec(3, "clamp")], clamp_max=2.0, seed=1)
        x = np.random.default_rng(2).standard_normal((5, 4))
        want, _ = forward(net, x)
        got, _ = forward(net, x, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(got, want)

    def test_noise_sample_mean(self):
        # law of large numbers: the empirical mean stays within 3 sigma / sqrt(n)
        sigma, n = 0.5, 100_000
        x = np.array([1.0, 2.0])
        out, _ = forward(
            identity_layer(2, "relu", noise_sigma=sigma), np.tile(x, (n, 1)), rng=np.random.default_rng(1)
        )
        np.testing.assert_allclose(out.mean(axis=0), x, atol=3 * sigma / np.sqrt(n))


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = build_mlp(3, [LayerSpec(4, "relu"), LayerSpec(2, "clamp")], clamp_max=2.0, seed=0)
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        out, _ = forward(net, np.array([1.0, -1.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_identity_single_layer_clamps_input(self):
        net = build_mlp(3, [LayerSpec(3, "clamp")], clamp_max=2.0, seed=0)
        net.weights[0][:] = np.eye(3)
        net.biases[0][:] = 0.0
        out, _ = forward(net, np.array([-1.0, 0.7, 5.0]))
        np.testing.assert_array_equal(out, [0.0, 0.7, 2.0])

    def test_matches_straight_line_composition(self):
        # independent re-evaluation of the same composition, written longhand
        rng = np.random.default_rng(2)
        net = build_mlp(4, [LayerSpec(5, "relu"), LayerSpec(6, "relu"), LayerSpec(3, "clamp")],
                        clamp_max=1.5, seed=7)
        x = rng.standard_normal(4)
        h1 = np.maximum(0.0, x @ net.weights[0] + net.biases[0])
        h2 = np.maximum(0.0, h1 @ net.weights[1] + net.biases[1])
        expected = np.clip(h2 @ net.weights[2] + net.biases[2], 0.0, 1.5)
        out, _ = forward(net, x)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_dimension_mismatch(self):
        net = build_mlp(4, [LayerSpec(2, "clamp")], clamp_max=1.0, seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros(5))

    def test_inference_deterministic_despite_noise_spec(self):
        net = build_mlp(4, [LayerSpec(6, "relu", noise_sigma=0.5), LayerSpec(2, "clamp")],
                        clamp_max=1.0, seed=0)
        x = np.random.default_rng(3).standard_normal(4)
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        np.testing.assert_array_equal(a, b)

    def test_training_noise_changes_forward(self):
        net = build_mlp(4, [LayerSpec(64, "relu", noise_sigma=0.5), LayerSpec(2, "relu")],
                        clamp_max=1.0, seed=0)
        x = np.random.default_rng(4).standard_normal(4)
        a, _ = forward(net, x, rng=np.random.default_rng(1))
        b, _ = forward(net, x, rng=np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_noise_fires_when_an_rng_is_given(self):
        specs = [LayerSpec(64, "relu", noise_sigma=0.5), LayerSpec(2, "relu")]
        x = np.random.default_rng(4).standard_normal(4)
        noisy = build_mlp(4, specs, clamp_max=1.0, seed=0)
        assert not np.array_equal(forward(noisy, x, np.random.default_rng(1))[0], forward(noisy, x)[0])
        quiet = build_mlp(4, [replace(specs[0], noise_sigma=0.0), specs[1]], clamp_max=1.0, seed=0)
        np.testing.assert_array_equal(forward(quiet, x, np.random.default_rng(1))[0], forward(quiet, x)[0])


class TestBackward:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        net = build_mlp(5, [LayerSpec(7, "relu"), LayerSpec(6, "relu"), LayerSpec(4, "clamp")],
                        clamp_max=2.0, seed=11)
        x = rng.standard_normal((3, 5))
        target = rng.standard_normal((3, 4))

        def loss():
            out, _ = forward(net, x)
            return 0.5 * np.sum((out - target) ** 2)

        out, cache = forward(net, x)
        d_weights, d_biases = backward(net, cache, out - target)
        h = 1e-6
        for li in range(3):
            for arr, grad in ((net.weights[li], d_weights[li]), (net.biases[li], d_biases[li])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + h
                    up = loss()
                    arr[idx] = old - h
                    down = loss()
                    arr[idx] = old
                    fd = (up - down) / (2 * h)
                    if abs(fd) > 1e-8:
                        assert abs(grad[idx] - fd) <= 1e-4 * abs(fd)

    def test_zero_output_gradient(self):
        net = build_mlp(3, [LayerSpec(4, "relu"), LayerSpec(2, "clamp")], clamp_max=1.0, seed=0)
        out, cache = forward(net, np.ones(3))
        d_weights, d_biases = backward(net, cache, np.zeros_like(out))
        assert all(np.all(g == 0) for g in d_weights + d_biases)

    def test_saturated_clamp_blocks_gradient(self):
        net = build_mlp(1, [LayerSpec(1, "clamp")], clamp_max=1.0, seed=0)
        net.weights[0][:] = 1.0
        net.biases[0][:] = 0.0
        out, cache = forward(net, np.array([5.0]))  # pre-activation 5 > clamp_max
        d_weights, _ = backward(net, cache, np.ones(1))
        assert np.all(d_weights[0] == 0)


def reference_forward_backward(net, x, grad_out, rng):
    """Forward and backward as first written: the cache keeps every layer's
    pre-activation next to a separate activation array. Noise layers fire
    when ``rng`` is given."""
    cache = []
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        z = x @ w + b
        cache.append((x, z))
        if spec.activation == "relu":
            x = np.maximum(0.0, z)
        else:
            x = np.minimum(np.maximum(z, 0.0), net.clamp_max)
        if rng is not None and spec.noise_sigma > 0:
            x = x + rng.normal(0.0, spec.noise_sigma, size=x.shape)
    delta = grad_out
    d_weights, d_biases = [None] * len(net.specs), [None] * len(net.specs)
    for i in reversed(range(len(net.specs))):
        x_in, z = cache[i]
        if net.specs[i].activation == "relu":
            delta = delta * (z > 0)
        else:
            delta = delta * ((z > 0) & (z < net.clamp_max))
        d_weights[i] = x_in.T @ delta
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
    return x, d_weights, d_biases


def maybe_rng(seed):
    """A generator at ``seed``, or None (a noise-free pass) for seed None."""
    return None if seed is None else np.random.default_rng(seed)


class TestSingleActivationCopy:
    """forward caches each activation once, and backward's gradients do not change."""

    def net(self, noise_activation="relu"):
        net = build_mlp(
            6,
            [
                LayerSpec(9, "relu"),
                LayerSpec(8, noise_activation, noise_sigma=0.3),
                LayerSpec(7, "relu"),
                LayerSpec(5, "clamp"),
            ],
            clamp_max=2.0,
            seed=3,
        )
        # units whose pre-activation is exactly 0 (relu and clamp) or exactly clamp_max
        net.weights[0][:, 0] = 0.0
        net.weights[3][:, :2] = 0.0
        net.biases[3][:2] = (0.0, 2.0)
        return net

    @pytest.mark.parametrize("seed", [None, 9], ids=["infer", "train"])
    def test_gradients_bit_equal_to_separate_pre_activations(self, seed):
        net = self.net()
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 6))
        grad_out = rng.standard_normal((40, 5))
        grad_before = grad_out.copy()
        out, cache = forward(net, x, rng=maybe_rng(seed))
        _, z_clamp = cache[3]
        assert np.all(z_clamp[:, 0] == 0.0) and np.all(z_clamp[:, 1] == 2.0)
        assert np.any(cache[0][1][:, 0] == 0.0)
        d_weights, d_biases = backward(net, cache, grad_out)
        ref_out, ref_weights, ref_biases = reference_forward_backward(
            net, x, grad_out, maybe_rng(seed)
        )
        np.testing.assert_array_equal(out, ref_out)
        for got, want in zip(d_weights + d_biases, ref_weights + ref_biases):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(grad_out, grad_before)

    @pytest.mark.parametrize("activation", ["relu", "clamp"])
    def test_noise_layer_caches_its_activation_in_train_mode(self, activation):
        net = self.net(activation)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 6))
        grad_out = rng.standard_normal((40, 5))
        _, cache = forward(net, x, rng=np.random.default_rng(9))
        x_in, z = cache[1]
        pre = x_in @ net.weights[1] + net.biases[1]
        assert np.any(pre < 0) and (activation == "relu" or np.any(pre > net.clamp_max))
        want = np.maximum(0.0, pre) if activation == "relu" else np.clip(pre, 0.0, net.clamp_max)
        np.testing.assert_array_equal(z, want)
        # the next layer reads the activation plus noise; every other activation is the next input itself
        assert not np.array_equal(cache[2][0], z)
        assert cache[0][1] is cache[1][0] and cache[2][1] is cache[3][0]
        d_weights, d_biases = backward(net, cache, grad_out)
        _, ref_weights, ref_biases = reference_forward_backward(net, x, grad_out, np.random.default_rng(9))
        for got, want in zip(d_weights + d_biases, ref_weights + ref_biases):
            np.testing.assert_array_equal(got, want)

    def test_inference_forward_peaks_near_its_activations(self):
        import tracemalloc

        net = build_precoder_mlp(SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2), seed=0)
        x = np.random.default_rng(0).standard_normal((500, net.input_dim))
        forward(net, x[:2])
        activation_bytes = 500 * sum(s.width for s in net.specs) * net.dtype.itemsize
        tracemalloc.start()
        try:
            out, cache = forward(net, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(z.nbytes for _, z in cache) == activation_bytes
        assert peak <= 1.1 * activation_bytes


class TestSgdMomentumStep:
    def test_first_step_is_plain_descent(self):
        p = [np.array([1.0, 2.0])]
        g = [np.array([0.5, -1.0])]
        v = [np.zeros(2)]
        new_p, new_v = sgd_momentum_step([p[0].copy()], g, [v[0].copy()], alpha=0.9, epsilon=0.1)
        np.testing.assert_allclose(new_p[0], p[0] - 0.1 * g[0])

    def test_zero_gradient_decays_velocity(self):
        v = [np.array([1.0])]
        for _ in range(3):
            _, v = sgd_momentum_step([np.zeros(1)], [np.zeros(1)], v, alpha=0.9, epsilon=0.1)
        np.testing.assert_allclose(v[0], [0.9**3])

    def test_two_steps_constant_gradient(self):
        # hand-unrolled recurrence: v2 = -0.1*g*(1 + 0.9) = -0.19*g
        g = [np.array([2.0])]
        p, v = [np.array([0.0])], [np.zeros(1)]
        p, v = sgd_momentum_step(p, g, v, alpha=0.9, epsilon=0.1)
        p, v = sgd_momentum_step(p, g, v, alpha=0.9, epsilon=0.1)
        np.testing.assert_allclose(v[0], -0.19 * g[0])

    def test_updates_in_place_and_leaves_gradients_untouched(self):
        rng = np.random.default_rng(0)
        p = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        g = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        v = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        g_before = [a.copy() for a in g]
        want_v = [0.9 * a - 0.1 * b for a, b in zip(v, g)]
        want_p = [a + b for a, b in zip(p, want_v)]
        arrays = p + v
        new_p, new_v = sgd_momentum_step(p, g, v, alpha=0.9, epsilon=0.1)
        assert new_p is p and new_v is v
        assert all(a is b for a, b in zip(new_p + new_v, arrays))
        for got, want in zip(new_p + new_v, want_p + want_v):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(g, g_before):
            np.testing.assert_array_equal(got, want)


class TestDataset:
    dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)

    def test_empty(self):
        data = build_dataset(self.dims, 0, 0)
        assert len(data) == 0

    def test_targets_semi_unitary(self):
        data = build_dataset(self.dims, 10, 1)
        for target in data.targets:
            gram = target.conj().T @ target
            assert np.linalg.norm(gram - np.eye(2)) <= 1e-10

    def test_feature_length_and_scaling(self):
        data = build_dataset(self.dims, 3, 2)
        assert data.features.shape == (3, 2 * 8 * 4)
        for features in data.features:
            assert np.sqrt(np.mean(features**2)) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_under_seed(self):
        a = build_dataset(self.dims, 4, 3)
        b = build_dataset(self.dims, 4, 3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)


class TestDatasetStream:
    dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(k=st.integers(0, 30), extra=st.integers(1, 30), seed=st.integers(0, 2**32))
    def test_smaller_build_is_a_prefix(self, k, extra, seed):
        small = build_dataset(self.dims, k, seed)
        large = build_dataset(self.dims, k + extra, seed)
        for name in ("features", "targets"):
            assert np.array_equal(getattr(small, name), getattr(large, name)[:k]), name

    def test_channels_are_the_dataset_stream(self):
        data = build_dataset(self.dims, 12, 5)
        assert np.array_equal(data.features, feature_vector(draw_channels(self.dims, 12, 5, DATASET_STREAM)))

    @pytest.mark.parametrize("seed", range(10))
    def test_disjoint_from_the_curve_ensemble(self, seed):
        channels = draw_channels(self.dims, 200, seed, DATASET_STREAM)
        ensemble = draw_ensemble(self.dims, 200, seed, 0).h
        equal = np.all(channels[:, None] == ensemble[None], axis=(2, 3))
        assert not equal.any()


def deficient_draws(bad):
    """draw_channels, except that the stream indices in ``bad`` come back rank 1."""

    def draw(dims, n, seed, stream):
        h = draw_channels(dims, n, seed, stream)
        for i in range(n):
            if i in bad:
                h[i] = np.outer(h[i, :, 0], h[i, 0])
        return h

    return draw


class TestDatasetTargets:
    dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)

    def test_one_batched_gmd_of_the_drawn_channels(self, monkeypatch):
        calls = []

        def counted_gmd(*args, **kwargs):
            calls.append(args[0].shape)
            return gmd(*args, **kwargs)

        monkeypatch.setattr(dnn_module, "gmd", counted_gmd)
        data = build_dataset(self.dims, 12, 31)
        assert calls == [(12, self.dims.nr, self.dims.nt)]
        assert np.array_equal(data.targets, gmd(draw_channels(self.dims, 12, 31, DATASET_STREAM), 2).r1)

    def test_rank_deficient_channel_raises_with_its_stream_index(self, monkeypatch):
        monkeypatch.setattr(dnn_module, "draw_channels", deficient_draws({3, 7}))
        with pytest.raises(RankDeficiencyError, match="matrix 3 of the stack") as info:
            build_dataset(self.dims, 12, 31)
        assert info.value.index == 3


class TestTrain:
    dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)

    def test_zero_learning_rate_constant_history(self):
        data = build_dataset(self.dims, 6, 5)
        net = build_precoder_mlp(self.dims, seed=0)
        _, history = train(net, data, FactorizeConfig(learning_rate=0.0, max_iters=30, tolerance=0.0, batch=2, seed=1))
        assert np.all(history == history[0])

    @pytest.mark.parametrize("batch", [10, 20, 50, 100])
    def test_batch_sizes_accepted(self, batch):
        data = build_dataset(self.dims, 30, 6)
        net = build_precoder_mlp(self.dims, seed=0)
        _, history = train(net, data, FactorizeConfig(learning_rate=0.001, max_iters=6, tolerance=0.0, batch=batch, seed=1))
        assert np.all(np.isfinite(history))

    def test_loss_decreases_on_single_sample(self):
        data = build_dataset(self.dims, 1, 7)
        net = build_precoder_mlp(self.dims, seed=1)
        _, history = train(net, data, FactorizeConfig(learning_rate=0.01, max_iters=400, tolerance=0.0, batch=1, seed=2))
        assert history.min() < 0.5 * history[0]

    def test_history_has_one_entry_per_epoch(self):
        data = build_dataset(self.dims, 8, 8)
        net = build_precoder_mlp(self.dims, seed=0)
        # 8 samples / batch 4 = 2 steps per epoch; 10 steps = 5 epochs
        _, history = train(net, data, FactorizeConfig(learning_rate=0.001, max_iters=10, tolerance=0.0, batch=4, seed=1))
        assert len(history) == 5

    def test_divergence_raises(self):
        # the untrained net's loss is about 1.4; at this learning rate the last epoch ends near 7
        dims = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)
        data = build_dataset(dims, 40, 1)
        cfg = FactorizeConfig(learning_rate=1000.0, max_iters=60, tolerance=0.0, batch=20, seed=1)
        with pytest.raises(FactorizationDivergedError, match=r"training diverged .*learning_rate = 1000\.0"):
            train(build_precoder_mlp(dims, seed=1), data, cfg)

    def test_stop_rule_compares_two_full_windows_of_epochs(self, monkeypatch):
        seen = []
        window_end = dnn_module._window_end

        def recording(prev, cur, tolerance):
            seen.append((float(prev), float(cur)))
            return window_end(prev, cur, tolerance)

        monkeypatch.setattr(dnn_module, "_window_end", recording)
        data = build_dataset(self.dims, 4, 9)
        cfg = FactorizeConfig(learning_rate=0.001, max_iters=2 * STOP_WINDOW, tolerance=0.0, batch=4, seed=1)
        _, history = train(build_precoder_mlp(self.dims, seed=1), data, cfg)
        # one step per epoch: the rule is asked after epochs 50 and 100, and decides
        # only at the second, on the best of epochs 1-50 against the best of 51-100
        assert len(history) == 2 * STOP_WINDOW
        [(first_prev, first_cur), (prev, cur)] = seen
        assert np.isnan(first_prev) and first_cur == np.min(history[:STOP_WINDOW])
        assert prev == np.min(history[:STOP_WINDOW]) and cur == np.min(history[STOP_WINDOW:])

    def test_requires_codec(self):
        net = build_mlp(2 * self.dims.nt * self.dims.nr, [LayerSpec(2, "clamp")], clamp_max=1.0, seed=0)
        data = build_dataset(self.dims, 2, 9)
        with pytest.raises(ValueError, match="the network was built without a precoder codec"):
            train(net, data, FactorizeConfig(max_iters=1))

    def test_empty_dataset_rejected(self):
        net = build_precoder_mlp(self.dims, seed=0)
        with pytest.raises(ValueError, match="dataset has no training samples"):
            train(net, build_dataset(self.dims, 0, 0), FactorizeConfig(max_iters=1))


def windowed_stop(history, epoch, tolerance):
    """The stop rule on the whole per-epoch list: the best loss of the last
    STOP_WINDOW epochs against the best of the window before it."""
    if epoch % STOP_WINDOW != 0 or epoch < 2 * STOP_WINDOW:
        return False
    prev = np.min(history[epoch - 2 * STOP_WINDOW + 1 : epoch - STOP_WINDOW + 1])
    cur = np.min(history[epoch - STOP_WINDOW + 1 : epoch + 1])
    return prev - cur < tolerance * np.maximum(prev, np.finfo(float).tiny)


def reference_train(net, data, cfg):
    """The training loop as first written: batches stacked from the samples at
    every step, an allocating momentum update from zero velocities, and a
    per-epoch evaluation that also ran the backward pass and discarded its
    gradients."""
    codec = net.codec

    def loss_and_grad(batch, rng):
        b = len(batch)
        feats = np.stack([data.features[j] for j in batch])
        targets = np.stack([data.targets[j] for j in batch])
        out, cache = forward(net, feats, rng=rng)
        phases, digital = codec.decode(out)
        analog = np.exp(1j * phases) / np.sqrt(codec.nt)
        err = targets - analog @ digital
        g_digital = -2.0 * (np.conj(np.swapaxes(analog, 1, 2)) @ err)
        g_phases = 2.0 * np.imag(np.conj(err @ np.conj(np.swapaxes(digital, 1, 2))) * analog)
        grad_out = np.concatenate(
            [
                g_phases.reshape(b, -1) * (2.0 * np.pi / codec.ns),
                g_digital.real.reshape(b, -1),
                g_digital.imag.reshape(b, -1),
            ],
            axis=1,
        ) / b
        d_weights, d_biases = backward(net, cache, grad_out)
        return float(np.mean(np.linalg.norm(err, axis=(1, 2)))), d_weights, d_biases

    samples = list(range(len(data)))
    rng = np.random.default_rng(cfg.seed)
    history, steps, epoch = [loss_and_grad(samples, None)[0]], 0, 0
    n_w = len(net.weights)
    velocities = [np.zeros_like(p) for p in net.weights + net.biases]
    while steps < cfg.max_iters:
        epoch += 1
        order = rng.permutation(len(samples))
        for start in range(0, len(order), cfg.batch):
            if steps >= cfg.max_iters:
                break
            batch = [samples[j] for j in order[start : start + cfg.batch]]
            _, d_weights, d_biases = loss_and_grad(batch, rng)
            velocities = [
                cfg.momentum * v - cfg.learning_rate * g
                for v, g in zip(velocities, d_weights + d_biases)
            ]
            params = [p + v for p, v in zip(net.weights + net.biases, velocities)]
            net.weights, net.biases = params[:n_w], params[n_w:]
            steps += 1
        eval_loss, _, _ = loss_and_grad(samples, None)
        history.append(eval_loss)
        if windowed_stop(history, epoch, cfg.tolerance):
            break
    return net, np.asarray(history[1:])


def forward_rng(args, kwargs):
    """The rng a call of forward was given, by position or by name."""
    return inspect.signature(forward).bind(*args, **kwargs).arguments.get("rng")


class TestTrainMatchesReference:
    """train() equals the first-written loop bit for bit: history, weights and biases."""

    dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)

    def assert_same_training(self, data, cfg, noise_sigma):
        net, history = train(build_precoder_mlp(self.dims, seed=2, noise_sigma=noise_sigma), data, cfg)
        ref, ref_history = reference_train(
            build_precoder_mlp(self.dims, seed=2, noise_sigma=noise_sigma), data, cfg
        )
        np.testing.assert_array_equal(history, ref_history)
        for name in ("weights", "biases"):
            for got, want in zip(getattr(net, name), getattr(ref, name)):
                np.testing.assert_array_equal(got, want)
        return history

    def test_early_stop_with_ragged_batches(self):
        # 48 samples in batches of 7: six full batches and one of 6
        data = build_dataset(self.dims, 48, 21)
        cfg = FactorizeConfig(learning_rate=0.1, max_iters=3000, tolerance=1e-2, batch=7, seed=4)
        history = self.assert_same_training(data, cfg, noise_sigma=0.1)
        assert len(history) < 3000 // 7  # the stop rule fired before the step cap

    def test_noise_layer_without_early_stop(self):
        data = build_dataset(self.dims, 30, 22)
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=50, tolerance=0.0, batch=4, seed=5)
        history = self.assert_same_training(data, cfg, noise_sigma=0.3)
        assert len(history) == 7  # 8 steps per epoch, the last epoch cut at step 50

    def test_backward_only_in_sgd_steps(self, monkeypatch):
        events = {}  # thread -> its calls, in order
        for name in ("forward", "backward", "sgd_momentum_step"):
            original = getattr(dnn_module, name)

            def record(*args, _name=name, _original=original, **kwargs):
                noisy = _name == "forward" and forward_rng(args, kwargs) is not None
                events.setdefault(threading.get_ident(), []).append((_name, noisy))
                return _original(*args, **kwargs)

            monkeypatch.setattr(dnn_module, name, record)
        data = build_dataset(self.dims, 10, 23)
        cfg = FactorizeConfig(learning_rate=0.01, max_iters=9, tolerance=0.0, batch=4, seed=6)
        _, history = train(build_precoder_mlp(self.dims, seed=2), data, cfg)
        step = [("forward", True), ("backward", False), ("sgd_momentum_step", False)]
        evaluation = [("forward", False)]  # noise-free, and no backward
        # 3 steps per epoch (4, 4, 2 samples); 9 steps = 3 epochs
        assert len(history) == 3
        main = events.pop(threading.get_ident())
        [helper] = events.values()
        # the untrained net's loss, for the divergence check, then every step on this
        # thread; each epoch's loss on the helper thread
        assert main == evaluation + step * 9
        assert helper == evaluation * 3

    @pytest.fixture
    def slow_evaluations(self, monkeypatch):
        # each evaluation sleeps before it reads the parameters, so the next epoch
        # trains ahead of it, and the threads switch often
        mean_loss = dnn_module._mean_loss

        def slow_mean_loss(*args):
            time.sleep(0.02)
            return mean_loss(*args)

        monkeypatch.setattr(dnn_module, "_mean_loss", slow_mean_loss)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "size, cfg, epochs",
        [
            # one step per epoch; tolerance 1 stops at the first decision, at epoch 100
            (4, FactorizeConfig(learning_rate=0.01, max_iters=1000, tolerance=1.0, batch=4, seed=7), 2 * STOP_WINDOW),
            # 8 steps per epoch, the last epoch cut at step 50
            (30, FactorizeConfig(learning_rate=0.01, max_iters=50, tolerance=0.0, batch=4, seed=5), 7),
        ],
    )
    def test_slow_evaluations_do_not_change_training(self, slow_evaluations, size, cfg, epochs):
        history = self.assert_same_training(build_dataset(self.dims, size, 24), cfg, noise_sigma=0.1)
        assert len(history) == epochs

    @pytest.mark.parametrize("margin, epochs", [(1.0 + 1e-6, 2 * STOP_WINDOW), (1.0 - 1e-6, 3 * STOP_WINDOW)])
    def test_window_end_decides_on_its_own_epochs(self, slow_evaluations, margin, epochs):
        # a tolerance just above or just below the relative improvement of epochs
        # 51-100 on epochs 1-50: the run stops at epoch 100 or goes on to the step cap,
        # so a decision on any other set of losses gets one of the two wrong
        data = build_dataset(self.dims, 4, 24)
        cfg = FactorizeConfig(learning_rate=0.001, max_iters=3 * STOP_WINDOW, tolerance=0.0, batch=4, seed=7)
        _, losses = reference_train(build_precoder_mlp(self.dims, seed=2, noise_sigma=0.1), data, cfg)
        first, second = min(losses[:STOP_WINDOW]), min(losses[STOP_WINDOW : 2 * STOP_WINDOW])
        cfg = replace(cfg, tolerance=margin * (first - second) / first)
        assert len(self.assert_same_training(data, cfg, noise_sigma=0.1)) == epochs


class TestTrainHelperThread:
    """train() leaves no thread behind, on return and on every error."""

    dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)
    cfg = FactorizeConfig(learning_rate=0.01, max_iters=12, tolerance=0.0, batch=4, seed=1)

    def test_returns_without_threads(self):
        before = threading.active_count()
        train(build_precoder_mlp(self.dims, seed=0), build_dataset(self.dims, 8, 3), self.cfg)
        assert threading.active_count() == before

    def test_divergence_leaves_no_threads(self):
        dims = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)
        cfg = FactorizeConfig(learning_rate=1000.0, max_iters=60, tolerance=0.0, batch=20, seed=1)
        before = threading.active_count()
        with pytest.raises(FactorizationDivergedError):
            train(build_precoder_mlp(dims, seed=1), build_dataset(dims, 40, 1), cfg)
        assert threading.active_count() == before

    def test_failed_evaluation_propagates_and_leaves_no_threads(self, monkeypatch):
        error = FloatingPointError("evaluation failed")
        mean_loss = dnn_module._mean_loss

        def failing_on_helper(*args):
            if threading.current_thread() is not threading.main_thread():
                raise error
            return mean_loss(*args)

        monkeypatch.setattr(dnn_module, "_mean_loss", failing_on_helper)
        before = threading.active_count()
        with pytest.raises(FloatingPointError) as info:
            train(build_precoder_mlp(self.dims, seed=0), build_dataset(self.dims, 8, 3), self.cfg)
        assert info.value is error
        assert threading.active_count() == before


class TestCodecAndInference:
    dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)

    def test_codec_round_trip(self):
        codec = PrecoderCodec(nt=8, nt_rf=4, ns=2)
        rng = np.random.default_rng(10)
        o = rng.uniform(0, 2, codec.output_dim)  # in-range box point
        phases, digital = codec.decode(o)
        assert phases.shape == (8, 4) and digital.shape == (4, 2)
        # the inverse map: phases scale back by ns / 2pi, digital parts shift by ns / 2
        shift = codec.ns / 2
        encoded = np.concatenate(
            [phases.reshape(-1) * (codec.ns / (2 * np.pi)), digital.real.reshape(-1) + shift, digital.imag.reshape(-1) + shift]
        )
        np.testing.assert_allclose(encoded, o, atol=1e-12)

    @pytest.mark.parametrize("nt, nt_rf, ns", [(4, 2, 0), (4, 2, 3), (4, 5, 2), (0, 0, 0)])
    def test_codec_dimension_rule(self, nt, nt_rf, ns):
        with pytest.raises(ValueError, match=re.escape(f"codec needs 1 <= ns <= nt_rf <= nt, got nt={nt}, nt_rf={nt_rf}, ns={ns}")):
            PrecoderCodec(nt=nt, nt_rf=nt_rf, ns=ns)

    def test_decode_of_wrong_width_rejected(self):
        codec = PrecoderCodec(nt=8, nt_rf=4, ns=2)
        with pytest.raises(ValueError, match=re.escape("expected output of length 48, got shape (5, 47)")):
            codec.decode(np.zeros((5, 47)))

    def test_infer_requires_codec(self):
        net = build_mlp(2 * self.dims.nt * self.dims.nr, [LayerSpec(48, "clamp")], clamp_max=2.0, seed=0)
        with pytest.raises(ValueError, match="the network was built without a precoder codec"):
            infer_precoders(net, draw_channels(self.dims, 2, 11, DATASET_STREAM))

    def test_infer_constant_modulus_and_power(self):
        net = build_precoder_mlp(self.dims, seed=3)
        h = draw_channels(self.dims, 1, 11, DATASET_STREAM)[0]
        hf = infer_precoders(net, h)
        np.testing.assert_allclose(np.abs(hf.analog), 1 / np.sqrt(8), atol=1e-12)
        assert np.linalg.norm(hf.product) ** 2 <= 2 + 1e-9

    def test_infer_stack_matches_single_channels(self):
        net = build_precoder_mlp(self.dims, seed=3)
        chans = draw_channels(self.dims, 5, 20, DATASET_STREAM)
        stacked = infer_precoders(net, chans)
        for i, h in enumerate(chans):
            # float32 GEMMs round differently at different row counts
            np.testing.assert_allclose(
                stacked.product[i], infer_precoders(net, h).product, rtol=0, atol=16 * np.finfo(np.float32).eps
            )

    def test_infer_single_forward_deterministic(self):
        net = build_precoder_mlp(self.dims, seed=3)
        h = draw_channels(self.dims, 1, 12, DATASET_STREAM)[0]
        a = infer_precoders(net, h)
        b = infer_precoders(net, h)
        assert np.array_equal(a.product, b.product)


def upcast(net):
    """The same network with its weights and biases converted to float64."""
    return replace(net, weights=[w.astype(np.float64) for w in net.weights],
                   biases=[b.astype(np.float64) for b in net.biases])


class TestPrecision:
    """The stock network runs in float32; build_mlp networks and everything around the network in float64."""

    dims = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)

    def stock_architecture_float64(self):
        codec = PrecoderCodec(nt=16, nt_rf=4, ns=2)
        specs = default_architecture(256, codec.output_dim)
        return build_mlp(256, specs, clamp_max=2.0, seed=0, codec=codec)

    @pytest.mark.parametrize("kind, dtype", [("stock", np.float32), ("build_mlp", np.float64)])
    def test_one_training_step_stays_in_the_network_dtype(self, monkeypatch, kind, dtype):
        net = build_precoder_mlp(self.dims, seed=0) if kind == "stock" else self.stock_architecture_float64()
        seen = {}

        def watch(name):
            original = getattr(dnn_module, name)

            def wrapped(*args, **kwargs):
                result = original(*args, **kwargs)
                if name != "forward" or forward_rng(args, kwargs) is not None:  # not a loss-only evaluation
                    seen.setdefault(name, result)  # the first such call is the training step's
                return result

            monkeypatch.setattr(dnn_module, name, wrapped)

        for name in ("forward", "backward", "sgd_momentum_step"):
            watch(name)
        data = build_dataset(self.dims, 20, 1)
        _, history = train(net, data, FactorizeConfig(learning_rate=0.01, max_iters=1, tolerance=0.0, batch=20, seed=1))
        assert history.dtype == np.float64
        out, cache = seen["forward"]
        arrays = {"output": [out], "cache": [a for pair in cache for a in pair]}
        arrays["gradients"] = [g for grads in seen["backward"] for g in grads]
        arrays["parameters"], arrays["velocities"] = seen["sgd_momentum_step"]
        arrays["network"] = net.weights + net.biases
        for name, group in arrays.items():
            assert [a.dtype for a in group] == [dtype] * len(group), name
        assert net.dtype == dtype

    def test_precoder_dtype_is_float32(self):
        net = build_precoder_mlp(self.dims, seed=0)
        assert PRECODER_DTYPE == np.float32 and net.dtype == np.float32
        # the float64 draws of build_mlp, rounded: the initialization stream is unchanged
        ref = self.stock_architecture_float64()
        for got, want in zip(net.weights + net.biases, ref.weights + ref.biases):
            np.testing.assert_array_equal(got, want.astype(np.float32))

    def test_decoded_precoders_are_float64(self):
        net = build_precoder_mlp(self.dims, seed=0)
        hf = infer_precoders(net, draw_channels(self.dims, 3, 2, DATASET_STREAM))
        assert hf.analog.dtype == hf.digital.dtype == np.complex128

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_the_float64_network(self, seed):
        net = build_precoder_mlp(self.dims, seed=seed)
        data = build_dataset(self.dims, 20, 100 + seed)
        loss32 = _mean_loss(net, data.features, data.targets)
        loss64 = _mean_loss(upcast(net), data.features, data.targets)
        dw32, db32 = _gradients(net, data.features, data.targets, np.random.default_rng(seed))
        dw64, db64 = _gradients(upcast(net), data.features, data.targets, np.random.default_rng(seed))
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        for got, want in zip(dw32 + db32, dw64 + db64):
            assert got.dtype == np.float32 and want.dtype == np.float64
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


class TestSerialization:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_keeps_dtype(self, tmp_path, dtype):
        dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)
        net = build_precoder_mlp(dims, seed=4)
        net = upcast(net) if dtype == np.float64 else net
        path = tmp_path / "model.npz"
        save_mlp(net, str(path))
        loaded = load_mlp(str(path))
        assert loaded.dtype == dtype
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            assert b.dtype == dtype and np.array_equal(a, b)
        x = feature_vector(draw_channels(dims, 4, 13, DATASET_STREAM))
        out, _ = forward(loaded, x)
        assert out.dtype == dtype and np.array_equal(out, forward(net, x)[0])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update({f"w{i}": (p[f"w{i}"] * 4).astype(np.int64) for i in range(7)}
                                | {f"b{i}": p[f"b{i}"].astype(np.int64) for i in range(7)}),
             "weight 0 dtype int64 is not float32 or float64"),
            (lambda p: p.update(b3=p["b3"].astype(np.float64)), "bias 3 dtype float64 != weight 0 dtype float32"),
            (lambda p: p.update(w5=p["w5"].astype(np.float16)), "weight 5 dtype float16 != weight 0 dtype float32"),
        ],
        ids=["integer", "mixed", "half"],
    )
    def test_file_with_other_dtypes_refused(self, tmp_path, edit, message):
        net = build_precoder_mlp(SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2), seed=4)
        path = tmp_path / "model.npz"
        save_mlp(net, str(path))
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        edit(payload)
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match=message):
            load_mlp(str(path))

    def test_round_trip_bit_exact(self, tmp_path):
        dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)
        net = build_precoder_mlp(dims, seed=4)
        data = build_dataset(dims, 4, 13)
        net, _ = train(net, data, FactorizeConfig(learning_rate=0.01, max_iters=5, tolerance=0.0, batch=2, seed=5))
        path = tmp_path / "model.npz"
        save_mlp(net, str(path))
        loaded = load_mlp(str(path))
        x = data.features[0]
        out_a, _ = forward(net, x)
        out_b, _ = forward(loaded, x)
        assert np.array_equal(out_a, out_b)
        assert loaded.codec == net.codec
        for w_a, w_b in zip(net.weights, loaded.weights):
            assert np.array_equal(w_a, w_b)
        for b_a, b_b in zip(net.biases, loaded.biases):
            assert np.array_equal(b_a, b_b)
        with np.load(path) as saved:
            assert int(saved["format_version"]) == 2
            assert not [k for k in saved.files if k.startswith(("vw", "vb"))]

    def test_round_trip_without_codec(self, tmp_path):
        net = build_mlp(3, [LayerSpec(4, "relu"), LayerSpec(2, "clamp")], clamp_max=2.0, seed=0)
        path = tmp_path / "model.npz"
        save_mlp(net, str(path))
        loaded = load_mlp(str(path))
        assert loaded.codec is None
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("units", [1, 2])
    def test_file_with_a_wrong_bias_shape_refused(self, tmp_path, units):
        net = build_precoder_mlp(SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2), seed=4)
        path = tmp_path / "model.npz"
        save_mlp(net, str(path))
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["b3"] = payload["b3"][:units]  # one bias would broadcast to all 200 units
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match=re.escape(f"cannot load the model {path}: bias 3 shape ({units},) != (200,)")):
            load_mlp(str(path))

    @pytest.mark.parametrize("key", ["activations", "noise_sigmas"])
    def test_file_with_a_short_layer_array_refused(self, tmp_path, key):
        # a 3-layer file whose array has 2 entries would load as a 2-layer network
        net = build_mlp(3, [LayerSpec(5), LayerSpec(4), LayerSpec(2, "clamp")], clamp_max=2.0, seed=0)
        path = tmp_path / "model.npz"
        save_mlp(net, str(path))
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload[key] = payload[key][:2]
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match=re.escape(f"cannot load the model {path}: zip()")):
            load_mlp(str(path))

    def test_file_whose_codec_breaks_the_dimension_rule_refused(self, tmp_path):
        # codec (4, 2, 0) decodes 8 outputs, as (2, 2, 1) does, but ns = 0 divides by zero in decode
        net = build_mlp(3, [LayerSpec(8, "clamp")], clamp_max=2.0, seed=0, codec=PrecoderCodec(nt=2, nt_rf=2, ns=1))
        path = tmp_path / "model.npz"
        save_mlp(net, str(path))
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["codec_dims"] = np.array([4, 2, 0])
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match=re.escape(f"cannot load the model {path}: codec needs 1 <= ns <= nt_rf <= nt")):
            load_mlp(str(path))

    def test_version_check(self, tmp_path):
        dims = SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2)
        net = build_precoder_mlp(dims, seed=4)
        path = tmp_path / "model.npz"
        save_mlp(net, str(path))
        import numpy as np_mod

        with np_mod.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format_version"] = np_mod.array(99)
        with open(path, "wb") as fh:
            np_mod.savez(fh, **payload)
        with pytest.raises(ValueError):
            load_mlp(str(path))

    def test_version_1_file_refused(self, tmp_path):
        # a version-1 file also held the momentum velocities vw*/vb*
        net = build_precoder_mlp(SystemDims(nt=8, nr=4, nt_rf=4, nr_rf=4, ns=2), seed=4)
        path = tmp_path / "model.npz"
        save_mlp(net, str(path))
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format_version"] = np.array(1)
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            payload[f"vw{i}"], payload[f"vb{i}"] = np.zeros_like(w), np.zeros_like(b)
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ValueError, match="unsupported model format version 1"):
            load_mlp(str(path))
