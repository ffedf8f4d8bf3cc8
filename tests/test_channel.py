import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridprec.channel import (
    DATASET_STREAM,
    _trial_words,
    draw_channels,
    generate_channel,
    sample_path_params,
    steering_vector,
)
from hybridprec.precoder import SystemDims
from hybridprec.simulate import draw_ensemble

DIMS = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2)


def path_words(p_nlos, n=5, seed=0):
    """The path fields of n trial blocks of the dataset stream."""
    dims = SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=1, p_nlos=p_nlos)
    return _trial_words(dims, seed, DATASET_STREAM, n)[:4]


class TestSteeringVector:
    def test_broadside_is_uniform(self):
        # sin(0) = 0 makes every phase zero
        np.testing.assert_allclose(steering_vector(4, 0.0, 0.5), np.full(4, 0.5), atol=1e-15)

    def test_endfire_two_element(self):
        # direct evaluation: exp(-j*pi) = -1 at half-wavelength spacing
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(steering_vector(2, np.pi / 2, 0.5), expected, atol=1e-12)

    @pytest.mark.parametrize("n,angle,spacing", [(1, 0.3, 0.5), (7, -1.1, 0.25), (64, 0.9, 0.5)])
    def test_unit_norm_and_constant_modulus(self, n, angle, spacing):
        v = steering_vector(n, angle, spacing)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        np.testing.assert_allclose(np.abs(v), 1.0 / np.sqrt(n), atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            steering_vector(0, 0.0, 0.5)
        with pytest.raises(ValueError):
            steering_vector(4, np.nan, 0.5)
        with pytest.raises(ValueError):
            steering_vector(4, 0.0, 0.0)
        with pytest.raises(ValueError):
            steering_vector(4, 0.0, -0.5)

    def test_stack_of_angles_matches_single_calls(self):
        angles = np.array([[0.3, -1.1], [0.9, 0.0]])
        stacked = steering_vector(5, angles, 0.5)
        assert stacked.shape == (2, 2, 5)
        for idx in np.ndindex(angles.shape):
            np.testing.assert_array_equal(stacked[idx], steering_vector(5, angles[idx], 0.5))


class TestSamplePathParams:
    def test_length_is_nlos_plus_one(self):
        for a in sample_path_params(path_words(3)):
            assert a.shape == (5, 4)

    def test_degenerate_los_only(self):
        for a in sample_path_params(path_words(0)):
            assert a.shape == (5, 1)

    def test_same_seed_identical(self):
        a = sample_path_params(path_words(3, seed=123))
        b = sample_path_params(path_words(3, seed=123))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_angles_in_front_halfspace(self):
        _, aod, aoa = sample_path_params(path_words(4, n=50, seed=5))
        for angles in (aod, aoa):
            assert np.all(-np.pi / 2 <= angles) and np.all(angles <= np.pi / 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=1, p_nlos=-1)
        with pytest.raises(ValueError):
            sample_path_params([np.empty((5, 0), dtype=np.uint64)] * 4)


class TestGenerateChannel:
    def test_single_unit_path_broadside(self):
        # hand evaluation: scale 2 times (1/2) * ones gives the all-ones matrix
        h = generate_channel([1.0 + 0j], [0.0], [0.0], nt=2, nr=2)
        np.testing.assert_allclose(h, np.ones((2, 2)), atol=1e-14)
        assert abs(np.linalg.norm(h) - 2.0) <= 1e-12

    def test_rank_bounded_by_path_count(self):
        gains, aod, aoa = sample_path_params(path_words(3, n=20, seed=2))
        h = generate_channel(gains, aod, aoa, nt=16, nr=8)
        s = np.linalg.svd(h, compute_uv=False)
        assert np.all(np.sum(s > 1e-9 * s[:, :1], axis=1) <= gains.shape[1])

    def test_pure_function_bit_identical(self):
        gains, aod, aoa = sample_path_params(path_words(2, seed=9))
        a = generate_channel(gains, aod, aoa, nt=8, nr=4)
        b = generate_channel(gains, aod, aoa, nt=8, nr=4)
        assert np.array_equal(a, b)
        for i in range(len(gains)):
            assert np.array_equal(generate_channel(gains[i], aod[i], aoa[i], nt=8, nr=4), a[i])

    def test_mean_frobenius_energy_matches_antenna_product(self):
        # LoS-only draws have unit-variance gains, so E||H||_F^2 = nt * nr
        nt, nr = 8, 4
        h = generate_channel(*sample_path_params(path_words(0, n=10_000, seed=7)), nt=nt, nr=nr)
        energies = np.linalg.norm(h, axis=(1, 2)) ** 2
        assert abs(np.mean(energies) - nt * nr) <= 0.05 * nt * nr

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            generate_channel([1.0], [0.1], [0.2], nt=0, nr=2)
        with pytest.raises(ValueError):
            generate_channel([], [], [], nt=2, nr=2)
        with pytest.raises(ValueError):
            generate_channel([1.0, 0.5], [0.1], [0.2], nt=2, nr=2)
        with pytest.raises(ValueError):
            generate_channel([1.0], [0.1], [0.2], nt=2, nr=2, spacing_ratio=0.0)

    def test_orientation_is_receive_by_transmit(self):
        dims = SystemDims(nt=6, nr=3, nt_rf=3, nr_rf=3, ns=1)
        assert draw_channels(dims, 2, 0, DATASET_STREAM).shape == (2, 3, 6)
        assert generate_channel([1.0], [0.1], [0.2], nt=6, nr=3).shape == (3, 6)


class TestPathParams:
    def test_angle_bounds_enforced(self):
        with pytest.raises(ValueError):
            generate_channel([1.0], [2.0], [0.0], nt=2, nr=2)
        with pytest.raises(ValueError):
            generate_channel([1.0], [0.0], [np.inf], nt=2, nr=2)
        with pytest.raises(ValueError):
            generate_channel([1.0], [np.nan], [0.0], nt=2, nr=2)


class TestDrawChannels:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(0, 30),
        extra=st.integers(0, 20),
        seed=st.integers(0, 2**32),
        stream=st.sampled_from([0, 3, DATASET_STREAM]),
    )
    def test_range_equals_slice_of_longer_draw(self, n, extra, seed, stream):
        # a draw of n trials is the first n trials of any longer draw
        part = draw_channels(DIMS, n, seed, stream)
        full = draw_channels(DIMS, n + extra, seed, stream)
        assert part.shape == (n, DIMS.nr, DIMS.nt)
        assert np.array_equal(part, full[:n])

    def test_grid_stream_is_the_curve_ensemble(self):
        # a curve's point-p channels are stream p of the same blocks
        for point in (0, 2):
            ens = draw_ensemble(DIMS, 40, seed=5, point=point)
            assert np.array_equal(draw_channels(DIMS, 40, 5, point), ens.h)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            draw_channels(DIMS, -1, 0, DATASET_STREAM)
