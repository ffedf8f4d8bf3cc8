"""Saleh-Valenzuela mmWave channels drawn from counter-based Philox blocks.

The channel is a sum of a line-of-sight path and ``p_nlos`` non-line-of-sight
paths, each a rank-1 outer product of receive and transmit ULA responses.
Stream ``s`` of master seed ``seed`` has its own Philox4x64 key, and trial t
reads its own block of counters at offset t times the block size, so a
trial's paths, payload and factorization seed are a pure function of (seed,
stream, t). Streams 0, 1, ... are the SNR grid points of a BER or SE curve;
:data:`DATASET_STREAM` holds every other channel set (MLP training, ``mse``,
``complexity-bench``), so a network never trains on the channels that the
curves at its seed evaluate it on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from hybridprec.precoder import SystemDims

HALF_WAVELENGTH = 0.5  # default antenna spacing over carrier wavelength
NLOS_GAIN_VAR = 0.1  # NLoS path gain variance, 10 dB below the unit-variance LoS path

# A grid point index never gets this large, and its seed-sequence input
# (two 32-bit words, the last nonzero) differs from every grid key's.
DATASET_STREAM = 2**63


def _uniform(words: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from the top 53 bits of raw 64-bit words."""
    return (words >> np.uint64(11)) * 2.0**-53


def _complex_normal(radius_words: np.ndarray, phase_words: np.ndarray) -> np.ndarray:
    """Unit-variance circular complex Gaussians by Box-Muller, one per word pair."""
    return np.sqrt(-np.log(1.0 - _uniform(radius_words))) * np.exp(2j * np.pi * _uniform(phase_words))


def _trial_words(dims: SystemDims, seed: int, stream: int, lo: int, hi: int) -> list[np.ndarray]:
    """Raw 64-bit words of trials lo..hi-1 of one stream, split by field.

    Trial t reads its own block of Philox counters, at offset t times the
    block size, under a key derived from (seed, stream). The block holds per
    path a gain (two words, Box-Muller), an AoD and an AoA; one word per
    payload bit; two words per receive antenna for the noise; and one
    factorization seed. Returns those eight (b, width) fields in that order.
    """
    n_paths = dims.p_nlos + 1
    widths = (n_paths, n_paths, n_paths, n_paths, 2 * dims.ns, dims.nr, dims.nr, 1)
    blocks = -(-sum(widths) // 4)  # Philox4x64 yields four words per counter
    key = np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(2, np.uint64)
    words = np.random.Philox(key=key, counter=lo * blocks).random_raw((hi - lo) * 4 * blocks)
    words = words.reshape(hi - lo, 4 * blocks)[:, : sum(widths)]
    return np.split(words, np.cumsum(widths)[:-1], axis=1)


def sample_path_params(words: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Path gains, AoDs and AoAs, each (b, P), from the path fields of :func:`_trial_words`.

    P = p_nlos + 1 paths, LoS first. Angles are uniform on [-pi/2, pi/2)
    (front half-space only, to avoid the front/back ambiguity of sin). Gains
    are circularly-symmetric complex Gaussian: unit variance for the LoS
    path and ``NLOS_GAIN_VAR`` for the rest, the conventional 10 dB
    line-of-sight dominance.
    """
    gain_r, gain_phase, aod, aoa = words[:4]
    if gain_r.shape[-1] < 1:
        raise ValueError("a channel needs at least its LoS path, got 0 path fields")
    gain_std = np.sqrt(np.r_[1.0, np.full(gain_r.shape[-1] - 1, NLOS_GAIN_VAR)])
    return (
        _complex_normal(gain_r, gain_phase) * gain_std,
        np.pi * (_uniform(aod) - 0.5),
        np.pi * (_uniform(aoa) - 0.5),
    )


def steering_vector(n_antennas: int, angles, spacing_ratio: float = HALF_WAVELENGTH) -> np.ndarray:
    """ULA array responses: element k is exp(-j*2*pi*(d/lambda)*k*sin(angle)) / sqrt(n).

    ``angles`` of shape (...) gives responses of shape (..., n_antennas).
    Each has unit Euclidean norm, and every element has modulus 1/sqrt(n).
    """
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be >= 1, got {n_antennas}")
    if not spacing_ratio > 0:
        raise ValueError(f"spacing_ratio must be positive, got {spacing_ratio}")
    angles = np.asarray(angles, dtype=float)
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    k = np.arange(n_antennas)
    return np.exp(-2j * np.pi * spacing_ratio * np.sin(angles)[..., None] * k) / np.sqrt(n_antennas)


def generate_channel(gains, aod, aoa, nt: int, nr: int, spacing_ratio: float = HALF_WAVELENGTH) -> np.ndarray:
    """H = sqrt(nt*nr/P) * sum_p gain_p * a_r(aoa_p) a_t(aod_p)^H for each row of paths.

    ``gains``, ``aod`` and ``aoa`` share a shape (..., P); the result is
    (..., nr, nt). Pure function of its inputs. Rank is at most P. The scale
    counts every path including the LoS one, which keeps E||H||_F^2 = nt*nr
    under unit-variance gains.
    """
    gains = np.asarray(gains)
    aod = np.asarray(aod, dtype=float)
    aoa = np.asarray(aoa, dtype=float)
    if not gains.shape == aod.shape == aoa.shape:
        raise ValueError(f"gains, aod and aoa shapes differ: {gains.shape}, {aod.shape}, {aoa.shape}")
    if gains.ndim == 0 or gains.shape[-1] < 1:
        raise ValueError(f"paths must be non-empty, got shape {gains.shape}")
    for name, angle in (("aod", aod), ("aoa", aoa)):
        if not np.all(np.abs(angle) <= np.pi / 2):
            raise ValueError(f"{name} must be finite and lie in [-pi/2, pi/2]")
    lead, n_paths = gains.shape[:-1], gains.shape[-1]
    a_t = steering_vector(nt, aod.reshape(-1, n_paths), spacing_ratio)
    a_r = steering_vector(nr, aoa.reshape(-1, n_paths), spacing_ratio)
    h = np.sqrt(nt * nr / n_paths) * np.einsum("bp,bpr,bpt->brt", gains.reshape(-1, n_paths), a_r, a_t.conj())
    return h.reshape(lead + (nr, nt))


def draw_channels(dims: SystemDims, n: int, seed: int, stream: int, start: int = 0) -> np.ndarray:
    """Channels of trials start..start+n-1 of one stream, as an (n, nr, nt) stack.

    Reads the same blocks as a curve's ensemble and ignores their payload
    fields, so channel t is a pure function of (seed, stream, t); use
    ``stream=DATASET_STREAM`` for channels outside the BER/SE curves.
    """
    if min(n, start) < 0:
        raise ValueError(f"n and start must be >= 0, got n={n}, start={start}")
    gains, aod, aoa = sample_path_params(_trial_words(dims, seed, stream, start, start + n))
    return generate_channel(gains, aod, aoa, dims.nt, dims.nr, dims.spacing_ratio)
