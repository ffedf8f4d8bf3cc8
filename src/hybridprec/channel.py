"""Saleh-Valenzuela mmWave channel generation with ULA steering vectors.

The channel is a sum of a line-of-sight path and a few non-line-of-sight
paths, each a rank-1 outer product of receive and transmit array responses.
All randomness comes from an explicit generator, so every draw is
reproducible and safe to run from concurrent trials that own their own
generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HALF_WAVELENGTH = 0.5  # default antenna spacing over carrier wavelength
NLOS_GAIN_VAR = 0.1  # NLoS path gain variance, 10 dB below the unit-variance LoS path


@dataclass(frozen=True)
class PathParams:
    """One propagation path: complex gain plus departure/arrival angles (rad)."""

    gain: complex
    aod: float
    aoa: float

    def __post_init__(self) -> None:
        for name, angle in (("aod", self.aod), ("aoa", self.aoa)):
            if not np.isfinite(angle):
                raise ValueError(f"{name} must be finite, got {angle!r}")
            if not -np.pi / 2 <= angle <= np.pi / 2:
                raise ValueError(f"{name} must lie in [-pi/2, pi/2], got {angle!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """An nr x nt channel matrix together with the paths that produced it."""

    matrix: np.ndarray
    paths: tuple[PathParams, ...]
    nt: int
    nr: int
    spacing_ratio: float = HALF_WAVELENGTH

    def __post_init__(self) -> None:
        if self.matrix.shape != (self.nr, self.nt):
            raise ValueError(f"matrix shape {self.matrix.shape} != (nr, nt) = {(self.nr, self.nt)}")


def steering_vector(n_antennas: int, angle: float, spacing_ratio: float = HALF_WAVELENGTH) -> np.ndarray:
    """ULA array response: element k is exp(-j*2*pi*(d/lambda)*k*sin(angle)) / sqrt(n).

    Unit Euclidean norm by construction; every element has modulus 1/sqrt(n).
    """
    if n_antennas < 1:
        raise ValueError(f"n_antennas must be >= 1, got {n_antennas}")
    if not spacing_ratio > 0:
        raise ValueError(f"spacing_ratio must be positive, got {spacing_ratio}")
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    k = np.arange(n_antennas)
    phase = -2.0 * np.pi * spacing_ratio * k * np.sin(angle)
    return np.exp(1j * phase) / np.sqrt(n_antennas)


def sample_path_params(
    rng: np.random.Generator,
    p_nlos: int,
    nlos_gain_var: float = NLOS_GAIN_VAR,
) -> list[PathParams]:
    """Draw one LoS path plus ``p_nlos`` NLoS paths.

    Angles are uniform on [-pi/2, pi/2] (front half-space only, to avoid the
    front/back ambiguity of sin). Gains are circularly-symmetric complex
    Gaussian: unit variance for the LoS path, ``nlos_gain_var`` for the rest,
    the conventional 10 dB line-of-sight dominance at the default.
    """
    if p_nlos < 0:
        raise ValueError(f"p_nlos must be >= 0, got {p_nlos}")
    paths = []
    for p in range(p_nlos + 1):
        var = 1.0 if p == 0 else nlos_gain_var
        gain = complex(rng.normal(), rng.normal()) * np.sqrt(var / 2.0)
        aod = rng.uniform(-np.pi / 2, np.pi / 2)
        aoa = rng.uniform(-np.pi / 2, np.pi / 2)
        paths.append(PathParams(gain=gain, aod=aod, aoa=aoa))
    return paths


def generate_channel(
    paths: list[PathParams] | tuple[PathParams, ...],
    nt: int,
    nr: int,
    spacing_ratio: float = HALF_WAVELENGTH,
) -> ChannelRealization:
    """Assemble H = sqrt(nt*nr/P_total) * sum_p gain_p * a_r(aoa_p) a_t(aod_p)^H.

    Pure function of its inputs: identical arguments give bit-identical
    matrices. Rank is at most the number of paths. P_total counts every path
    including the LoS one, which keeps E||H||_F^2 = nt*nr under unit-variance
    gains.
    """
    if not paths:
        raise ValueError("paths must be non-empty")
    if nt < 1 or nr < 1:
        raise ValueError(f"antenna counts must be >= 1, got nt={nt}, nr={nr}")
    h = np.zeros((nr, nt), dtype=complex)
    for p in paths:
        a_r = steering_vector(nr, p.aoa, spacing_ratio)
        a_t = steering_vector(nt, p.aod, spacing_ratio)
        h += p.gain * np.outer(a_r, a_t.conj())
    h *= np.sqrt(nt * nr / len(paths))
    return ChannelRealization(matrix=h, paths=tuple(paths), nt=nt, nr=nr, spacing_ratio=spacing_ratio)


def draw_channel(
    rng: np.random.Generator,
    nt: int,
    nr: int,
    p_nlos: int = 3,
    spacing_ratio: float = HALF_WAVELENGTH,
    nlos_gain_var: float = NLOS_GAIN_VAR,
) -> ChannelRealization:
    """Sample path parameters and build the corresponding channel in one call."""
    paths = sample_path_params(rng, p_nlos, nlos_gain_var=nlos_gain_var)
    return generate_channel(paths, nt=nt, nr=nr, spacing_ratio=spacing_ratio)
