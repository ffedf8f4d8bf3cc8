"""Monte-Carlo link-level evaluation: BER, spectral efficiency, MSE convergence.

Transmission follows y = B^H H D s + B^H n with unit-power QPSK streams and
per-receive-antenna noise variance sigma^2 = ns * 10^(-snr_db/10), i.e. SNR
is total transmit power (ns) over per-antenna noise power. Hybrid schemes
all use the GMD combiner W1 at the receiver so the precoder is the only
varying factor. Detection is successive interference cancellation down the
upper triangular effective channel. Every result is a deterministic
function of (configuration, master seed): grid point p reads stream p of
the Philox trial blocks of :mod:`hybridprec.channel`, so trial t's paths,
bits, noise and factorization seed are a pure function of (seed, p, t), and
a shorter run reproduces the first trials of a longer one.

A BER or SE curve draws its ensemble once: the channels, their SVD/GMD and
the factorization seeds come from the (seed, 0) blocks, and every scheme's
precoder and combiner is built once on them. Each SNR point p then reads
only the bits and unit noise of its (seed, p) blocks. All schemes and all
points therefore share one set of channels (common random numbers): each
point keeps its marginal law, so per-point Wilson intervals remain valid,
but the differences between points are correlated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hybridprec.channel import _complex_normal, _trial_words, generate_channel, sample_path_params
from hybridprec.decomp import RankDeficiencyError, gmd, gmd_from_svd, svd
from hybridprec.dnn import Mlp, infer_precoders
from hybridprec.precoder import FactorizeConfig, SystemDims, factorize_sgd_batch, phase_projection_baseline

SCHEME_IDS = (
    "dnn_hybrid",
    "sgd_hybrid",
    "phase_projection",
    "fully_digital_gmd",
    "fully_digital_svd",
)

MSE_METHODS = ("sgd_hybrid", "analog_only")

_QPSK_SCALE = 1.0 / np.sqrt(2.0)

_WILSON_Z = 1.96  # two-sided 95% normal quantile


def validate_schemes(schemes, known: tuple[str, ...]) -> tuple[str, ...]:
    """A non-empty sequence of ids among ``known``, as a tuple; a bare string is rejected."""
    if isinstance(schemes, str):
        raise ValueError(f"schemes must be a sequence of scheme ids, got the string {schemes!r}")
    schemes = tuple(schemes)
    for s in schemes:
        if s not in known:
            raise ValueError(f"unknown scheme {s!r}, expected one of {known}")
    if not schemes:
        raise ValueError("at least one scheme is required")
    return schemes


@dataclass(frozen=True)
class BerCurve:
    """BER point estimates with Wilson 95% half-widths per SNR grid point."""

    scheme: str
    snr_db: np.ndarray
    ber: np.ndarray
    ci_halfwidth: np.ndarray
    errors: np.ndarray


@dataclass(frozen=True)
class SeCurve:
    """Average spectral efficiency (bits/s/Hz) per SNR grid point."""

    scheme: str
    snr_db: np.ndarray
    bits_per_s_hz: np.ndarray


@dataclass(frozen=True)
class MseCurve:
    """Factorization MSE after each iteration, averaged over a channel set."""

    scheme: str
    iteration: np.ndarray
    mse: np.ndarray


def noise_variance_for_snr(snr_db: float, ns: int) -> float:
    """Per-antenna noise variance for an SNR defined as total transmit power ns over noise power."""
    return ns * 10.0 ** (-snr_db / 10.0)


def noise_sigma_for_snr(snr_db: float, ns: int) -> float:
    """Per-antenna noise std, the square root of :func:`noise_variance_for_snr`."""
    return float(np.sqrt(noise_variance_for_snr(snr_db, ns)))


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-energy QPSK: bit pair (b0, b1) -> ((1-2*b0) + j(1-2*b1))/sqrt(2)."""
    bits = np.asarray(bits)
    if bits.shape[-1] % 2 != 0:
        raise ValueError(f"bit count must be even, got {bits.shape[-1]}")
    b0 = bits[..., 0::2]
    b1 = bits[..., 1::2]
    return ((1.0 - 2.0 * b0) + 1j * (1.0 - 2.0 * b1)) * _QPSK_SCALE


def qpsk_demap(symbols: np.ndarray) -> np.ndarray:
    """Nearest-quadrant slicing back to bits; exact inverse of qpsk_map without noise."""
    symbols = np.asarray(symbols)
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.int64)
    bits[..., 0::2] = symbols.real < 0
    bits[..., 1::2] = symbols.imag < 0
    return bits


def qpsk_slice(z: np.ndarray) -> np.ndarray:
    """Nearest QPSK constellation point, elementwise."""
    return (np.where(z.real >= 0, 1.0, -1.0) + 1j * np.where(z.imag >= 0, 1.0, -1.0)) * _QPSK_SCALE


def sic_detect(q1: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Successive interference cancellation down an upper triangular channel.

    Detects the last stream first (its row has a single term), slices it to
    the nearest QPSK point, cancels its contribution from the rows above,
    and proceeds upward. Only the upper triangle of q1 is consulted.
    Observations ``y`` (..., ns) may carry any leading dimensions, and the
    (..., ns, ns) matrices broadcast against them: one matrix for all
    observations, one per observation, or one per trial of a (points,
    trials, ns) stack.
    """
    q1 = np.asarray(q1)
    y = np.asarray(y)
    ns = q1.shape[-1]
    if np.any(np.abs(np.diagonal(q1, axis1=-2, axis2=-1)) == 0):
        raise ValueError("sic_detect requires a nonzero diagonal")
    s_hat = np.empty_like(y)
    for i in range(ns - 1, -1, -1):
        residual = y[..., i].copy()
        for k in range(i + 1, ns):
            residual -= q1[..., i, k] * s_hat[..., k]
        s_hat[..., i] = qpsk_slice(residual / q1[..., i, i])
    return s_hat


@dataclass(frozen=True)
class PointEnsemble:
    """Channels of one grid point and the factors every scheme is built from."""

    h: np.ndarray  # (b, nr, nt) stacked channel matrices
    u: np.ndarray  # (b, nr, ns) leading left singular vectors
    v: np.ndarray  # (b, nt, ns) leading right singular vectors
    w1: np.ndarray  # (b, nr, ns) GMD combiners
    r1: np.ndarray  # (b, nt, ns) GMD precoders
    factor_seeds: np.ndarray  # (b,) uint64 seeds of the factorization starts


def _payload(bits: np.ndarray, noise_r: np.ndarray, noise_phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QPSK bits (top bit of each word) and unit complex noise from their words."""
    return (bits >> np.uint64(63)).astype(np.int64), _complex_normal(noise_r, noise_phase)


def draw_ensemble(dims: SystemDims, trials: int, seed: int, point: int) -> PointEnsemble:
    """Draw ``trials`` channels with their rank-ns SVD and GMD factors, batched.

    The channels are stream ``point`` of the Philox trial blocks, so the
    first trials equal a shorter draw at the same (seed, point). A channel
    of rank below ns raises RankDeficiencyError naming the point and the
    trial. The payload of the blocks is left to :func:`draw_payload`.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    words = _trial_words(dims, seed, point, trials)
    gains, aod, aoa = sample_path_params(words)
    h = generate_channel(gains, aod, aoa, dims.nt, dims.nr, dims.spacing_ratio)
    try:
        f = svd(h, dims.ns)
    except RankDeficiencyError as exc:
        error = RankDeficiencyError(f"rank-deficient channel draw at point {point}, trial {exc.index}")
        error.index = exc.index
        raise error from exc
    g = gmd_from_svd(f)
    return PointEnsemble(h, f.u, f.v, g.w1, g.r1, words[7][:, 0])


def draw_payload(dims: SystemDims, trials: int, seed: int, point: int) -> tuple[np.ndarray, np.ndarray]:
    """Bits (trials, 2 ns) and unit noise (trials, nr) of one grid point.

    Reads the payload fields of the counter blocks that :func:`draw_ensemble`
    reads its channels from, so a shorter draw gives their first rows.
    """
    return _payload(*_trial_words(dims, seed, point, trials)[4:7])


def build_scheme_factors(
    scheme: str,
    ensemble: PointEnsemble,
    dims: SystemDims,
    cfg: FactorizeConfig | None = None,
    net: Mlp | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (precoder, combiner) arrays for one scheme over an ensemble.

    Hybrid schemes share the GMD combiner W1; the fully digital schemes use
    their own decomposition factors. Hybrid precoders are power-normalized
    products R_A R_D. Raises ValueError, naming the scheme and the trial,
    when a precoder exceeds the transmit power budget trace(DD^H) <= ns or
    its power is not finite.
    """
    combiners = ensemble.w1
    if scheme == "fully_digital_gmd":
        precoders = ensemble.r1
    elif scheme == "fully_digital_svd":
        precoders, combiners = ensemble.v, ensemble.u
    elif scheme == "phase_projection":
        precoders = phase_projection_baseline(ensemble.r1).product
    elif scheme == "sgd_hybrid":
        if cfg is None:
            raise ValueError("sgd_hybrid requires a FactorizeConfig")
        factors, _, _ = factorize_sgd_batch(ensemble.r1, dims.nt_rf, cfg, seeds=ensemble.factor_seeds)
        precoders = factors.product
    elif scheme == "dnn_hybrid":
        if net is None:
            raise ValueError("dnn_hybrid requires a trained network")
        precoders = infer_precoders(net, ensemble.h).product
    else:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEME_IDS}")
    power = np.sum(np.abs(precoders) ** 2, axis=(1, 2))
    over = np.flatnonzero(~(power <= dims.ns + 1e-9))  # a NaN power is over too
    if over.size:
        raise ValueError(
            f"{scheme} precoder of trial {over[0]} has power {power[over[0]]:.6f}, over the budget ns={dims.ns}"
        )
    return precoders, combiners


def wilson_halfwidth(errors, n: int):
    """Half-width of the Wilson 95% score interval for a binomial proportion, elementwise over error counts."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = errors / n
    denom = 1.0 + _WILSON_Z**2 / n
    return _WILSON_Z * np.sqrt(p * (1.0 - p) / n + _WILSON_Z**2 / (4.0 * n**2)) / denom


def ber_curve(
    schemes,
    snr_grid_db,
    trials: int,
    dims: SystemDims,
    seed: int,
    cfg: FactorizeConfig | None = None,
    net: Mlp | None = None,
) -> list[BerCurve]:
    """Monte-Carlo BER versus SNR, one curve per scheme of ``schemes``, in order.

    One ensemble of ``trials`` channels (one QPSK symbol vector each) is
    drawn from the (seed, 0) blocks, and each scheme's precoder/combiner is
    built on it once. At SNR point p the bits and unit noise come from the
    (seed, p) blocks; every scheme transmits that payload through the true
    channel and detects by SIC on the effective matrix, of which
    :func:`sic_detect` reads only the upper triangle. Schemes and points
    are thus paired (common random numbers): each point's Wilson interval
    is valid on its own, but differences between points are correlated.
    Each trial reads its own block of Philox counters, so the first
    ``trials`` draws of a longer run coincide with a shorter run at the
    same seed, bit for bit.
    """
    schemes = validate_schemes(schemes, SCHEME_IDS)
    snr_grid_db = np.asarray(snr_grid_db, dtype=float)
    ensemble = draw_ensemble(dims, trials, seed, 0)
    links = []
    for scheme in schemes:
        precoders, combiners = build_scheme_factors(scheme, ensemble, dims, cfg=cfg, net=net)
        comb_h = np.conj(np.swapaxes(combiners, 1, 2))
        links.append((comb_h, comb_h @ ensemble.h @ precoders))
    errors = np.zeros((len(schemes), snr_grid_db.size), dtype=np.int64)
    for point, snr_db in enumerate(snr_grid_db):
        bits, unit_noise = draw_payload(dims, trials, seed, point)
        noise = noise_sigma_for_snr(float(snr_db), dims.ns) * unit_noise
        s = qpsk_map(bits)
        for i, (comb_h, q) in enumerate(links):
            y = (q @ s[..., None])[..., 0] + (comb_h @ noise[..., None])[..., 0]
            errors[i, point] = np.sum(qpsk_demap(sic_detect(q, y)) != bits)
    n_bits = trials * 2 * dims.ns
    return [
        BerCurve(
            scheme=scheme,
            snr_db=snr_grid_db,
            ber=errs / n_bits,
            ci_halfwidth=wilson_halfwidth(errs, n_bits),
            errors=errs,
        )
        for scheme, errs in zip(schemes, errors)
    ]


def spectral_efficiency(
    h: np.ndarray,
    precoder: np.ndarray,
    combiner: np.ndarray,
    snr_db: float | np.ndarray,
) -> float | np.ndarray:
    """Gaussian-signaling rate log2 det(I + Rn^-1 Heff Heff^H), bits/s/Hz.

    Heff = combiner^H H precoder and Rn = sigma^2 combiner^H combiner whiten
    the combined noise; the precoder carries the transmit power (trace
    budget ns), so no extra power factor appears. ``h`` is one channel, or a
    (b, nr, nt) stack of channel matrices with (b, nt, ns) precoders and
    (b, nr, ns) combiners, which gives the b rates as an array. ``snr_db``
    is one SNR or a 1-D grid, which prepends an axis of points to the
    rates; the SNR-independent products Heff, Heff Heff^H and
    combiner^H combiner are formed once for the whole grid.
    """
    comb_h = np.conj(np.swapaxes(combiner, -1, -2))
    heff = comb_h @ np.asarray(h) @ precoder
    gram = heff @ np.conj(np.swapaxes(heff, -1, -2))
    cov = comb_h @ combiner
    ns = precoder.shape[-1]
    snr_db = np.asarray(snr_db, dtype=float)
    sigma2 = np.array([noise_variance_for_snr(float(snr), ns) for snr in snr_db.ravel()])
    rn = sigma2.reshape(snr_db.shape + (1,) * cov.ndim) * cov
    try:
        m = np.linalg.solve(rn, gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError("noise covariance is singular (rank-deficient combiner)") from exc
    if not np.all(np.isfinite(m)):
        raise ValueError("noise covariance is singular (rank-deficient combiner)")
    _, logabsdet = np.linalg.slogdet(np.eye(heff.shape[-2]) + m)
    rates = logabsdet / np.log(2.0)
    return float(rates) if rates.ndim == 0 else rates


def se_curve(
    schemes,
    snr_grid_db,
    n_channels: int,
    dims: SystemDims,
    seed: int,
    cfg: FactorizeConfig | None = None,
    net: Mlp | None = None,
) -> list[SeCurve]:
    """Spectral efficiency versus SNR, one curve per scheme of ``schemes``, in order.

    One ensemble of ``n_channels`` channels is drawn from the (seed, 0)
    blocks, and each scheme's precoder/combiner is built on it once, so all
    schemes and SNR points see identical channels.
    """
    schemes = validate_schemes(schemes, SCHEME_IDS)
    snr_grid_db = np.asarray(snr_grid_db, dtype=float)
    ensemble = draw_ensemble(dims, n_channels, seed, 0)
    curves = []
    for scheme in schemes:
        precoders, combiners = build_scheme_factors(scheme, ensemble, dims, cfg=cfg, net=net)
        rates = spectral_efficiency(ensemble.h, precoders, combiners, snr_grid_db)
        means = [float(np.mean(point_rates)) for point_rates in rates]
        curves.append(SeCurve(scheme=scheme, snr_db=snr_grid_db, bits_per_s_hz=np.asarray(means)))
    return curves


def mse_vs_iterations(
    method: str,
    channels: np.ndarray,
    dims: SystemDims,
    cfg: FactorizeConfig,
) -> MseCurve:
    """Factorization MSE per iteration, averaged over a (b, nr, nt) channel stack.

    ``method`` is "sgd_hybrid" (joint phase/digital updates) or
    "analog_only" (digital part frozen at its initialization, phases only,
    mirroring a pure analog precoding comparator). Iteration 0 is the
    initial-point MSE. Each instance stops on its own trace by the rule of
    :func:`factorize_sgd_batch`, even at ``cfg.tolerance = 0``, where a
    window whose best loss rises above the previous window's still stops
    it. The curve runs to the last instance's stop; an instance that
    stopped earlier enters every later iteration's mean with its final loss.
    """
    validate_schemes((method,), MSE_METHODS)
    targets = gmd(channels, dims.ns).r1
    _, mse, _ = factorize_sgd_batch(targets, dims.nt_rf, cfg, optimize_digital=(method == "sgd_hybrid"))
    return MseCurve(scheme=method, iteration=np.arange(len(mse)), mse=mse)


def iterations_to_plateau(curve: MseCurve, rel: float = 0.05) -> int:
    """Settling iteration: first index within ``rel`` of the floor.

    Measured on the initial-to-floor range (the standard settling-time
    convention), i.e. the first t with
    mse[t] <= floor + rel * (mse[0] - floor), floor being the final value.
    A pure ratio to the floor would be meaningless for runs whose floor
    approaches zero.
    """
    floor = float(curve.mse[-1])
    threshold = floor + rel * (float(curve.mse[0]) - floor)
    hits = np.nonzero(curve.mse <= threshold)[0]
    return int(hits[0])
