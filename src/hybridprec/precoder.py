"""Constant-modulus hybrid factorization and the phase-projection baseline.

The hybrid factorization splits the GMD precoder R1 into an analog part
R_A, whose entries all have modulus 1/sqrt(nt) (phase shifters), and a small
digital part R_D. R_A is parameterized by its phases, so the modulus
constraint holds exactly at every iterate, and both parts are driven by
momentum SGD on the squared Frobenius mismatch: v <- alpha*v - eps*g,
p <- p + v. Gradients are analytic (Wirtinger calculus on the real
parameterization) and are validated against finite differences in the tests.

A phase step v moves each analog entry along the unit circle, multiplying it
by exp(j*v) (the circle-manifold view of Yu, Shen, Zhang and Letaief, IEEE
JSTSP 2016). The batched factorizer therefore rotates R_A in place instead of
recomputing exp(j*phases) every iteration, with exp(j*v) evaluated by float64
Taylor polynomials. An entry whose step exceeds |v| = 0.05 takes the exact
exp(j*phase)/sqrt(nt) instead, decided per element so that no instance
depends on the rest of its batch, and the whole stack is recomputed exactly
every STOP_WINDOW iterations and before returning, so the returned factors
are exact functions of the phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SystemDims:
    """Antenna/RF-chain/stream counts shared by the simulation layers; construction checks every rule on them."""

    nt: int
    nr: int
    nt_rf: int
    nr_rf: int
    ns: int
    p_nlos: int = 3
    spacing_ratio: float = 0.5

    def __post_init__(self) -> None:
        for name in ("nt", "nr", "nt_rf", "nr_rf", "ns"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.ns <= self.nt_rf <= self.nt:
            raise ValueError(
                f"ns <= nt_rf <= nt must hold, got ns={self.ns}, nt_rf={self.nt_rf}, nt={self.nt}"
            )
        if not self.ns <= self.nr_rf <= self.nr:
            raise ValueError(
                f"ns <= nr_rf <= nr must hold, got ns={self.ns}, nr_rf={self.nr_rf}, nr={self.nr}"
            )
        if self.p_nlos < 0:
            raise ValueError(f"p_nlos must be >= 0, got {self.p_nlos}")
        if not self.spacing_ratio > 0:
            raise ValueError(f"spacing_ratio must be > 0, got {self.spacing_ratio}")


@dataclass(frozen=True)
class HybridFactors:
    """Analog (nt x nt_rf, constant modulus 1/sqrt(nt)) and digital (nt_rf x ns) precoders.

    Both may carry the same leading batch dimension, one pair per instance;
    ``factors[i]`` is then instance i's pair, as views of the stacks, so
    stacked factors have a length and iterate instance by instance.
    """

    analog: np.ndarray
    digital: np.ndarray

    @property
    def product(self) -> np.ndarray:
        return self.analog @ self.digital

    def __len__(self) -> int:
        return len(self.analog)

    def __getitem__(self, i) -> HybridFactors:
        return HybridFactors(analog=self.analog[i], digital=self.digital[i])


@dataclass(frozen=True)
class FactorizeConfig:
    """Optimizer settings for the momentum-SGD factorization and DNN training."""

    learning_rate: float = 0.001
    momentum: float = 0.9
    max_iters: int = 45000
    tolerance: float = 1e-7
    batch: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class FactorizationDivergedError(ValueError):
    """Momentum SGD ended above its starting loss, or at a non-finite one."""


# momentum makes single iterations jitter, so convergence is judged between
# consecutive windows of this many iterations rather than between iterations
STOP_WINDOW = 50

# instances per block of the batched factorizer: a block's working arrays
# (about 3.5 KB per instance) stay in a 1-2 MB L2 cache, and the 500-trial
# curves of the benchmark run as one block
_BLOCK = 512


@dataclass(frozen=True)
class FactorizeResult:
    """Factorization output: power-normalized factors plus the loss trajectory.

    ``loss_trace[0]`` is the loss at the initial point; ``loss_trace[k]`` the
    loss after iteration k.
    """

    factors: HybridFactors
    loss_trace: np.ndarray
    converged: bool


def phase_project(target: np.ndarray) -> np.ndarray:
    """Nearest constant-modulus matrix: keep each entry's phase, force modulus 1/sqrt(nt).

    Zero entries map to phase 0. This is the entrywise (hence global)
    minimizer of ||target - X||_F over matrices with |X_ij| = 1/sqrt(nt).
    A (..., nt, ns) stack is projected matrix by matrix.
    """
    return analog_from_phases(np.angle(target))


def analog_from_phases(phases: np.ndarray) -> np.ndarray:
    """The analog precoder (1/sqrt(nt)) * exp(j*phases) of an (..., nt, nt_rf) phase matrix or stack."""
    nt = phases.shape[-2]
    return np.exp(1j * phases) / np.sqrt(nt)


def hybrid_loss(r1: np.ndarray, hf: HybridFactors) -> float:
    """Frobenius-norm mismatch ||R1 - R_A R_D||_F between target and hybrid product."""
    product = hf.product
    if product.shape != r1.shape:
        raise ValueError(f"shape mismatch: target {r1.shape} vs product {product.shape}")
    return float(np.linalg.norm(r1 - product))


def power_normalize(hf: HybridFactors) -> HybridFactors:
    """Scale the digital part down so trace((R_A R_D)(R_A R_D)^H) <= ns.

    Factors already inside the power budget are returned unchanged; the
    analog part is never touched. Stacked factors, (b, nt, nt_rf) analog
    with (b, nt_rf, ns) digital, are normalized instance by instance.
    """
    ns = hf.digital.shape[-1]
    power = np.sum(np.abs(hf.product) ** 2, axis=(-2, -1))
    scale = np.sqrt(ns / np.maximum(power, ns))  # exactly 1 inside the budget
    return HybridFactors(analog=hf.analog, digital=hf.digital * scale[..., None, None])


def phase_projection_baseline(r1: np.ndarray) -> HybridFactors:
    """One-shot baseline: analog = phase projection of R1, digital = matched filter.

    Occupies ns of the available RF chains (the projection has R1's column
    count). The result is power-normalized. A (b, nt, ns) stack of targets
    gives stacked factors, one pair per target.
    """
    analog = phase_project(r1)
    digital = np.conj(np.swapaxes(analog, -1, -2)) @ r1
    return power_normalize(HybridFactors(analog=analog, digital=digital))


def init_factor_params(nt: int, nt_rf: int, ns: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Random factorization start: phases uniform on [0, 2pi), digital CN(0, 1/nt_rf).

    A zero start is a stationary point of the squared loss in the digital
    part with undefined analog phase, so the initial solution is random.
    """
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(nt, nt_rf))
    digital = (rng.standard_normal((nt_rf, ns)) + 1j * rng.standard_normal((nt_rf, ns))) * np.sqrt(
        1.0 / (2.0 * nt_rf)
    )
    return phases, digital


def factorization_gradient(
    r1: np.ndarray, phases: np.ndarray, digital: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of ||R1 - R_A(phases) R_D||_F^2 on the real parameterization.

    Returns (g_phases, g_digital). g_digital packs d/dRe(R_D) + j*d/dIm(R_D),
    so a complex update digital += v applies both real gradients at once.
    """
    analog = analog_from_phases(phases)
    return factorization_gradient_batch(analog, digital, r1 - analog @ digital)


def factorization_gradient_batch(
    analog: np.ndarray, digital: np.ndarray, err: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(g_phases, g_digital) of ||R1 - R_A R_D||_F^2 from the residual err = R1 - R_A R_D.

    Every argument may carry leading batch dimensions, one instance each:
    analog (..., nt, nt_rf), digital (..., nt_rf, ns), err (..., nt, ns).
    This is the one implementation behind :func:`factorization_gradient`,
    :func:`factorize_sgd_batch` and the DNN training gradient.
    """
    g_digital = -2.0 * (np.conj(np.swapaxes(analog, -1, -2)) @ err)
    # conj(err @ D^H) computed as conj(err) @ D^T: conjugation commutes exactly
    # with the products and sums, and one temporary is updated in place
    m = np.conj(err) @ np.swapaxes(digital, -1, -2)
    m *= analog
    return 2.0 * m.imag, g_digital


# exp(j*v) = cos(v) + j*sin(v) by Taylor polynomials in v^2 (degree 8 and 9 in v);
# for |v| <= _ROTATION_BOUND the first dropped terms are below 3e-20
_ROTATION_BOUND = 0.05
_COS_COEFFS = (1.0 / 40320.0, -1.0 / 720.0, 1.0 / 24.0, -0.5)
_SIN_COEFFS = (1.0 / 362880.0, -1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0)


def _horner(v2: np.ndarray, coeffs: tuple) -> np.ndarray:
    """1 + v2*(c_last + v2*(... + v2*c_first)), the coefficients given highest order first."""
    p = coeffs[0] * v2
    for c in coeffs[1:]:
        p += c
        p *= v2
    p += 1.0
    return p


def _rotate_analog(analog: np.ndarray, phases: np.ndarray, step: np.ndarray, root_nt: float) -> None:
    """Multiply ``analog`` in place by exp(j*step), the phases having just moved by ``step``.

    An entry whose |step| exceeds _ROTATION_BOUND takes the exact
    exp(j*phases)/root_nt instead; the choice is made element by element.
    """
    v2 = step * step
    rot = np.empty(step.shape, dtype=complex)
    rot.real = _horner(v2, _COS_COEFFS)
    sin = _horner(v2, _SIN_COEFFS)
    sin *= step
    rot.imag = sin
    analog *= rot
    far = v2 > _ROTATION_BOUND**2
    if far.any():
        analog[far] = np.exp(1j * phases[far]) / root_nt


def _windowed_stop(trace, it: int, tolerance: float):
    """True where the last full window's best loss stopped improving on the previous one's.

    ``trace[k]`` is the loss after step k, or a row of per-instance losses, in
    which case the rule is applied to each column and an array is returned.
    """
    if it % STOP_WINDOW != 0 or it < 2 * STOP_WINDOW:
        return False
    prev = np.min(trace[it - 2 * STOP_WINDOW + 1 : it - STOP_WINDOW + 1], axis=0)
    cur = np.min(trace[it - STOP_WINDOW + 1 : it + 1], axis=0)
    return prev - cur < tolerance * np.maximum(prev, np.finfo(float).tiny)


def factorize_sgd(r1: np.ndarray, nt_rf: int, cfg: FactorizeConfig) -> FactorizeResult:
    """Factor R1 into constant-modulus analog and digital parts by momentum SGD.

    A batch of one of :func:`factorize_sgd_batch`, seeded by ``cfg.seed``, so
    the trace, the factors and ``converged`` are bit-equal to that instance's
    in any batch. ``converged`` is False when the run hit ``cfg.max_iters``
    without the stop rule firing.
    """
    factors, trace, converged = factorize_sgd_batch(np.asarray(r1)[None], nt_rf, cfg, seeds=[cfg.seed])
    return FactorizeResult(factors=factors[0], loss_trace=trace[:, 0], converged=bool(converged[0]))


def factorize_sgd_batch(
    r1_stack: np.ndarray,
    nt_rf: int,
    cfg: FactorizeConfig,
    seeds: np.ndarray | None = None,
    optimize_digital: bool = True,
) -> tuple[HybridFactors, np.ndarray, np.ndarray]:
    """Factor a stack of targets (b x nt x ns) in lockstep, vectorized over the batch.

    The squared loss is optimized for smooth gradients; the trace reports
    the root (the Frobenius mismatch itself). An instance stops when the
    relative improvement of its windowed-minimum loss between consecutive
    STOP_WINDOW-iteration windows drops below ``cfg.tolerance``, or after
    ``cfg.max_iters`` steps. It then leaves the working arrays, so the cost
    of an iteration falls as instances finish, and no instance's result
    depends on its batch. The batch runs in blocks of _BLOCK instances, each
    block through all of its iterations so that its working arrays stay in
    cache, and each block writes into the one set of outputs allocated here.
    The loss matrix reserves (max_iters + 1) x b x 8 bytes of address space
    (96 MB at 20k instances x 600 iterations), takes memory only for the rows
    run, and is shrunk in place to the longest run. The analog stack is
    rotated in place by exp(j*step) between exact recomputations (module
    docstring), which keeps the losses within about 1e-13 relative of an
    exact-exp loop.
    ``seeds[i]`` seeds instance i (default: cfg.seed + i); a ``seeds`` whose
    length is not b raises ValueError. With ``optimize_digital=False`` only
    the phases move, which is the analog-only comparator of the convergence
    experiments.

    Returns the power-normalized factors as one stacked :class:`HybridFactors`
    (one batched normalization; ``factors[i]`` is instance i), the loss
    matrix (longest run + 1) x b, whose column i repeats instance i's final
    loss after its stop, and the per-instance ``converged`` flags (b,), True
    where the stop rule fired before or at ``cfg.max_iters``. Raises
    :class:`FactorizationDivergedError` when any instance ends with a
    non-finite loss or above its starting loss (a learning rate too large
    for the target), so a diverged run never turns into a BER figure.
    """
    r1_stack = np.asarray(r1_stack, dtype=complex)
    b, nt, ns = r1_stack.shape
    if not ns <= nt_rf <= nt:
        raise ValueError(f"ns <= nt_rf <= nt must hold, got ns={ns}, nt_rf={nt_rf}, nt={nt}")
    if seeds is None:
        seeds = cfg.seed + np.arange(b)
    elif len(seeds) != b:
        raise ValueError(f"got {len(seeds)} seeds for {b} instances")
    analog = np.empty((b, nt, nt_rf), dtype=complex)
    digital = np.empty((b, nt_rf, ns), dtype=complex)
    converged = np.zeros(b, dtype=bool)
    trace = np.empty((cfg.max_iters + 1, b))
    blocks = [slice(lo, lo + _BLOCK) for lo in range(0, max(b, 1), _BLOCK)]  # an empty stack is one empty block
    stops = [
        _momentum_sgd(
            r1_stack[blk], nt_rf, cfg, seeds[blk], optimize_digital,
            analog[blk], digital[blk], trace[:, blk], converged[blk],
        )
        for blk in blocks
    ]
    longest = max(stops)
    for blk, stop in zip(blocks, stops):  # a stopped column repeats its final loss
        trace[stop + 1 : longest + 1, blk] = trace[stop, blk]
    trace.resize((longest + 1, b))  # hands the unrun rows back; raises if a view of them is still alive
    check_divergence("factorization", trace[0], trace[-1], cfg.learning_rate)
    return power_normalize(HybridFactors(analog=analog, digital=digital)), trace, converged


def check_divergence(what: str, start, final, learning_rate: float) -> None:
    """Raise :class:`FactorizationDivergedError` naming ``what`` where a final loss (one, or one per instance) is non-finite or above its start."""
    start, final = np.atleast_1d(start), np.atleast_1d(final)
    diverged = ~np.isfinite(final) | (final > start)
    if diverged.any():
        raise FactorizationDivergedError(
            f"{what} diverged in {int(diverged.sum())} of {len(final)} instances: worst final loss "
            f"{np.max(final[diverged]):.3e} (learning_rate = {learning_rate})"
        )


def sgd_momentum_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    velocities: list[np.ndarray],
    alpha: float,
    epsilon: float,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Momentum update on every parameter array: v <- alpha*v - epsilon*g; p <- p + v.

    The parameter and velocity arrays are updated in place, bit for bit equal
    to the allocating form; the gradient arrays are left untouched. Returns
    the same two lists, ``(params, velocities)``.
    """
    for p, g, v in zip(params, grads, velocities):
        v *= alpha
        v -= epsilon * g
        p += v
    return params, velocities


def _momentum_sgd(
    r1_stack: np.ndarray, nt_rf: int, cfg: FactorizeConfig, seeds, optimize_digital: bool,
    out_analog: np.ndarray, out_digital: np.ndarray, trace: np.ndarray, converged: np.ndarray,
) -> int:
    """One block of :func:`factorize_sgd_batch` into the caller's slices (raw factors; ``converged`` given False); returns its last iteration."""
    b, nt, ns = r1_stack.shape
    phases = np.empty((b, nt, nt_rf))
    digital = np.empty((b, nt_rf, ns), dtype=complex)
    for i, seed in enumerate(seeds):
        phases[i], digital[i] = init_factor_params(nt, nt_rf, ns, seed)
    v_phases = np.zeros_like(phases)
    v_digital = np.zeros_like(digital)
    root_nt = np.sqrt(nt)
    moving = 2 if optimize_digital else 1  # phases, then digital
    # the working arrays hold the running instances, rows, in instance order
    rows = np.arange(b)

    analog = analog_from_phases(phases)
    err = r1_stack - analog @ digital
    trace[0] = np.linalg.norm(err, axis=(1, 2))
    it = 0
    # a diverging run overflows the rotation polynomials; the check after the
    # loop reports it, so the loop does not also warn
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iters + 1):
            g_phases, g_digital = factorization_gradient_batch(analog, digital, err)
            sgd_momentum_step(
                [phases, digital][:moving], [g_phases, g_digital][:moving], [v_phases, v_digital][:moving],
                alpha=cfg.momentum, epsilon=cfg.learning_rate,
            )
            if it % STOP_WINDOW == 0 or it == cfg.max_iters:
                analog = analog_from_phases(phases)
            else:
                _rotate_analog(analog, phases, v_phases, root_nt)
            err = r1_stack - analog @ digital
            trace[it] = trace[it - 1]  # a stopped instance repeats its final loss
            trace[it, rows] = np.linalg.norm(err, axis=(1, 2))
            # the rule fires only at window ends, where the analog stack is exact
            if it % STOP_WINDOW != 0:
                continue
            # the rule gives a plain False before the second window
            stop = np.broadcast_to(_windowed_stop(trace, it, cfg.tolerance), b)[rows]
            if not stop.any():
                continue
            done = rows[stop]
            out_analog[done], out_digital[done], converged[done] = analog[stop], digital[stop], True
            rows, r1_stack, phases, digital, v_phases, v_digital, analog, err = (
                x[~stop] for x in (rows, r1_stack, phases, digital, v_phases, v_digital, analog, err)
            )
            if not len(rows):
                break
    out_analog[rows], out_digital[rows] = analog, digital
    return it
