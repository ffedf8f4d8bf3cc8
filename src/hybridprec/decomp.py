"""Complex SVD and geometric mean decomposition (GMD).

The GMD factors a matrix as W1 * Q1 * R1^H where W1 and R1 have orthonormal
columns and Q1 is upper triangular with every diagonal entry equal to the
geometric mean of the retained singular values. It is built from the SVD by
repeatedly pairing a diagonal entry above the geometric mean with one below
and applying a 2x2 rotation pair that pins the leading entry exactly, so the
equal-diagonal property holds by construction at O(ns^2) cost after the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RankDeficiencyError(ValueError):
    """The input does not have enough strictly positive singular values.

    When :func:`svd` raises it, ``index`` is the position of the first
    deficient matrix in the stack (0 for a single matrix).
    """

    index: int | None = None


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD factors, u @ diag(sigma) @ v^H, sigma sorted descending.

    Factors of a (b, nr, nt) stack carry a leading batch axis.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma[..., None, :]) @ self.v.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class GmdFactors:
    """Rank-ns GMD: w1 (nr x ns), q1 (ns x ns upper triangular), r1 (nt x ns).

    Factors of a (b, nr, nt) stack carry a leading batch axis, and sigma_bar
    is then a (b,) array.
    """

    w1: np.ndarray
    q1: np.ndarray
    r1: np.ndarray
    sigma_bar: float | np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.w1 @ self.q1 @ self.r1.conj().swapaxes(-1, -2)


def svd(m: np.ndarray, ns: int) -> SvdFactors:
    """Rank-ns thin SVD of a matrix, or of a (b, nr, nt) stack, with descending singular values.

    Only the ns leading singular triplets are returned: u (..., nr, ns),
    sigma (..., ns) and v (..., nt, ns). Raises RankDeficiencyError when
    sigma_ns is numerically zero relative to sigma_1, naming the first such
    matrix of a stack in its ``index``. A single matrix is a batch of one.
    """
    m = np.asarray(m)
    if m.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if ns < 1 or ns > min(m.shape[-2:]):
        raise ValueError(f"ns must be in [1, {min(m.shape[-2:])}], got {ns}")
    stack = m if m.ndim == 3 else m[None]
    u, sigma, vh = np.linalg.svd(stack, full_matrices=False)
    deficient = np.flatnonzero(sigma[:, ns - 1] <= 1e-12 * sigma[:, 0])
    if deficient.size:
        j = deficient[0]
        where = f" (matrix {j} of the stack)" if m.ndim == 3 else ""
        error = RankDeficiencyError(
            f"rank below ns={ns}{where}: sigma_ns={sigma[j, ns - 1]:.3e} vs sigma_1={sigma[j, 0]:.3e}"
        )
        error.index = int(j)
        raise error
    # compact copies, so that the discarded columns are freed
    u, sigma, v = u[:, :, :ns].copy(), sigma[:, :ns].copy(), np.conj(np.swapaxes(vh[:, :ns], 1, 2))
    if m.ndim == 2:
        return SvdFactors(u=u[0], sigma=sigma[0], v=v[0])
    return SvdFactors(u=u, sigma=sigma, v=v)


def geometric_mean_sigma(sigma: np.ndarray, ns: int) -> float | np.ndarray:
    """Geometric mean of the ns largest values, computed in the log domain.

    Log-domain evaluation keeps products of very small or very large
    singular values from underflowing or overflowing. A (b, k) stack of
    spectra gives the b means as an array.
    """
    sigma = np.asarray(sigma, dtype=float)
    if ns < 1 or ns > sigma.shape[-1]:
        raise ValueError(f"ns must be in [1, {sigma.shape[-1]}], got {ns}")
    top = sigma[..., :ns]
    if np.any(top <= 0):
        raise RankDeficiencyError(f"top {ns} singular values must be positive, got {top}")
    means = np.exp(np.mean(np.log(top), axis=-1))
    return float(means) if sigma.ndim == 1 else means


def _gmd_rotations(sigma: np.ndarray, sigma_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotate each diag(sigma[j]) into an upper triangular matrix with constant diagonal.

    ``sigma`` is a (b, k) stack of spectra and ``sigma_bar`` their (b,)
    geometric means. Returns (gl, q, gr), each (b, k, k), with
    gl[j]^T @ diag(sigma[j]) @ gr[j] = q[j], gl and gr real orthogonal. At
    each step a symmetric permutation brings one entry >= sigma_bar and one
    <= sigma_bar to the pivot pair; the 2x2 rotation then fixes the leading
    entry to sigma_bar while preserving the determinant, so the trailing
    entries keep geometric mean sigma_bar. Instances whose remaining entries
    already equal the mean skip the step. The 2x2 updates are stacked
    matmuls, which run the same BLAS kernel per instance as a single
    matrix would, so an instance's result does not depend on its batch.
    """
    b, k = sigma.shape
    idx = np.arange(k)
    gl = np.zeros((b, k, k))
    gl[:, idx, idx] = 1.0
    gr = gl.copy()
    q = np.zeros((b, k, k))
    q[:, idx, idx] = sigma
    for i in range(k - 1):
        diag = q[:, idx[i:], idx[i:]]
        hi = i + np.argmax(diag, axis=1)
        lo = i + np.argmin(diag, axis=1)
        d_hi, d_lo = np.max(diag, axis=1), np.min(diag, axis=1)
        settled = (np.abs(d_hi - sigma_bar) <= 1e-15 * sigma_bar) & (np.abs(d_lo - sigma_bar) <= 1e-15 * sigma_bar)
        act = np.flatnonzero((hi != lo) & ~settled)
        if act.size == 0:
            continue  # everything left already equals the mean
        hi, lo, sb = hi[act], lo[act], sigma_bar[act]
        # symmetric permutation: entry >= sigma_bar to slot i, entry <= to slot i+1
        perm = _swap_positions(k, i, hi, i + 1, lo)
        inst = act[:, None, None]
        qa = q[inst, perm[:, :, None], perm[:, None, :]]
        gla = gl[inst, idx[:, None], perm[:, None, :]]
        gra = gr[inst, idx[:, None], perm[:, None, :]]
        d1, d2 = qa[:, i, i], qa[:, i + 1, i + 1]
        equal = np.abs(d1 - d2) <= 1e-15 * sb
        with np.errstate(divide="ignore", invalid="ignore"):
            # rounding can push d2 a hair past sigma_bar; keep c^2 in [0, 1]
            c2 = np.clip((_squared(sb) - _squared(d2)) / (_squared(d1) - _squared(d2)), 0.0, 1.0)
        c = np.where(equal, 1.0, np.sqrt(c2))
        s = np.where(equal, 0.0, np.sqrt(1.0 - c2))
        g2 = _stack_2x2(c, -s, s, c)
        g1 = _stack_2x2(c * d1, -s * d2, s * d2, c * d1) / sb[:, None, None]
        qa[:, :, i : i + 2] = qa[:, :, i : i + 2] @ g2
        qa[:, i : i + 2, :] = np.swapaxes(g1, 1, 2) @ qa[:, i : i + 2, :]
        qa[:, i + 1, i] = 0.0  # exact zero by construction
        qa[:, i, i] = sb
        gla[:, :, i : i + 2] = gla[:, :, i : i + 2] @ g1
        gra[:, :, i : i + 2] = gra[:, :, i : i + 2] @ g2
        q[act], gl[act], gr[act] = qa, gla, gra
    q[:, k - 1, k - 1] = sigma_bar
    return gl, q, gr


def _stack_2x2(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Stacked 2x2 matrices [[a, b], [c, d]], C-contiguous so matmul takes its BLAS path."""
    out = np.empty(a.shape + (2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, d
    return out


def _squared(x: np.ndarray) -> np.ndarray:
    """Elementwise x**2 rounded as Python floats round it (C ``pow``).

    numpy's vectorized square differs from ``pow`` in the last bit for about
    one input in a thousand; going through ``pow`` keeps every batched
    rotation bit-identical to the scalar one that tests/test_decomp.py
    keeps as its reference.
    """
    return np.array([v**2 for v in x.tolist()])


def _swap_positions(k: int, i: int, hi: np.ndarray, j: int, lo: np.ndarray) -> np.ndarray:
    """Per-instance permutations of range(k) placing hi at slot i and lo at slot j."""
    rows = np.arange(hi.size)
    perm = np.broadcast_to(np.arange(k), (hi.size, k)).copy()
    perm[rows, hi], perm[rows, i] = i, hi
    # the first swap moved lo when lo was at slot i
    lo_pos = np.where(lo == i, hi, lo)
    perm[rows, j], perm[rows, lo_pos] = perm[rows, lo_pos], perm[rows, j]
    return perm


def gmd(m: np.ndarray, ns: int) -> GmdFactors:
    """Geometric mean decomposition of the best rank-ns part of m.

    w1 @ q1 @ r1^H equals the rank-ns SVD truncation of m; the diagonal of q1
    is real, positive, and constant at the geometric mean of the ns largest
    singular values. ``m`` may be a (b, nr, nt) stack: one batched
    :func:`svd`, whose rank rule raises RankDeficiencyError, then the
    rotations of all b matrices at once.
    """
    return gmd_from_svd(svd(m, ns))


def gmd_from_svd(f: SvdFactors) -> GmdFactors:
    """GMD factors from the rank-ns thin SVD of one matrix or of a stack.

    ``f`` is what :func:`svd` returns, so its ns singular values are
    positive; a single matrix is a batch of one.
    """
    if f.sigma.ndim == 1:
        g = gmd_from_svd(SvdFactors(u=f.u[None], sigma=f.sigma[None], v=f.v[None]))
        return GmdFactors(w1=g.w1[0], q1=g.q1[0], r1=g.r1[0], sigma_bar=float(g.sigma_bar[0]))
    sigma_bar = geometric_mean_sigma(f.sigma, f.sigma.shape[-1])
    gl, q1, gr = _gmd_rotations(f.sigma, sigma_bar)
    return GmdFactors(w1=f.u @ gl, q1=q1.astype(complex), r1=f.v @ gr, sigma_bar=sigma_bar)
