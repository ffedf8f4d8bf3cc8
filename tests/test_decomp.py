import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridprec.decomp import RankDeficiencyError, _gmd_rotations, geometric_mean_sigma, gmd, svd


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rank_ns_truncation(m, ns):
    """Independent oracle: best rank-ns approximation straight from numpy's SVD."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u[:, :ns] * s[:ns]) @ vh[:ns]


class TestSvd:
    def test_identity_spectrum(self):
        np.testing.assert_allclose(svd(np.eye(3), 3).sigma, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal_sorted_descending(self):
        np.testing.assert_allclose(svd(np.diag([3.0, 4.0]), 2).sigma, [4.0, 3.0], atol=1e-14)

    def test_reconstruction(self):
        m = random_complex(np.random.default_rng(0), (8, 4))
        f = svd(m, 4)
        assert np.linalg.norm(f.reconstruct() - m) / np.linalg.norm(m) < 1e-10
        # rank ns keeps the leading ns triplets: the best rank-ns approximation
        f2 = svd(m, 2)
        assert f2.u.shape == (8, 2) and f2.sigma.shape == (2,) and f2.v.shape == (4, 2)
        np.testing.assert_allclose(f2.reconstruct(), rank_ns_truncation(m, 2), atol=1e-12)

    def test_semi_unitary_factors(self):
        f = svd(random_complex(np.random.default_rng(1), (6, 9)), 6)
        k = f.sigma.size
        assert np.linalg.norm(f.u.conj().T @ f.u - np.eye(k)) < 1e-10
        assert np.linalg.norm(f.v.conj().T @ f.v - np.eye(k)) < 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]), 1)

    @pytest.mark.parametrize("ns", [0, 3])
    def test_ns_out_of_range_rejected(self, ns):
        with pytest.raises(ValueError, match="ns must be in"):
            svd(np.eye(2), ns)

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match=r"expected a matrix or a stack of matrices, got shape \(3,\)"):
            svd(np.ones(3), 1)


class TestGeometricMeanSigma:
    def test_two_values(self):
        assert geometric_mean_sigma(np.array([4.0, 1.0]), 2) == pytest.approx(2.0)

    def test_equal_values(self):
        assert geometric_mean_sigma(np.array([5.0, 5.0, 5.0]), 3) == pytest.approx(5.0)

    def test_no_underflow_with_tiny_trailing_value(self):
        # log-domain evaluation; the tiny third value is outside the top-2 window
        assert geometric_mean_sigma(np.array([9.0, 4.0, 1e-300]), 2) == pytest.approx(6.0)

    def test_extreme_products_stay_finite(self):
        sigma = np.full(100, 1e-200)
        assert geometric_mean_sigma(sigma, 100) == pytest.approx(1e-200)

    def test_nonpositive_rejected(self):
        with pytest.raises(RankDeficiencyError):
            geometric_mean_sigma(np.array([1.0, 0.0]), 2)

    @pytest.mark.parametrize("ns", [0, 3])
    def test_ns_out_of_range_rejected(self, ns):
        with pytest.raises(ValueError, match=rf"ns must be in \[1, 2\], got {ns}"):
            geometric_mean_sigma(np.array([4.0, 1.0]), ns)


class TestGmd:
    def test_two_by_two_diagonal(self):
        f = gmd(np.diag([4.0, 1.0]).astype(complex), 2)
        np.testing.assert_allclose(np.diag(f.q1), [2.0, 2.0], atol=1e-12)

    def test_semi_unitary_input_gives_identity(self):
        q, _ = np.linalg.qr(random_complex(np.random.default_rng(3), (5, 5)))
        f = gmd(q, 5)
        np.testing.assert_allclose(f.q1, np.eye(5), atol=1e-10)

    def test_rectangular_semi_unitary_input(self):
        # all singular values are 1, so the triangular core is the identity
        q, _ = np.linalg.qr(random_complex(np.random.default_rng(9), (7, 4)))
        f = gmd(q, 4)
        np.testing.assert_allclose(f.q1, np.eye(4), atol=1e-10)
        assert f.sigma_bar == pytest.approx(1.0, rel=1e-12)

    def test_reconstructs_rank_ns_truncation(self):
        m = random_complex(np.random.default_rng(4), (6, 6))
        f = gmd(m, 4)
        target = rank_ns_truncation(m, 4)
        assert np.linalg.norm(f.reconstruct() - target) / np.linalg.norm(target) < 1e-8

    def test_rank_deficiency_raises(self):
        rng = np.random.default_rng(5)
        rank1 = np.outer(random_complex(rng, 4), random_complex(rng, 4))
        with pytest.raises(RankDeficiencyError):
            gmd(rank1, 2)

    def test_invariants_on_random_ensemble(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            nr = int(rng.integers(2, 20))
            nt = int(rng.integers(2, 20))
            ns = int(rng.integers(1, min(nr, nt) + 1))
            m = random_complex(rng, (nr, nt))
            f = gmd(m, ns)
            eye = np.eye(ns)
            assert np.linalg.norm(f.w1.conj().T @ f.w1 - eye) <= 1e-10
            assert np.linalg.norm(f.r1.conj().T @ f.r1 - eye) <= 1e-10
            # strictly upper triangular below the diagonal
            assert np.max(np.abs(np.tril(f.q1, -1))) <= 1e-12 if ns > 1 else True
            diag = np.diag(f.q1)
            assert np.max(np.abs(diag.imag)) <= 1e-12
            assert np.all(diag.real > 0)
            assert np.max(np.abs(diag.real - f.sigma_bar)) <= 1e-8 * f.sigma_bar
            target = rank_ns_truncation(m, ns)
            assert np.linalg.norm(f.reconstruct() - target) <= 1e-8 * np.linalg.norm(target)

    def test_determinant_preserved_on_full_selection(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, (5, 5))
        f = gmd(m, 5)
        sigma = np.linalg.svd(m, compute_uv=False)
        assert np.prod(np.diag(f.q1).real) == pytest.approx(np.prod(sigma), rel=1e-8)

    def test_invariant_under_unitary_factors(self):
        rng = np.random.default_rng(8)
        m = random_complex(rng, (6, 5))
        ul, _ = np.linalg.qr(random_complex(rng, (6, 6)))
        ur, _ = np.linalg.qr(random_complex(rng, (5, 5)))
        f0 = gmd(m, 3)
        f1 = gmd(ul @ m @ ur, 3)
        # the equal-diagonal triangular core depends only on the spectrum
        np.testing.assert_allclose(f1.q1, f0.q1, atol=1e-8)
        assert f1.sigma_bar == pytest.approx(f0.sigma_bar, rel=1e-10)

    def test_stack_equals_single_matrices_bit_for_bit(self):
        rng = np.random.default_rng(10)
        for nr, nt, ns in ((8, 16, 2), (5, 3, 3), (6, 6, 1)):
            ms = random_complex(rng, (40, nr, nt))
            batched = gmd(ms, ns)
            assert batched.sigma_bar.shape == (40,)
            for j, m in enumerate(ms):
                single = gmd(m, ns)
                for name in ("w1", "q1", "r1"):
                    assert np.array_equal(getattr(batched, name)[j], getattr(single, name)), name
                assert batched.sigma_bar[j] == single.sigma_bar
            target = np.stack([rank_ns_truncation(m, ns) for m in ms])
            assert np.linalg.norm(batched.reconstruct() - target) <= 1e-8 * np.linalg.norm(target)

    def test_rank_deficient_member_of_stack_named(self):
        rng = np.random.default_rng(11)
        ms = random_complex(rng, (3, 4, 4))
        ms[1] = np.outer(random_complex(rng, 4), random_complex(rng, 4))
        with pytest.raises(RankDeficiencyError, match="matrix 1 of the stack"):
            gmd(ms, 2)

    def test_ns_out_of_range(self):
        with pytest.raises(ValueError):
            gmd(np.eye(3), 4)


def scalar_rotations(sigma, sigma_bar):
    """Reference: the one-instance rotation loop the batched kernel must reproduce bit for bit."""
    k = sigma.size
    gl = np.eye(k)
    gr = np.eye(k)
    q = np.diag(sigma.astype(float))
    for i in range(k - 1):
        diag = np.diag(q)[i:]
        hi = i + int(np.argmax(diag))
        lo = i + int(np.argmin(diag))
        d_hi, d_lo = q[hi, hi], q[lo, lo]
        if hi == lo or (
            abs(d_hi - sigma_bar) <= 1e-15 * sigma_bar and abs(d_lo - sigma_bar) <= 1e-15 * sigma_bar
        ):
            continue
        perm = list(range(k))
        perm[i], perm[hi] = perm[hi], perm[i]
        lo_pos = perm.index(lo)
        perm[i + 1], perm[lo_pos] = perm[lo_pos], perm[i + 1]
        q = q[perm][:, perm]
        gl = gl[:, perm]
        gr = gr[:, perm]
        d1, d2 = q[i, i], q[i + 1, i + 1]
        if abs(d1 - d2) <= 1e-15 * sigma_bar:
            c, s = 1.0, 0.0
        else:
            c2 = np.clip((sigma_bar**2 - d2**2) / (d1**2 - d2**2), 0.0, 1.0)
            c = np.sqrt(c2)
            s = np.sqrt(1.0 - c2)
        g2 = np.array([[c, -s], [s, c]])
        g1 = np.array([[c * d1, -s * d2], [s * d2, c * d1]]) / sigma_bar
        q[:, i : i + 2] = q[:, i : i + 2] @ g2
        q[i : i + 2, :] = g1.T @ q[i : i + 2, :]
        q[i + 1, i] = 0.0
        q[i, i] = sigma_bar
        gl[:, i : i + 2] = gl[:, i : i + 2] @ g1
        gr[:, i : i + 2] = gr[:, i : i + 2] @ g2
    q[k - 1, k - 1] = sigma_bar
    return gl, q, gr


# descending spectra, ns from 1 to 6; the sampled values make ties and
# all-equal rows common, which take the kernel's skip branches
spectra = st.integers(1, 6).flatmap(
    lambda ns: st.lists(
        st.lists(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(1e-3, 1e3), min_size=ns, max_size=ns),
        min_size=1,
        max_size=5,
    )
)


class TestBatchedRotations:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(spectra)
    def test_invariants_and_batch_of_one(self, rows):
        sigma = -np.sort(-np.array(rows), axis=1)
        ns = sigma.shape[1]
        sigma_bar = geometric_mean_sigma(sigma, ns)
        gl, q, gr = _gmd_rotations(sigma, sigma_bar)
        eye = np.eye(ns)
        for j in range(sigma.shape[0]):
            assert np.linalg.norm(gl[j].T @ gl[j] - eye) <= 1e-12
            assert np.linalg.norm(gr[j].T @ gr[j] - eye) <= 1e-12
            np.testing.assert_allclose(gl[j].T @ np.diag(sigma[j]) @ gr[j], q[j], rtol=0, atol=1e-12 * sigma[j, 0])
            assert np.all(np.tril(q[j], -1) == 0)
            np.testing.assert_allclose(np.diag(q[j]), sigma_bar[j], rtol=1e-12)
            one = _gmd_rotations(sigma[j : j + 1], sigma_bar[j : j + 1])
            ref = scalar_rotations(sigma[j], float(sigma_bar[j]))
            for batched, single, scalar in zip((gl, q, gr), one, ref):
                assert np.array_equal(batched[j], single[0])
                assert np.array_equal(batched[j], scalar)


@st.composite
def gmd_stacks(draw):
    """A (b, nr, nt) stack whose members have ranks between ns and min(nr, nt), plus ns.

    With ``deficient``, member ``index`` and possibly later ones get rank ns - 1.
    """
    nr, nt = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    ns = draw(st.integers(1, min(nr, nt)))
    b = draw(st.integers(1, 5))
    ranks = draw(st.lists(st.integers(ns, min(nr, nt)), min_size=b, max_size=b))
    seed = draw(st.integers(0, 2**32 - 1))
    return nr, nt, ns, ranks, seed


def stack_of_ranks(nr, nt, ranks, seed):
    rng = np.random.default_rng(seed)
    return np.stack([random_complex(rng, (nr, r)) @ random_complex(rng, (r, nt)) for r in ranks])


class TestGmdProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(gmd_stacks())
    def test_invariants_on_random_stacks(self, case):
        nr, nt, ns, ranks, seed = case
        m = stack_of_ranks(nr, nt, ranks, seed)
        f = gmd(m, ns)
        assert f.w1.shape == (len(ranks), nr, ns) and f.r1.shape == (len(ranks), nt, ns)
        eye = np.eye(ns)
        for j in range(len(ranks)):
            assert np.linalg.norm(f.w1[j].conj().T @ f.w1[j] - eye) <= 1e-10
            assert np.linalg.norm(f.r1[j].conj().T @ f.r1[j] - eye) <= 1e-10
            assert np.all(np.tril(f.q1[j], -1) == 0)
            np.testing.assert_allclose(np.diag(f.q1[j]), f.sigma_bar[j], rtol=1e-10, atol=0)
            top = np.linalg.svd(m[j], compute_uv=False)[:ns]
            assert f.sigma_bar[j] == pytest.approx(np.exp(np.mean(np.log(top))), rel=1e-10)
            truncation = rank_ns_truncation(m[j], ns)
            recon = f.w1[j] @ f.q1[j] @ f.r1[j].conj().T
            assert np.linalg.norm(recon - truncation) <= 1e-9 * np.linalg.norm(truncation)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gmd_stacks(), st.data())
    def test_first_deficient_member_is_named(self, case, data):
        nr, nt, ns, ranks, seed = case
        index = data.draw(st.integers(0, len(ranks) - 1))
        later = data.draw(st.sets(st.integers(index, len(ranks) - 1)))
        ranks = [ns - 1 if j == index or j in later else r for j, r in enumerate(ranks)]
        with pytest.raises(RankDeficiencyError) as info:
            gmd(stack_of_ranks(nr, nt, ranks, seed), ns)
        assert info.value.index == index


class TestSvdProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(gmd_stacks())
    def test_stack_equals_per_matrix_calls(self, case):
        nr, nt, ns, ranks, seed = case
        m = stack_of_ranks(nr, nt, ranks, seed)
        f = svd(m, ns)
        assert f.u.shape == (len(ranks), nr, ns) and f.v.shape == (len(ranks), nt, ns)
        for j in range(len(ranks)):
            single = svd(m[j], ns)
            for name in ("u", "sigma", "v"):
                assert np.array_equal(getattr(f, name)[j], getattr(single, name)), name
        np.testing.assert_allclose(
            f.reconstruct(), [rank_ns_truncation(x, ns) for x in m], atol=1e-9 * np.max(np.abs(m))
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gmd_stacks(), st.data())
    def test_first_deficient_member_is_named(self, case, data):
        nr, nt, ns, ranks, seed = case
        index = data.draw(st.integers(0, len(ranks) - 1))
        later = data.draw(st.sets(st.integers(index, len(ranks) - 1)))
        ranks = [ns - 1 if j == index or j in later else r for j, r in enumerate(ranks)]
        m = stack_of_ranks(nr, nt, ranks, seed)
        with pytest.raises(RankDeficiencyError) as info:
            svd(m, ns)
        assert info.value.index == index
        with pytest.raises(RankDeficiencyError) as info:
            svd(m[index], ns)
        assert info.value.index == 0
