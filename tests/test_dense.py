import numpy as np
import pytest

from h2mul import (InvalidInputError, full_householder_qr, spectral_norm,
                   truncated_svd)
from h2mul.dense import (full_householder_qrs, qr_r, qr_rs, spectral_norms,
                         truncated_svds)


def gram_schmidt(a):
    """Naive modified Gram-Schmidt oracle."""
    a = a.copy()
    m, n = a.shape
    q = np.zeros((m, n))
    r = np.zeros((n, n))
    for j in range(n):
        v = a[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i] @ v
            v -= r[i, j] * q[:, i]
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j] if r[j, j] > 0 else v
    return q, r


def jacobi_singular_values(a, sweeps=60):
    """One-sided Jacobi SVD oracle: returns singular values, descending."""
    u = a.copy().astype(float)
    n = u.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = u[:, p] @ u[:, q]
                app = u[:, p] @ u[:, p]
                aqq = u[:, q] @ u[:, q]
                off = max(off, abs(apq))
                if abs(apq) < 1e-15 * np.sqrt(app * aqq + 1e-300):
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                up = u[:, p].copy()
                u[:, p] = c * up - s * u[:, q]
                u[:, q] = s * up + c * u[:, q]
        if off < 1e-15:
            break
    return np.sort(np.linalg.norm(u, axis=0))[::-1]


def power_iteration_norm(a, steps=200, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(steps):
        w = a @ v
        s = np.linalg.norm(w)
        v = a.T @ w
        v /= np.linalg.norm(v)
    return s


class TestThinQR:
    """Householder QR as the algorithms use it: the R factor of the thin
    factorization (qr_r) and the complete factorization."""

    def test_identity(self):
        r = qr_r(np.eye(3))
        assert np.allclose(np.abs(r), np.eye(3))
        assert np.allclose(np.triu(r), r)

    def test_random_vs_gram_schmidt(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 2))
        r = qr_r(a)
        gq, gr = gram_schmidt(a)
        assert np.linalg.norm(gq @ gr - a) <= 1e-13 * np.linalg.norm(a)
        # R is unique up to the signs of its rows
        assert np.linalg.norm(np.abs(r) - np.abs(gr)) <= 1e-12 * np.linalg.norm(a)

    def test_zero_matrix(self):
        r = qr_r(np.zeros((3, 2)))
        assert r.shape == (2, 2)
        assert np.allclose(r, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            qr_r(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            qr_r(np.array([[np.inf, 0.0]]))

    def test_empty_shapes(self):
        assert qr_r(np.zeros((4, 0))).shape == (0, 0)
        # no rows: an empty R that still has one column per basis vector
        assert qr_r(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_and_isometry(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 12, size=2)
        a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 3)
        q, r = full_householder_qr(a)
        assert np.linalg.norm(q @ r - a) <= 1e-12 * (1 + np.linalg.norm(a))
        assert np.linalg.norm(q.T @ q - np.eye(m)) <= 1e-12
        k = min(m, n)
        assert np.linalg.norm(np.abs(qr_r(a)) - np.abs(r[:k])) \
            <= 1e-12 * (1 + np.linalg.norm(a))

    def test_full_q_matches_thin(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 3))
        q, r = full_householder_qr(a)
        assert q.shape == (6, 6)
        assert np.linalg.norm(q.T @ q - np.eye(6)) <= 1e-12
        assert np.linalg.norm(q @ r - a) <= 1e-12

    def test_qr_r_gram_identity(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((9, 4))
        r = qr_r(a)
        assert r.shape == (4, 4)
        assert np.linalg.norm(r.T @ r - a.T @ a) <= 1e-12 * np.linalg.norm(a) ** 2


class TestTruncatedSVD:
    def test_rank_one(self):
        x = np.array([1.0, -2.0, 2.0])
        y = np.array([3.0, 4.0])
        s = truncated_svd(np.outer(x, y), 0.0)
        assert s.retained_rank == 1
        assert np.isclose(s.sigma[0], np.linalg.norm(x) * np.linalg.norm(y))

    def test_identity_with_tolerance(self):
        s = truncated_svd(np.eye(4), 0.5)
        assert s.retained_rank == 4

    def test_random_vs_jacobi(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 4))
        s = truncated_svd(a, 0.0)
        approx = s.u @ np.diag(s.sigma) @ s.v.T
        assert np.linalg.norm(a - approx, 2) <= 1e-13 * s.sigma[0]
        oracle = jacobi_singular_values(a)
        assert np.allclose(s.sigma, oracle, rtol=1e-10)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidInputError):
            truncated_svd(np.eye(2), -1.0)

    def test_nan_tolerance_rejected(self):
        for tol in (np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                truncated_svd(np.eye(2), tol)

    def test_max_rank_cap(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        s = truncated_svd(a, 0.0, max_rank=2)
        assert s.retained_rank == 2

    def test_negative_max_rank_rejected(self):
        with pytest.raises(InvalidInputError):
            truncated_svd(np.eye(3), 0.0, max_rank=-1)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            truncated_svd(np.array([[1.0, np.nan], [0.0, 1.0]]), 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_truncation_bound(self, seed):
        rng = np.random.default_rng(seed + 100)
        m, n = rng.integers(2, 10, size=2)
        a = rng.standard_normal((m, n))
        tol = float(rng.uniform(0.0, 2.0))
        s = truncated_svd(a, tol)
        sigma1 = np.linalg.norm(a, 2)
        approx = s.u @ np.diag(s.sigma) @ s.v.T
        assert np.linalg.norm(a - approx, 2) <= tol + 1e-12 * sigma1
        for f in (s.u, s.v):
            k = f.shape[1]
            assert np.linalg.norm(f.T @ f - np.eye(k)) <= 1e-12

    def test_empty(self):
        s = truncated_svd(np.zeros((3, 0)), 0.0)
        assert s.retained_rank == 0 and s.u.shape == (3, 0)


class TestSpectralNorm:
    def test_diagonal(self):
        assert np.isclose(spectral_norm(np.diag([3.0, 1.0])), 3.0)

    def test_zero(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_random_vs_power_iteration(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 3))
        assert abs(spectral_norm(a) - power_iteration_norm(a)) <= 1e-10

    def test_matches_svd_for_larger_matrices(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((80, 70))
        assert np.isclose(spectral_norm(a),
                          np.linalg.svd(a, compute_uv=False)[0], rtol=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(10)
        mats = [rng.standard_normal((rng.integers(1, 7), rng.integers(1, 7)))
                for _ in range(25)]
        mats.append(np.zeros((3, 0)))
        batched = spectral_norms(mats)
        singles = [spectral_norm(m) for m in mats]
        assert np.allclose(batched, singles, rtol=1e-12, atol=1e-300)


def mixed_matrices(seed=11):
    """Matrices of repeated and single shapes, empty ones, rank-deficient
    ones and Fortran-ordered transposes, in no order of shape."""
    rng = np.random.default_rng(seed)
    shapes = [(4, 3), (3, 5), (4, 3), (0, 3), (4, 0), (2, 2), (3, 5),
              (0, 0), (4, 3), (70, 66), (1, 6), (70, 66)]
    mats = [rng.standard_normal(shape) for shape in shapes]
    mats[2] = np.outer(rng.standard_normal(4), rng.standard_normal(3))
    mats.append(rng.standard_normal((5, 3)).T)  # (3, 5), Fortran order
    mats.append(np.zeros((4, 3)))
    return mats


class TestListForms:
    """Each list kernel gives every matrix the bits of its single form."""

    @pytest.mark.parametrize("tol", [0.0, 0.5])
    def test_truncated_svds_match_single(self, tol):
        mats = mixed_matrices()
        caps = [None, 1, 2, None, 0, None, 9, None, 0, 30, None, None, 1,
                None]
        for caps_or_none in (caps, None):
            got = truncated_svds(mats, tol, caps_or_none)
            assert len(got) == len(mats)
            for i, (m, s) in enumerate(zip(mats, got)):
                cap = None if caps_or_none is None else caps[i]
                ref = truncated_svd(m, tol, max_rank=cap)
                assert s.retained_rank == ref.retained_rank
                for a, b in ((s.u, ref.u), (s.sigma, ref.sigma),
                             (s.v, ref.v)):
                    assert a.shape == b.shape and np.array_equal(a, b)

    def test_caps_honoured(self):
        rng = np.random.default_rng(12)
        mats = [rng.standard_normal((6, 5)) for _ in range(4)]
        caps = [0, 2, None, 7]
        got = truncated_svds(mats, 0.0, caps)
        assert [s.retained_rank for s in got] == [0, 2, 5, 5]
        for s in got:
            assert s.u.shape == (6, s.retained_rank)
            assert s.v.shape == (5, s.retained_rank)

    def test_qr_rs_match_single(self):
        mats = mixed_matrices()
        for m, r in zip(mats, qr_rs(mats), strict=True):
            ref = qr_r(m)
            assert r.shape == ref.shape and np.array_equal(r, ref)

    def test_full_householder_qrs_match_single(self):
        mats = mixed_matrices()
        for m, (q, r) in zip(mats, full_householder_qrs(mats), strict=True):
            ref_q, ref_r = full_householder_qr(m)
            assert q.shape == ref_q.shape and np.array_equal(q, ref_q)
            assert r.shape == ref_r.shape and np.array_equal(r, ref_r)

    def test_spectral_norms_match_single(self):
        mats = mixed_matrices()
        assert spectral_norms(mats) == [spectral_norm(m) for m in mats]

    def test_empty_list(self):
        assert truncated_svds([], 0.0) == []
        assert qr_rs([]) == full_householder_qrs([]) == spectral_norms([]) \
            == []

    @pytest.mark.parametrize("kernel", [
        lambda mats: truncated_svds(mats, 0.0), qr_rs, full_householder_qrs,
        spectral_norms])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, kernel, bad):
        mats = mixed_matrices()
        mats[6] = mats[6].copy()  # one of two (3, 5) matrices
        mats[6][1, 2] = bad
        with pytest.raises(InvalidInputError):
            kernel(mats)

    @pytest.mark.parametrize("tol", [-1e-3, np.nan, np.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InvalidInputError):
            truncated_svds(mixed_matrices(), tol)

    def test_negative_cap_rejected(self):
        with pytest.raises(InvalidInputError):
            truncated_svds([np.eye(2), np.eye(2)], 0.0, [1, -1])
