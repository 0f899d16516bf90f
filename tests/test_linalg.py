import numpy as np
import pytest

from sketchysgd import linalg
from sketchysgd.linalg import (
    DegenerateMatrixError,
    DiagnosticCapError,
    IndefiniteMatrixError,
    cholesky,
    eigh_small,
    gaussian_matrix,
    make_rng,
    qr_econ,
    spectral_norm,
    thin_svd,
    top_eig_diag_plus_rank1,
    upper_inverse,
)


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(make_rng(123), 4, 2)
    b = gaussian_matrix(make_rng(123), 4, 2)
    assert a.shape == (4, 2)
    np.testing.assert_array_equal(a, b)


def test_gaussian_matrix_mean_concentrates():
    x = gaussian_matrix(make_rng(0), 10000, 1)
    assert abs(x.mean()) <= 5.0 / np.sqrt(10000)


def test_gaussian_matrix_single_entry():
    x = gaussian_matrix(make_rng(5), 1, 1)
    assert x.shape == (1, 1)
    assert np.isfinite(x[0, 0])


def test_gaussian_matrix_rejects_bad_dims():
    with pytest.raises(ValueError):
        gaussian_matrix(make_rng(0), 0, 3)


def test_qr_econ_identity_columns():
    m = np.eye(6)[:, :3]
    q = qr_econ(m)
    # same columns up to sign
    np.testing.assert_allclose(np.abs(q), m, atol=1e-14)


def test_qr_econ_single_column():
    v = np.array([3.0, 0.0, 4.0])
    q = qr_econ(v[:, None])
    np.testing.assert_allclose(np.abs(q[:, 0]), np.abs(v) / 5.0, atol=1e-15)


def test_qr_econ_orthogonality_and_range():
    rng = make_rng(7)
    m = rng.standard_normal((50, 5))
    q = qr_econ(m)
    np.testing.assert_array_less(np.abs(q.T @ q - np.eye(5)).max(), 1e-12)
    resid = m - q @ (q.T @ m)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(m)


def test_qr_econ_rank_deficient():
    m = np.ones((10, 3))
    with pytest.raises(DegenerateMatrixError, match="degenerate sketch matrix"):
        qr_econ(m)


def test_cholesky_scaled_identity():
    c = cholesky(4.0 * np.eye(3))
    np.testing.assert_allclose(c, 2.0 * np.eye(3), atol=1e-14)


def test_cholesky_hand_checked_2x2():
    c = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
    np.testing.assert_allclose(c, np.array([[2.0, 1.0], [0.0, 2.0]]), atol=1e-14)


def test_cholesky_reconstructs_random_spd():
    rng = make_rng(11)
    b = rng.standard_normal((8, 8))
    a = b.T @ b + np.eye(8)
    c = cholesky(a)
    assert np.linalg.norm(c.T @ c - a) <= 1e-10 * np.linalg.norm(a)
    assert np.allclose(np.tril(c, -1), 0.0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(IndefiniteMatrixError, match="indefinite matrix"):
        cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_thin_svd_unit_vector():
    e1 = np.zeros((5, 1))
    e1[0, 0] = 1.0
    v, s = thin_svd(e1)
    np.testing.assert_allclose(s, [1.0])
    np.testing.assert_allclose(np.abs(v), e1, atol=1e-15)


def test_thin_svd_diagonal():
    b = np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    _, s = thin_svd(b)
    np.testing.assert_allclose(s, [4.0, 3.0], atol=1e-14)


def test_thin_svd_reconstruction():
    rng = make_rng(3)
    b = rng.standard_normal((40, 6))
    v, s = thin_svd(b)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
    np.testing.assert_array_less(np.abs(v.T @ v - np.eye(6)).max(), 1e-10)
    # recover the right factor and rebuild
    w = (b.T @ v) / s[None, :]
    assert np.linalg.norm(b - v @ np.diag(s) @ w.T) <= 1e-10 * np.linalg.norm(b)


def test_spectral_norm_matches_numpy():
    rng = make_rng(4)
    b = rng.standard_normal((30, 5))
    assert spectral_norm(b) == pytest.approx(np.linalg.norm(b, 2), rel=1e-12)


def conditioned_matrix(p, r, condition, seed):
    """Full-rank p x r matrix with singular values logspaced from 1 to 1/condition."""
    rng = make_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((p, r)))
    right, _ = np.linalg.qr(rng.standard_normal((r, r)))
    sigma = np.logspace(0.0, -np.log10(condition), r)
    return (left * sigma) @ right.T, sigma


@pytest.mark.parametrize("condition", [1e4, 1e10])
def test_skinny_kernels_meet_their_contracts(condition):
    b, sigma = conditioned_matrix(3000, 8, condition, seed=0)
    q = qr_econ(b)
    assert np.abs(q.T @ q - np.eye(8)).max() <= linalg.ORTHONORMAL_TOL
    assert np.linalg.norm(b - q @ (q.T @ b)) <= 1e-12 * np.linalg.norm(b)
    v, s = thin_svd(b)
    assert np.abs(v.T @ v - np.eye(8)).max() <= linalg.ORTHONORMAL_TOL
    assert np.all(np.diff(s) <= 0)
    # singular values to a few ulps of the largest, as a Householder SVD gives
    np.testing.assert_allclose(s, sigma, rtol=0.0, atol=1e-14)
    w = (b.T @ v) / s[None, :]
    assert np.linalg.norm(b - (v * s) @ w.T) <= 1e-12 * np.linalg.norm(b)
    assert spectral_norm(b) == pytest.approx(np.linalg.norm(b, 2), rel=1e-13)


def test_qr_econ_degenerate_column_raises():
    b, _ = conditioned_matrix(200, 4, 10.0, seed=13)
    b = np.column_stack([b, b[:, 1] + 1e-17 * b[:, 2]])
    with pytest.raises(DegenerateMatrixError, match="degenerate sketch matrix"):
        qr_econ(b)


def test_upper_inverse():
    c = np.triu(make_rng(14).standard_normal((6, 6))) + 4.0 * np.eye(6)
    np.testing.assert_allclose(upper_inverse(c) @ c, np.eye(6), atol=1e-14)
    with pytest.raises(DegenerateMatrixError):
        upper_inverse(np.diag([1.0, 0.0, 2.0]))


def test_spectral_norm_edge_shapes():
    assert spectral_norm(np.zeros((4, 0))) == 0.0
    assert spectral_norm(np.zeros((4, 2))) == 0.0
    big = np.full((3, 2), 1e200)  # the Gram matrix overflows
    assert spectral_norm(big) == pytest.approx(np.linalg.norm(big, 2), rel=1e-13)
    with pytest.raises(ValueError, match="tall"):
        spectral_norm(np.ones((2, 3)))


def test_eigh_small_diagonal():
    vals, _ = eigh_small(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(vals, [1.0, 2.0, 3.0], atol=1e-14)


def test_eigh_small_swap_matrix():
    vals, _ = eigh_small(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eigh_small_trace_identity():
    rng = make_rng(9)
    a = rng.standard_normal((30, 30))
    a = 0.5 * (a + a.T)
    vals, vecs = eigh_small(a)
    assert vals.sum() == pytest.approx(np.trace(a), rel=1e-9)
    resid = a @ vecs - vecs * vals[None, :]
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(a)


def test_eigh_small_cap():
    with pytest.raises(DiagnosticCapError, match="diagnostic matrix too large"):
        eigh_small(np.eye(10), max_dim=5)


@pytest.mark.parametrize("seed", range(5))
def test_top_eig_diag_plus_rank1_matches_dense(seed):
    rng = make_rng(seed)
    p = 17
    diag = rng.uniform(0.1, 2.0, size=p)
    vec = rng.standard_normal(p)
    scale = float(rng.uniform(0.05, 3.0))
    got = top_eig_diag_plus_rank1(diag, scale, vec)
    dense = np.diag(diag) + scale * np.outer(vec, vec)
    want = eigh_small(dense)[0][-1]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_top_eig_diag_plus_rank1_batched():
    rng = make_rng(42)
    p, m = 9, 13
    diag = rng.uniform(0.5, 1.5, size=p)
    vecs = rng.standard_normal((m, p))
    vecs[3] = 0.0  # a row with no update keeps the diagonal top value
    scales = rng.uniform(0.0, 2.0, size=m)
    got = top_eig_diag_plus_rank1(diag, scales, vecs)
    for i in range(m):
        dense = np.diag(diag) + scales[i] * np.outer(vecs[i], vecs[i])
        want = eigh_small(dense)[0][-1]
        assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_top_eig_zero_update_returns_diag_max():
    assert top_eig_diag_plus_rank1(np.array([0.3, 0.9]), 0.0, np.zeros(2)) == 0.9
