import numpy as np
import pytest

from sketchysgd.linalg import eigh_small, make_rng
from sketchysgd.nystrom import (
    NystromApprox,
    SketchNotPsdError,
    precond_inv_sqrt,
    precond_solve,
    rand_nys_approx,
)

from reference import nystrom_apply


def psd_operator(p, rank, seed, eigenvalues=None):
    """Dense PSD matrix with controllable rank/spectrum and its hvp closure."""
    rng = make_rng(seed)
    if eigenvalues is None:
        g = rng.standard_normal((p, rank))
        h = g @ g.T / rank
    else:
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        h = (q * np.asarray(eigenvalues)) @ q.T
    return h, (lambda v: h @ v)


def test_identity_operator_recovers_unit_spectrum():
    p = 40
    nys = rand_nys_approx(lambda v: v.copy(), p, 7, make_rng(0))
    np.testing.assert_allclose(nys.eigenvalues, np.ones(7), atol=1e-8)
    np.testing.assert_array_less(np.abs(nys.basis.T @ nys.basis - np.eye(7)).max(), 1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_exact_recovery_at_matching_rank(seed):
    p, r = 30, 6
    h, hvp = psd_operator(p, r, seed)
    nys = rand_nys_approx(hvp, p, r, make_rng(seed))
    top = eigh_small(h)[0][-1]
    assert np.linalg.norm(h - nys.matrix(), 2) <= 1e-6 * top


def test_residual_is_psd():
    p, r = 60, 10
    h, hvp = psd_operator(p, 60, 3)
    nys = rand_nys_approx(hvp, p, r, make_rng(3))
    resid = h - nys.matrix()
    eigs, _ = eigh_small(0.5 * (resid + resid.T))
    top = eigh_small(h)[0][-1]
    assert eigs[0] >= -1e-8 * top


def test_eigenvalues_sorted_and_clamped():
    h, hvp = psd_operator(25, 3, 5)
    nys = rand_nys_approx(hvp, 25, 8, make_rng(5))
    assert np.all(np.diff(nys.eigenvalues) <= 0)
    assert np.all(nys.eigenvalues >= 0)
    assert nys.rank == 8  # zero eigenvalues are kept, not dropped


def test_determinism():
    h, hvp = psd_operator(20, 20, 6)
    a = rand_nys_approx(hvp, 20, 5, make_rng(42))
    b = rand_nys_approx(hvp, 20, 5, make_rng(42))
    np.testing.assert_array_equal(a.basis, b.basis)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)


def test_indefinite_operator_raises():
    with pytest.raises(SketchNotPsdError, match="sketch not PSD"):
        rand_nys_approx(lambda v: -v, 15, 4, make_rng(7))


def test_monotone_error_in_rank():
    # median residual norm over seeds does not increase with the sketch rank
    p = 40
    ranks = [2, 4, 8, 16, 32]
    errors = np.zeros((20, len(ranks)))
    for s in range(20):
        h, hvp = psd_operator(p, p, 100 + s, eigenvalues=np.geomspace(1.0, 1e-4, p))
        for j, r in enumerate(ranks):
            nys = rand_nys_approx(hvp, p, r, make_rng(s))
            errors[s, j] = np.linalg.norm(h - nys.matrix(), 2)
    med = np.median(errors, axis=0)
    assert np.all(np.diff(med) <= 1e-12)


def test_precond_solve_rank_zero():
    nys = NystromApprox.rank_zero(9)
    v = make_rng(8).standard_normal(9)
    np.testing.assert_allclose(precond_solve(nys, 0.25, v), v / 0.25, rtol=1e-15)
    np.testing.assert_allclose(precond_inv_sqrt(nys, 0.25, v), v / 0.5, rtol=1e-15)


def test_precond_solve_on_eigenvector():
    h, hvp = psd_operator(20, 20, 9)
    nys = rand_nys_approx(hvp, 20, 6, make_rng(9))
    j = 2
    v = nys.basis[:, j]
    got = precond_solve(nys, 0.1, v)
    np.testing.assert_allclose(got, v / (nys.eigenvalues[j] + 0.1), rtol=1e-12)


@pytest.mark.parametrize("rho", [1e-4, 1e-1, 1.0])
def test_precond_solve_matches_dense(rho):
    p, r = 150, 8
    h, hvp = psd_operator(p, p, 10)
    nys = rand_nys_approx(hvp, p, r, make_rng(10))
    v = make_rng(11).standard_normal(p)
    dense = nys.matrix() + rho * np.eye(p)
    want = np.linalg.solve(dense, v)
    got = precond_solve(nys, rho, v)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_inv_sqrt_composition_equals_solve():
    h, hvp = psd_operator(80, 80, 12)
    nys = rand_nys_approx(hvp, 80, 10, make_rng(12))
    v = make_rng(13).standard_normal(80)
    twice = precond_inv_sqrt(nys, 0.05, precond_inv_sqrt(nys, 0.05, v))
    once = precond_solve(nys, 0.05, v)
    assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)


def test_inv_sqrt_matches_dense_matrix_function():
    p, r, rho = 60, 5, 0.2
    h, hvp = psd_operator(p, p, 14)
    nys = rand_nys_approx(hvp, p, r, make_rng(14))
    vals, vecs = eigh_small(nys.matrix() + rho * np.eye(p))
    dense_root = (vecs / np.sqrt(vals)[None, :]) @ vecs.T
    v = make_rng(15).standard_normal(p)
    got = precond_inv_sqrt(nys, rho, v)
    want = dense_root @ v
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_smw_identity():
    # applying (H_hat + rho I) after precond_solve restores the input
    h, hvp = psd_operator(50, 50, 16)
    nys = rand_nys_approx(hvp, 50, 7, make_rng(16))
    rho = 0.03
    v = make_rng(17).standard_normal(50)
    x = precond_solve(nys, rho, v)
    back = nystrom_apply(nys, x) + rho * x
    assert np.linalg.norm(back - v) <= 1e-10 * np.linalg.norm(v)


def test_precond_rejects_bad_rho():
    nys = NystromApprox.rank_zero(4)
    with pytest.raises(ValueError):
        precond_solve(nys, 0.0, np.ones(4))
    with pytest.raises(ValueError):
        precond_inv_sqrt(nys, -1.0, np.ones(4))


@pytest.mark.parametrize("apply", [precond_solve, precond_inv_sqrt])
@pytest.mark.parametrize("rho", [1e-320, 5e-324, 5.562684646268003e-309])
def test_precond_rejects_rho_whose_reciprocal_overflows(apply, rho):
    nys = NystromApprox(np.eye(4)[:, :1], np.ones(1))
    with pytest.raises(ValueError, match="reciprocal overflows"):
        apply(nys, rho, np.ones(4))


def test_precond_accepts_the_smallest_rho_with_a_finite_reciprocal():
    rho = np.nextafter(1.0 / np.finfo(np.float64).max, 1.0)
    assert np.isfinite(precond_solve(NystromApprox.rank_zero(2), rho, np.ones(2))).all()


def test_block_application():
    h, hvp = psd_operator(30, 30, 18)
    nys = rand_nys_approx(hvp, 30, 5, make_rng(18))
    block = make_rng(19).standard_normal((30, 4))
    for apply in (precond_solve, precond_inv_sqrt):
        got = apply(nys, 0.1, block)
        assert got.shape == (30, 4)
        for j in range(4):
            np.testing.assert_allclose(got[:, j], apply(nys, 0.1, block[:, j]), rtol=1e-13)


@pytest.mark.parametrize("apply, power", [(precond_solve, 1.0), (precond_inv_sqrt, 0.5)])
def test_c_ordered_basis_is_accepted(apply, power):
    p, r, rho = 40, 6, 0.3
    basis, _ = np.linalg.qr(make_rng(20).standard_normal((p, r)))
    basis = np.ascontiguousarray(basis)
    eig = np.sort(make_rng(21).uniform(0.0, 5.0, r))[::-1]
    nys = NystromApprox(basis, eig)
    assert nys.basis.flags.f_contiguous
    np.testing.assert_array_equal(nys.basis, basis)
    vals, vecs = eigh_small((basis * eig) @ basis.T + rho * np.eye(p))
    dense = (vecs * vals**-power) @ vecs.T
    v = make_rng(22).standard_normal((p, 3))
    np.testing.assert_allclose(apply(nys, rho, v), dense @ v, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(apply(nys, rho, v[:, 0]), dense @ v[:, 0], rtol=1e-11, atol=1e-13)


def test_a_column_major_basis_is_kept_without_a_copy():
    # optimizers.sketch_hessian allocates its embedded basis column-major
    basis = np.asfortranarray(np.linalg.qr(make_rng(23).standard_normal((40, 6)))[0])
    assert NystromApprox(basis, np.linspace(3.0, 1.0, 6)).basis is basis


def test_rand_nys_approx_validates_rank():
    with pytest.raises(ValueError):
        rand_nys_approx(lambda v: v, 10, 0, make_rng(0))
    with pytest.raises(ValueError):
        rand_nys_approx(lambda v: v, 10, 11, make_rng(0))
