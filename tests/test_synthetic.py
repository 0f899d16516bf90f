import numpy as np
import pytest

from sketchysgd.synthetic import planted_least_squares

import reference


@pytest.mark.parametrize("n, p, eigenvalues", [
    (2000, 100, None),
    (500, 500, None),
    (64, 1, None),
    # not a multiple of the rows per draw block
    (4097, 33, None),
    (4097, 33, np.linspace(1.0, 1e-3, 33)),
])
def test_planted_instance_is_the_reference_instance(n, p, eigenvalues):
    """The in-place build gives the instance of a single draw and np.linalg.qr.

    ``w_star`` comes from the stream alone, so it matches exactly.  The
    matrix comes from SciPy's LAPACK where the reference uses NumPy's: two
    BLAS builds.  They agree to the bit with one thread on the builds
    checked, but with more threads they may round differently, by about an
    ulp of the largest entry, so the features and labels are compared to
    1e-13 of each entry and of the largest one.
    """
    ds, w_star = planted_least_squares(n, p, condition=1e3, seed=5, eigenvalues=eigenvalues)
    features, labels, want_w = reference.planted_least_squares(n, p, 1e3, 5, eigenvalues)
    np.testing.assert_array_equal(w_star, want_w)
    for got, want in ((ds.features, features), (ds.labels, labels)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    assert ds.features.flags.c_contiguous


def test_planted_build_holds_about_two_copies_of_its_matrix():
    """The peak of NumPy allocations stays at 2.1x the matrix bytes: the
    draw buffer that QR turns into U and the product.  LAPACK's internal
    buffers are not traced (see ``reference.traced_peak``)."""
    (ds, _), peak = reference.traced_peak(planted_least_squares, 4097, 64, seed=1)
    assert peak <= 2.1 * ds.features.nbytes
