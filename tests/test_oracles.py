import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import stats
from scipy.special import expit

from sketchysgd.data import Dataset
from sketchysgd.linalg import eigh_small, make_rng
from sketchysgd.oracles import ProblemOracle, _logistic_loss_sum, sample_batch
from sketchysgd.synthetic import gaussian_dataset

from reference import minibatch_loss


def make_oracle(task, n=30, p=8, l2=0.0, seed=0, sparse=False):
    ds = gaussian_dataset(n, p, task, seed=seed)
    if sparse:
        ds = Dataset(sp.csr_matrix(ds.features), ds.labels)
    return ProblemOracle(ds, task, l2)


def naive_loss(oracle, w):
    # independent scalar-loop evaluation
    a = oracle.data.dense_features()
    total = 0.0
    for i in range(oracle.n):
        z = float(a[i] @ w)
        if oracle.task == "ridge":
            total += 0.5 * (z - oracle.data.labels[i]) ** 2
        else:
            total += math.log1p(math.exp(-oracle.data.labels[i] * z))
    return total / oracle.n + 0.5 * oracle.l2 * float(w @ w)


def test_full_loss_ridge_at_zero():
    oracle = make_oracle("ridge", seed=1)
    want = 0.5 * float(oracle.data.labels @ oracle.data.labels) / oracle.n
    assert oracle.full_loss(np.zeros(oracle.p)) == pytest.approx(want, rel=1e-14)


def test_full_loss_logistic_at_zero_is_log2():
    oracle = make_oracle("logistic", seed=2)
    assert oracle.full_loss(np.zeros(oracle.p)) == pytest.approx(math.log(2.0), rel=1e-14)


EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 709.0, -745.0, 1e308, -1e308,
            math.inf, -math.inf]


@pytest.mark.parametrize("t", EXTREMES)
def test_logistic_loss_sum_matches_logaddexp_per_entry(t):
    got = _logistic_loss_sum(np.array([t]))
    np.testing.assert_allclose(got, np.logaddexp(0.0, t), rtol=1e-15, atol=0.0)


def test_logistic_loss_sum_over_an_array():
    t = np.concatenate([EXTREMES[:-2], make_rng(40).standard_normal(1000) * 20])
    assert _logistic_loss_sum(t) == pytest.approx(float(np.logaddexp(0.0, t).sum()), rel=1e-15)
    assert _logistic_loss_sum(np.zeros(1)) == math.log(2.0)
    assert math.isnan(_logistic_loss_sum(np.array([1.0, math.nan])))
    assert math.isnan(_logistic_loss_sum(np.array([-math.inf, math.inf, math.nan])))


@pytest.mark.parametrize("n", [1, 8, 64, 256])
def test_logistic_loss_at_zero_is_exactly_log2(n):
    oracle = make_oracle("logistic", n=n, seed=2)
    w = np.zeros(oracle.p)
    assert oracle.full_loss(w) == oracle.mean_sample_loss(w) == math.log(2.0)
    assert minibatch_loss(oracle, w, np.arange(n)) == math.log(2.0)


def test_every_logistic_loss_matches_logaddexp():
    oracle = make_oracle("logistic", n=200, p=6, l2=0.3, seed=41)
    w = make_rng(42).standard_normal(6) * 5
    t = -oracle.data.labels * (oracle.data.features @ w)
    base = float(np.logaddexp(0.0, t).sum()) / oracle.n
    assert oracle.mean_sample_loss(w) == pytest.approx(base, rel=1e-15)
    assert oracle.full_loss(w) == pytest.approx(base + 0.15 * float(w @ w), rel=1e-15)
    batch = np.arange(3, 200, 7)
    want = float(np.logaddexp(0.0, t[batch]).sum()) / batch.size + 0.15 * float(w @ w)
    assert minibatch_loss(oracle, w, batch) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("task", ["ridge", "logistic"])
@pytest.mark.parametrize("sparse", [True, False])
def test_metrics_from_given_margins_equal_metrics_from_w(task, sparse):
    oracle = make_oracle(task, n=50, p=7, l2=0.2, seed=43, sparse=sparse)
    w = make_rng(44).standard_normal(7)
    z = oracle.margins(w)
    assert oracle.full_loss(w, margins=z) == oracle.full_loss(w)
    assert oracle.mean_sample_loss(w, margins=z) == oracle.mean_sample_loss(w)
    if task == "logistic":
        assert oracle.accuracy(w, margins=z) == oracle.accuracy(w)
    full, batch = np.arange(50), np.arange(3, 50, 7)
    np.testing.assert_array_equal(oracle.minibatch_gradient(w, full, margins=z),
                                  oracle.minibatch_gradient(w, full))
    np.testing.assert_array_equal(oracle.minibatch_gradient(w, batch, margins=z[batch]),
                                  oracle.minibatch_gradient(w, batch))
    with pytest.raises(ValueError, match="margins have shape"):
        oracle.full_loss(w, margins=z[1:])
    with pytest.raises(ValueError, match="margins have shape"):
        oracle.minibatch_gradient(w, batch, margins=z)


def old_accuracy(z, labels):
    return float(np.mean(np.where(z >= 0.0, 1.0, -1.0) == labels))


@pytest.mark.parametrize("seed", range(5))
def test_accuracy_equals_the_old_formula_with_ties_and_nan(seed):
    rng = make_rng(seed)
    n = int(rng.integers(1, 300))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    oracle = ProblemOracle(Dataset(rng.standard_normal((n, 3)), labels), "logistic", 0.0)
    w = rng.standard_normal(3)
    z = oracle.margins(w)
    z[rng.random(n) < 0.2] = 0.0
    z[rng.random(n) < 0.1] = -0.0
    z[rng.random(n) < 0.1] = math.nan
    assert oracle.accuracy(w, margins=z) == old_accuracy(z, labels)
    assert oracle.accuracy(w) == old_accuracy(oracle.margins(w), labels)


@pytest.mark.parametrize("task", ["ridge", "logistic"])
def test_full_loss_matches_scalar_loop(task):
    oracle = make_oracle(task, n=23, p=6, l2=0.37, seed=3)
    w = make_rng(4).standard_normal(6)
    assert oracle.full_loss(w) == pytest.approx(naive_loss(oracle, w), rel=1e-12)


def test_gradient_ridge_at_zero_full_batch():
    oracle = make_oracle("ridge", seed=5)
    full = np.arange(oracle.n)
    got = oracle.minibatch_gradient(np.zeros(oracle.p), full)
    want = -(oracle.data.features.T @ oracle.data.labels) / oracle.n
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_gradient_logistic_at_zero_full_batch():
    oracle = make_oracle("logistic", seed=6)
    full = np.arange(oracle.n)
    got = oracle.minibatch_gradient(np.zeros(oracle.p), full)
    want = -(oracle.data.features.T @ oracle.data.labels) / (2.0 * oracle.n)
    np.testing.assert_allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("task", ["ridge", "logistic"])
@pytest.mark.parametrize("seed", range(3))
def test_gradient_matches_finite_differences(task, seed):
    oracle = make_oracle(task, n=40, p=10, l2=0.05, seed=seed)
    rng = make_rng(100 + seed)
    w = rng.standard_normal(10)
    batch = sample_batch(rng, oracle.n, 7)
    grad = oracle.minibatch_gradient(w, batch)
    u = rng.standard_normal(10)
    u /= np.linalg.norm(u)
    h = 1e-6 * (1.0 + np.linalg.norm(w))
    fd = (minibatch_loss(oracle, w + h * u, batch) - minibatch_loss(oracle, w - h * u, batch)) / (2 * h)
    assert fd == pytest.approx(float(grad @ u), rel=1e-6)


def test_hvp_zero_vector():
    oracle = make_oracle("logistic", seed=7)
    out = oracle.minibatch_hvp(np.zeros(oracle.p), np.arange(oracle.n), np.zeros(oracle.p))
    np.testing.assert_array_equal(out, np.zeros(oracle.p))


def test_hvp_single_sample_ridge():
    oracle = make_oracle("ridge", seed=8)
    a0 = np.asarray(oracle.data.features[0]).ravel()
    got = oracle.minibatch_hvp(np.zeros(oracle.p), np.array([0]), a0)
    np.testing.assert_allclose(got, float(a0 @ a0) * a0, rtol=1e-13)


@pytest.mark.parametrize("task", ["ridge", "logistic"])
def test_hvp_matches_dense_assembly(task):
    oracle = make_oracle(task, n=60, p=20, seed=9)
    rng = make_rng(10)
    w = rng.standard_normal(20)
    v = rng.standard_normal(20)
    full = np.arange(oracle.n)
    dense = oracle.hessian_matrix(w)
    got = oracle.minibatch_hvp(w, full, v)
    np.testing.assert_allclose(got, dense @ v, rtol=1e-10)


def test_hvp_excludes_l2():
    plain = make_oracle("ridge", seed=11, l2=0.0)
    reg = ProblemOracle(plain.data, "ridge", 2.5)
    rng = make_rng(12)
    v = rng.standard_normal(plain.p)
    batch = np.arange(plain.n)
    w = rng.standard_normal(plain.p)
    np.testing.assert_array_equal(
        plain.minibatch_hvp(w, batch, v), reg.minibatch_hvp(w, batch, v)
    )


def test_hvp_symmetry_and_psd():
    oracle = make_oracle("logistic", n=50, p=12, seed=13)
    rng = make_rng(14)
    w = rng.standard_normal(12)
    batch = sample_batch(rng, oracle.n, 9)
    u = rng.standard_normal(12)
    v = rng.standard_normal(12)
    uhv = float(u @ oracle.minibatch_hvp(w, batch, v))
    vhu = float(v @ oracle.minibatch_hvp(w, batch, u))
    assert uhv == pytest.approx(vhu, rel=1e-12)
    quad = float(v @ oracle.minibatch_hvp(w, batch, v))
    assert quad >= -1e-12 * float(v @ v) * oracle.smoothness_upper_bound


def test_hvp_blocked_and_batch_average():
    oracle = make_oracle("logistic", n=20, p=6, seed=15)
    rng = make_rng(16)
    w = rng.standard_normal(6)
    v = rng.standard_normal((6, 3))
    batch = sample_batch(rng, oracle.n, 8)
    block = oracle.minibatch_hvp(w, batch, v)
    assert block.shape == (6, 3)
    # batching is the average of per-sample products
    for j in range(3):
        per_sample = np.zeros(6)
        for i in batch:
            per_sample += oracle.minibatch_hvp(w, np.array([i]), v[:, j])
        np.testing.assert_allclose(block[:, j], per_sample / len(batch), rtol=1e-12)


@pytest.mark.parametrize("task", ["ridge", "logistic"])
def test_sparse_matches_dense(task):
    dense = make_oracle(task, n=35, p=9, l2=0.01, seed=17)
    sparse = make_oracle(task, n=35, p=9, l2=0.01, seed=17, sparse=True)
    rng = make_rng(18)
    w = rng.standard_normal(9)
    v = rng.standard_normal(9)
    batch = sample_batch(rng, 35, 11)
    assert sparse.full_loss(w) == pytest.approx(dense.full_loss(w), rel=1e-14, abs=1e-14)
    np.testing.assert_allclose(
        sparse.minibatch_gradient(w, batch), dense.minibatch_gradient(w, batch), atol=1e-14
    )
    np.testing.assert_allclose(
        sparse.minibatch_hvp(w, batch, v), dense.minibatch_hvp(w, batch, v), atol=1e-14
    )


def scipy_reference(oracle, w, batch, v):
    """Gradient and vector HVP from the sliced matrix ``features[batch]``."""
    feats = oracle.data.features[batch]
    y = oracle.data.labels[batch]
    z = np.asarray(feats @ w).ravel()
    if oracle.task == "ridge":
        coeff, d = z - y, np.ones(len(batch))
    else:
        coeff = -y * expit(-y * z)
        s = expit(y * z)
        d = s * (1.0 - s)
    grad = np.asarray(feats.T @ coeff).ravel() / len(batch) + oracle.l2 * w
    hvp = np.asarray(feats.T @ (np.asarray(feats @ v).ravel() * d)).ravel() / len(batch)
    return grad, hvp


def sparse_oracle_with_empty_row(task, n=40, p=25):
    rng = make_rng(30)
    keep = np.ones(n)
    keep[3] = 0.0
    a = sp.csr_matrix(sp.diags(keep) @ sp.random(n, p, density=0.2, random_state=31))
    a.eliminate_zeros()
    assert a.indptr[3] == a.indptr[4]
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0) if task == "logistic" else rng.standard_normal(n)
    return ProblemOracle(Dataset(a, labels), task, 0.05)


BATCHES = {
    "sorted": lambda rng, n: np.sort(rng.choice(n, 12, replace=False)),
    "unsorted": lambda rng, n: rng.choice(n, 12, replace=False),
    "duplicates": lambda rng, n: np.array([7, 2, 7, 7, 30, 2]),
    "single": lambda rng, n: np.array([11]),
    "empty-row": lambda rng, n: np.array([3]),
    "with-empty-row": lambda rng, n: np.array([0, 3, 9]),
    "full": lambda rng, n: np.arange(n),
}


@pytest.mark.parametrize("task", ["ridge", "logistic"])
@pytest.mark.parametrize("kind", sorted(BATCHES))
def test_sparse_products_bit_identical_to_sliced_matrix(task, kind):
    oracle = sparse_oracle_with_empty_row(task)
    rng = make_rng(32)
    w, v = rng.standard_normal(oracle.p), rng.standard_normal(oracle.p)
    batch = BATCHES[kind](rng, oracle.n)
    grad, hvp = scipy_reference(oracle, w, batch, v)
    assert np.array_equal(oracle.minibatch_gradient(w, batch), grad)
    assert np.array_equal(oracle.minibatch_hvp(w, batch, v), hvp)


@pytest.mark.parametrize("task", ["ridge", "logistic"])
def test_dense_full_batch_bit_identical_to_sliced_matrix(task):
    oracle = make_oracle(task, n=60, p=7, l2=0.05, seed=33)
    w = make_rng(34).standard_normal(7)
    grad, _ = scipy_reference(oracle, w, np.arange(60), w)
    assert np.array_equal(oracle.minibatch_gradient(w, np.arange(60)), grad)


def test_smoothness_bound_unit_rows():
    rng = make_rng(19)
    a = rng.standard_normal((25, 5))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    labels = np.where(rng.standard_normal(25) > 0, 1.0, -1.0)
    assert ProblemOracle(Dataset(a, labels), "ridge", 0.0).smoothness_upper_bound == pytest.approx(1.0)
    assert ProblemOracle(Dataset(a, labels), "logistic", 0.0).smoothness_upper_bound == pytest.approx(0.25)


def test_smoothness_bound_dominates_top_eigenvalue():
    oracle = make_oracle("ridge", n=80, p=30, seed=20)
    h = oracle.hessian_matrix(np.zeros(30))
    top = eigh_small(h)[0][-1]
    assert oracle.smoothness_upper_bound >= top - 1e-12


def test_sgd_default_learning_rate():
    oracle = make_oracle("ridge", seed=21, l2=0.01)
    lhat = oracle.smoothness_upper_bound
    want = max(1.0 / (3 * lhat), 1.0 / (2 * (lhat + oracle.n * 0.01)))
    assert oracle.sgd_default_learning_rate() == pytest.approx(want, rel=1e-15)


def test_sample_batch_full_and_singleton():
    rng = make_rng(22)
    assert set(sample_batch(rng, 5, 5)) == set(range(5))
    assert sample_batch(rng, 1, 1).tolist() == [0]


def test_sample_batch_uniform_frequencies():
    rng = make_rng(23)
    n, b, draws = 10, 3, 100000
    counts = np.zeros(n)
    for _ in range(draws):
        counts[sample_batch(rng, n, b)] += 1
    freq = counts / draws
    sigma = math.sqrt(0.3 * 0.7 / draws)
    assert np.all(np.abs(freq - 0.3) <= 5 * sigma)


@pytest.mark.parametrize("b", [3, 4])  # b = n/2 draws the subset, b > n/2 its complement
def test_sample_batch_gives_every_subset_the_same_probability(b):
    n, draws = 6, 60000
    rows = sample_batch(make_rng(40), n, b, count=draws)
    subsets, counts = np.unique(np.sum(1 << rows, axis=1), return_counts=True)
    assert subsets.size == math.comb(n, b)
    expected = draws / subsets.size
    chi_square = float(np.sum((counts - expected) ** 2) / expected)
    assert chi_square <= stats.chi2.ppf(0.999, subsets.size - 1)


@pytest.mark.parametrize("n, b, count", [
    (50, 1, 40), (50, 7, 200), (50, 25, 200), (50, 26, 200), (50, 49, 40),
    (50000, 256, 8), (4096, 2048, 4), (4096, 4095, 4),
])
def test_sample_batch_rows_are_sorted_distinct_int64_and_in_range(n, b, count):
    rows = sample_batch(make_rng(41), n, b, count=count)
    assert rows.dtype == np.int64 and rows.shape == (count, b)
    assert np.all(np.diff(rows, axis=1) > 0)
    assert rows.min() >= 0 and rows.max() < n


def test_sample_batch_without_count_is_one_row_of_the_block_draw():
    rng, ref = make_rng(42), make_rng(42)
    for n, b in ((50, 7), (50, 30), (50, 50)):
        assert np.array_equal(sample_batch(rng, n, b), sample_batch(ref, n, b, count=1)[0])
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("count", [None, 3])
def test_sample_batch_of_every_row_consumes_no_draw(count):
    rng = make_rng(43)
    state = rng.bit_generator.state
    rows = sample_batch(rng, 9, 9, count=count)
    assert rng.bit_generator.state == state
    assert np.array_equal(rows, np.arange(9) if count is None else np.tile(np.arange(9), (3, 1)))


def test_sample_batch_validation():
    rng = make_rng(24)
    with pytest.raises(ValueError):
        sample_batch(rng, 5, 6)
    with pytest.raises(ValueError):
        sample_batch(rng, 5, 0)


def test_oracle_validation():
    ds = gaussian_dataset(10, 3, "ridge", seed=25)
    with pytest.raises(ValueError, match="labels"):
        ProblemOracle(ds, "logistic", 0.0)
    with pytest.raises(ValueError, match="task"):
        ProblemOracle(ds, "poisson", 0.0)
    for l2 in (-1.0, math.nan, math.inf, "0"):
        with pytest.raises(ValueError, match="^l2 must be a finite number >= 0"):
            ProblemOracle(ds, "ridge", l2)
    oracle = ProblemOracle(ds, "ridge", 0.0)
    with pytest.raises(ValueError, match="shape"):
        oracle.full_loss(np.zeros(4))
    with pytest.raises(ValueError, match="nonempty"):
        oracle.minibatch_gradient(np.zeros(3), np.array([], dtype=np.int64))


def test_accuracy_ties_count_positive():
    ds = Dataset(np.array([[1.0], [-1.0], [0.0]]), np.array([1.0, -1.0, 1.0]))
    oracle = ProblemOracle(ds, "logistic", 0.0)
    # w = 0 gives zero margin everywhere: ties predict +1
    assert oracle.accuracy(np.zeros(1)) == pytest.approx(2.0 / 3.0)
    assert oracle.accuracy(np.ones(1)) == pytest.approx(1.0)


@pytest.mark.parametrize("task", ["ridge", "logistic"])
@pytest.mark.parametrize("sparse", [True, False])
def test_hessian_factor_squares_to_the_minibatch_hessian(task, sparse):
    oracle = sparse_oracle_with_empty_row(task)
    if not sparse:
        oracle = ProblemOracle(Dataset(oracle.data.dense_features(), oracle.data.labels), task, 0.05)
    rng = make_rng(35)
    w = rng.standard_normal(oracle.p)
    batch = np.array([0, 3, 9, 17, 30])  # row 3 is empty
    factor = oracle.hessian_factor(w, batch)
    assert sp.issparse(factor) == sparse and factor.shape == (batch.size, oracle.p)
    gram = factor.T @ factor
    gram = gram.toarray() if sparse else gram
    np.testing.assert_allclose(gram, oracle.hessian_matrix(w, batch), rtol=1e-12, atol=1e-15)
    before = oracle.data.features.copy()
    oracle.hessian_factor(w, batch)
    assert (abs(oracle.data.features - before)).max() == 0.0  # the data is not scaled in place


def test_row_block_keeps_order_and_repeats():
    oracle = sparse_oracle_with_empty_row("logistic")
    batch = np.array([7, 2, 7, 3, 30])
    feats, labels = oracle.row_block(batch)
    dense = oracle.data.dense_features()
    np.testing.assert_array_equal(feats.toarray(), dense[batch])
    np.testing.assert_array_equal(labels, oracle.data.labels[batch])
