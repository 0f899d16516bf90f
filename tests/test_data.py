import gzip
import io
import random

import numpy as np
import pytest
import scipy.sparse as sp

from sketchysgd import data as data_module
from sketchysgd.data import (
    PARSE_CHUNK_LINES,
    Dataset,
    FeatureMap,
    LibsvmParseError,
    condition_lower_bound,
    load_libsvm,
    normalize_rows,
    parse_libsvm,
    random_features,
    save_libsvm,
    serialize_libsvm,
    split,
    standardization_stats,
    standardize,
)
from sketchysgd.linalg import make_rng
from sketchysgd.synthetic import planted_least_squares


def random_sparse_dataset(n, p, density, seed):
    rng = make_rng(seed)
    mat = sp.random(n, p, density=density, random_state=np.random.RandomState(seed), format="csr")
    mat.data = rng.standard_normal(mat.nnz)
    return Dataset(mat, rng.standard_normal(n))


def test_parse_basic_example():
    ds = parse_libsvm("1 1:0.5 3:2.0\n-1 2:1.0")
    assert (ds.n, ds.p) == (2, 3)
    dense = ds.dense_features()
    np.testing.assert_allclose(dense, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(ds.labels, [1.0, -1.0])


def test_parse_empty_stream():
    ds = parse_libsvm("")
    assert ds.n == 0


def test_parse_skips_blank_lines():
    ds = parse_libsvm("1 1:1.0\n\n-1 1:2.0\n")
    assert ds.n == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 1:abc", "line 1"),
        ("xyz 1:1.0", "line 1"),
        ("1 0:1.0", "1-based"),
        ("1 2:1.0 2:2.0", "does not increase"),
        ("1 3:1.0 2:2.0", "does not increase"),
        ("1 1:1.0\n1 nocolon", "line 2"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(LibsvmParseError, match=fragment):
        parse_libsvm(text)


def test_parse_num_features_override():
    ds = parse_libsvm("1 1:1.0", num_features=10)
    assert ds.p == 10
    with pytest.raises(LibsvmParseError, match="exceeds"):
        parse_libsvm("1 5:1.0", num_features=3)


def test_round_trip_random_sparse():
    ds = random_sparse_dataset(25, 12, 0.3, seed=2)
    text = serialize_libsvm(ds)
    back = parse_libsvm(text, num_features=12)
    assert (back.features != ds.features).nnz == 0
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_load_libsvm_gzip(tmp_path):
    ds = random_sparse_dataset(10, 6, 0.5, seed=3)
    raw = tmp_path / "data.svm"
    save_libsvm(ds, raw)
    zipped = tmp_path / "data.svm.gz"
    zipped.write_bytes(gzip.compress(raw.read_bytes()))
    a = load_libsvm(raw, num_features=6)
    b = load_libsvm(zipped, num_features=6)
    assert (a.features != b.features).nnz == 0


# The line-at-a-time parser that the chunked one replaced, kept as the
# reference the chunked parser must match to the bit.
def reference_parse_line(line, lineno):
    parts = line.split()
    try:
        label = float(parts[0])
    except ValueError:
        raise LibsvmParseError(f"line {lineno}: malformed label token {parts[0]!r}") from None
    idxs = []
    vals = []
    prev = 0
    for token in parts[1:]:
        head, sep, tail = token.partition(":")
        if not sep:
            raise LibsvmParseError(f"line {lineno}: malformed token {token!r}")
        try:
            idx = int(head)
            val = float(tail)
        except ValueError:
            raise LibsvmParseError(f"line {lineno}: malformed token {token!r}") from None
        if idx == 0:
            raise LibsvmParseError(f"line {lineno}: feature indices are 1-based, got 0")
        if idx <= prev:
            raise LibsvmParseError(
                f"line {lineno}: feature index {idx} does not increase past {prev}"
            )
        prev = idx
        idxs.append(idx - 1)
        vals.append(val)
    return label, idxs, vals


def reference_parse(source, num_features=None):
    labels = []
    indptr = [0]
    indices = []
    data = []
    max_idx = 0
    for lineno, raw in enumerate(io.StringIO(source) if isinstance(source, str) else source, start=1):
        line = raw.strip()
        if not line:
            continue
        label, idxs, vals = reference_parse_line(line, lineno)
        labels.append(label)
        indices.extend(idxs)
        data.extend(vals)
        indptr.append(len(indices))
        if idxs:
            max_idx = max(max_idx, idxs[-1] + 1)

    p = max_idx if num_features is None else int(num_features)
    if num_features is not None and max_idx > p:
        raise LibsvmParseError(
            f"feature index {max_idx} exceeds the declared feature count {p}"
        )
    mat = sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), p),
    )
    return Dataset(mat, np.asarray(labels, dtype=np.float64))


def assert_same_parse(got, want):
    assert got.features.shape == want.features.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.features, name), getattr(want.features, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()


LABELS = ["+1", "-1", "1e0", "0.5", "1", "-2.75"]
SPECIAL_VALUES = [
    "4.9e-324",  # smallest subnormal
    "2.2250738585072009e-308",  # largest subnormal
    "1.7976931348623157e308",
    "-0.0",
    "0.12345678901234567",  # 17 significant digits
    "-9.8765432109876543e-7",
    "0.100000000000000005551115123125782702118158340454101562",
    "7", "+.5", "5.", "1E-3", "-2e+2",
]


def random_libsvm_text(n_lines, seed):
    """Plain libsvm text with every spacing, label and value form _parse_line accepts in bulk."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n_lines):
        if rng.random() < 0.03:
            lines.append(rng.choice(["", "   ", "\t", " \t "]) + "\n")
            continue
        idxs = sorted(set(rng.randrange(1, 70000) for _ in range(rng.randrange(6))))  # some >= 2**15
        line = rng.choice(LABELS)
        for idx in idxs:
            if rng.random() < 0.3:
                val = rng.choice(SPECIAL_VALUES)
            else:
                val = repr(rng.gauss(0.0, 1.0) * 10.0 ** rng.randrange(-12, 12))
            line += rng.choice([" ", "\t", "  ", " \t"]) + f"{idx}:{val}"
        if rng.random() < 0.1:
            line = " " + line + "  "
        lines.append(line + ("\r\n" if rng.random() < 0.2 else "\n"))
    return "".join(lines)


def test_chunked_parse_matches_reference_on_every_source(tmp_path, monkeypatch):
    text = random_libsvm_text(2 * PARSE_CHUNK_LINES + 2000, seed=5)
    want = reference_parse(text)
    assert want.n > 2 * PARSE_CHUNK_LINES
    raw = tmp_path / "data.svm"
    raw.write_bytes(text.encode())
    zipped = tmp_path / "data.svm.gz"
    zipped.write_bytes(gzip.compress(text.encode()))

    def line_at_a_time(lines, linenos):
        raise AssertionError("plain text left the vectorised path")

    monkeypatch.setattr(data_module, "_parse_lines", line_at_a_time)
    assert_same_parse(parse_libsvm(text), want)
    assert_same_parse(parse_libsvm(io.StringIO(text)), want)
    assert_same_parse(parse_libsvm(text.split("\n")), want)
    assert_same_parse(load_libsvm(raw), want)
    assert_same_parse(load_libsvm(zipped), want)
    assert_same_parse(parse_libsvm(text, num_features=80000), reference_parse(text, num_features=80000))


PLAIN_PREFIX = "1 1:0.5 7:2\n-1\n" * (PARSE_CHUNK_LINES // 2) + "1 3:1\n" * 5


@pytest.mark.parametrize(
    "line",
    [
        "1 1:1.5+3",
        "1.5+3 1:1",
        "1 1e3:1",
        "1 1.0:1",
        "1 1:2:3",
        "1 2:1 1:",
        "1 :1",
        "1 2: 3:1.5+3",
        "1:0 5",
        "1 0:1",
        "1 4:1 4:2",
        "1 5:1 nocolon",
        "1 2:abc",
        "1 0:1\n1 99999999999999999999:1",
    ],
)
def test_chunked_parse_rejects_like_reference(line):
    text = PLAIN_PREFIX + line + "\n1 1:1\n"
    with pytest.raises(LibsvmParseError) as want:
        reference_parse(text)
    with pytest.raises(LibsvmParseError) as got:
        parse_libsvm(text)
    assert str(got.value) == str(want.value)
    assert f"line {PARSE_CHUNK_LINES + 6}:" in str(got.value)


def test_chunked_parse_keeps_embedded_newlines_in_one_line():
    # An item of an iterable source is one line even if it holds a newline.
    lines = PLAIN_PREFIX.splitlines() + ["1 2:1\n-1 3:1", "1 1:1"]
    with pytest.raises(LibsvmParseError) as want:
        reference_parse(lines)
    with pytest.raises(LibsvmParseError) as got:
        parse_libsvm(lines)
    assert str(got.value) == str(want.value) == f"line {PARSE_CHUNK_LINES + 6}: malformed token '-1'"


@pytest.mark.parametrize("index", ["99999999999999999999", str(2**63)])
def test_chunked_parse_rejects_overflowing_index(index):
    # The old loop (the reference) let this escape as an OverflowError.
    text = PLAIN_PREFIX + f"1 {index}:1\n"
    with pytest.raises(LibsvmParseError) as got:
        parse_libsvm(text)
    assert str(got.value) == (
        f"line {PARSE_CHUNK_LINES + 6}: feature index {index} exceeds the largest supported "
        f"index {2**63 - 1}"
    )
    assert parse_libsvm(f"1 {2**63 - 1}:1\n").p == 2**63 - 1


@pytest.mark.parametrize(
    "line, what",
    [
        ("-1 1:nan", "feature value nan"),
        ("-1 1:1 2:-inf", "feature value -inf"),
        ("-1 1:1e999", "feature value inf"),  # plain bytes: the vectorised path
        ("nan 1:1", "label nan"),
        ("inf", "label inf"),
    ],
)
def test_parse_rejects_non_finite_numbers_with_their_line(line, what):
    text = PLAIN_PREFIX + "\n" + line + "\n-1 1:nan\n"
    with pytest.raises(LibsvmParseError) as got:
        parse_libsvm(text)
    assert str(got.value) == f"line {PARSE_CHUNK_LINES + 7}: {what} is not finite"


@pytest.mark.parametrize("line", ["1 +3:1", "1 1:1_0", "1 3:١", "1\x1c2:1", "1 1:1\r2:2"])
def test_chunked_parse_reads_unusual_tokens_like_reference(line):
    text = PLAIN_PREFIX + line + "\n1 1:1\n"
    assert_same_parse(parse_libsvm(text), reference_parse(text))


def test_normalize_rows_simple():
    ds = Dataset(np.array([[3.0, 4.0], [0.0, 0.0]]), np.array([1.0, -1.0]))
    out = normalize_rows(ds)
    np.testing.assert_allclose(out.features[0], [0.6, 0.8], atol=1e-15)
    np.testing.assert_allclose(out.features[1], [0.0, 0.0])


def test_normalize_rows_random_and_idempotent():
    ds = random_sparse_dataset(40, 15, 0.4, seed=5)
    out = normalize_rows(ds)
    norms = out.row_norms()
    nz = norms > 0
    assert np.all(np.abs(norms[nz] - 1.0) <= 1e-12)
    again = normalize_rows(out)
    np.testing.assert_allclose(
        again.features.toarray(), out.features.toarray(), atol=1e-15
    )


def test_normalize_rows_sparse_matches_dense():
    ds = random_sparse_dataset(20, 8, 0.5, seed=6)
    dense = Dataset(ds.dense_features(), ds.labels)
    a = normalize_rows(ds).dense_features()
    b = normalize_rows(dense).features
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_standardize_two_point_column():
    ds = Dataset(np.array([[1.0], [3.0]]), np.array([0.0, 1.0]))
    stats = standardization_stats(ds)
    out = standardize(ds, stats)
    np.testing.assert_allclose(out.features.ravel(), [-1.0, 1.0], atol=1e-14)


def test_standardize_constant_column_centers_only():
    ds = Dataset(np.array([[5.0, 1.0], [5.0, 3.0]]), np.array([0.0, 1.0]))
    out = standardize(ds, standardization_stats(ds))
    np.testing.assert_allclose(out.features[:, 0], [0.0, 0.0])


def test_standardize_random_moments_and_idempotence():
    rng = make_rng(8)
    ds = Dataset(rng.uniform(-3, 5, size=(200, 7)), rng.standard_normal(200))
    stats = standardization_stats(ds)
    out = standardize(ds, stats)
    assert np.abs(out.features.mean(axis=0)).max() <= 1e-12
    assert np.abs(out.features.var(axis=0) - 1.0).max() <= 1e-10
    twice = standardize(out, standardization_stats(out))
    np.testing.assert_allclose(twice.features, out.features, atol=1e-10)


def test_standardize_train_stats_apply_to_test():
    rng = make_rng(9)
    full = Dataset(rng.standard_normal((50, 4)), rng.standard_normal(50))
    train, test = split(full, 0.8, seed=0)
    stats = standardization_stats(train)
    test_out = standardize(test, stats)
    manual = (test.features - stats.mean) / stats.scale
    np.testing.assert_allclose(test_out.features, manual, atol=1e-14)


def test_random_features_rff_at_zero():
    fmap = FeatureMap.create("rff-cosine", dim=16, input_dim=4, seed=1)
    ds = Dataset(np.zeros((3, 4)), np.zeros(3))
    out = random_features(ds, fmap)
    want = np.sqrt(2.0 / 16) * np.cos(fmap.offsets)
    np.testing.assert_allclose(out.features, np.tile(want, (3, 1)), atol=1e-15)


def test_random_features_relu_at_zero():
    fmap = FeatureMap.create("relu", dim=8, input_dim=4, seed=1)
    ds = Dataset(np.zeros((2, 4)), np.zeros(2))
    out = random_features(ds, fmap)
    np.testing.assert_array_equal(out.features, np.zeros((2, 8)))


def test_random_features_reproducible_and_dim_check():
    rng = make_rng(10)
    ds = Dataset(rng.standard_normal((5, 6)), np.zeros(5))
    f1 = FeatureMap.create("rff-cosine", dim=32, input_dim=6, seed=77)
    f2 = FeatureMap.create("rff-cosine", dim=32, input_dim=6, seed=77)
    np.testing.assert_array_equal(
        random_features(ds, f1).features, random_features(ds, f2).features
    )
    bad = FeatureMap.create("rff-cosine", dim=32, input_dim=5, seed=77)
    with pytest.raises(ValueError, match="input features"):
        random_features(ds, bad)


def test_random_features_gaussian_kernel():
    # inner products of cosine features approximate exp(-||x - y||^2 / 2)
    rng = make_rng(11)
    fmap = FeatureMap.create("rff-cosine", dim=20000, input_dim=10, seed=3, bandwidth=1.0)
    errs = []
    for _ in range(50):
        x = rng.standard_normal(10)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(10)
        y /= np.linalg.norm(y)
        ds = Dataset(np.vstack([x, y]), np.zeros(2))
        z = random_features(ds, fmap).features
        kernel = np.exp(-np.linalg.norm(x - y) ** 2 / 2.0)
        errs.append(abs(float(z[0] @ z[1]) - kernel))
    assert np.median(errs) <= 0.02


def test_split_sizes_and_reproducibility():
    rng = make_rng(12)
    ds = Dataset(rng.standard_normal((10, 3)), rng.standard_normal(10))
    tr, te = split(ds, 0.8, seed=4)
    assert (tr.n, te.n) == (8, 2)
    tr2, te2 = split(ds, 0.8, seed=4)
    np.testing.assert_array_equal(tr.features, tr2.features)
    np.testing.assert_array_equal(te.labels, te2.labels)


def test_split_is_partition():
    rng = make_rng(13)
    labels = np.arange(30, dtype=float)  # identify rows by label
    ds = Dataset(rng.standard_normal((30, 2)), labels)
    tr, te = split(ds, 0.7, seed=5)
    merged = sorted(np.concatenate([tr.labels, te.labels]).tolist())
    assert merged == labels.tolist()


def test_split_rejects_tiny():
    ds = Dataset(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(ValueError):
        split(ds, 0.5, seed=0)
    with pytest.raises(ValueError):
        split(Dataset(np.zeros((5, 2)), np.zeros(5)), 1.2, seed=0)


def test_condition_lower_bound_identity():
    n = 120
    ds = Dataset(sp.eye(n, format="csr"), np.zeros(n))
    assert condition_lower_bound(ds, 0.0, r=100) == pytest.approx(1.0, rel=1e-12)


def test_condition_lower_bound_planted_diag():
    vals = np.ones(150)
    vals[0] = 10.0
    ds = Dataset(sp.diags(vals, format="csr").tocsr(), np.zeros(150))
    assert condition_lower_bound(ds, 0.0, r=2) == pytest.approx(100.0, rel=1e-10)


def test_condition_lower_bound_planted_spectrum():
    eigs = 1.0 / np.arange(1, 101) ** 2
    ds, _ = planted_least_squares(400, 100, condition=1e4, seed=1, eigenvalues=eigs)
    l2 = 1e-3
    for r in (10, 100):
        want = (eigs[0] + l2) / (eigs[r - 1] + l2)
        got = condition_lower_bound(ds, l2, r=r)
        assert got == pytest.approx(want, rel=1e-6)


def test_condition_lower_bound_rank_deficient_warns():
    rng = make_rng(14)
    low = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 20))
    ds = Dataset(low, np.zeros(40))
    with pytest.warns(RuntimeWarning, match="biased upward"):
        condition_lower_bound(ds, 0.0, r=10)


def test_condition_lower_bound_validates_r():
    ds = Dataset(np.eye(5), np.zeros(5))
    with pytest.raises(ValueError):
        condition_lower_bound(ds, 0.0, r=6)


def test_dataset_validation():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[np.inf]]), np.array([1.0]))
    with pytest.raises(ValueError, match="label count"):
        Dataset(np.zeros((2, 2)), np.zeros(3))
