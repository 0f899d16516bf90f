import gzip
import io
import random

import numpy as np
import pytest
import scipy.sparse as sp

from sketchysgd import data as data_module
from sketchysgd.data import (
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

import reference


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
    for count in (2.5, 3.0, True, 0):  # never truncated
        with pytest.raises(ValueError, match=f"^num_features must be a positive integer or None, got {count!r}$"):
            parse_libsvm("1 1:1.0", num_features=count)


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


@pytest.mark.parametrize("name", ["data.svm", "data.svm.gz"])
def test_load_libsvm_takes_a_path_or_a_str(tmp_path, name):
    """A ``Path`` and a ``str``, plain or gzip, all read the one matrix."""
    path = tmp_path / name
    raw = b"1 1:0.5\n-1 2:1\n"
    path.write_bytes(gzip.compress(raw) if name.endswith(".gz") else raw)
    for given in (path, str(path)):
        ds = load_libsvm(given)
        assert np.array_equal(ds.features.toarray(), [[0.5, 0.0], [0.0, 1.0]])
        assert np.array_equal(ds.labels, [1.0, -1.0])


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


#: Lines that put the line after them deep inside one read block.
DEEP_LINES = 4096
#: A read block that puts that line in a later block.
SMALL_BLOCK = 1 << 10


def test_chunked_parse_matches_reference_on_every_source(tmp_path, monkeypatch):
    text = random_libsvm_text(2 * DEEP_LINES + 2000, seed=5)
    want = reference_parse(text)
    assert want.n > 2 * DEEP_LINES
    raw = tmp_path / "data.svm"
    raw.write_bytes(text.encode())
    zipped = tmp_path / "data.svm.gz"
    zipped.write_bytes(gzip.compress(text.encode()))

    def line_at_a_time(text, consumed):
        raise AssertionError("plain text left the vectorised path")

    monkeypatch.setattr(data_module, "_parse_lines", line_at_a_time)
    assert_same_parse(parse_libsvm(text), want)
    assert_same_parse(parse_libsvm(io.StringIO(text)), want)
    assert_same_parse(load_libsvm(raw), want)
    assert_same_parse(load_libsvm(zipped), want)
    assert_same_parse(parse_libsvm(text, num_features=80000), reference_parse(text, num_features=80000))


PLAIN_PREFIX = "1 1:0.5 7:2\n-1\n" * (DEEP_LINES // 2) + "1 3:1\n" * 5


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
def test_chunked_parse_rejects_like_reference(monkeypatch, line):
    text = PLAIN_PREFIX + line + "\n1 1:1\n"
    with pytest.raises(LibsvmParseError) as want:
        reference_parse(text)
    for block in (data_module.READ_BLOCK_CHARS, SMALL_BLOCK):
        monkeypatch.setattr(data_module, "READ_BLOCK_CHARS", block)
        with pytest.raises(LibsvmParseError) as got:
            parse_libsvm(text)
        assert str(got.value) == str(want.value)
        assert f"line {DEEP_LINES + 6}:" in str(got.value)


@pytest.mark.parametrize("index", ["99999999999999999999", str(2**63)])
def test_chunked_parse_rejects_overflowing_index(index):
    # The old loop (the reference) let this escape as an OverflowError.
    text = PLAIN_PREFIX + f"1 {index}:1\n"
    with pytest.raises(LibsvmParseError) as got:
        parse_libsvm(text)
    assert str(got.value) == (
        f"line {DEEP_LINES + 6}: feature index {index} exceeds the largest supported "
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
def test_parse_rejects_non_finite_numbers_with_their_line(monkeypatch, line, what):
    text = PLAIN_PREFIX + "\n" + line + "\n-1 1:nan\n"
    for block in (data_module.READ_BLOCK_CHARS, SMALL_BLOCK):
        monkeypatch.setattr(data_module, "READ_BLOCK_CHARS", block)
        with pytest.raises(LibsvmParseError) as got:
            parse_libsvm(text)
        assert str(got.value) == f"line {DEEP_LINES + 7}: {what} is not finite"


@pytest.mark.parametrize("line", ["1 +3:1", "1 1:1_0", "1 3:١", "1\x1c2:1", "1 1:1\r2:2"])
def test_chunked_parse_reads_unusual_tokens_like_reference(line):
    text = PLAIN_PREFIX + line + "\n1 1:1\n"
    assert_same_parse(parse_libsvm(text), reference_parse(text))


def fast_and_slow_decimals(seed):
    """Decimal tokens at every edge of the digit kernel, as ``(token, fast)``:
    ``fast`` is whether the kernel reads it, else ``np.fromstring`` does."""
    edges = [("-0", True), ("-0.0", True), ("+.5", True), ("5.", True), (".5", True), ("+0", True),
             ("007", True), ("-000000000000001.5", True), ("0.0000000000000001", True),
             ("0.000000000000000001", False),  # 20 characters
             ("123456789012345", True), ("1234567890123456", False), ("0.123456789012345", True),
             ("0.1234567890123456", False), ("99999999999999.9", True), ("9007199254740993", False),
             ("0000000000000000001", False), ("1e-3", False), ("-2E+2", False),
             (repr(0.1 + 0.2), False), (repr(-1 / 3), False)]
    rng = random.Random(seed)
    tokens = list(edges)
    for _ in range(3000):
        significant = rng.randrange(1, 18)
        digits = str(rng.randrange(1, 10)) + "".join(rng.choice("0123456789") for _ in range(significant - 1))
        zeros = "0" * rng.choice([0, 0, 1, 3])
        point = rng.randrange(len(digits) + 1)
        body = zeros + digits[:point] + "." + digits[point:] if rng.random() < 0.8 else zeros + digits
        if rng.random() < 0.05:
            body = body.rstrip(".") if "." in body else body + "."
        token = rng.choice(["", "", "-", "+"]) + body
        tokens.append((token, significant <= 15 and len(token) <= 18))
    return tokens


def count_fromstring(monkeypatch):
    calls = []
    fromstring = np.fromstring

    def counted(*args, **kwargs):
        calls.append(1)
        return fromstring(*args, **kwargs)

    monkeypatch.setattr(np, "fromstring", counted)
    return calls


def test_digit_kernel_reads_decimals_to_the_bits_of_float(monkeypatch):
    """Labels and values up to 15 significant digits are read by the kernel
    as the bits ``float`` gives; longer ones by ``np.fromstring``, also
    exactly."""
    calls = count_fromstring(monkeypatch)
    for token, fast in fast_and_slow_decimals(seed=21):
        ds = parse_libsvm(f"{token} 3:{token}\n")
        want = np.array([float(token)])
        assert ds.labels.tobytes() == want.tobytes(), token
        assert ds.features.data.tobytes() == want.tobytes(), token
        assert len(calls) == (0 if fast else 1), token
        calls.clear()
    negative_zero = parse_libsvm("-0 1:1\n-0.0 1:1\n").labels
    assert np.signbit(negative_zero).all()


def test_chunk_mixing_kernel_and_fromstring_numbers_matches_reference(monkeypatch):
    calls = count_fromstring(monkeypatch)
    lines = [f"{token} 1:{token} 5:0.25 9:{other}" for (token, _fast), (other, _) in
             zip(fast_and_slow_decimals(seed=22), fast_and_slow_decimals(seed=23)[::-1])]
    text = "\n".join(lines) + "\n"
    want = reference_parse(text)
    assert_same_parse(parse_libsvm(text), want)
    assert calls  # the chunk holds exponents and 17-digit reprs
    calls.clear()
    text = "\n".join(f"{token} 2:{token}" for token, fast in fast_and_slow_decimals(seed=24) if fast)
    assert_same_parse(parse_libsvm(text), reference_parse(text))
    assert not calls


@pytest.mark.parametrize("token", ["-", ".", "1.2.3", "+-1", "-.", "+", "1-", "1.5+3"])
@pytest.mark.parametrize("where", ["label", "value"])
def test_numbers_outside_the_grammar_are_rejected_like_reference(token, where):
    line = f"{token} 2:1.5" if where == "label" else f"1 2:{token}"
    text = PLAIN_PREFIX + line + "\n1 1:1\n"
    with pytest.raises(LibsvmParseError) as want:
        reference_parse(text)
    with pytest.raises(LibsvmParseError) as got:
        parse_libsvm(text)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"line {DEEP_LINES + 6}: malformed ")


def test_benchmark_shaped_text_never_calls_fromstring(monkeypatch):
    """+/-1 labels and values rounded to 4 decimals, as the benchmark's
    generator writes them, stay on the digit kernel."""
    rng = np.random.default_rng(25)
    lines = []
    for _ in range(3000):
        cols = np.unique(rng.integers(1, 20001, size=10))
        vals = np.round(rng.uniform(0.5, 1.5, size=cols.size), 4)
        features = " ".join(f"{c}:{v!r}" for c, v in zip(cols.tolist(), vals.tolist()))
        lines.append(rng.choice(["1", "-1"]) + " " + features)
    text = "\n".join(lines) + "\n"
    want = reference_parse(text)
    calls = count_fromstring(monkeypatch)

    def line_at_a_time(text, consumed):
        raise AssertionError("plain text left the vectorised path")

    monkeypatch.setattr(data_module, "_parse_lines", line_at_a_time)
    assert_same_parse(parse_libsvm(text), want)
    assert not calls


def assert_same_outcome(got, want):
    """Both calls parse to the same arrays, or both raise the same error."""
    try:
        expected = want()
    except LibsvmParseError as exc:
        with pytest.raises(LibsvmParseError) as raised:
            got()
        assert str(raised.value) == str(exc)
    else:
        assert_same_parse(got(), expected)


BLOCK_EDGE_TEXTS = {
    "crlf": b"1 1:0.5 3:2\r\n-1 2:1.25\r\n\r\n+1 4:-3\r\n",
    "lone-cr": b"1 1:0.5 3:2\r-1 2:1.25\r\r+1 4:-3\r",
    "no-trailing-newline": b"1 1:0.5 3:2\n-1 2:1.25\n+1 4:-3",
    "long-line": b"1 " + b" ".join(b"%d:0.%04d" % (i, i) for i in range(1, 400)) + b"\n-1 7:1\n",
    "blank-lines": b"\n\n  \n1 1:1\n\t\n\n \r\n-1 2:2\n\n\n\n+1 3:3\n\n  \n",
    "padded": b"  1 1:1  \n\t-1\t2:2\t\r\n \r 1 3:3 \r\n",
}


@pytest.mark.parametrize("name", sorted(BLOCK_EDGE_TEXTS))
@pytest.mark.parametrize("block", [1, 3, 16, 1 << 19])
def test_bulk_reads_match_reference_at_every_block_edge(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(data_module, "READ_BLOCK_CHARS", block)
    raw = BLOCK_EDGE_TEXTS[name]
    path = tmp_path / "data.svm"
    path.write_bytes(raw)
    with open(path) as handle:  # universal newlines, as load_libsvm reads
        want = reference_parse(handle)
    assert_same_parse(load_libsvm(path), want)
    text = raw.decode()  # a string keeps a lone carriage return inside its line
    for source in (text, io.StringIO(text)):
        assert_same_outcome(lambda: parse_libsvm(source), lambda: reference_parse(text))
    # The same text, then a blank line, a bad line and a good one: the error
    # names the bad line, whether it leaves the vectorised path or not.
    for bad, fragment in ((b"1 2:1 1:1", "does not increase"), (b"1 1:1e999", "not finite")):
        path.write_bytes(raw + (b"" if raw.endswith((b"\n", b"\r")) else b"\n") + b"\n" + bad + b"\n1 1:1\n")
        with open(path) as handle:
            lineno = sum(1 for _ in handle) - 1
        with pytest.raises(LibsvmParseError) as got:
            load_libsvm(path)
        assert str(got.value).startswith(f"line {lineno}: ") and fragment in str(got.value)
        if fragment != "not finite":  # the reference reads inf without a line
            with open(path) as handle, pytest.raises(LibsvmParseError) as want:
                reference_parse(handle)
            assert str(got.value) == str(want.value)


# Faulty lines and the error each raises, after its ``line N: ``.
FUZZ_FAULTS = [
    ("1 nocolon", "malformed token 'nocolon'"),
    ("1 2:abc", "malformed token '2:abc'"),
    ("1 4:1 4:2", "feature index 4 does not increase past 4"),
    ("1 3:1 2:1", "feature index 2 does not increase past 3"),
    ("1 0:1", "feature indices are 1-based, got 0"),
    (f"1 {2**63}:1", f"feature index {2**63} exceeds the largest supported index {2**63 - 1}"),
    ("-1 1:1e999", "feature value inf is not finite"),
    ("nan 1:1", "label nan is not finite"),
    ("inf 2:1", "label inf is not finite"),
]
# Faults the reference does not name: it reads non-finite numbers, and an
# index above 2**63 - 1 escapes it as an OverflowError.
FUZZ_FAULTS_UNKNOWN_TO_REFERENCE = {f"1 {2**63}:1", "-1 1:1e999", "nan 1:1", "inf 2:1"}


def fuzz_libsvm_text(rng):
    """A short libsvm text with 0-2 faulty lines, the error that names its
    first faulty line (None if it has none), and its faulty lines that the
    reference does not name."""
    lines = []
    for _ in range(rng.randrange(1, 12)):
        if rng.random() < 0.15:
            lines.append((rng.choice(["", "  ", "\t", " \t "]), None))
            continue
        tokens = [rng.choice(["1", "-1", "+1", "0.5", "-3.25", "1e-3"])]
        for idx in sorted(rng.sample(range(1, 40), rng.randrange(5))):
            head = f"+{idx}" if rng.random() < 0.1 else str(idx)
            tail = rng.choice(["1", "0.25", "-7.5", "1e-3", "0.12345678901234567", "1_0"])
            tokens.append(f"{head}:{tail}")
        line = rng.choice([" ", "\t", "  "]).join(tokens)
        lines.append((f"  {line}\t " if rng.random() < 0.2 else line, None))
    for _ in range(rng.randrange(3)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(FUZZ_FAULTS))
    text = "".join(line + rng.choice(["\n", "\n", "\r\n"]) for line, _ in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    first = next((f"line {n}: {error}" for n, (_, error) in enumerate(lines, start=1) if error), None)
    return text, first, {line for line, _ in lines} & FUZZ_FAULTS_UNKNOWN_TO_REFERENCE


def parse_outcome(parse):
    """The arrays a parse gives, as bytes, or the message of its error."""
    try:
        ds = parse()
    except LibsvmParseError as exc:
        return str(exc)
    arrays = (ds.features.data, ds.features.indices, ds.features.indptr, ds.labels)
    return ds.features.shape, tuple((a.dtype.str, a.tobytes()) for a in arrays)


def test_parse_fuzz_names_the_first_faulty_line_on_every_source_and_block(tmp_path, monkeypatch):
    rng = random.Random(2024)
    path = tmp_path / "fuzz.svm"
    for _ in range(300):
        text, first_error, unknown_to_reference = fuzz_libsvm_text(rng)
        path.write_bytes(text.encode())
        outcomes = set()
        for block in (5, 7, 64, 4096, 2**19):
            monkeypatch.setattr(data_module, "READ_BLOCK_CHARS", block)
            outcomes.add(parse_outcome(lambda: parse_libsvm(text)))
            outcomes.add(parse_outcome(lambda: parse_libsvm(io.StringIO(text))))
            outcomes.add(parse_outcome(lambda: load_libsvm(path)))
        assert len(outcomes) == 1, text
        (outcome,) = outcomes
        if first_error is not None:
            assert outcome == first_error, text
        else:
            assert not isinstance(outcome, str), text
        if not unknown_to_reference:
            assert parse_outcome(lambda: reference_parse(text)) == outcome, text


def result_bytes(*datasets):
    return sum(ds.features.data.nbytes + ds.features.indices.nbytes + ds.features.indptr.nbytes
               + ds.labels.nbytes for ds in datasets)


#: A read block whose working set is small beside a few MB of result.
MEMORY_BLOCK = 1 << 14


def test_parse_holds_its_result_and_one_block(tmp_path, monkeypatch):
    monkeypatch.setattr(data_module, "READ_BLOCK_CHARS", MEMORY_BLOCK)
    path = tmp_path / "zipf.svm"
    path.write_text(reference.zipf_libsvm_text(20000, 20000, 10, seed=7))
    ds, peak = reference.traced_peak(load_libsvm, path)
    assert ds.features.indices.dtype == ds.features.indptr.dtype == np.int32
    assert peak <= 2.0 * result_bytes(ds)


def test_str_source_costs_its_utf8_bytes(tmp_path, monkeypatch):
    """A string is read through its UTF-8 bytes, not 4 bytes per character."""
    monkeypatch.setattr(data_module, "READ_BLOCK_CHARS", MEMORY_BLOCK)
    text = reference.zipf_libsvm_text(10000, 20000, 10, seed=8)
    path = tmp_path / "zipf.svm"
    path.write_text(text)
    from_file, file_peak = reference.traced_peak(load_libsvm, path)
    from_str, str_peak = reference.traced_peak(parse_libsvm, text)
    assert_same_parse(from_str, from_file)
    assert str_peak <= file_peak + 1.5 * len(text)


@pytest.mark.parametrize("text", [
    "1 1:0.5\r\n-1 2:1\r\n", "1 1:0.5\r-1 2:1\r", "1 1:1\r2:2\n", "1 3:\u0661\n1 1:1\n",
    "1 1:1 # caf\u00e9\n", "\u00e9 1:1\n", "1 1:1\n\ud800 2:1\n", "1 1:1\udfff\n",
    "1 2:1\n\ud83d\ude00\n", "\U0001f600\n", "1 1:1\u2028-1 2:1\n",
])
def test_str_source_reads_like_a_string_stream(monkeypatch, text):
    """Line ends, non-ASCII text and lone surrogates in a string give the
    arrays, or the error and its line, of the same text read as a stream."""
    for block in (2, data_module.READ_BLOCK_CHARS):
        monkeypatch.setattr(data_module, "READ_BLOCK_CHARS", block)
        assert parse_outcome(lambda: parse_libsvm(text)) == parse_outcome(
            lambda: parse_libsvm(io.StringIO(text)))


def test_index_past_int32_in_a_later_block_widens_the_indices(tmp_path, monkeypatch):
    monkeypatch.setattr(data_module, "READ_BLOCK_CHARS", SMALL_BLOCK)
    text = PLAIN_PREFIX + f"1 5:1 {2**31 + 1}:2.5\n-1 3:1\n"
    path = tmp_path / "wide.svm"
    path.write_text(text)
    got = load_libsvm(path)
    assert got.features.indices.dtype == np.int64
    assert got.features.indices[-3:].tolist() == [4, 2**31, 2]
    assert_same_parse(got, reference_parse(text))


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


def test_csr_normalize_rows_equals_the_diagonal_product_to_the_bit():
    """The stored values scaled in place of ``sp.diags(inv) @ X``, which
    drops stored zeros and products that underflow to 0."""
    rng = make_rng(26)
    mat = sp.random(60, 40, density=0.2, random_state=np.random.RandomState(26), format="csr")
    mat.data = rng.standard_normal(mat.nnz)
    mat.data[::9] = 0.0
    mat.data[1::9] = 5e-324
    mat.data[2::11] = 1e12
    mat.data[3::13] = 1e200  # norms that overflow: the row scales to 0
    for features in (mat, sp.csr_matrix((4, 3)), sp.csr_matrix(np.eye(3))):
        ds = Dataset(features, np.zeros(features.shape[0]))
        before = [getattr(ds.features, name).copy() for name in ("data", "indices", "indptr")]
        norms = ds.row_norms()
        inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 1.0)
        want = Dataset((sp.diags(inv) @ ds.features).tocsr(), ds.labels)
        got = normalize_rows(ds)
        assert_same_parse(got, want)
        for name, array in zip(("data", "indices", "indptr"), before):
            np.testing.assert_array_equal(getattr(ds.features, name), array)
    ds = Dataset(sp.csr_matrix(np.eye(3)), np.zeros(3))
    got = normalize_rows(ds).features
    assert np.shares_memory(got.indices, ds.features.indices)
    assert np.shares_memory(got.indptr, ds.features.indptr)


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
    # NumPy takes only integers as shapes; 1 / bandwidth must be finite
    for key, value in (("dim", True), ("dim", 2.5), ("dim", 3.0), ("seed", -1), ("bandwidth", 1e-320),
                       ("kind", "cosine")):
        with pytest.raises(ValueError, match=f"^{key} must be .*, got {value!r}$"):
            FeatureMap.create(**{"kind": "rff-cosine", "dim": 32, "input_dim": 6, "seed": 77, key: value})


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


@pytest.mark.parametrize("kind", ["rff-cosine", "relu"])
@pytest.mark.parametrize("sparse", [False, True])
def test_random_features_work_in_the_projection_buffer(kind, sparse):
    """The map holds one n x D matrix: NumPy allocations peak at 1.1x the
    output plus the input.  Buffers inside BLAS are not traced."""
    rng = make_rng(15)
    dense = rng.standard_normal((4000, 50))
    ds = Dataset(sp.csr_matrix(dense) if sparse else dense, np.zeros(4000))
    fmap = FeatureMap.create(kind, dim=1500, input_dim=50, seed=2, bandwidth=2.0)
    out, peak = reference.traced_peak(random_features, ds, fmap)
    proj = ds.features @ fmap.weights
    if kind == "rff-cosine":
        want = np.sqrt(2.0 / fmap.dim) * np.cos(proj + fmap.offsets[None, :])
    else:
        want = np.maximum(proj, 0.0)
    np.testing.assert_array_equal(out.features, want)
    inputs = ds.features.data.nbytes if sparse else ds.features.nbytes
    assert peak <= 1.1 * out.features.nbytes + inputs


def test_csr_row_norms_square_only_the_stored_values():
    """Bit for bit the norms of the squared matrix, and NumPy allocations
    stay below one squared copy of the CSR arrays."""
    ds = random_sparse_dataset(3000, 400, 0.05, seed=16)
    feats = ds.features
    norms, peak = reference.traced_peak(ds.row_norms)
    np.testing.assert_array_equal(norms, np.sqrt(np.asarray(feats.multiply(feats).sum(axis=1)).ravel()))
    assert peak < feats.data.nbytes + feats.indices.nbytes + feats.indptr.nbytes


def test_csr_with_duplicate_entries_sums_them():
    mat = sp.csr_matrix((np.array([1.0, 2.0, 4.0, -3.0]), np.array([2, 0, 2, 1]), np.array([0, 3, 4])),
                        shape=(2, 3))
    ds = Dataset(mat, np.zeros(2))
    assert ds.features.nnz == 3
    np.testing.assert_array_equal(ds.dense_features(), [[2.0, 0.0, 5.0], [0.0, -3.0, 0.0]])
    np.testing.assert_array_equal(ds.row_norms(), np.sqrt([29.0, 9.0]))


@pytest.mark.parametrize(
    "data, indices, indptr",
    [([1.0, 2.0], [2, 0], [0, 2]), ([1.0, 2.0, 4.0], [2, 0, 2], [0, 3])],
    ids=["unsorted", "duplicate"],
)
def test_dataset_leaves_the_callers_csr_matrix_as_it_was(data, indices, indptr):
    mat = sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), shape=(1, 3))
    copies = [mat.data.copy(), mat.indices.copy(), mat.indptr.copy()]
    ds = Dataset(mat, np.zeros(1))
    for got, want in zip((mat.data, mat.indices, mat.indptr), copies):
        np.testing.assert_array_equal(got, want)
    assert ds.features is not mat
    np.testing.assert_array_equal(ds.dense_features(), mat.toarray())


def test_dataset_keeps_a_canonical_csr_matrix_without_copying():
    mat = sp.csr_matrix(np.eye(3))
    assert Dataset(mat, np.zeros(3)).features is mat


def test_dense_finiteness_check_allocates_no_matrix_sized_mask():
    rng = make_rng(27)
    dense = rng.standard_normal((4000, 50))
    labels = np.zeros(4000)
    _ds, peak = reference.traced_peak(Dataset, dense, labels)
    assert peak < dense.nbytes / 32
    for bad in (np.nan, np.inf, -np.inf):
        broken = dense.copy()
        broken[1234, 7] = bad
        with pytest.raises(ValueError, match="dataset contains non-finite feature values"):
            Dataset(broken, labels)
    assert Dataset(np.zeros((0, 3)), np.zeros(0)).n == 0


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
    with pytest.raises(ValueError, match="^fraction must be"):
        split(Dataset(np.zeros((5, 2)), np.zeros(5)), 1.2, seed=0)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        split(Dataset(np.zeros((5, 2)), np.zeros(5)), 0.5, seed=-1)


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
