"""Dataset ingestion, preprocessing, and random-feature transforms.

A :class:`Dataset` wraps an n x p sample matrix (dense row-major float64 or
scipy CSR) together with its label vector.  Text ingestion uses the libsvm
format: one sample per line, ``<label> <idx>:<val> ...`` with 1-based,
strictly increasing feature indices no larger than 2^63 - 1 and finite
numbers; anything else raises :class:`LibsvmParseError` with its line.  All
transforms are pure: they return new datasets and never mutate their input.

:func:`parse_libsvm` reads a string or a text stream; a string is read
through its UTF-8 bytes.  The stream is read in blocks of
:data:`READ_BLOCK_CHARS` characters, each cut after its last newline, so text
mode keeps its universal newlines and decode errors.  Each block is written
into the result's arrays, so the parse holds the result and one block's
working set, and the result's indices are int32 while they fit.
``_parse_line`` is the one statement of the line grammar, finiteness
included: it reads the unusual but legal tokens (``+3:1``, ``1:1_0``) and
raises the error of the first faulty token with its line number.
``_parse_plain`` reads a block in NumPy when every
line is plain (blank, or ``label idx:val ...`` in ASCII number fields
between spaces, tabs and carriage returns, with finite numbers): it finds
the tokens and checks their structure, and one digit kernel reads the
indices, labels and values right-aligned, one byte column at a time across
all tokens.  A label or value ``[+-]?digits[.digits]`` of at most 15
significant digits is ``±M / 10**k`` with M and ``10**k`` exact in float64,
so the one correctly rounded division gives the bits of ``float`` (Clinger's
fast path).  A block with another number (an exponent, 16 or more
significant digits, more than 18 characters) reads its labels and values
with one ``np.fromstring`` call, which also gives the bits of ``float``.
``_parse_plain`` either returns the arrays of ``_parse_line`` to the bit or
hands the whole block to it, so the first faulty line is named whatever the
block size.
"""

from __future__ import annotations

import gzip
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._rules import SEED, check_rules, number, positive, shape
from .linalg import DiagnosticCapError, EIGH_DIM_CAP, eigh_small


class LibsvmParseError(ValueError):
    """Malformed libsvm text; the message carries the 1-based line number."""


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite, without an entry-sized temporary: a
    NaN makes the minimum NaN, and an infinity is the minimum or maximum."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass(frozen=True)
class Dataset:
    """Row-major sample matrix with labels.

    ``features`` is either a dense float64 ndarray or a ``scipy.sparse``
    CSR matrix; ``labels`` holds regression targets or +/-1 class labels.
    """

    features: object
    labels: np.ndarray

    def __post_init__(self):
        feats = self.features
        if sp.issparse(feats):
            feats = feats.tocsr()
            if not feats.has_canonical_format:
                # Canonical form: sorted column indices, each stored at most
                # once.  A copy, since tocsr() may return the caller's matrix.
                feats = feats.copy()
                feats.sum_duplicates()
            if not _all_finite(feats.data):
                raise ValueError("dataset contains non-finite feature values")
        else:
            feats = np.ascontiguousarray(np.asarray(feats, dtype=np.float64))
            if feats.ndim != 2:
                raise ValueError("features must be a 2-d matrix")
            if not _all_finite(feats):
                raise ValueError("dataset contains non-finite feature values")
        labels = np.asarray(self.labels, dtype=np.float64).ravel()
        if labels.shape[0] != feats.shape[0]:
            raise ValueError(
                f"label count {labels.shape[0]} does not match sample count {feats.shape[0]}"
            )
        if not _all_finite(labels):
            raise ValueError("dataset contains non-finite labels")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.features)

    def dense_features(self) -> np.ndarray:
        if self.is_sparse:
            return self.features.toarray()
        return self.features

    def row_norms(self) -> np.ndarray:
        """Euclidean norm of every sample row.

        On CSR features only the stored values are squared; the matrix of
        squares shares the index arrays rather than copying them.
        """
        if self.is_sparse:
            feats = self.features
            # A square past the float range is inf, as on dense rows, and
            # callers check what they derive from it.
            with np.errstate(over="ignore"):
                squares = sp.csr_matrix((feats.data * feats.data, feats.indices, feats.indptr), shape=feats.shape)
            sq = np.asarray(squares.sum(axis=1)).ravel()
        else:
            sq = np.einsum("ij,ij->i", self.features, self.features)
        return np.sqrt(sq)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset as a new dataset."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices])


#: Largest 1-based feature index: the 0-based column must fit in int64.
_MAX_INDEX = 2**63 - 1


def _parse_line(line: str, lineno: int):
    parts = line.split()
    try:
        label = float(parts[0])
    except ValueError:
        raise LibsvmParseError(f"line {lineno}: malformed label token {parts[0]!r}") from None
    if not math.isfinite(label):
        raise LibsvmParseError(f"line {lineno}: label {label!r} is not finite")
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
        if idx > _MAX_INDEX:
            raise LibsvmParseError(
                f"line {lineno}: feature index {idx} exceeds the largest supported "
                f"index {_MAX_INDEX}"
            )
        if idx <= prev:
            raise LibsvmParseError(
                f"line {lineno}: feature index {idx} does not increase past {prev}"
            )
        if not math.isfinite(val):
            raise LibsvmParseError(f"line {lineno}: feature value {val!r} is not finite")
        prev = idx
        idxs.append(idx - 1)
        vals.append(val)
    return label, idxs, vals


#: Characters per ``read`` of a text stream; each block is cut after its
#: last newline.  Blocks of 2**17 to 2**20 characters parse a file equally
#: fast; smaller ones pay NumPy's per-call cost more often.  A block's working
#: set is about 11.4 bytes per character (6.0 MB at 2**19, tracemalloc).
READ_BLOCK_CHARS = 1 << 19

# The bytes of a plain libsvm block; any other byte leaves it to _parse_line.
_PLAIN_BYTES = b"0123456789.eE+-: \t\r\n"

#: The widest token the digit kernel reads: 18 digits fit int64.
_MAX_WIDTH = 18
#: ``10**k`` as float64 for the digits right of a point; each is exact.
_POW10 = np.array([float(10**k) for k in range(_MAX_WIDTH)])


def _read_decimals(raw: np.ndarray, ends: np.ndarray, widths: np.ndarray, max_digits: int):
    """Read the tokens ``raw[ends - widths:ends]`` right-aligned, one byte
    column at a time across all of them, from the highest column down.

    Every token must read ``[+-]?digits[.digits]``, where either digit run
    may be empty but not both, in at most :data:`_MAX_WIDTH` bytes, with at
    most ``max_digits`` significant digits.  Returns None if one does not;
    otherwise ``(mantissa, tail, lead)``: the digits as one int64, the bytes
    from the point to the end (0 without a point), and the first byte, which
    holds any sign.
    """
    top = int(widths.max(initial=0))
    if top > _MAX_WIDTH:
        return None
    widths = widths.astype(np.uint8)
    mantissa = np.zeros(ends.size, dtype=np.int64)
    tail = np.zeros(ends.size, dtype=np.uint8)
    points = np.zeros(ends.size, dtype=np.uint8)
    others = np.zeros(ends.size, dtype=np.uint8)  # neither digit nor point
    at = ends - top
    for col in range(top - 1, -1, -1):
        byte = raw[at]
        at += 1
        live = widths > col
        digit = byte - np.uint8(ord("0"))  # wraps to above 9 for any non-digit
        is_digit = digit < 10
        is_point = (byte == ord(".")) & live
        others += live & ~(is_digit | is_point)
        points += is_point
        tail += is_point.view(np.uint8) * np.uint8(col + 1)
        digit *= is_digit & live
        # Horner's rule, skipping the point.  A column left of a token reads
        # a byte before it (or, wrapping, from the end) as a leading zero,
        # and a sign reads as one too.
        mantissa *= np.uint8(10) - np.uint8(9) * is_point.view(np.uint8)
        mantissa += digit
    at -= widths
    lead = raw[at]
    signed = (lead == ord("+")) | (lead == ord("-"))
    if ((points > 1).any() or (others != signed).any() or (widths <= signed + points).any()
            or (mantissa >= 10**max_digits).any()):
        return None
    return mantissa, tail, lead


def _parse_plain(text: str):
    """Vectorised :func:`_parse_line` over whole lines ending in a newline.

    Returns ``(labels, row_ends, indices, values, lines)`` when every line is plain:
    blank, or ``label idx:val ...`` between runs of spaces, tabs and
    carriage returns, where the label has no colon, each feature token has
    exactly one colon with a non-empty field on either side, each index is
    ASCII digits worth 1 to 10**18 - 1, indices rise within a row, and every
    label and value is one finite number made of ``[0-9.eE+-]``; the arrays
    are then those of ``_parse_line``, to the bit.  Returns None otherwise,
    so that ``_parse_line`` parses (or rejects) the lines: this function
    never decides an error.

    Labels and values of the form ``[+-]?digits[.digits]`` with at most 15
    significant digits are ``±M / 10**k`` with M and ``10**k`` exact in
    float64, so one correctly rounded division gives the bits of ``float``.
    If any number has another form, ``np.fromstring`` reads them all, which
    also gives the bits of ``float``.
    """
    if not text.isascii():
        return None
    encoded = text.encode("ascii")
    if encoded.translate(None, _PLAIN_BYTES):
        return None
    raw = np.frombuffer(encoded, dtype=np.uint8)
    # Tokens are the runs of bytes above the space; the text ends in a
    # newline, so every run ends before the last byte.
    blank = np.empty(raw.size + 1, dtype=bool)
    blank[0] = True
    np.less_equal(raw, ord(" "), out=blank[1:])
    edges = np.flatnonzero(blank[1:] != blank[:-1])
    starts, ends = edges[0::2], edges[1::2]
    # The first token of a line is its label, the others its features.
    is_label = np.zeros(starts.size + 1, dtype=bool)
    is_label[0] = True
    is_label[np.searchsorted(starts, newlines := np.flatnonzero(raw == ord("\n")))] = True
    is_label = is_label[:-1]
    labels_at = np.flatnonzero(is_label)
    features_at = np.flatnonzero(~is_label)
    # The k-th colon must lie inside the k-th feature token, neither first
    # nor last; then each feature token has one colon and no label has any.
    colons = np.flatnonzero(raw == ord(":"))
    if colons.size != features_at.size:
        return None
    index_starts = starts[features_at]
    if not ((colons > index_starts).all() and (colons < ends[features_at] - 1).all()):
        return None

    read = _read_decimals(raw, colons, colons - index_starts, 18)
    if read is None or read[1].any() or (read[2] < ord("0")).any():
        return None  # not digits alone: a point or a sign
    index = read[0]
    row_ends = np.append(labels_at[1:], starts.size) - np.arange(1, labels_at.size + 1)
    row_starts = labels_at - np.arange(labels_at.size)
    rising = np.ones(index.size, dtype=bool)
    rising[1:] = index[1:] > index[:-1]
    rising[row_starts[row_starts < index.size]] = True
    if not (rising.all() and (index >= 1).all()):
        return None

    # Labels and values, in token order.
    num_starts = starts.copy()
    num_starts[features_at] = colons + 1
    read = _read_decimals(raw, ends, ends - num_starts, 15)
    if read is not None:
        mantissa, tail, lead = read
        numbers = mantissa / _POW10[tail - (tail > 0)]
        np.negative(numbers, out=numbers, where=lead == ord("-"))
    else:
        # With indices and colons blanked out, what is left is the labels
        # and values.  A field that does not read fully as one number
        # raises; an empty value makes the count wrong.
        fields = raw.copy()
        inside = np.zeros(raw.size + 1, dtype=np.int8)
        inside[index_starts] = 1
        inside[colons + 1] = -1
        fields[np.cumsum(inside[:-1], dtype=np.int8).view(bool)] = ord(" ")
        try:
            with warnings.catch_warnings():
                # Older NumPy only warns on a partial read.
                warnings.simplefilter("error", DeprecationWarning)
                numbers = np.fromstring(fields.tobytes(), sep=" ")
        except (ValueError, DeprecationWarning):
            return None
        if numbers.size != starts.size or not _all_finite(numbers):
            return None
    return numbers[is_label], row_ends, index - 1, numbers[~is_label], newlines.size


def _parse_lines(text: str, consumed: int):
    """:func:`_parse_plain`'s result, one :func:`_parse_line` call per
    non-blank line of ``text``, which follows ``consumed`` lines."""
    labels, row_ends, indices, values = [], [], [], []
    lines = text[:-1].split("\n")
    for lineno, line in enumerate(lines, start=consumed + 1):
        if not (line := line.strip()):
            continue
        label, idxs, vals = _parse_line(line, lineno)
        labels.append(label)
        indices.extend(idxs)
        values.extend(vals)
        row_ends.append(len(indices))
    return (np.asarray(labels, dtype=np.float64), np.asarray(row_ends, dtype=np.int64),
            np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=np.float64), len(lines))


def _whole_lines(stream):
    """Read a text stream :data:`READ_BLOCK_CHARS` characters at a time and
    yield pieces that each end after a newline; the last piece takes the
    rest, with a newline added if it has none."""
    pending: list[str] = []
    while block := stream.read(READ_BLOCK_CHARS):
        if cut := block.rfind("\n") + 1:
            yield "".join(pending) + block[:cut]
            pending = [block[cut:]]
        else:
            pending.append(block)
    if rest := "".join(pending):
        yield rest + "\n"


def _put(buf: np.ndarray, at: int, part: np.ndarray) -> np.ndarray:
    """Write ``part`` into ``buf[at:]`` and return the buffer: grown in place
    by a quarter when full, and widened to int64, once, when an int32 buffer
    meets an integer that does not fit it."""
    if buf.dtype == np.int32 and part.size and part.max() > np.iinfo(np.int32).max:
        buf = buf.astype(np.int64)
    end = at + part.size
    if end > buf.size:
        buf.resize(max(end, buf.size + buf.size // 4), refcheck=False)
    buf[at:end] = part
    return buf


#: What :func:`parse_libsvm` takes from a caller, per key: what a value must
#: be and its test.
PARSE_RULES = {"num_features": ("a positive integer or None", lambda x: x is None or shape(x))}


def parse_libsvm(source, num_features: int | None = None) -> Dataset:
    """Parse libsvm text into a sparse dataset.

    ``source`` may be a string or a text stream.  The feature count defaults
    to the largest index seen; pass ``num_features`` to override (needed when
    trailing features are absent from the data).  The parse holds the result
    and one block's working set (see the module docstring).
    """
    check_rules(PARSE_RULES, num_features=num_features)
    if isinstance(source, str):
        # Read as UTF-8 bytes, 1 to 4 per character where io.StringIO holds
        # 4; "surrogatepass" carries lone surrogates through both ways.
        source = io.TextIOWrapper(io.BytesIO(source.encode("utf-8", "surrogatepass")),
                                  encoding="utf-8", errors="surrogatepass", newline="")
    labels, indptr, indices, values = np.empty(0), np.zeros(1, np.int32), np.empty(0, np.int32), np.empty(0)
    n = nnz = lines = 0
    for text in _whole_lines(source):
        part = _parse_plain(text) or _parse_lines(text, lines)
        labels = _put(labels, n, part[0])
        indptr = _put(indptr, n + 1, part[1] + nnz)
        indices = _put(indices, nnz, part[2])
        values = _put(values, nnz, part[3])
        n, nnz, lines = n + part[0].size, nnz + part[2].size, lines + part[4]
    for buf, size in ((labels, n), (indptr, n + 1), (indices, nnz), (values, nnz)):
        buf.resize(size, refcheck=False)

    max_idx = int(indices.max()) + 1 if indices.size else 0
    p = max_idx if num_features is None else int(num_features)
    if num_features is not None and max_idx > p:
        raise LibsvmParseError(f"feature index {max_idx} exceeds the declared feature count {p}")
    mat = sp.csr_matrix((values, indices, indptr), shape=(n, p))
    return Dataset(mat, labels)


def load_libsvm(path, num_features: int | None = None) -> Dataset:
    """Read a libsvm file, transparently decompressing ``.gz`` paths."""
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as handle:
        return parse_libsvm(handle, num_features=num_features)


def serialize_libsvm(ds: Dataset) -> str:
    """Write a dataset as libsvm text with shortest-round-trip floats."""
    mat = ds.features.tocsr() if ds.is_sparse else sp.csr_matrix(ds.features)
    out = []
    for i in range(ds.n):
        start, stop = mat.indptr[i], mat.indptr[i + 1]
        cols = mat.indices[start:stop]
        vals = mat.data[start:stop]
        fields = [repr(float(ds.labels[i]))]
        fields.extend(f"{c + 1}:{repr(float(v))}" for c, v in zip(cols, vals))
        out.append(" ".join(fields))
    return "\n".join(out) + ("\n" if out else "")


def save_libsvm(ds: Dataset, path) -> None:
    with open(path, "w") as handle:
        handle.write(serialize_libsvm(ds))


def normalize_rows(ds: Dataset) -> Dataset:
    """Scale every nonzero sample to unit Euclidean norm.

    On CSR features the stored values are scaled in a matrix that shares the
    index arrays.  Values that come out 0 (stored zeros, underflow) are
    dropped from a private copy of them, as ``sp.diags(inv) @ X`` drops them.
    """
    norms = ds.row_norms()
    inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 1.0)
    if ds.is_sparse:
        feats = ds.features
        scaled = feats.data * np.repeat(inv, np.diff(feats.indptr))
        if scaled.all():
            feats = sp.csr_matrix((scaled, feats.indices, feats.indptr), shape=feats.shape)
        else:
            feats = sp.csr_matrix((scaled, feats.indices.copy(), feats.indptr.copy()), shape=feats.shape)
            feats.eliminate_zeros()
    else:
        feats = ds.features * inv[:, None]
    return Dataset(feats, ds.labels)


@dataclass(frozen=True)
class StandardizeStats:
    """Per-feature centering and scaling learned on a training split."""

    mean: np.ndarray
    scale: np.ndarray  # 1.0 for zero-variance features (center only)


def standardization_stats(train: Dataset) -> StandardizeStats:
    """Population (1/n) mean and standard deviation of each feature."""
    dense = train.dense_features()
    mean = dense.mean(axis=0)
    var = dense.var(axis=0)  # population convention
    std = np.sqrt(var)
    scale = np.where(std > 0, std, 1.0)
    return StandardizeStats(mean=mean, scale=scale)


def standardize(ds: Dataset, stats: StandardizeStats) -> Dataset:
    """Center and scale features with training statistics; output is dense."""
    dense = ds.dense_features()
    out = (dense - stats.mean[None, :]) / stats.scale[None, :]
    return Dataset(out, ds.labels)


#: What :meth:`FeatureMap.create` takes from a caller, per key: what a value
#: must be and its test.  NumPy takes only integers as shapes, and the
#: weights are divided by the bandwidth.
FEATURE_MAP_RULES = {
    "kind": ("'rff-cosine' or 'relu'", lambda x: x in ("rff-cosine", "relu")),
    "dim": ("a positive integer", shape),
    "bandwidth": ("a positive finite number with a finite reciprocal",
                  lambda x: positive(x) and 1.0 / number(x) < math.inf),
    "seed": SEED,
}


@dataclass(frozen=True)
class FeatureMap:
    """Frozen random-features transform.

    ``rff-cosine`` maps x to sqrt(2/D) cos(W.T x + b) with W ~ N(0, 1/sigma^2)
    entries and b uniform on [0, 2pi); inner products approximate the
    Gaussian kernel exp(-||x - y||^2 / (2 sigma^2)).  ``relu`` maps x to
    max(0, W.T x) with W ~ N(0, 1/p) entries.
    """

    kind: str
    dim: int
    seed: int
    bandwidth: float = 1.0
    weights: np.ndarray = field(repr=False, default=None)
    offsets: np.ndarray = field(repr=False, default=None)

    @staticmethod
    def create(kind: str, dim: int, input_dim: int, seed: int, bandwidth: float = 1.0) -> "FeatureMap":
        check_rules(FEATURE_MAP_RULES, kind=kind, dim=dim, bandwidth=bandwidth, seed=seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        if kind == "rff-cosine":
            # weights past the float range end in random_features' output check
            with np.errstate(over="ignore"):
                weights = rng.standard_normal((input_dim, dim)) / bandwidth
            offsets = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        else:
            weights = rng.standard_normal((input_dim, dim)) / math.sqrt(input_dim)
            offsets = None
        return FeatureMap(kind=kind, dim=dim, seed=seed, bandwidth=bandwidth,
                          weights=weights, offsets=offsets)


@np.errstate(over="ignore", invalid="ignore")
def random_features(ds: Dataset, fmap: FeatureMap) -> Dataset:
    """Apply a frozen feature map; the result is dense with ``fmap.dim`` columns.

    A map that overflows on the data raises the ``ValueError`` of
    :class:`Dataset`'s finiteness check, and no warning.
    """
    if fmap.weights.shape[0] != ds.p:
        raise ValueError(
            f"feature map expects {fmap.weights.shape[0]} input features, dataset has {ds.p}"
        )
    # The map works in the buffer of the projection, so the transform holds
    # one n x D matrix.
    out = np.asarray(ds.features @ fmap.weights)
    if fmap.kind == "rff-cosine":
        out += fmap.offsets
        np.cos(out, out=out)
        out *= np.sqrt(2.0 / fmap.dim)
    else:
        np.maximum(out, 0.0, out=out)
    return Dataset(out, ds.labels)


#: What :func:`split` takes from a caller, per key: what a value must be and
#: its test.
SPLIT_RULES = {
    "fraction": ("a number strictly between 0 and 1", lambda x: 0 < number(x) < 1),
    "seed": SEED,
}


def split(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint random train/test partition, reproducible from the seed."""
    check_rules(SPLIT_RULES, fraction=fraction, seed=seed)
    if ds.n < 2:
        raise ValueError("need at least two samples to split")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(ds.n)
    n_train = int(math.floor(fraction * ds.n))
    n_train = min(max(n_train, 1), ds.n - 1)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return ds.take(train_idx), ds.take(test_idx)


def singular_values(ds: Dataset, max_dim: int = EIGH_DIM_CAP) -> np.ndarray:
    """All singular values of the sample matrix, descending.

    Computed from the eigendecomposition of the smaller Gram matrix
    (A.T A when p <= n, else A A.T); the smaller dimension must fit the
    dense diagnostic cap.
    """
    n, p = ds.n, ds.p
    if min(n, p) > max_dim:
        raise DiagnosticCapError(
            f"diagnostic matrix too large: min(n, p) = {min(n, p)} exceeds the cap of {max_dim}"
        )
    a = ds.features
    if p <= n:
        gram = (a.T @ a) if not sp.issparse(a) else (a.T @ a).toarray()
    else:
        gram = (a @ a.T) if not sp.issparse(a) else (a @ a.T).toarray()
    eigvals, _ = eigh_small(np.asarray(gram), max_dim=max_dim)
    eigvals = np.clip(eigvals, 0.0, None)
    return np.sqrt(eigvals[::-1])


def condition_lower_bound(ds: Dataset, l2: float, r: int = 100) -> float:
    """Lower bound on the problem condition number from the data spectrum.

    Returns ``(s1^2/n + l2) / (sr^2/n + l2)`` where ``s1`` and ``sr`` are the
    first and r-th singular values of the sample matrix.  When the matrix has
    fewer than r numerically positive singular values, the smallest positive
    one is used instead and the result is flagged (via a warning) as biased
    upward.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if r > min(ds.n, ds.p):
        raise ValueError(f"r = {r} exceeds min(n, p) = {min(ds.n, ds.p)}")
    svals = singular_values(ds)
    s1 = svals[0]
    # Singular values come from a Gram eigendecomposition, so anything below
    # sqrt(eps)-level relative to s1 is numerically indistinguishable from 0.
    tol = np.sqrt(max(ds.n, ds.p) * np.finfo(np.float64).eps) * s1
    positive = svals[svals > tol]
    if positive.size >= r:
        sr = positive[r - 1]
    else:
        warnings.warn(
            f"rank {positive.size} < r = {r}; using the smallest positive singular "
            "value, so the bound is biased upward",
            RuntimeWarning,
            stacklevel=2,
        )
        sr = positive[-1] if positive.size else s1
    n = ds.n
    return float((s1 * s1 / n + l2) / (sr * sr / n + l2))
