"""Dataset ingestion, preprocessing, and random-feature transforms.

A :class:`Dataset` wraps an n x p sample matrix (dense row-major float64 or
scipy CSR) together with its label vector.  Text ingestion uses the libsvm
format: one sample per line, ``<label> <idx>:<val> ...`` with 1-based,
strictly increasing feature indices no larger than 2^63 - 1 and finite
numbers; anything else raises :class:`LibsvmParseError` with its line.  All
transforms are pure: they return new datasets and never mutate their input.

:func:`parse_libsvm` reads :data:`PARSE_CHUNK_LINES` lines at a time.  When
every line of a chunk is plain (``label idx:val ...`` with ASCII number
fields), NumPy checks its structure, reads the indices from their digits and
converts all labels and values in one ``np.fromstring`` call.  Any other
chunk goes line by line through ``_parse_line``, the one statement of the
line grammar, which raises the error with its line number or reads the
unusual but legal tokens (``+3:1``, ``1:1_0``).  Both paths give the same
arrays to the bit.
"""

from __future__ import annotations

import gzip
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .linalg import DiagnosticCapError, EIGH_DIM_CAP, eigh_small


class LibsvmParseError(ValueError):
    """Malformed libsvm text; the message carries the 1-based line number."""


@dataclass(frozen=True)
class Dataset:
    """Row-major sample matrix with labels.

    ``features`` is either a dense float64 ndarray or a ``scipy.sparse``
    CSR matrix; ``labels`` holds regression targets or +/-1 class labels.
    ``provenance`` records where the data came from and the transform chain
    applied so far.
    """

    features: object
    labels: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        feats = self.features
        if sp.issparse(feats):
            feats = feats.tocsr()
            feats.sort_indices()
            if not np.all(np.isfinite(feats.data)):
                raise ValueError("dataset contains non-finite feature values")
        else:
            feats = np.ascontiguousarray(np.asarray(feats, dtype=np.float64))
            if feats.ndim != 2:
                raise ValueError("features must be a 2-d matrix")
            if not np.all(np.isfinite(feats)):
                raise ValueError("dataset contains non-finite feature values")
        labels = np.asarray(self.labels, dtype=np.float64).ravel()
        if labels.shape[0] != feats.shape[0]:
            raise ValueError(
                f"label count {labels.shape[0]} does not match sample count {feats.shape[0]}"
            )
        if not np.all(np.isfinite(labels)):
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
        """Euclidean norm of every sample row."""
        if self.is_sparse:
            sq = np.asarray(self.features.multiply(self.features).sum(axis=1)).ravel()
        else:
            sq = np.einsum("ij,ij->i", self.features, self.features)
        return np.sqrt(sq)

    def take(self, indices: np.ndarray, note: str = "") -> "Dataset":
        """Row subset as a new dataset."""
        indices = np.asarray(indices, dtype=np.int64)
        prov = self.provenance + (f" | {note}" if note else "")
        return Dataset(self.features[indices], self.labels[indices], prov)


#: Largest 1-based feature index: the 0-based column must fit in int64.
_MAX_INDEX = 2**63 - 1


def _parse_line(line: str, lineno: int):
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
        if idx > _MAX_INDEX:
            raise LibsvmParseError(
                f"line {lineno}: feature index {idx} exceeds the largest supported "
                f"index {_MAX_INDEX}"
            )
        if idx <= prev:
            raise LibsvmParseError(
                f"line {lineno}: feature index {idx} does not increase past {prev}"
            )
        prev = idx
        idxs.append(idx - 1)
        vals.append(val)
    return label, idxs, vals


#: Lines read and converted per vectorised step of :func:`parse_libsvm`.
#: Larger chunks parse no faster and leave more freed memory in the heap.
PARSE_CHUNK_LINES = 1 << 12

# The bytes of a plain libsvm chunk; any other byte leaves it to _parse_line.
_PLAIN_BYTES = b"0123456789.eE+-: \t\n"


def _parse_plain(lines: list[str]):
    """Vectorised :func:`_parse_line` over stripped, non-blank lines.

    Returns ``(labels, row_ends, indices, values)`` when every line is plain:
    ``label idx:val ...`` separated by spaces or tabs, where the label has no
    colon, each feature token has exactly one colon with a non-empty field on
    either side, each index is 1 to 18 ASCII digits, indices rise from 1
    within a row, and every label and value is one number made of
    ``[0-9.eE+-]``, which ``np.fromstring`` reads to the same bits as
    ``float``.  Returns None otherwise, so that ``_parse_line`` parses (or
    rejects) the lines.
    """
    text = "\n".join(lines) + "\n"
    if not text.isascii():
        return None
    encoded = text.encode("ascii")
    if encoded.translate(None, _PLAIN_BYTES):
        return None
    raw = np.frombuffer(encoded, dtype=np.uint8)
    colon = raw == ord(":")
    space = (raw == ord(" ")) | (raw == ord("\t"))
    blank = space | (raw == ord("\n"))
    # Separator events: every colon and the first byte of every blank run.
    event = blank.copy()
    event[1:] &= ~blank[:-1]
    event |= colon
    pos = np.flatnonzero(event)
    is_colon = colon[pos]
    # Each line reads label (space idx colon val)* newline: every run of
    # spaces is followed by a colon and every colon follows such a run.
    if is_colon[0] or not np.array_equal(space[pos[:-1]], is_colon[1:]):
        return None
    colons = pos[is_colon]

    # Each index is the digits between a run of spaces and its colon; an
    # empty one reads as 0, which the check on indices below 1 rejects.
    starts = np.flatnonzero(space[:-1] & ~space[1:]) + 1
    width = colons - starts
    if width.size and width.max() > 18:  # more digits may overflow int64
        return None
    fields = raw.copy()
    fields[colons] = ord(" ")
    index = np.zeros(colons.size, dtype=np.int64)
    for place in range(width.max(initial=0)):
        inside = width > place
        at = colons[inside] - 1 - place
        digit = raw[at] - ord("0")  # wraps to above 9 for any non-digit
        if (digit > 9).any():
            return None
        index[inside] += digit.astype(np.int64) * 10**place
        fields[at] = ord(" ")
    row_ends = np.cumsum(is_colon, dtype=np.int64)[raw[pos] == ord("\n")]
    row_starts = np.concatenate(([0], row_ends[:-1]))
    rising = np.ones(index.size, dtype=bool)
    rising[1:] = index[1:] > index[:-1]
    rising[row_starts[row_starts < index.size]] = True
    if not (rising.all() and (index >= 1).all()):
        return None

    # With indices and colons blanked out, what is left is the labels and
    # values.  A field that does not read fully as one number raises.  An
    # empty value, or a line that held a newline, makes the count wrong.
    try:
        with warnings.catch_warnings():
            # Older NumPy only warns on a partial read.
            warnings.simplefilter("error", DeprecationWarning)
            numbers = np.fromstring(fields.tobytes(), sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if numbers.size != len(lines) + colons.size:
        return None
    is_label = np.zeros(numbers.size, dtype=bool)
    is_label[np.arange(len(lines)) + row_starts] = True
    return numbers[is_label], row_ends, index - 1, numbers[~is_label]


def _parse_lines(lines: list[str], linenos: list[int]):
    """:func:`_parse_plain`'s result, one :func:`_parse_line` call per line."""
    labels: list[float] = []
    row_ends: list[int] = []
    indices: list[int] = []
    values: list[float] = []
    for line, lineno in zip(lines, linenos):
        label, idxs, vals = _parse_line(line, lineno)
        labels.append(label)
        indices.extend(idxs)
        values.extend(vals)
        row_ends.append(len(indices))
    return (
        np.asarray(labels, dtype=np.float64),
        np.asarray(row_ends, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
    )


def _line_numbers(chunk: list[str], consumed: int) -> list[int]:
    """1-based file line numbers of the non-blank lines of a chunk."""
    return [consumed + i for i, line in enumerate(chunk, start=1) if line]


def _check_finite(part, chunk: list[str], consumed: int) -> None:
    """Reject the first line of a parsed chunk that holds a non-finite number."""
    labels, row_ends, _indices, values = part
    bad_labels, bad_values = ~np.isfinite(labels), ~np.isfinite(values)
    if not (bad_labels.any() or bad_values.any()):
        return
    value_rows = np.searchsorted(row_ends, np.flatnonzero(bad_values), side="right")
    row = min(np.flatnonzero(bad_labels)[:1].tolist() + value_rows[:1].tolist())
    if bad_labels[row]:
        what = f"label {float(labels[row])!r}"
    else:
        first = int(np.flatnonzero(bad_values)[0])
        what = f"feature value {float(values[first])!r}"
    raise LibsvmParseError(f"line {_line_numbers(chunk, consumed)[row]}: {what} is not finite")


def parse_libsvm(source, num_features: int | None = None) -> Dataset:
    """Parse libsvm text into a sparse dataset.

    ``source`` may be a string, a text stream, or an iterable of lines.  The
    feature count defaults to the largest index seen; pass ``num_features``
    to override (needed when trailing features are absent from the data).
    """
    if isinstance(source, str):
        lines = io.StringIO(source)
        name = "<string>"
    else:
        lines = source
        name = getattr(source, "name", "<stream>")

    labels = [np.empty(0)]
    indptr = [np.zeros(1, dtype=np.int64)]
    indices = [np.empty(0, dtype=np.int64)]
    values = [np.empty(0)]
    consumed = 0
    rows = iter(lines)
    while chunk := [raw.strip() for raw in itertools.islice(rows, PARSE_CHUNK_LINES)]:
        kept = [line for line in chunk if line]
        if kept:
            part = _parse_plain(kept) or _parse_lines(kept, _line_numbers(chunk, consumed))
            _check_finite(part, chunk, consumed)
            labels.append(part[0])
            indptr.append(part[1] + indptr[-1][-1])
            indices.append(part[2])
            values.append(part[3])
        consumed += len(chunk)
    labels, indptr, indices, values = map(np.concatenate, (labels, indptr, indices, values))

    max_idx = int(indices.max()) + 1 if indices.size else 0
    p = max_idx if num_features is None else int(num_features)
    if num_features is not None and max_idx > p:
        raise LibsvmParseError(
            f"feature index {max_idx} exceeds the declared feature count {p}"
        )
    mat = sp.csr_matrix((values, indices, indptr), shape=(labels.size, p))
    return Dataset(mat, labels, provenance=str(name))


def load_libsvm(path, num_features: int | None = None) -> Dataset:
    """Read a libsvm file, transparently decompressing ``.gz`` paths."""
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as handle:
        ds = parse_libsvm(handle, num_features=num_features)
    return replace(ds, provenance=path)


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
    """Scale every nonzero sample to unit Euclidean norm."""
    norms = ds.row_norms()
    inv = np.where(norms > 0, 1.0 / np.where(norms > 0, norms, 1.0), 1.0)
    if ds.is_sparse:
        feats = sp.diags(inv) @ ds.features
        feats = feats.tocsr()
    else:
        feats = ds.features * inv[:, None]
    return Dataset(feats, ds.labels, ds.provenance + " | normalize_rows")


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
    return Dataset(out, ds.labels, ds.provenance + " | standardize")


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
        if kind not in ("rff-cosine", "relu"):
            raise ValueError(f"unknown feature map kind {kind!r}")
        if dim < 1:
            raise ValueError("feature dimension must be positive")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        rng = np.random.Generator(np.random.PCG64(seed))
        if kind == "rff-cosine":
            weights = rng.standard_normal((input_dim, dim)) / bandwidth
            offsets = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        else:
            weights = rng.standard_normal((input_dim, dim)) / math.sqrt(input_dim)
            offsets = None
        return FeatureMap(kind=kind, dim=dim, seed=seed, bandwidth=bandwidth,
                          weights=weights, offsets=offsets)


def random_features(ds: Dataset, fmap: FeatureMap) -> Dataset:
    """Apply a frozen feature map; the result is dense with ``fmap.dim`` columns."""
    if fmap.weights.shape[0] != ds.p:
        raise ValueError(
            f"feature map expects {fmap.weights.shape[0]} input features, dataset has {ds.p}"
        )
    proj = ds.features @ fmap.weights
    proj = np.asarray(proj)
    if fmap.kind == "rff-cosine":
        out = np.sqrt(2.0 / fmap.dim) * np.cos(proj + fmap.offsets[None, :])
    else:
        out = np.maximum(proj, 0.0)
    note = f" | random_features({fmap.kind}, D={fmap.dim}, seed={fmap.seed})"
    return Dataset(out, ds.labels, ds.provenance + note)


def split(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint random train/test partition, reproducible from the seed."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("split fraction must lie strictly between 0 and 1")
    if ds.n < 2:
        raise ValueError("need at least two samples to split")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(ds.n)
    n_train = int(math.floor(fraction * ds.n))
    n_train = min(max(n_train, 1), ds.n - 1)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return (
        ds.take(train_idx, note=f"split(train, {fraction}, seed={seed})"),
        ds.take(test_idx, note=f"split(test, {fraction}, seed={seed})"),
    )


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
