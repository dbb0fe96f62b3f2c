"""Dataset ingestion: attribute-relation (ARFF) and delimited text formats.

Both formats yield a DatasetBundle of float64 features plus one label set
per row. Which columns are labels is named by ``label_spec``: an int counts
trailing label columns, a list names them explicitly, and a string points
at a sidecar file listing them (XML ``<label name=.../>`` entries or plain
text, one name per line).

Feature columns parse as reals: booleans become 0/1, nominal categories
become integer codes in declaration order. Label columns must hold 0/1.
"""

import csv
import numbers
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetFormatError(ValueError):
    """Unreadable or malformed dataset input."""


@dataclass(eq=False)
class DatasetBundle:
    """Parsed dataset: features, one label set per row, and column names."""

    X: np.ndarray
    labelsets: tuple
    m: int
    feature_names: tuple
    label_names: tuple
    source: str

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-feature min/max fitted on a training split."""

    min_: np.ndarray
    max_: np.ndarray


def _strip_quotes(token: str) -> str:
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def _read_sidecar_labels(path: str) -> list:
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix.lower() == ".xml":
        try:
            root = ElementTree.fromstring(text)
        except ElementTree.ParseError as err:
            raise DatasetFormatError(f"{path}: invalid XML: {err}") from err
        names = []
        for node in root.iter():
            tag = node.tag.rsplit("}", 1)[-1]
            if tag == "label" and "name" in node.attrib:
                names.append(node.attrib["name"])
        if not names:
            raise DatasetFormatError(f"{path}: no <label name=...> entries found")
        return names
    names = [line.strip() for line in text.splitlines()]
    names = [n for n in names if n and not n.startswith("#")]
    if not names:
        raise DatasetFormatError(f"{path}: no label names found")
    return names


def _resolve_label_names(label_spec, column_names, path: str) -> list:
    if isinstance(label_spec, bool):
        raise DatasetFormatError("label_spec must be an int, name list, or path")
    if isinstance(label_spec, numbers.Integral):
        label_spec = int(label_spec)  # -n of a numpy unsigned count wraps
        if not 1 <= label_spec < len(column_names):
            raise DatasetFormatError(
                f"{path}: label_spec={label_spec} but file has "
                f"{len(column_names)} columns")
        return list(column_names[-label_spec:])
    if isinstance(label_spec, str):
        wanted = _read_sidecar_labels(label_spec)
    else:
        wanted = [str(name) for name in label_spec]
        if not wanted:
            raise DatasetFormatError("label_spec name list is empty")
    unknown = [name for name in wanted if name not in column_names]
    if unknown:
        raise DatasetFormatError(
            f"{path}: label_spec names unknown columns: {', '.join(unknown)}")
    wanted_set = set(wanted)
    # label order follows the file's column order, not the sidecar's
    return [name for name in column_names if name in wanted_set]


def _parse_label(token: str, path: str, row: int, col: int) -> int:
    t = token.strip().lower()
    if t == "true":
        return 1
    if t == "false":
        return 0
    try:
        value = float(token)
    except ValueError:
        value = None
    if value not in (0.0, 1.0):
        raise DatasetFormatError(
            f"{path}: data row {row}, column {col}: "
            f"label value {token!r} is not 0/1")
    return int(value)


def _parse_numeric(token: str, path: str, row: int, col: int) -> float:
    t = token.strip().lower()
    if t == "true":
        return 1.0
    if t == "false":
        return 0.0
    try:
        value = float(token)
    except ValueError:
        raise DatasetFormatError(
            f"{path}: data row {row}, column {col}: "
            f"non-numeric feature token {token!r}") from None
    if not np.isfinite(value):
        raise DatasetFormatError(
            f"{path}: data row {row}, column {col}: non-finite feature value")
    return value


def _load_arff(path: str):
    """Returns (column_names, column_kinds, rows) where a kind is either
    the string 'numeric' or the list of declared nominal values."""
    names, kinds, rows = [], [], []
    in_data = False
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
            lowered = line.lower()
            if lowered.startswith("@relation"):
                continue
            if lowered.startswith("@attribute"):
                rest = line[len("@attribute"):].strip()
                if rest.startswith(("'", '"')):
                    quote = rest[0]
                    end = rest.find(quote, 1)
                    if end < 0:
                        raise DatasetFormatError(
                            f"{path}: line {lineno}: unterminated quoted name")
                    name = rest[1:end]
                    type_spec = rest[end + 1:].strip()
                else:
                    parts = rest.split(None, 1)
                    if len(parts) != 2:
                        raise DatasetFormatError(
                            f"{path}: line {lineno}: malformed attribute "
                            "declaration")
                    name, type_spec = parts
                if type_spec.startswith("{"):
                    if not type_spec.endswith("}"):
                        raise DatasetFormatError(
                            f"{path}: line {lineno}: unterminated nominal "
                            "value list")
                    values = [_strip_quotes(v.strip())
                              for v in type_spec[1:-1].split(",")]
                    names.append(name)
                    kinds.append(values)
                elif type_spec.lower() in ("numeric", "real", "integer"):
                    names.append(name)
                    kinds.append("numeric")
                else:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: unsupported attribute type "
                        f"{type_spec!r}")
                continue
            if lowered.startswith("@data"):
                if not names:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: @data before any @attribute")
                in_data = True
                continue
            raise DatasetFormatError(
                f"{path}: line {lineno}: unrecognized header line {line!r}")
        else:
            if line.startswith("{"):
                raise DatasetFormatError(
                    f"{path}: line {lineno}: sparse data rows are not supported")
            tokens = [t.strip() for t in line.split(",")]
            if len(tokens) != len(names):
                raise DatasetFormatError(
                    f"{path}: line {lineno} (data row {len(rows) + 1}): "
                    f"expected {len(names)} fields, got {len(tokens)}")
            rows.append(tokens)
    if not in_data:
        raise DatasetFormatError(f"{path}: no @data section")
    return names, kinds, rows


def _load_delimited(path: str, delimiter: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        table = [row for row in reader if row and any(t.strip() for t in row)]
    if len(table) < 2:
        raise DatasetFormatError(f"{path}: need a header row and at least one data row")
    names = [t.strip() for t in table[0]]
    rows = []
    for i, row in enumerate(table[1:], start=1):
        if len(row) != len(names):
            raise DatasetFormatError(
                f"{path}: data row {i}: expected {len(names)} fields, "
                f"got {len(row)}")
        rows.append([t.strip() for t in row])
    kinds = ["numeric"] * len(names)
    return names, kinds, rows


def load_dataset(path, format: str = "arff", label_spec=None,
                 delimiter: str = ",") -> DatasetBundle:
    """Parse a dataset file into a DatasetBundle.

    format is "arff" or "csv". label_spec identifies the label columns
    (see module docstring); it is required.
    """
    path = str(path)
    if label_spec is None:
        raise DatasetFormatError("label_spec is required to identify label columns")
    if format == "arff":
        names, kinds, rows = _load_arff(path)
    elif format == "csv":
        names, kinds, rows = _load_delimited(path, delimiter)
    else:
        raise DatasetFormatError(f"unknown dataset format {format!r}")
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")

    label_names = _resolve_label_names(label_spec, names, path)
    label_cols = [names.index(n) for n in label_names]
    label_set = set(label_cols)
    feature_cols = [i for i in range(len(names)) if i not in label_set]
    if not feature_cols:
        raise DatasetFormatError(f"{path}: label_spec leaves no feature columns")

    X = np.empty((len(rows), len(feature_cols)))
    labelsets = []
    for r, tokens in enumerate(rows):
        for k, c in enumerate(feature_cols):
            kind = kinds[c]
            token = tokens[c]
            if kind == "numeric":
                X[r, k] = _parse_numeric(token, path, r + 1, c + 1)
            else:
                cleaned = _strip_quotes(token)
                if cleaned not in kind:
                    raise DatasetFormatError(
                        f"{path}: data row {r + 1}, column {c + 1}: "
                        f"value {token!r} not among declared categories")
                X[r, k] = kind.index(cleaned)
        members = set()
        for j, c in enumerate(label_cols):
            if _parse_label(tokens[c], path, r + 1, c + 1):
                members.add(j)
        labelsets.append(frozenset(members))

    X.setflags(write=False)
    return DatasetBundle(X=X, labelsets=tuple(labelsets), m=len(label_names),
                         feature_names=tuple(names[i] for i in feature_cols),
                         label_names=tuple(label_names), source=path)


def take_rows(bundle: DatasetBundle, indices) -> DatasetBundle:
    """Bundle restricted to the given rows, in the given order."""
    indices = np.asarray(indices, dtype=int)
    X = bundle.X[indices]  # integer-array indexing makes a new array
    X.setflags(write=False)
    return DatasetBundle(X=X,
                         labelsets=tuple(bundle.labelsets[i] for i in indices),
                         m=bundle.m, feature_names=bundle.feature_names,
                         label_names=bundle.label_names, source=bundle.source)


def split(bundle: DatasetBundle, n_train: int):
    """(train, test) split at n_train rows, in file order."""
    n = bundle.n_samples
    if not 0 < n_train < n:
        raise ValueError(
            f"n_train must be in (0, {n}), got {n_train}")
    return take_rows(bundle, range(n_train)), take_rows(bundle, range(n_train, n))


def normalize_fit(train: DatasetBundle) -> NormStats:
    """Per-feature min/max of the training split."""
    mn = train.X.min(axis=0).copy()
    mx = train.X.max(axis=0).copy()
    mn.setflags(write=False)
    mx.setflags(write=False)
    return NormStats(min_=mn, max_=mx)


def _normalize_rows(stats: NormStats, X) -> np.ndarray:
    """Feature rows X mapped through (x - min) / (max - min), in one new array.

    Zero-range features map to 0. The subtraction makes the result and the
    division runs in its memory, which gives the same bits as
    ``(X - min) / span``.
    """
    if stats.min_.shape[0] != X.shape[1]:
        raise ValueError(
            f"normalization stats cover {stats.min_.shape[0]} features, "
            f"bundle has {X.shape[1]}")
    span = stats.max_ - stats.min_
    out = np.subtract(X, stats.min_)
    out /= np.where(span > 0.0, span, 1.0)
    out[:, span == 0.0] = 0.0
    return out


def normalize_apply(stats: NormStats, bundle: DatasetBundle) -> DatasetBundle:
    """Map features through (x - min) / (max - min) per feature.

    Zero-range features map to 0. Values outside the fitted range are not
    clamped, so test data may land outside [0, 1].
    """
    X = _normalize_rows(stats, bundle.X)
    X.setflags(write=False)
    return DatasetBundle(X=X, labelsets=bundle.labelsets, m=bundle.m,
                         feature_names=bundle.feature_names,
                         label_names=bundle.label_names, source=bundle.source)
