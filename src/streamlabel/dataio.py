"""Dataset ingestion: attribute-relation (ARFF) and delimited text formats.

Both formats yield a DatasetBundle of float64 features plus one label set
per row. Which columns are labels is named by ``label_spec``: a count >= 1
(an int or numpy integer, not a bool) of trailing label columns, a
non-empty list or tuple of column names, or a non-empty path string of a
sidecar file listing them (XML ``<label name=.../>`` entries or plain text,
one name per line).

Feature columns parse as reals: booleans become 0/1, nominal categories
become integer codes in declaration order. Label columns must hold 0/1.
ARFF data rows may be dense or sparse (``{index value, ...}``, zero-based
column indices in increasing order); a sparse row's omitted cells are 0,
or a nominal column's first declared value.
"""

import csv
import math
import numbers
import re
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


# a field and its comma: empty, or a value that is quoted (it may hold
# commas) or bare, with no quote first and no space at either end; one way
# to match keeps it linear. A sparse pair is a bare index, whitespace and
# one such value; its value is optional here only to name a missing one.
_VALUE = r"""'[^']*'|"[^"]*"|[^,'"\s](?:[^,]*[^,\s])?"""
_FIELD = rf"\s*(?:({_VALUE})\s*)?,"
_FIELDS = re.compile(f"(?:{_FIELD})*")
_PAIR = rf"""\s*([^,'"\s]+)(?:\s+({_VALUE}))?\s*,"""
_PAIRS = re.compile(f"(?:{_PAIR})*")


def _unquote(field: str) -> str:
    return field[1:-1] if field[:1] in ("'", '"') else field


def _split_fields(text: str, where: str) -> list:
    """The comma-separated fields of text, stripped and unquoted."""
    if "'" not in text and '"' not in text:
        return [t.strip() for t in text.split(",")]
    if not _FIELDS.fullmatch(text + ","):
        raise DatasetFormatError(f"{where}: malformed quoted field")
    return [_unquote(field) for field in re.findall(_FIELD, text + ",")]


def _sparse_fields(text: str, defaults: list, where: str) -> list:
    """The dense fields of a sparse row's body ``index value, ...``.

    Indices are zero-based column positions in strictly increasing order;
    a column left out keeps its entry in defaults.
    """
    tokens = list(defaults)
    if not text.strip():
        return tokens
    if not _PAIRS.fullmatch(text + ","):
        raise DatasetFormatError(f"{where}: malformed sparse pair")
    previous = -1
    for index, value in re.findall(_PAIR, text + ","):
        try:
            column = int(index)
        except ValueError:
            raise DatasetFormatError(
                f"{where}: sparse index {index!r} is not an integer") from None
        if not 0 <= column < len(tokens):
            raise DatasetFormatError(
                f"{where}: sparse index {column} is out of range for "
                f"{len(tokens)} columns")
        if column <= previous:
            raise DatasetFormatError(
                f"{where}: sparse index {column} does not follow {previous}")
        if not value:
            raise DatasetFormatError(f"{where}: sparse index {column} has no value")
        tokens[column] = _unquote(value)
        previous = column
    return tokens


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


def _label_spec_problem(spec) -> str | None:
    """What is wrong with a label_spec, or None when it follows the rule.

    A label_spec is a count >= 1 (an int or numpy integer, not a bool), a
    non-empty path string, or a non-empty list or tuple of str names.
    Whether a count fits the file is checked when the file is read.
    """
    if spec is None:
        return "label_spec is required"
    if isinstance(spec, (list, tuple)):
        valid = len(spec) > 0 and all(isinstance(name, str) for name in spec)
    elif isinstance(spec, numbers.Integral) and not isinstance(spec, bool):
        valid = spec >= 1
    else:
        valid = isinstance(spec, str) and spec != ""
    if valid:
        return None
    return ("label_spec must be a count >= 1, a path or a non-empty list of "
            f"names, got {spec!r}")


def _resolve_label_names(label_spec, column_names, path: str) -> list:
    if isinstance(label_spec, numbers.Integral):
        label_spec = int(label_spec)  # -n of a numpy unsigned count wraps
        if label_spec >= len(column_names):
            raise DatasetFormatError(
                f"{path}: label_spec={label_spec} but file has "
                f"{len(column_names)} columns")
        return list(column_names[-label_spec:])
    if isinstance(label_spec, str):
        wanted = _read_sidecar_labels(label_spec)
    else:
        wanted = label_spec
    unknown = [name for name in wanted if name not in column_names]
    if unknown:
        raise DatasetFormatError(
            f"{path}: label_spec names unknown columns: {', '.join(unknown)}")
    wanted_set = set(wanted)
    # label order follows the file's column order, not the sidecar's
    return [name for name in column_names if name in wanted_set]


def _cell_error(path: str, r: int, c: int, problem: str) -> DatasetFormatError:
    return DatasetFormatError(
        f"{path}: data row {r + 1}, column {c + 1}: {problem}")


def _read_token(token: str) -> float | None:
    """A cell's number: true/false (any case) read as 1/0, anything else
    through float(); None when that fails."""
    t = token.strip().lower()
    if t in ("true", "false"):
        return float(t == "true")
    try:
        return float(token)
    except ValueError:
        return None


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
                    end = rest.find(rest[0], 1)
                    if end < 0:
                        raise DatasetFormatError(
                            f"{path}: line {lineno}: unterminated quoted name")
                    name, type_spec = rest[1:end], rest[end + 1:].strip()
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
                    kinds.append(_split_fields(type_spec[1:-1],
                                               f"{path}: line {lineno}"))
                elif type_spec.lower() in ("numeric", "real", "integer"):
                    kinds.append("numeric")
                else:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: unsupported attribute type "
                        f"{type_spec!r}")
                names.append(name)
                continue
            if lowered.startswith("@data"):
                if not names:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: @data before any @attribute")
                in_data = True
                # ARFF's rule for a cell a sparse row leaves out
                omitted = ["0" if kind == "numeric" else kind[0]
                           for kind in kinds]
                continue
            raise DatasetFormatError(
                f"{path}: line {lineno}: unrecognized header line {line!r}")
        else:
            where = f"{path}: line {lineno} (data row {len(rows) + 1})"
            if line.startswith("{"):
                if not line.endswith("}"):
                    raise DatasetFormatError(
                        f"{where}: sparse row has no closing brace")
                tokens = _sparse_fields(line[1:-1], omitted, where)
            else:
                tokens = _split_fields(line, where)
                if len(tokens) != len(names):
                    raise DatasetFormatError(
                        f"{where}: expected {len(names)} fields, "
                        f"got {len(tokens)}")
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
    problem = _label_spec_problem(label_spec)
    if problem:
        raise DatasetFormatError(problem)
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
                value = _read_token(token)
                if value is None:
                    raise _cell_error(path, r, c,
                                      f"non-numeric feature token {token!r}")
                if not math.isfinite(value):
                    raise _cell_error(path, r, c, "non-finite feature value")
                X[r, k] = value
            else:
                if token not in kind:
                    raise _cell_error(
                        path, r, c,
                        f"value {token!r} not among declared categories")
                X[r, k] = kind.index(token)
        members = set()
        for j, c in enumerate(label_cols):
            value = _read_token(tokens[c])
            if value not in (0.0, 1.0):
                raise _cell_error(path, r, c,
                                  f"label value {tokens[c]!r} is not 0/1")
            if value:
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

    Zero-range features map to 0. Values outside the fitted range are not
    clamped, so test rows may land outside [0, 1]. The subtraction makes the
    result and the division runs in its memory, which gives the same bits as
    ``(X - min) / span``.
    """
    if stats.min_.shape[0] != X.shape[1]:
        raise ValueError(
            f"normalization stats cover {stats.min_.shape[0]} features, "
            f"rows have {X.shape[1]}")
    span = stats.max_ - stats.min_
    out = np.subtract(X, stats.min_)
    out /= np.where(span > 0.0, span, 1.0)
    out[:, span == 0.0] = 0.0
    return out

