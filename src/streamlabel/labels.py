"""Label-space handling: bipolar encoding, threshold calibration, decoding.

A label set is a plain Python set (or frozenset) of zero-based label
indices; the label-space dimension m travels alongside it. Inside a run,
many sets become one (n, m) bool membership matrix (label_matrix), which
gives the +/-1 targets (a zero threshold separates membership) and feeds
the threshold calibration a whole chunk at a time (calibrate_chunk). The
calibrated threshold sharpens that split from raw scores seen in training;
decode_rows turns a score matrix back into label sets. A single sample is a
one-row matrix: label_matrix([s], m), decode_rows(y[None], t)[0].
"""

import math
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np


@dataclass
class ThresholdCalib:
    """Running extrema of raw scores at true-positive / true-negative positions.

    min_pos tracks the smallest raw score ever seen where the true label was
    present, max_neg the largest where it was absent. Either is None until
    that category has been observed at least once.
    """

    min_pos: float | None = None
    max_neg: float | None = None


def _label_indices(labelsets, m: int) -> list:
    """The sets' indices in order, as ints. The one rule for a label index:
    an int or an __index__ type (numpy integers), not a bool, in [0, m). The
    first index that breaks it raises ValueError naming its type or value."""
    out = []
    for i in chain.from_iterable(labelsets):
        if type(i) is not int:  # bool and numpy integers come here
            if isinstance(i, (bool, np.bool_)) or not hasattr(i, "__index__"):
                raise ValueError("label indices must be integers, "
                                 f"got {type(i).__name__}")
            i = operator.index(i)
        if not 0 <= i < m:
            raise ValueError(f"label index {i} outside label space of size {m}")
        out.append(i)
    return out


def label_matrix(labelsets, m: int) -> np.ndarray:
    """(n, m) bool membership matrix: row j is True at the members of set j.

    Each set is a sized collection of label indices; every index must lie in
    [0, m). All indices are validated and scattered in one flat pass.
    """
    labelsets = list(labelsets)
    n = len(labelsets)
    sizes = np.fromiter(map(len, labelsets), dtype=np.intp, count=n)
    cols = np.array(_label_indices(labelsets, m), dtype=np.intp)
    Y = np.zeros((n, m), dtype=bool)
    Y.reshape(-1)[np.repeat(np.arange(n) * m, sizes) + cols] = True
    return Y


def calibrate_chunk(calib: ThresholdCalib, y_raw, truth) -> ThresholdCalib:
    """Fold a chunk's raw scores into the running extrema; returns calib.

    y_raw is (c, m) real scores, truth the matching (c, m) bool membership
    (see label_matrix). The result equals folding the rows one at a time.
    """
    y_raw = np.asarray(y_raw, dtype=np.float64)
    truth = np.asarray(truth)
    if y_raw.ndim != 2:
        raise ValueError(f"y_raw must be a matrix, got ndim={y_raw.ndim}")
    if truth.dtype != bool or truth.shape != y_raw.shape:
        raise ValueError(
            f"truth must be a bool matrix of shape {y_raw.shape}, "
            f"got {truth.dtype} {truth.shape}")
    if truth.any():
        pos = float(np.min(y_raw, where=truth, initial=np.inf))
        calib.min_pos = pos if calib.min_pos is None else min(calib.min_pos, pos)
    if not truth.all():
        neg = float(np.max(y_raw, where=~truth, initial=-np.inf))
        calib.max_neg = neg if calib.max_neg is None else max(calib.max_neg, neg)
    return calib


def _threshold_value(calib: ThresholdCalib) -> float:
    """Decoding threshold: midpoint of min positive and max negative score.

    Well-defined even when the two populations overlap (min_pos < max_neg).
    """
    if calib.min_pos is None:
        raise ValueError(
            "threshold_value: no true-positive scores observed (min_pos missing)")
    if calib.max_neg is None:
        raise ValueError(
            "threshold_value: no true-negative scores observed (max_neg missing)")
    return (calib.min_pos + calib.max_neg) / 2.0


def decode_rows(y_raw, threshold: float, min_one: bool = False) -> list:
    """One label set {i : y_raw[j, i] > threshold} per row j of a score matrix.

    Ties predict negative. With min_one set, an empty row falls back to its
    argmax position (lowest index on ties, its first NaN if it has one) so
    every sample gets at least one label. The hit mask is scanned once: its
    flat indices, row-major, give each member's column (index mod m), and
    a binary search for the row boundaries j*m cuts them into rows. A NaN
    or infinite threshold raises ValueError, as it would decide nothing.
    """
    if not math.isfinite(threshold):
        raise ValueError(
            f"decode_rows: threshold must be finite, got {float(threshold)}")
    y_raw = np.asarray(y_raw, dtype=np.float64)
    if y_raw.ndim != 2:
        raise ValueError(f"y_raw must be a matrix, got ndim={y_raw.ndim}")
    n, m = y_raw.shape
    flat = np.flatnonzero(y_raw > threshold)
    cols = (flat % m).tolist()
    ends = flat.searchsorted(np.arange(1, n + 1) * m).tolist()
    sets = [set(cols[start:end]) for start, end in zip([0] + ends, ends)]
    if min_one and m and not all(sets):
        for members, col in zip(sets, y_raw.argmax(axis=1).tolist()):
            if not members:
                members.add(col)
    return sets


def dataset_stats(labelsets, m: int) -> dict:
    """{"label_cardinality": mean set size, "label_density": that / m}."""
    labelsets = list(labelsets)
    if not labelsets:
        raise ValueError("dataset_stats: empty label-set sequence")
    if m < 1:
        raise ValueError(f"label space must have m >= 1, got {m}")
    _label_indices(labelsets, m)
    cardinality = sum(len(set(s)) for s in labelsets) / len(labelsets)
    return {"label_cardinality": cardinality,
            "label_density": cardinality / m}
