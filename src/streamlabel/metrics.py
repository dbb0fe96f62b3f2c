"""Example-based multi-label evaluation.

Every metric is computed per sample from set arithmetic and then averaged,
so partial correctness is rewarded. Degenerate 0/0 cases follow one
convention: a sample where prediction and truth are both empty scores 1 on
accuracy, precision, recall and F1; a ratio whose denominator set is empty
while the other is not scores 0.

Precision divides the overlap by the predicted-set size, recall by the
true-set size; F1 is their per-sample harmonic mean, 2|inter|/(|pred|+|truth|).
"""

from dataclasses import dataclass
from itertools import chain

from .labels import _label_indices


@dataclass(frozen=True)
class MetricsReport:
    """Example-based evaluation results, each averaged over samples."""

    hamming_loss: float
    accuracy: float
    precision: float
    recall: float
    f1: float

    def as_dict(self) -> dict:
        return {
            "hamming_loss": self.hamming_loss,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def evaluate(preds, truths, m: int) -> MetricsReport:
    """Score predicted label sets against ground truth.

    preds and truths are equal-length sequences of label sets over a label
    space of size m. Accumulation is plain left-to-right summation so the
    result is reproducible bit for bit.

    Each sample costs one set intersection. An input that is already a set
    or frozenset is used as it is (and never changed); anything else is
    copied into a set. The union and symmetric-difference sizes follow from
    the intersection as integers, |p | t| = |p| + |t| - |p & t| and
    |p ^ t| = |p| + |t| - 2|p & t|, so every per-sample ratio, and every
    sum, is the same double the set operations themselves give.
    """
    preds = list(preds)
    truths = list(truths)
    if len(preds) != len(truths):
        raise ValueError(
            f"length mismatch: {len(preds)} predictions vs {len(truths)} truths")
    if not preds:
        raise ValueError("evaluate: empty input")
    if m < 1:
        raise ValueError(f"label space must have m >= 1, got {m}")

    n = len(preds)
    preds = [p if isinstance(p, (set, frozenset)) else set(p) for p in preds]
    truths = [t if isinstance(t, (set, frozenset)) else set(t) for t in truths]
    # each set on its own, p0, t0, p1, ...: {1} | {True} drops the True
    _label_indices(chain.from_iterable(zip(preds, truths)), m)
    hl = acc = prec = rec = f1 = 0.0
    for p, t in zip(preds, truths):
        inter = len(p & t)
        n_p = len(p)
        n_t = len(t)
        hl += (n_p + n_t - 2 * inter) / m
        if not n_p and not n_t:
            acc += 1.0
            prec += 1.0
            rec += 1.0
            f1 += 1.0
        else:
            acc += inter / (n_p + n_t - inter)
            prec += (inter / n_p) if n_p else 0.0
            rec += (inter / n_t) if n_t else 0.0
            f1 += 2 * inter / (n_p + n_t)
    return MetricsReport(hamming_loss=hl / n, accuracy=acc / n,
                         precision=prec / n, recall=rec / n, f1=f1 / n)
