"""Example-based multi-label evaluation.

Every metric is computed per sample from set arithmetic and then averaged,
so partial correctness is rewarded. Degenerate 0/0 cases follow one
convention: a sample where prediction and truth are both empty scores 1 on
accuracy, precision, recall and F1; a ratio whose denominator set is empty
while the other is not scores 0.

Precision divides the overlap by the predicted-set size, recall by the
true-set size; F1 is their per-sample harmonic mean, 2|inter|/(|pred|+|truth|).
"""

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class MetricsReport:
    """Example-based evaluation results, each averaged over samples."""

    hamming_loss: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    n_samples: int
    n_labels: int

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
    hl = acc = prec = rec = f1 = 0.0
    for p, t in zip(preds, truths):
        p = set(p)
        t = set(t)
        for i in p | t:
            try:
                if not 0 <= operator.index(i) < m:
                    raise ValueError(
                        f"label index {i} outside label space of size {m}")
            except TypeError:
                raise ValueError("label indices must be integers, got "
                                 f"{type(i).__name__}") from None
        inter = len(p & t)
        hl += len(p ^ t) / m
        if not p and not t:
            acc += 1.0
            prec += 1.0
            rec += 1.0
            f1 += 1.0
        else:
            acc += inter / len(p | t)
            prec += (inter / len(p)) if p else 0.0
            rec += (inter / len(t)) if t else 0.0
            f1 += 2 * inter / (len(p) + len(t))
    return MetricsReport(hamming_loss=hl / n, accuracy=acc / n,
                         precision=prec / n, recall=rec / n, f1=f1 / n,
                         n_samples=n, n_labels=m)
