import numpy as np
import pytest

from streamlabel import evaluate

from conftest import random_labelsets


def naive_counting_oracle(preds, truths, m):
    """Per-element membership counting, no set operations."""
    n = len(preds)
    hl = acc = prec = rec = f1 = 0.0
    for p, t in zip(preds, truths):
        wrong = inter = union = 0
        for i in range(m):
            in_p = i in p
            in_t = i in t
            if in_p != in_t:
                wrong += 1
            if in_p and in_t:
                inter += 1
            if in_p or in_t:
                union += 1
        hl += wrong / m
        if union == 0:
            acc += 1.0
            prec += 1.0
            rec += 1.0
            f1 += 1.0
        else:
            acc += inter / union
            prec += (inter / len(p)) if p else 0.0
            rec += (inter / len(t)) if t else 0.0
            f1 += 2 * inter / (len(p) + len(t))
    return hl / n, acc / n, prec / n, rec / n, f1 / n


def test_perfect_predictions():
    truths = [{0}, {1, 2}, {0, 3}]
    report = evaluate(truths, truths, 4)
    assert report.hamming_loss == 0.0
    assert report.accuracy == 1.0
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.f1 == 1.0
    assert report.n_samples == 3
    assert report.n_labels == 4


def test_hand_case():
    report = evaluate([{0, 1}], [{1, 2}], 4)
    assert report.hamming_loss == pytest.approx(0.5)
    assert report.accuracy == pytest.approx(1.0 / 3.0)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)
    assert report.f1 == pytest.approx(0.5)


def test_both_empty_convention():
    report = evaluate([set()], [set()], 4)
    assert report.hamming_loss == 0.0
    assert report.accuracy == 1.0
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert report.f1 == 1.0


def test_one_side_empty_convention():
    report = evaluate([set()], [{1}], 4)
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0
    report = evaluate([{1}], [set()], 4)
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0


def test_matches_naive_oracle_exactly():
    # equality must be bitwise, not approximate
    rng = np.random.default_rng(77)
    preds = random_labelsets(rng, 1000, 10)
    truths = random_labelsets(rng, 1000, 10)
    report = evaluate(preds, truths, 10)
    hl, acc, prec, rec, f1 = naive_counting_oracle(preds, truths, 10)
    assert report.hamming_loss == hl
    assert report.accuracy == acc
    assert report.precision == prec
    assert report.recall == rec
    assert report.f1 == f1


def test_bounds():
    rng = np.random.default_rng(8)
    for _ in range(50):
        preds = random_labelsets(rng, 20, 6, p=rng.uniform(0.05, 0.9))
        truths = random_labelsets(rng, 20, 6, p=rng.uniform(0.05, 0.9))
        report = evaluate(preds, truths, 6)
        for value in report.as_dict().values():
            assert 0.0 <= value <= 1.0


def test_hamming_symmetry_and_pr_duality():
    rng = np.random.default_rng(9)
    preds = random_labelsets(rng, 30, 5)
    truths = random_labelsets(rng, 30, 5)
    fwd = evaluate(preds, truths, 5)
    rev = evaluate(truths, preds, 5)
    assert fwd.hamming_loss == rev.hamming_loss
    assert fwd.precision == rev.recall
    assert fwd.recall == rev.precision


def test_zero_hamming_iff_equal():
    rng = np.random.default_rng(10)
    truths = random_labelsets(rng, 25, 5)
    assert evaluate(truths, truths, 5).hamming_loss == 0.0
    tweaked = list(truths)
    tweaked[7] = tweaked[7] ^ {0}
    assert evaluate(tweaked, truths, 5).hamming_loss > 0.0


def test_f1_between_precision_and_recall_per_sample():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = frozenset(np.nonzero(rng.random(6) < 0.5)[0].tolist())
        t = frozenset(np.nonzero(rng.random(6) < 0.5)[0].tolist())
        if not p or not t:
            continue
        r = evaluate([p], [t], 6)
        if r.precision + r.recall == 0.0:
            assert r.f1 == 0.0
        else:
            assert min(r.precision, r.recall) - 1e-12 <= r.f1
            assert r.f1 <= max(r.precision, r.recall) + 1e-12


def test_validation():
    with pytest.raises(ValueError):
        evaluate([{0}], [{0}, {1}], 3)
    with pytest.raises(ValueError):
        evaluate([], [], 3)
    with pytest.raises(ValueError):
        evaluate([{0}], [{0}], 0)
    with pytest.raises(ValueError):
        evaluate([{4}], [{0}], 3)


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", np.float64(1.0)],
                         ids=["half", "float-one", "str", "numpy-float"])
def test_rejects_non_integer_label_indices(bad):
    # the same rule and wording as label_matrix
    with pytest.raises(ValueError, match="label indices must be integers"):
        evaluate([{bad}], [{0}], 2)
    with pytest.raises(ValueError, match="label indices must be integers"):
        evaluate([{0}], [{0, bad}], 2)


def test_accepts_numpy_integer_label_indices():
    want = evaluate([{0, 1}], [{1}], 3)
    assert evaluate([{np.int64(0), np.int32(1)}], [{np.uint8(1)}], 3) == want
