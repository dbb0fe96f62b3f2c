import itertools
import random
import re

import numpy as np
import pytest

from streamlabel import (ThresholdCalib, calibrate_chunk, dataset_stats,
                         decode_rows, evaluate, label_matrix)
from streamlabel.labels import _threshold_value


def _bipolar(labelsets, m):
    # the +/-1 targets a run trains on
    return np.where(label_matrix(labelsets, m), 1.0, -1.0)


def test_encode_empty_set():
    assert np.array_equal(_bipolar([set()], 3), [[-1.0, -1.0, -1.0]])


def test_encode_hand_case():
    assert np.array_equal(_bipolar([{0, 2}], 3), [[1.0, -1.0, 1.0]])


def test_encode_full_set():
    assert np.array_equal(_bipolar([{0, 1, 2, 3}], 4), np.ones((1, 4)))


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        label_matrix([{3}], 3)
    with pytest.raises(ValueError):
        label_matrix([{-1}], 3)


def test_decode_encode_round_trip_exhaustive():
    # every one of the 2^4 subsets survives encode->decode at threshold 0
    sets = [{i for i, v in enumerate(bits) if v}
            for bits in itertools.product((0, 1), repeat=4)]
    assert decode_rows(_bipolar(sets, 4), 0.0) == sets


def test_calibrate_first_observation():
    calib = ThresholdCalib()
    calibrate_chunk(calib, [[0.9, -0.2]], label_matrix([{0}], 2))
    assert calib.min_pos == 0.9
    assert calib.max_neg == -0.2


def test_calibrate_running_extrema():
    calib = ThresholdCalib()
    calibrate_chunk(calib, [[0.9, -0.2]], label_matrix([{0}], 2))
    calibrate_chunk(calib, [[0.4, 0.5]], label_matrix([{1}], 2))
    assert calib.min_pos == 0.5
    assert calib.max_neg == 0.4


def test_calibrate_full_truth_leaves_max_neg():
    calib = ThresholdCalib(min_pos=0.7, max_neg=-0.3)
    calibrate_chunk(calib, [[0.6, 0.8]], label_matrix([{0, 1}], 2))
    assert calib.min_pos == 0.6
    assert calib.max_neg == -0.3


def test_calibrate_empty_truth_leaves_min_pos():
    calib = ThresholdCalib(min_pos=0.7, max_neg=-0.3)
    calibrate_chunk(calib, [[0.1, -0.9]], label_matrix([set()], 2))
    assert calib.min_pos == 0.7
    assert calib.max_neg == 0.1


def test_calibrate_monotone_and_order_independent():
    rng = np.random.default_rng(5)
    observations = []
    for _ in range(60):
        y = rng.normal(size=4)
        truth = {i for i in range(4) if rng.random() < 0.4}
        observations.append((y, truth))

    calib = ThresholdCalib()
    prev_pos, prev_neg = np.inf, -np.inf
    for y, truth in observations:
        calibrate_chunk(calib, y[None], label_matrix([truth], 4))
        if calib.min_pos is not None:
            assert calib.min_pos <= prev_pos
            prev_pos = calib.min_pos
        if calib.max_neg is not None:
            assert calib.max_neg >= prev_neg
            prev_neg = calib.max_neg

    shuffled = observations[:]
    random.Random(9).shuffle(shuffled)
    other = ThresholdCalib()
    for y, truth in shuffled:
        calibrate_chunk(other, y[None], label_matrix([truth], 4))
    assert other.min_pos == calib.min_pos
    assert other.max_neg == calib.max_neg


def test_threshold_value_hand_cases():
    assert _threshold_value(ThresholdCalib(0.6, 0.2)) == pytest.approx(0.4)
    # overlap still yields the midpoint
    assert _threshold_value(ThresholdCalib(-0.1, 0.3)) == pytest.approx(0.1)
    # symmetric scores give the zero threshold
    assert _threshold_value(ThresholdCalib(0.5, -0.5)) == 0.0


def test_threshold_value_names_missing_side():
    with pytest.raises(ValueError, match="min_pos"):
        _threshold_value(ThresholdCalib(None, 0.3))
    with pytest.raises(ValueError, match="max_neg"):
        _threshold_value(ThresholdCalib(0.3, None))


def test_decode_hand_case():
    assert decode_rows([[0.9, -0.3, 0.5]], 0.4) == [{0, 2}]


def test_decode_empty_allowed():
    assert decode_rows([[0.1, 0.2]], 0.4) == [set()]


def test_decode_min_one_argmax_tie_break():
    assert decode_rows([[0.1, 0.3, 0.3]], 0.4, min_one=True) == [{1}]


def test_decode_strict_inequality_at_threshold():
    assert decode_rows([[0.4, 0.41]], 0.4) == [{1}]


def test_decode_min_one_inactive_when_nonempty():
    assert decode_rows([[0.9, 0.1]], 0.4, min_one=True) == [{0}]


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_decode_rows_rejects_a_non_finite_threshold(threshold):
    # every score compares false with NaN, so each row used to fall back to
    # its argmax under min_one, or to the empty set without it
    for min_one in (True, False):
        with pytest.raises(ValueError, match="^decode_rows: threshold must "
                           f"be finite, got {float(threshold)}$"):
            decode_rows(np.array([[1.0, 2.0]]), threshold, min_one)


def test_perfect_separation_recovers_truth():
    # positives all score above every negative: midpoint threshold is exact
    rng = np.random.default_rng(21)
    m = 5
    calib = ThresholdCalib()
    rows = []
    for _ in range(40):
        truth = {i for i in range(m) if rng.random() < 0.5}
        y = np.where([i in truth for i in range(m)],
                     rng.uniform(1.0, 2.0, m), rng.uniform(-2.0, -1.0, m))
        calibrate_chunk(calib, y[None], label_matrix([truth], m))
        rows.append((y, truth))
    t = _threshold_value(calib)
    preds = decode_rows(np.stack([y for y, _ in rows]), t)
    report = evaluate(preds, [truth for _, truth in rows], m)
    assert report.hamming_loss == 0.0


def test_threshold_shift_equivariance_exact():
    # dyadic scores and shift keep every float operation exact
    scores = np.array([[0.75, -0.5, 0.25], [-0.25, 1.5, 0.5]])
    truth = label_matrix([{0}, {1, 2}], 3)
    shift = 2.0
    base = calibrate_chunk(ThresholdCalib(), scores, truth)
    shifted = calibrate_chunk(ThresholdCalib(), scores + shift, truth)
    t0 = _threshold_value(base)
    t1 = _threshold_value(shifted)
    assert t1 == t0 + shift
    assert decode_rows(scores + shift, t1) == decode_rows(scores, t0)


def test_dataset_stats_hand_case():
    stats = dataset_stats([{0}, {0, 1}, {1, 2}], 3)
    assert list(stats) == ["label_cardinality", "label_density"]
    assert stats["label_cardinality"] == pytest.approx(5.0 / 3.0)
    assert stats["label_density"] == pytest.approx(5.0 / 9.0)


def test_dataset_stats_singletons():
    stats = dataset_stats([{0}, {1}, {2}, {0}], 3)
    assert stats["label_cardinality"] == 1.0


def test_dataset_stats_validation():
    with pytest.raises(ValueError):
        dataset_stats([], 3)
    with pytest.raises(ValueError):
        dataset_stats([{0}], 0)
    with pytest.raises(ValueError):
        dataset_stats([{5}], 3)


def test_label_matrix_hand_case():
    Y = label_matrix([{0, 2}, set(), {1}], 3)
    assert Y.dtype == bool
    assert np.array_equal(Y, [[True, False, True], [False, False, False],
                              [False, True, False]])
    assert label_matrix((), 4).shape == (0, 4)


@pytest.mark.parametrize("bad", [-1, 3])
def test_label_matrix_rejects_out_of_range(bad):
    # a negative index must not wrap around to the last label
    with pytest.raises(ValueError, match=f"label index {bad} outside label "
                                         "space of size 3"):
        label_matrix([{0}, {1, bad}], 3)


@pytest.mark.parametrize("bad", [1.5, "1"])
def test_label_matrix_rejects_non_integer_indices(bad):
    with pytest.raises(ValueError, match="label indices must be integers"):
        label_matrix([{0}, {bad}], 3)


@pytest.mark.parametrize("bad", [{True}, {True, 2}, {np.True_, 2}],
                         ids=["bool", "bool-with-int", "numpy-bool-with-int"])
def test_label_matrix_rejects_bool_indices(bad):
    # a bool mixed with ints must not pass as the index 0 or 1
    with pytest.raises(ValueError,
                       match="label indices must be integers, got bool"):
        label_matrix([{0}, bad], 3)


def test_label_matrix_matches_per_set_oracle():
    rng = np.random.default_rng(11)
    m = 9
    sets = [frozenset(np.nonzero(rng.random(m) < 0.3)[0].tolist())
            for _ in range(50)]
    Y = label_matrix(iter(sets), m)
    assert np.array_equal(Y, [[i in s for i in range(m)] for s in sets])


def _fold_rows_oracle(calib, y_raw, truth):
    """Per-row extrema in plain Python: the calibration definition itself."""
    for y, row in zip(y_raw.tolist(), truth.tolist()):
        pos = [v for v, t in zip(y, row) if t]
        neg = [v for v, t in zip(y, row) if not t]
        if pos:
            calib.min_pos = min(pos + ([] if calib.min_pos is None
                                       else [calib.min_pos]))
        if neg:
            calib.max_neg = max(neg + ([] if calib.max_neg is None
                                       else [calib.max_neg]))
    return calib


def test_calibrate_chunk_equals_row_by_row_fold():
    rng = np.random.default_rng(12)
    m = 6
    chunked, oracle = ThresholdCalib(), ThresholdCalib()
    chunks = [rng.random((8, m)) < 0.3 for _ in range(6)]
    chunks[0][:] = False  # no positives: min_pos stays None after it
    chunks[2][:] = True   # no negatives
    chunks.insert(3, np.zeros((0, m), dtype=bool))  # an empty chunk
    for truth in chunks:
        y = rng.normal(size=truth.shape)
        calibrate_chunk(chunked, y, truth)
        _fold_rows_oracle(oracle, y, truth)
        assert (chunked.min_pos, chunked.max_neg) == \
            (oracle.min_pos, oracle.max_neg)
        if truth is chunks[0]:
            assert chunked.min_pos is None and chunked.max_neg is not None


def test_calibrate_chunk_validates_shapes():
    with pytest.raises(ValueError, match="matrix"):
        calibrate_chunk(ThresholdCalib(), np.zeros(3), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="bool matrix"):
        calibrate_chunk(ThresholdCalib(), np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="bool matrix"):
        calibrate_chunk(ThresholdCalib(), np.zeros((2, 3)),
                        np.ones((3, 2), dtype=bool))


def _decode_oracle(y, threshold, min_one):
    members = {i for i, v in enumerate(y) if v > threshold}
    if min_one and not members and len(y):
        # the argmax: a row's first NaN if it has one, else its lowest top
        nan = [i for i, v in enumerate(y) if v != v]
        top = max(y)
        members = {nan[0] if nan else min(i for i, v in enumerate(y)
                                           if v == top)}
    return members


@pytest.mark.parametrize("min_one", [False, True])
@pytest.mark.parametrize("threshold", [-0.5, 0.25, 1.0, 2.0])
def test_decode_rows_matches_per_row_oracle(threshold, min_one):
    # scores on a quarter grid: ties at the threshold and argmax ties are
    # common, and threshold 2.0 leaves every row below it
    rng = np.random.default_rng(13)
    raw = rng.integers(-4, 5, size=(120, 7)) / 4.0
    raw[0] = [1.0, 1.0, -1.0, 1.0, 0.5, 0.0, 1.0]  # argmax tie, lowest wins
    raw[1] = threshold  # every score exactly at the threshold
    got = decode_rows(raw, threshold, min_one)
    want = [_decode_oracle(row, threshold, min_one) for row in raw.tolist()]
    assert got == want
    assert got[1] == ({0} if min_one else set())


def test_decode_rows_edge_shapes():
    assert decode_rows(np.zeros((0, 3)), 0.0, min_one=True) == []
    assert decode_rows(np.zeros((2, 0)), 0.0, min_one=True) == [set(), set()]
    with pytest.raises(ValueError, match="matrix"):
        decode_rows(np.zeros(3), 0.0)


@pytest.mark.parametrize("min_one", [False, True])
def test_decode_rows_wide_sparse_matches_per_row_oracle(min_one):
    # corel5k's label width with about 1% of the scores above the
    # threshold, so most rows hold a few members and many hold none
    rng = np.random.default_rng(14)
    m, threshold = 374, 1.0
    raw = np.where(rng.random((300, m)) < 0.01, 2.0,
                   rng.integers(-8, 1, size=(300, m)) / 8.0)
    raw[10:20] = -1.0                   # all empty, argmax ties everywhere
    raw[20] = 2.0                       # full rows
    raw[21, ::2] = 3.0
    raw[21, 1::2] = -3.0
    raw[22] = threshold                 # every score at the threshold
    raw[23] = 0.0                       # an empty row with a three-way tie
    raw[23, [5, 200, 373]] = 0.875
    raw[24] = -0.5                      # only the last column
    raw[24, -1] = threshold + 0.5
    got = decode_rows(raw, threshold, min_one)
    want = [_decode_oracle(row, threshold, min_one) for row in raw.tolist()]
    assert got == want
    assert got[20] == set(range(m))
    assert got[24] == {m - 1}
    if min_one:
        assert got[10] == got[22] == {0}
        assert got[23] == {5}
    assert sum(map(len, got)) > 300     # the sparse rows do hit


@pytest.mark.parametrize("min_one", [False, True])
def test_decode_rows_with_non_finite_scores_matches_per_row_oracle(min_one):
    # random shapes down to one label; scores on a half grid, so many equal
    # the threshold; NaN and +/-inf cells, and whole rows below the
    # threshold, so min_one's argmax meets NaN rows
    rng = np.random.default_rng(31)
    specials = np.array([np.nan, np.inf, -np.inf])
    for trial in range(200):
        n, m = rng.integers(0, 12), rng.integers(1, 9)
        if trial % 10 == 0:
            m = 1
        y = rng.integers(-3, 4, size=(n, m)) / 2.0
        odd = rng.random((n, m)) < 0.1
        y[odd] = rng.choice(specials, size=int(odd.sum()))
        y[rng.random(n) < 0.3] = -5.0
        threshold = rng.integers(-2, 3) / 2.0
        want = [_decode_oracle(row, threshold, min_one) for row in y.tolist()]
        assert decode_rows(y, threshold, min_one) == want, (trial, y)
    # rows of only NaN, and a row with a hit after a NaN
    y = np.array([[np.nan, np.nan, 1.0], [np.nan, np.nan, np.nan],
                  [-1.0, np.nan, np.nan]])
    want = [_decode_oracle(row, 0.0, min_one) for row in y.tolist()]
    assert decode_rows(y, 0.0, min_one) == want
    assert want[1:] == ([{0}, {1}] if min_one else [set(), set()])


_BAD_INDEX = [
    (np.True_, "label indices must be integers, got bool"),
    (1.0, "label indices must be integers, got float"),
    ("a", "label indices must be integers, got str"),
    (None, "label indices must be integers, got NoneType"),
    (2 ** 70, "label index 1180591620717411303424 outside label space of "
              "size 3"),
    (-1, "label index -1 outside label space of size 3"),
    (3, "label index 3 outside label space of size 3"),
]

# Each caller takes the sets in one flat order: evaluate reads its
# predictions and truths as p0, t0, p1, t1, ...
_CALLERS = {
    "label_matrix": lambda sets: label_matrix(sets, 3),
    "evaluate": lambda sets: evaluate(sets[0::2], sets[1::2], 3),
    "dataset_stats": lambda sets: dataset_stats(sets, 3),
}


@pytest.mark.parametrize("caller", _CALLERS)
@pytest.mark.parametrize("bad,message", _BAD_INDEX,
                         ids=["numpy-bool", "float", "str", "none", "2**70",
                              "negative", "m"])
def test_one_label_index_rule_for_every_caller(caller, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _CALLERS[caller]([{0}, {2, bad}])


@pytest.mark.parametrize("caller", _CALLERS)
@pytest.mark.parametrize("good", [np.int64(1), np.uint8(1)],
                         ids=["int64", "uint8"])
def test_numpy_integer_label_indices_count_as_ints(caller, good):
    want = _CALLERS[caller]([{0}, {1, 2}])
    got = _CALLERS[caller]([{0}, {good, 2}])
    assert np.array_equal(got, want) if caller == "label_matrix" \
        else got == want


@pytest.mark.parametrize("caller", _CALLERS)
def test_the_first_bad_label_index_is_named(caller):
    with pytest.raises(ValueError, match="^label index 7 outside"):
        _CALLERS[caller]([{7}, {"a"}])
    with pytest.raises(ValueError, match="got str$"):
        _CALLERS[caller]([{"a"}, {7}])
    # p1 is read after t0
    with pytest.raises(ValueError, match="got NoneType$"):
        _CALLERS[caller]([{0}, {1}, {None}, {-1}])
