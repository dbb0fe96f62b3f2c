"""Prediction quality on planted tables, with no dataset files needed.

The tables copy the benchmark's generator (perfbench/inputs.make_table,
stream 7): features on a k/256 grid and labels from a noisy linear rule
whose per-label prevalence follows a power law scaled to the label
cardinality. Each shape and seed trains once with the shipped defaults of
its dataset on the first n_train rows and decodes the 2000 rows after them.
"""

import functools

import numpy as np
import pytest

import streamlabel as sl
from streamlabel.dataio import _normalize_rows

# features, labels, label cardinality
_SHAPES = {"yeast": (103, 14, 4.2), "scene": (294, 6, 1.07),
           "corel5k": (499, 374, 3.5)}
_GRID = 256
_TEST_ROWS = 2000
_SEEDS = range(1, 11)


def _planted_table(shape, n_rows, seed, stream=7):
    """(X, Y): n_rows x d features on the k/256 grid, n_rows x m bool."""
    d, m, cardinality = shape
    rng = np.random.Generator(np.random.PCG64([seed, stream]))
    X = rng.integers(0, _GRID, size=(n_rows, d)) / _GRID
    A = rng.standard_normal((d, m))
    # uniform grid features have variance ~1/12; scale the rule to unit signal
    S = (X - 0.5) @ A / np.sqrt(d / 12.0)
    S += rng.standard_normal((n_rows, m))
    weights = np.arange(1, m + 1) ** -0.7
    prevalence = np.minimum(cardinality * weights / weights.sum(), 0.8)
    thresholds = np.array([np.quantile(S[:, j], 1.0 - prevalence[j])
                           for j in range(m)])
    return X, S > thresholds


def _bundle(X, Y):
    return sl.DatasetBundle(
        X=X, labelsets=tuple(frozenset(np.flatnonzero(row).tolist())
                             for row in Y),
        m=Y.shape[1], feature_names=tuple(f"f{j}" for j in range(X.shape[1])),
        label_names=tuple(f"l{j}" for j in range(Y.shape[1])),
        source="planted")


@functools.lru_cache(maxsize=None)
def _run(seed, shape="yeast"):
    """Hamming losses per threshold mode, the empty-set loss, and beta's
    relative distance from batch_train on the same rows."""
    defaults = sl.load_dataset_defaults(shape)
    n_train = defaults["n_train"]
    X, Y = _planted_table(_SHAPES[shape], n_train + _TEST_ROWS, seed)
    train, test = sl.split(_bundle(X, Y), n_train)
    model = sl.train_stream(
        sl.RunConfig(data_path="planted", seed=seed, **defaults), train)

    def loss(preds):
        return sl.evaluate(preds, test.labelsets, test.m).hamming_loss

    losses = {mode: loss(sl.predict_sets(
        model.params, model.state.beta, threshold, model.norm_stats, test,
        defaults["min_one"])[0])
        for mode, threshold in (("zero", 0.0),
                                ("calibrated", model.threshold))}
    empty = loss([frozenset()] * test.n_samples)
    want = sl.batch_train(model.params,
                          _normalize_rows(model.norm_stats, train.X),
                          np.where(Y[:n_train], 1.0, -1.0), defaults["ridge"])
    rel = np.linalg.norm(model.state.beta - want) / np.linalg.norm(want)
    return losses, empty, rel


@pytest.mark.parametrize("mode,seed", [
    *[("zero", seed) for seed in _SEEDS],
    *[pytest.param("calibrated", seed, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 7: the calibrated threshold "
        "collapses on this seed (hamming loss 0.631)"))
      if seed == 8 else ("calibrated", seed) for seed in _SEEDS],
])
def test_yeast_shape_beats_the_empty_set(mode, seed):
    losses, empty, _ = _run(seed)
    assert losses[mode] < empty, (losses, empty)


@pytest.mark.parametrize("seed", _SEEDS)
def test_yeast_shape_stream_matches_batch(seed):
    assert _run(seed)[2] <= 1e-6


@pytest.mark.parametrize("shape,seed", [
    *[pytest.param("scene", seed, marks=pytest.mark.xfail(
        strict=True, raises=sl.SingularMatrixError, reason="ROADMAP item 2: "
        "the initial block's Gram matrix refuses to factor at this seed"))
      if seed in (3, 9) else ("scene", seed) for seed in _SEEDS],
    *[("corel5k", seed) for seed in range(1, 4)],
])
def test_scene_and_corel5k_shapes_stream_matches_batch(shape, seed):
    assert _run(seed, shape)[2] <= 1e-6
