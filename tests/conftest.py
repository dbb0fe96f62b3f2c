import os
from pathlib import Path

import numpy as np
import pytest

from streamlabel import DatasetBundle, MetricsReport, RunReport


def synthetic_bundle(n, d, m, seed, threshold=0.8):
    """Random features with labels from a noisy linear rule."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    W = rng.normal(size=(d, m))
    scores = X @ W
    labelsets = tuple(frozenset(np.nonzero(s > threshold)[0].tolist())
                      for s in scores)
    return DatasetBundle(X=X, labelsets=labelsets, m=m,
                         feature_names=tuple(f"f{i}" for i in range(d)),
                         label_names=tuple(f"L{j}" for j in range(m)),
                         source=f"synthetic(seed={seed})")


def separable_bundle(n, seed, d=6):
    """Three clusters far apart relative to their noise, fixed label sets.

    Any reasonable model reaches hamming loss 0 on held-out rows, which
    makes this the fixture for exact-recovery checks.
    """
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, size=(3, d))
    for i in range(1, 3):
        for j in range(i):
            gap = centers[i] - centers[j]
            dist = np.linalg.norm(gap)
            if dist < 6.0:
                centers[i] += gap / dist * (6.0 - dist)
    sets = [frozenset({0}), frozenset({1}), frozenset({0, 2})]
    which = rng.integers(0, 3, size=n)
    X = centers[which] + rng.normal(scale=0.25, size=(n, d))
    return DatasetBundle(X=X, labelsets=tuple(sets[w] for w in which), m=3,
                         feature_names=tuple(f"x{i}" for i in range(d)),
                         label_names=("a", "b", "c"),
                         source=f"separable(seed={seed})")


def random_labelsets(rng, n, m, p=0.3):
    """n random subsets of range(m), each label present with probability p."""
    return [frozenset(np.nonzero(rng.random(m) < p)[0].tolist())
            for _ in range(n)]


def dataset_path(name):
    """Locate an optional benchmark dataset file, or None when absent.

    Searched: $STREAMLABEL_DATA, then <repo>/data.
    """
    roots = []
    env = os.environ.get("STREAMLABEL_DATA")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        for suffix in (".arff", ".csv"):
            candidate = root / f"{name}{suffix}"
            if candidate.exists():
                return str(candidate)
    return None


def golden_run_report():
    """Fixed report used for byte-stable emission checks."""
    metrics = MetricsReport(hamming_loss=0.125, accuracy=0.75, precision=0.8,
                            recall=0.875, f1=0.8125)
    config = {
        "data_path": "data/example.arff",
        "data_format": "arff",
        "label_spec": 4,
        "n_train": 160,
        "n_hidden": 24,
        "seed": 7,
        "n_init": 32,
        "n_init_effective": 32,
        "chunk_size": 8,
        "ridge": 0.0,
        "threshold_mode": "calibrated",
        "min_one": False,
        "normalize": True,
    }
    return RunReport(dataset="example", config=config, metrics=metrics,
                     train_time_s=0.03125, test_time_s=0.0078125,
                     n_epochs=16, avg_epoch_s=0.001953125, threshold=0.25)


@pytest.fixture
def tiny_arff(tmp_path):
    """Small on-disk dataset: 2 numeric features, 1 nominal, 2 label columns."""
    text = """% tiny fixture
@relation tiny

@attribute width numeric
@attribute height real
@attribute color {red,green,blue}
@attribute is_big {0,1}
@attribute is_red {0,1}

@data
1.0,2.0,red,0,1
3.5,4.0,green,1,0
% a comment between rows
5.0,0.5,blue,1,1
2.5,1.5,red,0,0
"""
    path = tmp_path / "tiny.arff"
    path.write_text(text, encoding="utf-8")
    return str(path)
