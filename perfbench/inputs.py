"""Seeded synthetic inputs, the ARFF writer and the independent reference checks.

Nothing here is timed. The tables have the shapes of the shipped dataset
defaults; labels come from a noisy linear rule whose per-label prevalence
follows a power law scaled to the dataset's label cardinality, so rare and
common labels both occur. Feature values lie on a k/256 grid, which prints
exactly in a few decimal digits: a file written here parses back to the very
same doubles, and a reference computed from the arrays matches what the
program read from the file.
"""

import numpy as np

# (features, labels, label cardinality) of the shipped dataset defaults
SHAPES = {
    "yeast": (103, 14, 4.2),
    "scene": (294, 6, 1.07),
    "corel5k": (499, 374, 3.5),
}

_GRID = 256
_PREVALENCE_EXPONENT = 0.7
_NOISE_SD = 1.0


def make_table(shape: str, n_rows: int, seed: int, stream: int):
    """(X, Y): n_rows x d float64 features on the k/256 grid, n_rows x m bool.

    ``stream`` separates the inputs of different workloads drawn from one
    seed. The same (shape, n_rows, seed, stream) always gives the same table.
    """
    d, m, cardinality = SHAPES[shape]
    rng = np.random.Generator(np.random.PCG64([seed, stream]))
    X = rng.integers(0, _GRID, size=(n_rows, d)) / _GRID
    A = rng.standard_normal((d, m))
    # uniform grid features have variance ~1/12; scale the rule to unit signal
    S = (X - 0.5) @ A / np.sqrt(d / 12.0)
    S += _NOISE_SD * rng.standard_normal((n_rows, m))
    weights = (np.arange(1, m + 1)) ** -_PREVALENCE_EXPONENT
    prevalence = np.minimum(cardinality * weights / weights.sum(), 0.8)
    thresholds = np.array([np.quantile(S[:, j], 1.0 - prevalence[j])
                           for j in range(m)])
    Y = S > thresholds
    return X, Y


def write_arff(path, X, Y, relation: str) -> None:
    """Dense ARFF: numeric feature columns, then {0,1} label columns."""
    d, m = X.shape[1], Y.shape[1]
    cells = np.array([f"{k / _GRID:.8g}" for k in range(_GRID)])
    codes = np.rint(X * _GRID).astype(np.int64)
    if not np.array_equal(codes / _GRID, X):
        raise ValueError("features are not on the k/256 grid")
    bits = np.array(["0", "1"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"@relation {relation}\n")
        fh.writelines(f"@attribute f{j} numeric\n" for j in range(d))
        fh.writelines(f"@attribute l{j} {{0,1}}\n" for j in range(m))
        fh.write("@data\n")
        for feats, labels in zip(cells[codes], bits[Y.astype(np.int64)]):
            fh.write(",".join(feats.tolist() + labels.tolist()))
            fh.write("\n")


def sets_to_matrix(labelsets, m: int) -> np.ndarray:
    """Bool matrix with row i marking the members of labelsets[i]."""
    out = np.zeros((len(labelsets), m), dtype=bool)
    for i, s in enumerate(labelsets):
        out[i, list(s)] = True
    return out


def matrix_to_sets(Y) -> tuple:
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in Y)


def oracle_evaluate(P, T) -> dict:
    """Example-based metrics from bool matrices, summed left to right.

    Per-sample ratios are formed elementwise from exact integer counts and
    then accumulated in row order (``np.cumsum`` adds sequentially), which
    is the order the program promises; the result must match it bit for bit.
    """
    P = np.asarray(P, dtype=bool)
    T = np.asarray(T, dtype=bool)
    n, m = P.shape
    inter = (P & T).sum(axis=1)
    union = (P | T).sum(axis=1)
    n_pred = P.sum(axis=1)
    n_true = T.sum(axis=1)
    empty = union == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        per_sample = {
            "hamming_loss": (P ^ T).sum(axis=1) / m,
            "accuracy": np.where(empty, 1.0, inter / union),
            "precision": np.where(empty, 1.0,
                                  np.where(n_pred > 0, inter / n_pred, 0.0)),
            "recall": np.where(empty, 1.0,
                               np.where(n_true > 0, inter / n_true, 0.0)),
            "f1": np.where(empty, 1.0, 2 * inter / (n_pred + n_true)),
        }
    return {k: float(np.cumsum(v)[-1]) / n for k, v in per_sample.items()}


def beta_reference(X, Y, W, b, ridge: float, normalize: bool) -> np.ndarray:
    """Ridge least-squares output weights by an SVD solve (``lstsq``).

    Independent of the program's normal-equation path: H is rebuilt from
    the raw rows and the frozen hidden layer (W, b), and the ridge enters as
    sqrt(ridge) * I rows appended to H.
    """
    X = np.asarray(X, dtype=np.float64)
    if normalize:
        lo, hi = X.min(axis=0), X.max(axis=0)
        span = hi - lo
        X = np.where(span > 0.0, (X - lo) / np.where(span > 0.0, span, 1.0),
                     0.0)
    H = 1.0 / (1.0 + np.exp(-(X @ np.asarray(W).T + np.asarray(b))))
    targets = np.where(Y, 1.0, -1.0)
    if ridge > 0.0:
        L = H.shape[1]
        H = np.vstack([H, np.sqrt(ridge) * np.eye(L)])
        targets = np.vstack([targets, np.zeros((L, targets.shape[1]))])
    return np.linalg.lstsq(H, targets, rcond=None)[0]


def rel_err(beta, ref) -> float:
    return float(np.linalg.norm(beta - ref) / np.linalg.norm(ref))
