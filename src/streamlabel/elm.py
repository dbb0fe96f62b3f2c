"""Single-hidden-layer network with a frozen random hidden layer.

The sigmoid hidden layer (input weights W, biases b) is drawn once from a
seeded uniform distribution on [-1, 1) and never retrained; only the output
weights are fit, by least squares here or in :mod:`streamlabel.online`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .numerics import SingularMatrixError, cholesky_spd, make_rng, mirror_lower

# most rows mapped to hidden features at once: every path that maps many rows
# works one block at a time, so no (n, n_hidden) array is made
_MAP_ROWS = 256


@dataclass(frozen=True)
class ElmParams:
    """Frozen sigmoid hidden layer: W (n_hidden, n_features), b (n_hidden,)."""

    W: np.ndarray
    b: np.ndarray

    @property
    def n_hidden(self) -> int:
        return self.W.shape[0]

    @property
    def n_features(self) -> int:
        return self.W.shape[1]


def init_params(n_features: int, n_hidden: int, seed: int) -> ElmParams:
    """Draw input weights and biases uniformly on [-1, 1) from a seeded RNG.

    One generator feeds both W (drawn first, row-major) and b, so a seed
    fully determines the hidden layer.
    """
    if n_features < 1 or n_hidden < 1:
        raise ValueError(
            f"need n_features >= 1 and n_hidden >= 1, "
            f"got ({n_features}, {n_hidden})")
    rng = make_rng(seed)
    W = rng.uniform(-1.0, 1.0, size=(n_hidden, n_features))
    b = rng.uniform(-1.0, 1.0, size=n_hidden)
    W.setflags(write=False)
    b.setflags(write=False)
    return ElmParams(W=W, b=b)


def _as_rows(params: ElmParams, X) -> np.ndarray:
    """X as a float64 matrix with one column per input feature."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
    if X.shape[1] != params.n_features:
        raise ValueError(
            f"feature dimension mismatch: X has {X.shape[1]} columns, "
            f"hidden layer expects {params.n_features}")
    return X


def hidden_map(params: ElmParams, X) -> np.ndarray:
    """Hidden-layer feature matrix H: H[j, i] = sigmoid(w_i . x_j + b_i).

    The sigmoid is 1 / (1 + exp(-t)), computed in the result's own memory,
    so no second (n, n_hidden) array is made. exp(-t) overflows to inf for
    t below about -709, which gives exactly 0.0; NaN stays NaN.
    """
    H = _as_rows(params, X) @ params.W.T
    # -b - H rounds to exactly -(H + b): rounding is symmetric about zero
    np.subtract(-params.b, H, out=H)
    with np.errstate(over="ignore"):
        np.exp(H, out=H)
    H += 1.0
    return np.reciprocal(H, out=H)


def _normal_equations(params: ElmParams, X, Y, ridge: float, who: str):
    """Checked lower Cholesky factor of H'H + ridge*I, and H'Y, for X's rows H.

    Both least-squares solves, batch_train and online.init_phase, take their
    factor here. Each block of at most _MAP_ROWS rows is added to the Gram
    matrix with one dsyrk and to H'Y with one product, so no (n, n_hidden)
    array is made, and the Gram matrix is factored in its own memory. The
    factor is F-ordered; ``who`` prefixes cholesky_spd's errors.
    """
    if not 0.0 <= ridge < np.inf:  # also false for NaN
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge}")
    X = _as_rows(params, X)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != X.shape[0]:
        raise ValueError(
            f"target shape {Y.shape} does not match {X.shape[0]} samples")
    L = params.n_hidden
    gram = np.zeros((L, L))
    HY = np.zeros((L, Y.shape[1]))
    for i in range(0, len(X), _MAP_ROWS):
        H = hidden_map(params, X[i:i + _MAP_ROWS])
        # H.T and gram.T are F-ordered views, so dsyrk reads H and adds H'H
        # to gram's lower triangle in gram's own memory
        blas.dsyrk(1.0, H.T, beta=1.0, c=gram.T, overwrite_c=1)
        HY += H.T @ Y[i:i + _MAP_ROWS]
    gram[np.diag_indices_from(gram)] += ridge
    mirror_lower(gram)
    # gram is exactly symmetric, so its F-ordered view gram.T is the same
    # matrix and LAPACK factors it without a copy
    return cholesky_spd(gram.T, who, overwrite=True), HY


def batch_train(params: ElmParams, X, Y_bip, ridge: float = 0.0) -> np.ndarray:
    """Least-squares output weights: beta = (H'H + ridge*I)^-1 H'Y_bip.

    One checked Cholesky factor of the normal equations, which are summed
    over blocks of rows. With ridge 0, H must have full column rank
    (typically n_samples >= n_hidden); rank deficiency raises
    SingularMatrixError instead of silently regularizing.
    """
    try:
        factor, HY = _normal_equations(params, X, Y_bip, ridge, "batch_train")
    except SingularMatrixError as err:
        raise SingularMatrixError(
            f"batch_train: H'H is singular (pivot {err.pivot}); "
            "H is rank deficient, pass ridge > 0 or add rows",
            pivot=err.pivot) from err
    return lapack.dpotrs(factor, HY, lower=1)[0]


def predict_raw(params: ElmParams, beta, X) -> np.ndarray:
    """Raw network outputs H @ beta, one row of real scores per sample.

    Rows are mapped and multiplied one block of 256 (_MAP_ROWS) at a time
    into the (n, n_labels) result, so no (n, n_hidden) array is made.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 2 or beta.shape[0] != params.n_hidden:
        raise ValueError(
            f"beta shape {beta.shape} does not match n_hidden={params.n_hidden}")
    X = _as_rows(params, X)
    out = np.empty((len(X), beta.shape[1]))
    for i in range(0, len(X), _MAP_ROWS):
        np.matmul(hidden_map(params, X[i:i + _MAP_ROWS]), beta,
                  out=out[i:i + _MAP_ROWS])
    return out
