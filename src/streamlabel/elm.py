"""Single-hidden-layer network with a frozen random hidden layer.

The hidden layer (input weights W, biases b) is drawn once from a seeded
uniform distribution and never retrained; only the output weights are fit,
by least squares here or recursively in :mod:`streamlabel.online`.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .numerics import SingularMatrixError, cholesky_spd, make_rng, rand_uniform


class Activation(str, Enum):
    SIGMOID = "sigmoid"


@dataclass(frozen=True)
class ElmParams:
    """Frozen hidden layer: W is (n_hidden, n_features), b is (n_hidden,)."""

    W: np.ndarray
    b: np.ndarray
    activation: Activation
    n_features: int
    n_hidden: int


def init_params(n_features: int, n_hidden: int, seed: int,
                weight_range: tuple[float, float] = (-1.0, 1.0)) -> ElmParams:
    """Draw input weights and biases uniformly from a seeded generator.

    One generator feeds both W (drawn first, row-major) and b, so a seed
    fully determines the hidden layer.
    """
    if n_features < 1 or n_hidden < 1:
        raise ValueError(
            f"need n_features >= 1 and n_hidden >= 1, "
            f"got ({n_features}, {n_hidden})")
    lo, hi = weight_range
    rng = make_rng(seed)
    W = rand_uniform(rng, n_hidden, n_features, lo, hi)
    b = rand_uniform(rng, n_hidden, 1, lo, hi)[:, 0]
    W.setflags(write=False)
    b.setflags(write=False)
    return ElmParams(W=W, b=b, activation=Activation.SIGMOID,
                     n_features=n_features, n_hidden=n_hidden)


def hidden_map(params: ElmParams, X) -> np.ndarray:
    """Hidden-layer feature matrix H: H[j, i] = sigmoid(w_i . x_j + b_i).

    The sigmoid is 1 / (1 + exp(-t)), computed in the result's own memory,
    so no second (n, n_hidden) array is made. exp(-t) overflows to inf for
    t below about -709, which gives exactly 0.0; NaN stays NaN.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got ndim={X.ndim}")
    if X.shape[1] != params.n_features:
        raise ValueError(
            f"feature dimension mismatch: X has {X.shape[1]} columns, "
            f"hidden layer expects {params.n_features}")
    if params.activation is not Activation.SIGMOID:
        raise ValueError(f"unsupported activation {params.activation!r}")
    H = X @ params.W.T
    # -b - H rounds to exactly -(H + b): rounding is symmetric about zero
    np.subtract(-params.b, H, out=H)
    with np.errstate(over="ignore"):
        np.exp(H, out=H)
    H += 1.0
    return np.reciprocal(H, out=H)


def batch_train(params: ElmParams, X, Y_bip, ridge: float = 0.0) -> np.ndarray:
    """Least-squares output weights: beta = (H'H + ridge*I)^-1 H'Y_bip.

    One checked Cholesky factor of the normal equations. With ridge 0, H
    must have full column rank (typically n_samples >= n_hidden); rank
    deficiency raises SingularMatrixError instead of silently regularizing.
    """
    if ridge < 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    Y_bip = np.asarray(Y_bip, dtype=np.float64)
    H = hidden_map(params, X)
    if Y_bip.ndim != 2 or Y_bip.shape[0] != H.shape[0]:
        raise ValueError(
            f"target shape {Y_bip.shape} does not match {H.shape[0]} samples")
    gram = H.T @ H
    gram[np.diag_indices_from(gram)] += ridge
    try:
        factor = cholesky_spd(gram, "batch_train")
    except SingularMatrixError as err:
        raise SingularMatrixError(
            f"batch_train: H'H is singular (pivot {err.pivot}); "
            "H is rank deficient, pass ridge > 0 or add rows",
            pivot=err.pivot) from err
    return lapack.dpotrs(factor, H.T @ Y_bip, lower=1)[0]


def predict_raw(params: ElmParams, beta, X) -> np.ndarray:
    """Raw network outputs H @ beta, one row of real scores per sample."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 2 or beta.shape[0] != params.n_hidden:
        raise ValueError(
            f"beta shape {beta.shape} does not match n_hidden={params.n_hidden}")
    return hidden_map(params, X) @ beta
