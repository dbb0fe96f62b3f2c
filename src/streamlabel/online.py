"""Online sequential training of the output weights by recursive least squares.

An initial block of samples is solved in one shot, after which arriving
chunks of samples update the output weights and the inverse Gram matrix M;
a single sample is a chunk of one. For any chunking of the stream, the final
weights match a batch least-squares fit over all samples seen, up to
rounding.

A chunk of c rows Hc costs one symmetric product T = Hc M, one c x c
Cholesky factor F F' = I + T Hc', one triangular solve U = F^-1 T and one
symmetric rank-c downdate M -= U'U, and no M-sized temporary or copy: M is
downdated in its own memory, so a caller holding a reference to ``state.M``
sees it change and should snapshot it with ``.copy()``. While streaming, M
is kept as its lower triangle only: the product reads that triangle and the
downdate writes it, and the upper triangle is filled in, once, when
``state.M`` is next read, so every M a caller sees is exactly symmetric.
The output weights take the gain form beta += U'F^-1 (Yc - Hc beta), so no
second pass over M is needed; a caller that already holds the chunk's
scores Hc beta passes them as ``scores=`` and they are not recomputed.
"""

import numpy as np
from scipy.linalg import blas

from .elm import ElmParams, hidden_map
from .numerics import SingularMatrixError, cholesky_spd, inv_spd, mirror_lower


class OselmState:
    """Mutable sequential-training state.

    beta is (n_hidden, n_labels), M is the (n_hidden, n_hidden) inverse of
    the accumulated hidden-feature Gram matrix. Updates write M in place
    (snapshot it with ``.copy()`` to keep an old value) and keep only its
    lower triangle current; reading ``state.M`` copies that triangle onto
    the upper one in place, once per update, so the array returned is
    always the same object and exactly symmetric. Assigning ``state.M``
    stores the array as given. beta is replaced by a new array on each
    update.
    Single-writer: never update or read one state from two threads.
    """

    def __init__(self, beta: np.ndarray, M: np.ndarray, samples_seen: int,
                 ridge_used: float):
        self.beta = beta
        self.M = M
        self.samples_seen = samples_seen
        self.ridge_used = ridge_used

    @property
    def M(self) -> np.ndarray:
        if self._upper_stale:
            mirror_lower(self._M)
            self._upper_stale = False
        return self._M

    @M.setter
    def M(self, value: np.ndarray) -> None:
        self._M = value
        self._upper_stale = False

    def __repr__(self) -> str:
        return (f"OselmState(beta={self.beta!r}, M={self.M!r}, "
                f"samples_seen={self.samples_seen!r}, "
                f"ridge_used={self.ridge_used!r})")


def init_phase(params: ElmParams, X0, Y0_bip, ridge: float = 0.0) -> OselmState:
    """Solve the initial block: M = (H0'H0 + ridge*I)^-1, beta = M H0' Y0.

    With ridge 0 the block must make H0'H0 invertible, which in practice
    means at least n_hidden samples.
    """
    if ridge < 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    Y0 = np.asarray(Y0_bip, dtype=np.float64)
    H0 = hidden_map(params, X0)
    if Y0.ndim != 2 or Y0.shape[0] != H0.shape[0]:
        raise ValueError(
            f"target shape {Y0.shape} does not match {H0.shape[0]} samples")
    # H0.T is an F-ordered view, so dsyrk reads H0 without a copy; it fills
    # the upper triangle of the F-ordered result, the lower one of its .T
    gram = blas.dsyrk(1.0, H0.T).T
    if ridge > 0.0:
        gram[np.diag_indices_from(gram)] += ridge
    mirror_lower(gram)
    try:
        M = inv_spd(gram)
    except SingularMatrixError as err:
        raise SingularMatrixError(
            f"init_phase: initial Gram matrix is singular (pivot {err.pivot}); "
            f"use a larger initial block (>= {params.n_hidden} samples) "
            "or a positive ridge",
            pivot=err.pivot) from err
    beta = M @ (H0.T @ Y0)
    return OselmState(beta=beta, M=M, samples_seen=H0.shape[0],
                      ridge_used=float(ridge))


def _check_finite(name: str, A) -> None:
    finite_rows = np.isfinite(A).all(axis=1)
    if not finite_rows.all():
        raise ValueError(
            f"update_chunk: {name} row {int(np.argmin(finite_rows))} is not "
            "finite; the state was left unchanged")


def update_chunk(state: OselmState, params: ElmParams, Xc, Yc_bip, *,
                 Hc=None, scores=None) -> OselmState:
    """Block update for a chunk of samples; mutates and returns the state.

    With T = Hc M, the Cholesky factor F F' = I + T Hc' and U = F^-1 T:
        M' = M - U'U
        beta' = beta + U'F^-1 (Yc - Hc beta)
    the matrix-inversion-lemma form of recursive least squares. Hc, the
    hidden-layer rows of Xc, and scores, the chunk's raw outputs Hc beta
    under the current weights, are computed here unless the caller passes
    them. A NaN or inf in the chunk, the scores, beta or M raises
    ValueError. Every check runs before the state is touched, so an update
    that raises leaves beta, M and samples_seen as they were.
    """
    Xc = np.asarray(Xc, dtype=np.float64)
    Yc = np.asarray(Yc_bip, dtype=np.float64)
    L = params.n_hidden
    if Hc is None:
        Hc = hidden_map(params, Xc)
    else:
        Hc = np.asarray(Hc, dtype=np.float64)
        if Xc.ndim != 2 or Hc.shape != (Xc.shape[0], L):
            raise ValueError(
                f"hidden rows of shape {Hc.shape} do not match "
                f"({Xc.shape[0]}, {L})")
    c = Hc.shape[0]
    m = state.beta.shape[1]
    if Yc.shape != (c, m):
        raise ValueError(
            f"chunk target shape {Yc.shape} does not match ({c}, {m})")
    # the private array: reading state.M would fill in its stale triangle
    M = state._M
    if M.shape != (L, L) or state.beta.shape[0] != L:
        raise ValueError(
            f"state shapes M {M.shape}, beta {state.beta.shape} do not "
            f"match n_hidden={L}")
    for name, A in (("Xc", Xc), ("Yc", Yc), ("Hc", Hc)):
        _check_finite(name, A)
    if scores is None:
        scores = Hc @ state.beta
    else:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (c, m):
            raise ValueError(
                f"chunk scores of shape {scores.shape} do not match "
                f"({c}, {m})")
    _check_finite("scores", scores)

    if not (M.dtype == np.float64 and M.flags.c_contiguous
            and M.flags.writeable):
        # BLAS below writes into M.T; f2py would write through a read-only
        # flag, and it copies any other layout
        M = np.array(M, dtype=np.float64, order="C")
    # M.T is an F-ordered view of M; dsymm reads only its upper triangle,
    # which is M's lower one, the only triangle the downdate keeps current
    T = blas.dsymm(1.0, M.T, Hc.T, side=0, lower=0).T
    K = np.eye(c) + T @ Hc.T
    # Hc M Hc' is symmetric only up to roundoff; enforce it before factoring
    K = 0.5 * (K + K.T)
    try:
        F = cholesky_spd(K, "update_chunk")
    except SingularMatrixError as err:
        raise SingularMatrixError(
            f"update_chunk: gain matrix is singular (pivot {err.pivot})",
            pivot=err.pivot) from err
    # T.T is an F-ordered view, so dtrsm solves U' F' = T' in T's memory;
    # w' F' = r' likewise gives w = F^-1 r in the residual's memory
    Ut = blas.dtrsm(1.0, F, T.T, side=1, lower=1, trans_a=1, overwrite_b=1)
    residual = Yc - scores
    w = blas.dtrsm(1.0, F, residual.T, side=1, lower=1, trans_a=1,
                   overwrite_b=1).T

    # All checks passed. dsyrk writes M - U'U into the upper triangle of
    # the F-ordered view M.T, in M's own memory: M's lower triangle is
    # current and its upper one stale until state.M is read.
    blas.dsyrk(-1.0, Ut, beta=1.0, c=M.T, overwrite_c=1)
    state._M = M
    state._upper_stale = True
    state.beta = state.beta + Ut @ w
    state.samples_seen += c
    return state
