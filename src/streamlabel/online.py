"""Online sequential training of the output weights by recursive least squares.

An initial block of samples is solved in one shot, after which arriving
chunks of samples update the output weights and the inverse Gram matrix M;
a single sample is a chunk of one. For any chunking of the stream, the final
weights match a batch least-squares fit over all samples seen, up to
rounding.

A chunk of c rows Hc needs T = Hc M, one c x c Cholesky factor
F F' = I + T Hc', one triangular solve U = F^-1 T, the downdate M -= U'U
and the gain-form weight step beta += U'F^-1 (Yc - Hc beta), which needs
no second pass over M; a caller that already holds the chunk's scores
Hc beta passes them as ``scores=`` and they are not recomputed.

The two M-sized steps, the product and the downdate, run once per block of
chunks, not once per chunk (a look-ahead):

- ``look_ahead(state, H)`` announces the hidden rows of the next chunks and
  projects them through M in one product, P = H M.
- ``update_chunk`` on the next announced rows takes T from its rows of P.
  The U rows of the block's chunks applied so far, stacked as V, are the
  pending downdate: the true inverse Gram matrix is M - V'V, so
  T = P_rows - (Hc V') V. Each chunk's U joins V instead of touching M.
- The next ``look_ahead`` folds V into M with one rank-k downdate.

Rows that were not announced get a one-chunk look-ahead of their own,
which costs what a per-chunk update costs. A deferred correction cancels
against its stale projection, so once the pending downdate has removed
more than half of trace(M) as it stood at projection, the rows still to
come are folded and projected again.

There is no M-sized temporary or copy: M is downdated in its own memory,
so a caller holding a reference to ``state.M`` sees it change and should
snapshot it with ``.copy()``. Reading ``state.M`` folds the pending rows and
drops the look-ahead, so every M a caller sees is exact and exactly
symmetric.
"""

import numpy as np
from scipy.linalg import blas

from .elm import ElmParams, hidden_map
from .numerics import SingularMatrixError, cholesky_spd, inv_spd, mirror_lower


# The guard: once the pending downdate V'V has removed more than this share
# of trace(M) as it stood at projection, T = P_rows - (Hc V')V subtracts
# nearly equal terms and loses digits that the direct product keeps, so the
# rows still to come are projected again through the folded M. Shares from
# a tenth to a half gave the same accuracy on ill-conditioned streams; the
# largest re-projects least.
_STALE_FRACTION = 0.5


class _LookAhead:
    """Announced hidden rows H, their projection P = H M, and the V buffer.

    V[:used] holds the U rows of the chunks applied since the projection:
    the pending downdate. ``removed`` is ||V[:used]||_F^2, the trace it took
    off M; past ``budget`` the guard re-projects.
    """

    __slots__ = ("H", "P", "V", "used", "removed", "budget")

    def __init__(self, H: np.ndarray, P: np.ndarray, budget: float):
        self.H = H
        self.P = P
        self.V = np.empty_like(P)
        self.used = 0
        self.removed = 0.0
        self.budget = budget


class OselmState:
    """Mutable sequential-training state.

    beta is (n_hidden, n_labels), M is the (n_hidden, n_hidden) inverse of
    the accumulated hidden-feature Gram matrix. Updates write M in place
    (snapshot it with ``.copy()`` to keep an old value). Chunks applied
    since the last ``look_ahead`` are held back as a pending downdate;
    reading ``state.M`` folds them into M and drops the look-ahead, so the
    array returned is always the same object, exact and exactly symmetric.
    Assigning ``state.M`` stores the array as given and drops the pending
    rows and the look-ahead. beta is replaced by a new array on each update.
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
        _fold(self)
        return self._M

    @M.setter
    def M(self, value: np.ndarray) -> None:
        self._M = value
        self._ahead = None

    def __repr__(self) -> str:
        return (f"OselmState(beta={self.beta!r}, M={self.M!r}, "
                f"samples_seen={self.samples_seen!r}, "
                f"ridge_used={self.ridge_used!r})")


def _fold(state: OselmState) -> None:
    """Apply the pending downdate, M -= V'V, and drop the look-ahead."""
    ahead = state._ahead
    if ahead is not None and ahead.used:
        # V.T is an F-ordered view; dsyrk writes the upper triangle of the
        # F-ordered view M.T, which is M's lower one, in M's own memory, and
        # the mirror keeps M exactly symmetric for the product and the reader
        blas.dsyrk(-1.0, ahead.V[:ahead.used].T, beta=1.0, c=state._M.T,
                   overwrite_c=1)
        mirror_lower(state._M)
    state._ahead = None


def init_phase(params: ElmParams, X0, Y0_bip, ridge: float = 0.0) -> OselmState:
    """Solve the initial block: M = (H0'H0 + ridge*I)^-1, beta = M H0' Y0.

    With ridge 0 the block must make H0'H0 invertible, which in practice
    means at least n_hidden samples.
    """
    if not 0.0 <= ridge < np.inf:  # also false for NaN
        raise ValueError(f"ridge must be a finite number >= 0, got {ridge}")
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
    them. T comes from the look-ahead when Hc equals the next announced
    rows; otherwise this call announces Hc itself. U'U is held back as a
    pending downdate of M (see the module docstring). A NaN or inf in the
    chunk, the scores, beta or M raises ValueError. Every check runs before
    beta, samples_seen or the value of M is touched, so an update that
    raises leaves them as they were.
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
    # the private array: reading state.M would fold the pending downdate
    M = state._M
    if M.shape != (L, L) or state.beta.shape[0] != L:
        raise ValueError(
            f"state shapes M {M.shape}, beta {state.beta.shape} do not "
            f"match n_hidden={L}")
    for name, A in (("Xc", Xc), ("Yc", Yc), ("Hc", Hc)):
        _check_finite(name, A)
    if scores is None:
        # a non-finite beta is reported by the scores check below
        with np.errstate(invalid="ignore", over="ignore"):
            scores = Hc @ state.beta
    else:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (c, m):
            raise ValueError(
                f"chunk scores of shape {scores.shape} do not match "
                f"({c}, {m})")
    _check_finite("scores", scores)

    ahead = state._ahead
    if ahead is None or not np.array_equal(
            Hc, ahead.H[ahead.used:ahead.used + c]):
        ahead = look_ahead(state, Hc)._ahead
    elif ahead.removed > ahead.budget:
        # the staleness guard (see _STALE_FRACTION): fold, then re-project
        # the rows still to come
        ahead = look_ahead(state, ahead.H[ahead.used:])._ahead
    r0, r1 = ahead.used, ahead.used + c
    # T = Hc (M - V'V) from the projection, written into the rows of V that
    # take this chunk's U
    T = ahead.V[r0:r1]
    T[...] = ahead.P[r0:r1]
    if r0:
        done = ahead.V[:r0]
        T -= (Hc @ done.T) @ done
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

    # All checks passed: U joins the pending downdate, and M is untouched
    # until the next look_ahead or read of state.M folds it in
    ahead.used = r1
    ahead.removed += float(np.vdot(T, T))  # T holds U now
    state.beta = state.beta + Ut @ w
    state.samples_seen += c
    return state


def look_ahead(state: OselmState, H) -> OselmState:
    """Announce the hidden rows of the next chunks; mutates and returns it.

    Folds any pending downdate into M with one rank-k downdate, then
    projects the rows through M with one product, P = H M. The
    update_chunk calls whose hidden rows are the next unconsumed rows of H,
    in order, take T = Hc M from P instead of from a product of their own.
    H is copied. Announcing again, or reading or assigning ``state.M``,
    drops the rows not yet consumed; rows that never arrive cost nothing
    more.
    """
    M = state._M
    H = np.array(H, dtype=np.float64, order="C")
    if H.ndim != 2 or M.ndim != 2 or H.shape[1] != M.shape[0]:
        raise ValueError(
            f"look_ahead: hidden rows of shape {H.shape} do not match "
            f"M of shape {M.shape}")
    if not (M.dtype == np.float64 and M.flags.c_contiguous
            and M.flags.writeable):
        # BLAS writes into M.T; f2py would write through a read-only flag,
        # and it copies any other layout. The value of M is unchanged.
        M = np.array(M, dtype=np.float64, order="C")
        state._M = M
    _fold(state)
    P = H @ M
    state._ahead = _LookAhead(H, P, _STALE_FRACTION * float(np.trace(M)))
    return state
