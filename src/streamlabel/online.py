"""Online sequential training of the output weights by recursive least squares.

An initial block of samples is solved in one shot, after which arriving
chunks of samples update the output weights and the inverse Gram matrix M;
a single sample is a chunk of one. For any chunking of the stream, the final
weights match a batch least-squares fit over all samples seen, up to
rounding.

The gain depends on the hidden rows and M only, not on the targets, so it
is solved once per block of chunks (a look-ahead):

- ``look_ahead(state, H)`` announces the hidden rows of the next chunks. It
  projects them through M, P = H M, factors the block's gain
  F F' = I + P H' and solves U = F^-1 P. F is lower triangular, so once the
  rows before it are applied, the chunk on rows r0:r1 has the gain factor
  F[r0:r1, r0:r1] and the downdate M -= U[r0:r1]'U[r0:r1].
- ``update_chunk`` on the next announced rows only steps beta, which costs
  O(c L m) and does not touch M; a caller that already holds the chunk's
  scores Hc beta passes them as ``scores=``.
- The next ``look_ahead`` folds the applied rows into M with one rank-k
  downdate, M -= U[:used]'U[:used].

Rows that were not announced get a one-chunk look-ahead of their own, which
costs what a per-chunk update costs. M is downdated in its own memory, so a
caller holding a reference to ``state.M`` sees it change and should
snapshot it with ``.copy()``. Reading ``state.M`` folds the applied rows and
keeps the rest of the block, so every M a caller sees is exact and exactly
symmetric.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .elm import ElmParams, _normal_equations, hidden_map
from .numerics import SingularMatrixError, cholesky_spd, mirror_lower


# The guard: the block's factor solves row i of U as its projection less the
# share the rows before it took. Once those rows have removed more than this
# share of trace(M) as it stood at projection, the two nearly cancel and lose
# digits that a fresh projection keeps, so a chunk that starts past that row
# folds the applied rows and announces the rest again. With one BLAS thread
# and no guard, the stiff streams of tests/test_online.py end 1.4x (100-row
# blocks) and 1.7x (255-row blocks) further from lstsq than the per-chunk
# update; with the guard, 1.1x. Shares from a tenth to a half do the same.
_STALE_FRACTION = 0.5


@dataclass(slots=True)
class _LookAhead:
    """Announced rows H, gain factor F F' = I + H M H' and U = F^-1 H M.

    Rows [:used] are applied to beta and not yet folded into M. A chunk may
    start at any row up to ``trusted`` (see _STALE_FRACTION).
    """

    H: np.ndarray
    F: np.ndarray
    U: np.ndarray
    trusted: int
    used: int = 0


class OselmState:
    """Mutable sequential-training state.

    beta is (n_hidden, n_labels), M is the (n_hidden, n_hidden) inverse of
    the accumulated hidden-feature Gram matrix. Updates write M in place
    (snapshot it with ``.copy()`` to keep an old value). The downdates of
    chunks applied since the last ``look_ahead`` are held back; reading
    ``state.M`` folds them in and keeps the announced rows still to come, so
    the array returned is always the same object, exact and exactly
    symmetric. Assigning ``state.M`` stores the array as given and drops the
    held-back downdates and the look-ahead. beta is replaced by a new array
    on each update. Single-writer: never update or read one state from two
    threads.
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
    """Fold the applied rows, M -= U[:used]'U[:used], and keep the rest.

    The rows still to come keep their factor and U rows, which do not depend
    on when M is folded.
    """
    ahead = state._ahead
    if ahead is None or not ahead.used:
        return
    u = ahead.used
    # U.T is an F-ordered view; dsyrk writes the upper triangle of the
    # F-ordered view M.T, which is M's lower one, in M's own memory, and the
    # mirror keeps M exactly symmetric for the product and the reader
    blas.dsyrk(-1.0, ahead.U[:u].T, beta=1.0, c=state._M.T, overwrite_c=1)
    mirror_lower(state._M)
    ahead.H, ahead.F, ahead.U = ahead.H[u:], ahead.F[u:, u:], ahead.U[u:]
    ahead.trusted, ahead.used = ahead.trusted - u, 0


def init_phase(params: ElmParams, X0, Y0_bip, ridge: float = 0.0) -> OselmState:
    """Solve the initial block: M = (H0'H0 + ridge*I)^-1, beta = M H0' Y0.

    H0'H0 and H0'Y0 are summed over blocks of rows, so H0 is never held
    whole, and factored by the same step as in batch_train. With ridge 0
    the block must make H0'H0 invertible, which in practice means at least
    n_hidden samples.
    """
    try:
        factor, HY = _normal_equations(params, X0, Y0_bip, ridge, "init_phase")
    except SingularMatrixError as err:
        raise SingularMatrixError(
            f"init_phase: initial Gram matrix is singular (pivot {err.pivot}); "
            f"use a larger initial block (>= {params.n_hidden} samples) "
            "or a positive ridge",
            pivot=err.pivot) from err
    # the inverse fills the lower triangle of the F-ordered factor, in its
    # memory; the mirror leaves it exactly symmetric
    inv, info = lapack.dpotri(factor, lower=1, overwrite_c=True)
    if info != 0:
        raise ValueError(f"init_phase: inversion failed (info={info})")
    mirror_lower(inv)
    M = inv.T
    # M is needed anyway, and one product is faster than a dpotrs solve
    beta = M @ HY
    return OselmState(beta=beta, M=M, samples_seen=len(X0),
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

    With the Cholesky factor F F' = I + Hc M Hc' and U = F^-1 Hc M:
        M' = M - U'U
        beta' = beta + U'F^-1 (Yc - Hc beta)
    the matrix-inversion-lemma form of recursive least squares. Hc, the
    hidden-layer rows of Xc, and scores, the chunk's raw outputs Hc beta
    under the current weights, are computed here unless the caller passes
    them. When Hc is the next announced rows, F and U come from the
    look-ahead and only the beta step runs here; otherwise this call
    announces Hc itself. U'U is held back from M (see the module docstring).
    A NaN or inf in the chunk, the scores, beta or M raises ValueError, and a
    singular gain SingularMatrixError. Every check runs before beta,
    samples_seen or the value of M is touched, so an update that raises
    leaves them as they were.
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
    # the private array: reading state.M would fold the applied rows
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
    elif ahead.used > ahead.trusted:
        # the staleness guard (see _STALE_FRACTION): fold, then announce the
        # rows still to come again
        ahead = look_ahead(state, ahead.H[ahead.used:])._ahead
    r0, r1 = ahead.used, ahead.used + c
    # w' F' = r' gives w = F^-1 r in the residual's memory
    residual = Yc - scores
    w = blas.dtrsm(1.0, ahead.F[r0:r1, r0:r1], residual.T, side=1, lower=1,
                   trans_a=1, overwrite_b=1).T

    # All checks passed: the chunk's downdate is held back until the next
    # look_ahead or read of state.M folds it in
    ahead.used = r1
    state.beta = state.beta + ahead.U[r0:r1].T @ w
    state.samples_seen += c
    return state


# rows at or under which _solve_lower makes one dtrsm call
_SOLVE_ROWS = 64


def _solve_lower(F, P) -> np.ndarray:
    """F^-1 P in P's memory, for lower triangular F and C-ordered P; returns P.

    Blocked: the top half of the rows is solved on its own, its share
    F[h:, :h] @ P[:h] is taken off the bottom half with one product, and the
    bottom half is solved with F[h:, h:], down to blocks of _SOLVE_ROWS rows.
    This is the blocked triangular solve, with the backward-error bound of
    one dtrsm, and it runs most of its flops in a matrix product, which BLAS
    runs faster than a triangular solve.
    """
    k = len(P)
    if k <= _SOLVE_ROWS:
        # P.T is an F-ordered view, so dtrsm solves X F' = P' in P's memory
        blas.dtrsm(1.0, F, P.T, side=1, lower=1, trans_a=1, overwrite_b=1)
        return P
    h = k // 2
    _solve_lower(F[:h, :h], P[:h])
    # P[h:]' -= P[:h]' F[h:, :h]', written into P[h:] through its F view
    blas.dgemm(-1.0, P[:h].T, F[h:, :h], beta=1.0, c=P[h:].T, trans_b=1,
               overwrite_c=1)
    _solve_lower(F[h:, h:], P[h:])
    return P


def look_ahead(state: OselmState, H) -> OselmState:
    """Announce the hidden rows of the next chunks; mutates and returns it.

    Folds the applied rows of the last block into M with one rank-k
    downdate, projects H through M with one product, P = H M, and solves the
    block's gain once: the Cholesky factor F F' = I + P H' and U = F^-1 P.
    The update_chunk calls whose hidden rows are the next unconsumed rows of
    H, in order, take their factor and downdate rows from F and U. H is
    copied. A singular gain raises SingularMatrixError and leaves beta, M
    and samples_seen as they were, with nothing announced. Announcing again,
    or assigning ``state.M``, drops the rows not yet consumed; rows that
    never arrive cost nothing more.
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
    state._ahead = None
    P = H @ M
    # K = I + P H' is symmetric only up to roundoff: average it with its
    # transpose in place, which gives the bits of 0.5 * (K + K.T)
    K = P @ H.T
    K += K.T
    K *= 0.5
    K[np.diag_indices_from(K)] += 1.0
    try:
        # K is exactly symmetric, so it is factored in its own memory
        F = cholesky_spd(K.T, "look_ahead", overwrite=True)
    except SingularMatrixError as err:
        raise SingularMatrixError(
            f"look_ahead: gain matrix is singular (pivot {err.pivot})",
            pivot=err.pivot) from err
    U = _solve_lower(F, P)
    removed = np.einsum("ij,ij->i", U, U).cumsum()
    trusted = int(removed.searchsorted(_STALE_FRACTION * M.trace(), "right"))
    state._ahead = _LookAhead(H, F, U, trusted)
    return state
