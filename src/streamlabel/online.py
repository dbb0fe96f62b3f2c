"""Online sequential training of the output weights by recursive least squares.

An initial block of samples is solved in one shot, after which arriving
chunks of samples update the output weights and the inverse Gram matrix M;
a single sample is a chunk of one. For any chunking of the stream, the final
weights match a batch least-squares fit over all samples seen, up to
rounding.

The gain depends on the hidden rows and M only, not on the targets, so it
is solved once per block of chunks (a look-ahead):

- ``look_ahead(state, params, X)`` announces the feature rows of the next
  chunks. It maps them to hidden rows H, projects those through M, P = H M,
  factors the block's gain F F' = I + P H' and solves U = F^-1 P. F is
  lower triangular, so once the rows before it are applied, the chunk on
  rows r0:r1 has the gain factor F[r0:r1, r0:r1] and the downdate
  M -= U[r0:r1]'U[r0:r1]. It returns H, read-only, for scoring the chunks.
- ``update_chunk`` on the next announced feature rows only steps beta, which
  costs O(c L m) and does not touch M; a caller that already holds the
  chunk's scores H[r0:r1] beta passes them as ``scores=``. Other rows are
  announced by update_chunk with look_ahead, as a block of one chunk.
- The next ``look_ahead`` folds the applied rows into M with one rank-k
  downdate, M -= U[folded:used]'U[folded:used].

M enters the state once, when it is built, and is downdated in its own
memory, so a caller holding ``state.M`` should snapshot it with ``.copy()``.
Reading ``state.M`` folds the applied rows and keeps the rest of the block,
so every M a caller sees is exact and exactly symmetric.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .elm import ElmParams, _as_rows, _normal_equations, hidden_map
from .numerics import _check_finite, _cholesky, mirror_lower


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
    """Announced rows X, their hidden rows H, F F' = I + H M H', U = F^-1 H M.

    Rows [folded:used] are applied to beta and not yet folded into M. A chunk
    may start at any row up to ``trusted`` (see _STALE_FRACTION).
    """

    X: np.ndarray
    H: np.ndarray
    F: np.ndarray
    U: np.ndarray
    trusted: int
    used: int = 0
    folded: int = 0


class OselmState:
    """Mutable sequential-training state.

    beta is (n_hidden, n_labels), M is the (n_hidden, n_hidden) inverse of
    the accumulated hidden-feature Gram matrix. M enters once, here, as a
    finite, exactly symmetric (L, L) array, L being beta's row count; it is
    copied unless C-ordered, writable and float64, then written in place
    (see the module docstring). ``state.M`` cannot be assigned. beta is
    replaced by a new array on each update. Single-writer: never update or
    read one state from two threads.
    """

    def __init__(self, beta: np.ndarray, M: np.ndarray, samples_seen: int,
                 ridge_used: float):
        M = np.asarray(M, dtype=np.float64)
        L = beta.shape[0]
        if M.shape != (L, L):
            raise ValueError(f"OselmState: M is {M.shape}, not ({L}, {L})")
        if not np.isfinite(M).all():
            raise ValueError("OselmState: M has a NaN or infinite entry")
        # an asymmetric M is rejected, not left for the first fold to repair
        if not np.array_equal(M, M.T):
            raise ValueError("OselmState: M is not exactly symmetric")
        # BLAS writes into M.T; f2py would write through a read-only flag,
        # and it copies any other layout
        self._M = M if M.flags.c_contiguous and M.flags.writeable else M.copy()
        self._ahead = None
        self.beta = beta
        self.samples_seen = samples_seen
        self.ridge_used = ridge_used

    @property
    def M(self) -> np.ndarray:
        _fold(self)
        return self._M

    def __repr__(self) -> str:
        return (f"OselmState(beta={self.beta!r}, M={self.M!r}, "
                f"samples_seen={self.samples_seen!r}, "
                f"ridge_used={self.ridge_used!r})")


def _fold(state: OselmState) -> None:
    """Fold the applied rows, M -= U[folded:used]'U[folded:used].

    The rows still to come keep their factor and U rows, which do not depend
    on when M is folded.
    """
    ahead = state._ahead
    if ahead is None or ahead.folded == ahead.used:
        return
    # U.T is an F-ordered view; dsyrk writes the upper triangle of the
    # F-ordered view M.T, which is M's lower one, in M's own memory, and the
    # mirror keeps M exactly symmetric for the product and the reader
    blas.dsyrk(-1.0, ahead.U[ahead.folded:ahead.used].T, beta=1.0,
               c=state._M.T, overwrite_c=1)
    mirror_lower(state._M)
    ahead.folded = ahead.used


def init_phase(params: ElmParams, X0, Y0_bip, ridge: float = 0.0) -> OselmState:
    """Solve the initial block: batch_train's beta, M = (H0'H0 + ridge*I)^-1.

    beta is batch_train's bit for bit, from the one solve, whose factor M
    inverts; it sums H0'H0 and H0'Y0 over blocks of rows, so H0 is never
    held whole. With ridge 0 the block must make H0'H0 invertible, which in
    practice means at least n_hidden samples.
    """
    factor, beta = _normal_equations(
        params, X0, Y0_bip, ridge, "init_phase",
        "init_phase: initial Gram matrix is singular (pivot {pivot}); "
        f"use a larger initial block (>= {params.n_hidden} samples) "
        "or a positive ridge")
    # the inverse fills the lower triangle of the F-ordered factor, in its
    # memory; the mirror leaves it exactly symmetric
    inv, info = lapack.dpotri(factor, lower=1, overwrite_c=True)
    if info != 0:
        raise ValueError(f"init_phase: inversion failed (info={info})")
    mirror_lower(inv)
    M = inv.T
    return OselmState(beta=beta, M=M, samples_seen=len(X0),
                      ridge_used=float(ridge))


def _check_state(state: OselmState, L: int) -> None:
    # the private array: reading state.M would fold the applied rows
    if state._M.shape != (L, L) or state.beta.shape[0] != L:
        raise ValueError(f"state shapes M {state._M.shape}, beta "
                         f"{state.beta.shape} do not match n_hidden={L}")


def update_chunk(state: OselmState, params: ElmParams, Xc, Yc_bip, *,
                 scores=None) -> OselmState:
    """Block update for a chunk of feature rows; mutates and returns the state.

    With Hc the hidden rows of Xc, F F' = I + Hc M Hc' and U = F^-1 Hc M:
        M' = M - U'U
        beta' = beta + U'F^-1 (Yc - Hc beta)
    the matrix-inversion-lemma form of recursive least squares. scores, the
    raw outputs Hc beta under the current weights, are computed unless
    passed. When Xc equals the next announced rows, Hc, F and U come from
    the look-ahead and only the beta step runs; otherwise look_ahead
    announces Xc, so its errors name look_ahead (``look_ahead: X row r is
    not finite``). U'U is held back from M (see the module docstring). Any
    ValueError or SingularMatrixError leaves beta, samples_seen and M's
    value as they were; shapes, Yc and given scores are checked first.
    """
    Xc = _as_rows(params, Xc)
    Yc = np.asarray(Yc_bip, dtype=np.float64)
    _check_state(state, params.n_hidden)
    c, m = len(Xc), state.beta.shape[1]
    if Yc.shape != (c, m):
        raise ValueError(
            f"chunk target shape {Yc.shape} does not match ({c}, {m})")
    _check_finite("update_chunk", "Yc", Yc)
    if scores is not None:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (c, m):
            raise ValueError(f"chunk scores of shape {scores.shape} do not "
                             f"match ({c}, {m})")
        _check_finite("update_chunk", "scores", scores)
    ahead = state._ahead
    if ahead is None or not np.array_equal(
            Xc, ahead.X[ahead.used:ahead.used + c]):
        # NaN never compares equal: announced rows are checked finite
        look_ahead(state, params, Xc)
        ahead = state._ahead
    elif ahead.used > ahead.trusted:
        # the staleness guard (see _STALE_FRACTION): fold, then announce the
        # rows still to come again, with the hidden rows already mapped
        ahead = _announce(state, ahead.X[ahead.used:], ahead.H[ahead.used:])
    r0, r1 = ahead.used, ahead.used + c
    if scores is None:
        # a non-finite beta is reported by the scores check
        with np.errstate(invalid="ignore", over="ignore"):
            scores = ahead.H[r0:r1] @ state.beta
        _check_finite("update_chunk", "scores", scores)
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


def look_ahead(state: OselmState, params: ElmParams, X) -> np.ndarray:
    """Announce the feature rows of the next chunks; returns their hidden rows.

    X is copied, checked finite and mapped once; its hidden rows H come back
    read-only for scoring the chunks. The update_chunk calls whose rows are
    the next unconsumed rows of X, in order, take their hidden rows, gain
    factor and downdate from the look-ahead. A non-finite X raises
    ValueError before the state is touched (see _announce for the gain).
    """
    _check_state(state, params.n_hidden)
    X = np.array(_as_rows(params, X), order="C")
    _check_finite("look_ahead", "X", X)
    # positional: the per-layer benchmark wrappers read the rows as args[1]
    return _announce(state, X, hidden_map(params, X)).H


def _announce(state: OselmState, X, H) -> _LookAhead:
    """Announce feature rows X with their hidden rows H; returns the block.

    Folds the applied rows of the last block into M, projects P = H M with
    one product and solves the gain once: F F' = I + P H' and U = F^-1 P.
    A singular gain raises SingularMatrixError and leaves beta, M and
    samples_seen as they were, with nothing announced. Announcing again
    drops the rows not yet consumed.
    """
    M = state._M
    _fold(state)
    state._ahead = None
    P = H @ M
    # K = I + H P' is factored as formed, from the lower triangle of its
    # F-ordered view K.T, in K's memory: P[i] H[j]' for j <= i, each row's
    # own projection, as U = F^-1 P solves it. With P[j] H[i]' the stiff
    # streams of tests/test_online.py end 2.7x further from lstsq announced
    # than chunk by chunk (two BLAS threads); with this triangle, 0.4x
    K = H @ P.T
    K[np.diag_indices_from(K)] += 1.0
    F = _cholesky(K.T, "look_ahead",
                  "look_ahead: gain matrix is singular (pivot {pivot})")
    U = _solve_lower(F, P)
    removed = np.einsum("ij,ij->i", U, U).cumsum()
    trusted = int(removed.searchsorted(_STALE_FRACTION * M.trace(), "right"))
    H.setflags(write=False)
    state._ahead = _LookAhead(X, H, F, U, trusted)
    return state._ahead
