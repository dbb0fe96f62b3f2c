"""Dense matrix primitives: SPD solves and inverses, pseudoinverse, seeded draws.

Matrices throughout the package are 2-D float64 numpy arrays (row-major).
All solves and inverses go through one checked Cholesky factorization;
asymmetric or indefinite inputs are rejected rather than silently repaired.
"""

import numpy as np
from scipy.linalg import lapack

# Identifies the fixed RNG algorithm so seeds recorded in model files stay
# portable across builds and platforms.
GENERATOR_TAG = "numpy-pcg64"

_SYM_RTOL = 1e-9
_EPS = np.finfo(np.float64).eps

# row-block size of the in-place triangle copy and the symmetry check
_MIRROR_BLOCK = 64
_STRICT_UPPER = np.triu(np.ones((_MIRROR_BLOCK, _MIRROR_BLOCK), dtype=bool), 1)
_STRICT_UPPER.setflags(write=False)


class SingularMatrixError(ValueError):
    """A factorization found a non-positive (or numerically zero) pivot.

    ``pivot`` is the zero-based index of the offending pivot.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed.

    The algorithm is pinned to PCG64 (see GENERATOR_TAG): identical seeds
    produce identical draw sequences on every platform.
    """
    return np.random.Generator(np.random.PCG64(seed))


def rand_uniform(rng: np.random.Generator, rows: int, cols: int,
                 lo: float, hi: float) -> np.ndarray:
    """rows x cols matrix of i.i.d. uniform draws on [lo, hi)."""
    if not lo < hi:
        raise ValueError(f"empty range: lo={lo} must be < hi={hi}")
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid matrix shape ({rows}, {cols})")
    return rng.uniform(lo, hi, size=(rows, cols))


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    return a


def mirror_lower(A) -> None:
    """Copy the strict lower triangle of square A onto the upper one, in place.

    Leaves A exactly symmetric. Works in blocks of rows, so no temporary
    larger than a block is made.
    """
    n = A.shape[0]
    for i0 in range(0, n, _MIRROR_BLOCK):
        i1 = min(i0 + _MIRROR_BLOCK, n)
        diag = A[i0:i1, i0:i1]
        np.copyto(diag, diag.T, where=_STRICT_UPPER[:i1 - i0, :i1 - i0])
        A[i0:i1, i1:] = A[i1:, i0:i1].T


def _asymmetry(A) -> float:
    """max |A - A'|, taken in blocks of rows to avoid an n x n temporary."""
    n = A.shape[0]
    worst = 0.0
    for i0 in range(0, n, _MIRROR_BLOCK):
        i1 = min(i0 + _MIRROR_BLOCK, n)
        worst = max(worst, float(np.abs(A[i0:i1] - A[:, i0:i1].T).max()))
    return worst


def cholesky_spd(A, who: str = "cholesky_spd",
                 overwrite: bool = False) -> np.ndarray:
    """Checked lower Cholesky factor of symmetric positive definite A.

    A must be symmetric within 1e-9 relative; anything worse is an error,
    not auto-symmetrized. Raises SingularMatrixError naming the offending
    pivot when A is not numerically positive definite; ``who`` prefixes the
    messages. The factor is F-ordered and only its lower triangle is
    meaningful. With ``overwrite`` it may be written into A's own memory.
    """
    A = _as_matrix(A, "A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"A must be square, got shape {A.shape}")
    scale = max(float(A.max()), -float(A.min())) if A.size else 0.0
    if scale > 0.0 and _asymmetry(A) > _SYM_RTOL * scale:
        raise ValueError("A is not symmetric within 1e-9 relative tolerance")

    factor, info = lapack.dpotrf(A, lower=1, overwrite_a=overwrite)
    if info > 0:
        raise SingularMatrixError(
            f"{who}: matrix is not positive definite (pivot {info - 1})",
            pivot=info - 1)
    if info < 0:
        raise ValueError(f"{who}: illegal value in argument {-info}")
    # dpotrf can succeed on a numerically singular matrix when rounding turns
    # an exact zero pivot into a tiny positive one; reject those as well.
    pivots = np.diagonal(factor) ** 2
    tiny = 64.0 * n * _EPS * scale
    if np.any(pivots <= tiny):
        worst = int(np.argmin(pivots))
        raise SingularMatrixError(
            f"{who}: matrix is numerically singular (pivot {worst})",
            pivot=worst)
    return factor


def solve_spd(A, B) -> np.ndarray:
    """Solve A @ X = B for symmetric positive definite A via Cholesky.

    A must be symmetric within 1e-9 relative; anything worse is an error,
    not auto-symmetrized. Raises SingularMatrixError naming the offending
    pivot when A is not numerically positive definite.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if B.shape[0] != A.shape[0]:
        raise ValueError(
            f"dimension mismatch: A is {A.shape[0]}x{A.shape[0]} "
            f"but B has {B.shape[0]} rows")
    factor = cholesky_spd(A, "solve_spd")
    x, info = lapack.dpotrs(factor, B, lower=1)
    if info != 0:
        raise ValueError(f"solve_spd: triangular solve failed (info={info})")
    return x


def inv_spd(A) -> np.ndarray:
    """Inverse of symmetric positive definite A from one checked Cholesky factor.

    Same checks and errors as solve_spd. The result is C-ordered and exactly
    symmetric. A writeable C-ordered float64 A is overwritten: the inverse is
    computed in its memory (and A holds garbage if a check fails). Any other
    A is copied first and left alone.
    """
    A = _as_matrix(A, "A")
    if not (A.flags.c_contiguous and A.flags.writeable):
        A = np.array(A, order="C")
    # A is symmetric, so its F-ordered view A.T is the same matrix and LAPACK
    # can factor and invert it without a copy.
    factor = cholesky_spd(A.T, "inv_spd", overwrite=True)
    inv, info = lapack.dpotri(factor, lower=1, overwrite_c=True)
    if info != 0:
        raise ValueError(f"inv_spd: inversion failed (info={info})")
    # the inverse fills the lower triangle of the F-ordered result
    mirror_lower(inv)
    return inv.T


def pinv_normal(H, ridge: float = 0.0) -> np.ndarray:
    """Left pseudoinverse (H'H + ridge*I)^-1 H' of a full-column-rank H.

    With ridge 0 the input must have full column rank; rank deficiency
    raises SingularMatrixError instead of silently regularizing.
    """
    H = _as_matrix(H, "H")
    if ridge < 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    gram = H.T @ H
    if ridge > 0.0:
        gram = gram + ridge * np.eye(H.shape[1])
    try:
        return solve_spd(gram, H.T)
    except SingularMatrixError as err:
        raise SingularMatrixError(
            f"pinv_normal: H'H is singular (pivot {err.pivot}); "
            "H is rank deficient, pass ridge > 0 or add rows",
            pivot=err.pivot) from err
