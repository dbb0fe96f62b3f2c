"""Dense matrix primitives: checked Cholesky factor, finite rows, seeded RNG.

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


def _check_finite(who: str, name: str, A, first: int = 0) -> None:
    """ValueError naming A's first row with a NaN or inf, counted from first."""
    finite = np.isfinite(A)
    if not finite.all():
        row = first + int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"{who}: {name} row {row} is not finite")


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

    A must be finite and symmetric within 1e-9 relative; anything worse is
    an error, not auto-symmetrized. Raises SingularMatrixError naming the
    offending pivot when A is not numerically positive definite; ``who``
    prefixes the messages. The factor is F-ordered and only its lower
    triangle is meaningful. With ``overwrite`` it may be written into A's
    own memory.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be a square matrix, got shape {A.shape}")
    n = A.shape[0]
    scale = max(float(A.max()), -float(A.min())) if A.size else 0.0
    if not np.isfinite(scale):
        raise ValueError(f"{who}: matrix has a NaN or infinite entry")
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
