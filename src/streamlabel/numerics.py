"""Dense matrix primitives: checked Cholesky factor, finite rows, seeded RNG.

Matrices throughout the package are 2-D float64 numpy arrays (row-major).
All solves and inverses go through one private checked Cholesky step, which
factors one triangle of an F-ordered matrix; indefinite or singular ones
raise an error.
"""

import numpy as np
from scipy.linalg import lapack

# Identifies the fixed RNG algorithm so seeds recorded in model files stay
# portable across builds and platforms.
_GENERATOR_TAG = "numpy-pcg64"

_EPS = np.finfo(np.float64).eps

# row-block size of the in-place triangle copy
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


def _make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed.

    The algorithm is pinned to PCG64 (see _GENERATOR_TAG): identical seeds
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


def _cholesky(A, who: str, singular: str) -> np.ndarray:
    """Checked lower Cholesky factor of F-ordered A, in A's memory.

    The factor reads A's lower triangle only; the checks read all of A. A
    NaN or inf entry raises ValueError; a non-positive pivot, or one under
    64 n eps times A's largest magnitude, raises SingularMatrixError with
    the message ``singular.format(pivot=p)``.
    """
    scale = max(float(A.max()), -float(A.min())) if A.size else 0.0
    if not np.isfinite(scale):
        raise ValueError(f"{who}: matrix has a NaN or infinite entry")
    factor, info = lapack.dpotrf(A, lower=1, overwrite_a=1)
    if info < 0:
        raise ValueError(f"{who}: illegal value in argument {-info}")
    # dpotrf can succeed on a numerically singular matrix when rounding
    # turns an exact zero pivot into a tiny positive one
    pivots = np.diagonal(factor) ** 2
    if info > 0:
        pivot = info - 1
    elif np.any(pivots <= 64.0 * len(A) * _EPS * scale):
        pivot = int(np.argmin(pivots))
    else:
        return factor
    raise SingularMatrixError(singular.format(pivot=pivot), pivot=pivot)
