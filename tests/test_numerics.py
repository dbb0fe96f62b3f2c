import numpy as np
import pytest
from scipy.linalg import cho_solve

from streamlabel import SingularMatrixError
from streamlabel.numerics import (_GENERATOR_TAG, _cholesky, _make_rng,
                                  mirror_lower)

_SINGULAR = "gain: matrix is singular (pivot {pivot})"


def _factor(A):
    # the factor is written into its argument: hand it an F-ordered copy
    return _cholesky(np.array(A, dtype=np.float64, order="F"), "gain",
                     _SINGULAR)


def _solve(A, B):
    # the one solve the package makes: the checked factor and one dpotrs
    return cho_solve((_factor(A), True), B)


def test_solve_identity():
    B = np.arange(6.0).reshape(3, 2)
    X = _solve(np.eye(3), B)
    assert np.allclose(X, B, atol=1e-14)


def test_solve_diagonal():
    A = np.diag([2.0, 4.0])
    X = _solve(A, np.eye(2))
    assert np.allclose(X, np.diag([0.5, 0.25]), atol=1e-14)


def test_solve_multiply_back():
    # random SPD systems must reproduce B when multiplied back
    for seed in range(100):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(6, 6))
        A = G.T @ G + np.eye(6)
        B = rng.normal(size=(6, 3))
        X = _solve(A, B)
        assert np.max(np.abs(A @ X - B)) <= 1e-8


def test_solve_rejects_indefinite():
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SingularMatrixError) as excinfo:
        _factor(A)
    assert excinfo.value.pivot == 1


def test_solve_rejects_singular_gram():
    # rank-1 Gram matrix: factorization must fail, not return garbage
    v = np.array([[1.0], [2.0], [3.0]])
    A = v @ v.T
    with pytest.raises(SingularMatrixError):
        _factor(A)


def test_generator_tag_is_stable():
    assert _GENERATOR_TAG == "numpy-pcg64"
    r = _make_rng(5)
    assert r.bit_generator.state["bit_generator"] == "PCG64"


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_mirror_lower_copies_lower_triangle(n):
    A = np.random.default_rng(n).normal(size=(n, n))
    lower = np.tril(A)
    mirror_lower(A)
    assert np.array_equal(A, A.T)
    assert np.array_equal(np.tril(A), lower)


def test_cholesky_spd_factor_and_errors():
    B = np.random.default_rng(14).normal(size=(6, 6))
    A = B @ B.T + 6.0 * np.eye(6)
    kept = A.copy()
    # the F-ordered view A.T is factored in A's own memory
    F = _cholesky(A.T, "gain", _SINGULAR)
    assert np.shares_memory(F, A)
    F = np.tril(F)
    assert np.max(np.abs(F @ F.T - kept)) <= 1e-12 * np.max(np.abs(kept))
    singular = r"^gain: matrix is singular \(pivot 1\)$"
    with pytest.raises(SingularMatrixError, match=singular) as excinfo:
        _factor(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert excinfo.value.pivot == 1
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError,
                           match="^gain: matrix has a NaN or infinite entry$"):
            _factor(np.diag([1.0, bad]))


def test_cholesky_reads_only_the_lower_triangle_but_checks_all_of_a():
    B = np.random.default_rng(15).normal(size=(70, 70))
    A = np.asfortranarray(B @ B.T + 70.0 * np.eye(70))
    want = np.tril(_factor(A))
    for upper in (0.0, 1e3):
        half = np.tril(A) + np.triu(np.full_like(A, upper), 1)
        assert np.array_equal(np.tril(_factor(half)), want)
    half[3, 60] = np.nan
    with pytest.raises(ValueError,
                       match="^gain: matrix has a NaN or infinite entry$"):
        _factor(half)


def test_cholesky_spd_rejects_a_pivot_lapack_accepts():
    # dpotrf factors this matrix, but its last pivot is 2^-51, under the
    # 64 n eps scale floor: the factor is numerically singular
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -51]])
    singular = r"^gain: matrix is singular \(pivot 1\)$"
    with pytest.raises(SingularMatrixError, match=singular) as excinfo:
        _factor(A)
    assert excinfo.value.pivot == 1
