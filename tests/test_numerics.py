import numpy as np
import pytest
from scipy.linalg import cho_solve

from streamlabel import (GENERATOR_TAG, SingularMatrixError, cholesky_spd,
                         make_rng)
from streamlabel.numerics import mirror_lower


def _solve(A, B):
    # the one solve the package makes: the checked factor and one dpotrs
    return cho_solve((cholesky_spd(A), True), B)


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


def test_solve_rejects_asymmetric():
    A = np.array([[2.0, 1.0], [0.5, 2.0]])
    with pytest.raises(ValueError, match="symmetric"):
        cholesky_spd(A)


def test_solve_rejects_indefinite():
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SingularMatrixError) as excinfo:
        cholesky_spd(A)
    assert excinfo.value.pivot == 1


def test_solve_rejects_singular_gram():
    # rank-1 Gram matrix: factorization must fail, not return garbage
    v = np.array([[1.0], [2.0], [3.0]])
    A = v @ v.T
    with pytest.raises(SingularMatrixError):
        cholesky_spd(A)


def test_solve_shape_checks():
    with pytest.raises(ValueError, match="square"):
        cholesky_spd(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        cholesky_spd(np.ones(3))


def test_generator_tag_is_stable():
    assert GENERATOR_TAG == "numpy-pcg64"
    r = make_rng(5)
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
    F = np.tril(cholesky_spd(A))
    assert np.array_equal(A, kept)
    assert np.max(np.abs(F @ F.T - A)) <= 1e-12 * np.max(np.abs(A))
    # a symmetric A's F-ordered view A.T is the same matrix: it is factored
    # in A's own memory
    in_place = cholesky_spd(A.T, overwrite=True)
    assert np.shares_memory(in_place, A)
    assert np.array_equal(np.tril(in_place), F)
    with pytest.raises(ValueError, match="symmetric"):
        cholesky_spd(np.array([[2.0, 1.0], [0.5, 2.0]]))
    not_pd = "gain: matrix is not positive definite"
    with pytest.raises(SingularMatrixError, match=not_pd) as excinfo:
        cholesky_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), "gain")
    assert excinfo.value.pivot == 1
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="gain: matrix has a NaN or inf"):
            cholesky_spd(np.diag([1.0, bad]), "gain")


def test_cholesky_spd_rejects_a_pivot_lapack_accepts():
    # dpotrf factors this matrix, but its last pivot is 2^-51, under the
    # 64 n eps scale floor: the factor is numerically singular
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -51]])
    singular = r"gain: matrix is numerically singular \(pivot 1\)"
    with pytest.raises(SingularMatrixError, match=singular) as excinfo:
        cholesky_spd(A, "gain")
    assert excinfo.value.pivot == 1
