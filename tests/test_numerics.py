import numpy as np
import pytest
from scipy.linalg import cho_solve

from streamlabel import (GENERATOR_TAG, SingularMatrixError, cholesky_spd,
                         make_rng, rand_uniform)
from streamlabel.numerics import inv_spd, mirror_lower


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


def test_rand_uniform_deterministic():
    a = rand_uniform(make_rng(9), 7, 4, -1.0, 1.0)
    b = rand_uniform(make_rng(9), 7, 4, -1.0, 1.0)
    assert a.shape == (7, 4)
    assert np.array_equal(a, b)
    c = rand_uniform(make_rng(10), 7, 4, -1.0, 1.0)
    assert not np.array_equal(a, c)


def test_rand_uniform_range_half_open():
    a = rand_uniform(make_rng(0), 50, 50, 2.0, 3.0)
    assert a.min() >= 2.0
    assert a.max() < 3.0


def test_rand_uniform_mean():
    # seed fixed so the statistical bound is a deterministic check
    a = rand_uniform(make_rng(1234), 100, 100, -1.0, 1.0)
    bound = 3.0 * (2.0 / np.sqrt(12.0)) / 100.0
    assert abs(a.mean()) <= bound


def test_rand_uniform_rejects_bad_bounds():
    with pytest.raises(ValueError):
        rand_uniform(make_rng(0), 2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        rand_uniform(make_rng(0), 2, 2, 2.0, -2.0)


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


@pytest.mark.parametrize("n", [1, 5, 70])
def test_inv_spd_matches_solve_in_place(n):
    rng = np.random.default_rng(n)
    G = rng.normal(size=(n, n))
    A = G.T @ G + np.eye(n)
    A = 0.5 * (A + A.T)
    want = np.linalg.solve(A, np.eye(n))
    got = inv_spd(A)
    assert np.shares_memory(got, A)
    assert got.flags.c_contiguous
    assert np.array_equal(got, got.T)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("layout", ["read-only", "fortran"])
def test_inv_spd_leaves_other_layouts_alone(layout):
    A = np.array([[2.0, 1.0], [1.0, 4.0]])
    if layout == "read-only":
        A.setflags(write=False)
    else:
        A = np.asfortranarray(A)
    kept = A.copy()
    got = inv_spd(A)
    assert np.array_equal(A, kept)
    assert np.max(np.abs(got @ kept - np.eye(2))) <= 1e-14


def test_inv_spd_shares_the_checks_of_solve_spd():
    with pytest.raises(ValueError, match="symmetric"):
        inv_spd(np.array([[2.0, 1.0], [0.5, 2.0]]))
    with pytest.raises(SingularMatrixError) as excinfo:
        inv_spd(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert excinfo.value.pivot == 1
    v = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(SingularMatrixError):
        inv_spd(v @ v.T)


def test_cholesky_spd_factor_and_errors():
    B = np.random.default_rng(14).normal(size=(6, 6))
    A = B @ B.T + 6.0 * np.eye(6)
    kept = A.copy()
    F = np.tril(cholesky_spd(A))
    assert np.array_equal(A, kept)
    assert np.max(np.abs(F @ F.T - A)) <= 1e-12 * np.max(np.abs(A))
    with pytest.raises(ValueError, match="symmetric"):
        cholesky_spd(np.array([[2.0, 1.0], [0.5, 2.0]]))
    not_pd = "gain: matrix is not positive definite"
    with pytest.raises(SingularMatrixError, match=not_pd) as excinfo:
        cholesky_spd(np.array([[1.0, 0.0], [0.0, -1.0]]), "gain")
    assert excinfo.value.pivot == 1
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="gain: matrix has a NaN or inf"):
            cholesky_spd(np.diag([1.0, bad]), "gain")
