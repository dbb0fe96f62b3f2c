import numpy as np
import pytest

from streamlabel import (GENERATOR_TAG, SingularMatrixError, cholesky_spd,
                         make_rng, pinv_normal, rand_uniform, solve_spd)
from streamlabel.numerics import inv_spd, mirror_lower


def test_solve_identity():
    B = np.arange(6.0).reshape(3, 2)
    X = solve_spd(np.eye(3), B)
    assert np.allclose(X, B, atol=1e-14)


def test_solve_diagonal():
    A = np.diag([2.0, 4.0])
    X = solve_spd(A, np.eye(2))
    assert np.allclose(X, np.diag([0.5, 0.25]), atol=1e-14)


def test_solve_multiply_back():
    # random SPD systems must reproduce B when multiplied back
    for seed in range(100):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(6, 6))
        A = G.T @ G + np.eye(6)
        B = rng.normal(size=(6, 3))
        X = solve_spd(A, B)
        assert np.max(np.abs(A @ X - B)) <= 1e-8


def test_solve_rejects_asymmetric():
    A = np.array([[2.0, 1.0], [0.5, 2.0]])
    with pytest.raises(ValueError, match="symmetric"):
        solve_spd(A, np.eye(2))


def test_solve_rejects_indefinite():
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SingularMatrixError) as excinfo:
        solve_spd(A, np.eye(2))
    assert excinfo.value.pivot == 1


def test_solve_rejects_singular_gram():
    # rank-1 Gram matrix: factorization must fail, not return garbage
    v = np.array([[1.0], [2.0], [3.0]])
    A = v @ v.T
    with pytest.raises(SingularMatrixError):
        solve_spd(A, np.eye(3))


def test_solve_shape_checks():
    with pytest.raises(ValueError):
        solve_spd(np.eye(3), np.ones((2, 2)))
    with pytest.raises(ValueError):
        solve_spd(np.ones((2, 3)), np.ones((2, 2)))


def test_pinv_identity():
    assert np.allclose(pinv_normal(np.eye(4)), np.eye(4), atol=1e-12)


def test_pinv_orthonormal_columns():
    # for orthonormal columns the pseudoinverse is just the transpose
    G = np.random.default_rng(3).normal(size=(3, 2))
    Q, _ = np.linalg.qr(G)
    assert np.allclose(pinv_normal(Q), Q.T, atol=1e-12)


def test_pinv_left_inverse():
    for seed in range(100):
        H = np.random.default_rng(seed).normal(size=(5, 3))
        P = pinv_normal(H)
        assert P.shape == (3, 5)
        assert np.max(np.abs(P @ H - np.eye(3))) <= 1e-8


def test_pinv_matches_spd_solve_path():
    # the ridge route must agree with the explicit normal-equation solve
    rng = np.random.default_rng(11)
    H = rng.normal(size=(8, 4))
    for ridge in (0.0, 1e-3):
        direct = solve_spd(H.T @ H + ridge * np.eye(4), H.T)
        assert np.max(np.abs(pinv_normal(H, ridge) - direct)) <= 1e-12


def test_pinv_rank_deficient_raises_and_ridge_recovers():
    H = np.ones((5, 3))
    with pytest.raises(SingularMatrixError):
        pinv_normal(H)
    P = pinv_normal(H, ridge=1e-6)
    assert np.all(np.isfinite(P))


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
    want = solve_spd(A, np.eye(n))
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
