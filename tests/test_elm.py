import math
import tracemalloc
import warnings

import numpy as np
import pytest

from streamlabel import (Activation, ElmParams, SingularMatrixError,
                         batch_train, hidden_map, init_params, predict_raw)


def test_init_params_deterministic():
    a = init_params(3, 5, seed=42)
    b = init_params(3, 5, seed=42)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.b, b.b)


def test_init_params_shapes():
    p = init_params(3, 5, seed=42)
    assert p.W.shape == (5, 3)
    assert p.b.shape == (5,)
    assert p.n_features == 3
    assert p.n_hidden == 5
    assert p.activation is Activation.SIGMOID


def test_init_params_seed_changes_weights():
    a = init_params(3, 5, seed=42)
    b = init_params(3, 5, seed=43)
    assert not np.array_equal(a.W, b.W)


def test_init_params_weight_range():
    p = init_params(4, 50, seed=1, weight_range=(0.5, 0.75))
    for arr in (p.W, p.b):
        assert arr.min() >= 0.5
        assert arr.max() < 0.75


def test_init_params_validation():
    with pytest.raises(ValueError):
        init_params(0, 5, seed=1)
    with pytest.raises(ValueError):
        init_params(3, 0, seed=1)
    with pytest.raises(ValueError):
        init_params(3, 5, seed=1, weight_range=(1.0, -1.0))


def test_params_immutable():
    p = init_params(3, 5, seed=42)
    with pytest.raises(ValueError):
        p.W[0, 0] = 9.0
    with pytest.raises(ValueError):
        p.b[0] = 9.0


def test_hidden_map_zero_weights():
    p = ElmParams(W=np.zeros((4, 2)), b=np.zeros(4),
                  activation=Activation.SIGMOID, n_features=2, n_hidden=4)
    H = hidden_map(p, np.random.default_rng(0).normal(size=(6, 2)))
    assert np.array_equal(H, np.full((6, 4), 0.5))


def test_hidden_map_known_value():
    # sigmoid(ln 3) = 3/4
    p = ElmParams(W=np.array([[math.log(3.0)]]), b=np.zeros(1),
                  activation=Activation.SIGMOID, n_features=1, n_hidden=1)
    H = hidden_map(p, np.array([[1.0]]))
    assert H.shape == (1, 1)
    assert abs(H[0, 0] - 0.75) <= 1e-15


def test_hidden_map_matches_scalar_loop():
    p = init_params(4, 7, seed=5)
    X = np.random.default_rng(6).normal(size=(10, 4))
    H = hidden_map(p, X)
    for j in range(10):
        for i in range(7):
            t = float(p.W[i] @ X[j] + p.b[i])
            want = 1.0 / (1.0 + math.exp(-t))
            assert abs(H[j, i] - want) <= 1e-12


def test_hidden_map_range_and_shape():
    p = init_params(3, 8, seed=2)
    H = hidden_map(p, np.random.default_rng(3).normal(size=(20, 3)) * 10)
    assert H.shape == (20, 8)
    assert np.all(H > 0.0)
    assert np.all(H < 1.0)


def test_hidden_map_is_bit_identical_to_expression():
    p = init_params(50, 40, seed=8)
    X = np.random.default_rng(9).normal(size=(30, 50))
    want = 1.0 / (1.0 + np.exp(-(X @ p.W.T + p.b)))
    assert np.array_equal(hidden_map(p, X), want)


def test_hidden_map_sigmoid_limits():
    t = np.array([[-800.0], [-40.0], [40.0], [800.0], [np.nan]])
    p = ElmParams(W=np.ones((1, 1)), b=np.zeros(1),
                  activation=Activation.SIGMOID, n_features=1, n_hidden=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = hidden_map(p, t)[:, 0]
    # exp(800) overflows to inf and exp(-800) underflows to 0
    assert H[0] == 0.0 and H[3] == 1.0
    assert H[1] == 1.0 / (1.0 + np.exp(40.0))
    assert H[2] == 1.0 / (1.0 + np.exp(-40.0))
    assert math.isnan(H[4])


def test_hidden_map_holds_one_result_sized_array():
    p = init_params(50, 400, seed=10)
    X = np.random.default_rng(11).normal(size=(2000, 50))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        H = hidden_map(p, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * H.nbytes


def test_hidden_map_dim_check():
    p = init_params(3, 8, seed=2)
    with pytest.raises(ValueError):
        hidden_map(p, np.ones((4, 5)))


def test_batch_train_zero_targets():
    p = init_params(4, 6, seed=1)
    X = np.random.default_rng(2).normal(size=(30, 4))
    beta = batch_train(p, X, np.zeros((30, 3)))
    assert beta.shape == (6, 3)
    assert np.allclose(beta, 0.0, atol=1e-12)


def test_batch_train_interpolates_square_system():
    # N equals the hidden width, H invertible: residual vanishes
    p = init_params(3, 8, seed=7)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(8, 3))
    Y = rng.choice([-1.0, 1.0], size=(8, 2))
    beta = batch_train(p, X, Y)
    H = hidden_map(p, X)
    assert np.max(np.abs(H @ beta - Y)) <= 1e-8


def test_batch_train_is_local_optimum():
    p = init_params(6, 6, seed=9)
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 6))
    Y = rng.choice([-1.0, 1.0], size=(40, 2))
    beta = batch_train(p, X, Y)
    H = hidden_map(p, X)
    base = np.linalg.norm(H @ beta - Y)
    for _ in range(100):
        delta = rng.normal(size=beta.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert np.linalg.norm(H @ (beta + delta) - Y) >= base


def test_batch_train_left_inverse():
    # targets in the column space of H are fit exactly: beta recovers B
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = init_params(4, 3, seed=seed)
        X = rng.uniform(size=(5, 4))
        B = rng.normal(size=(3, 2))
        beta = batch_train(p, X, hidden_map(p, X) @ B)
        assert np.max(np.abs(beta - B)) <= 1e-8 * np.max(np.abs(B))


def test_batch_train_matches_normal_equations():
    # independent reference: an LU solve of (H'H + ridge*I) beta = H'Y
    p = init_params(6, 10, seed=11)
    rng = np.random.default_rng(12)
    X = rng.uniform(size=(40, 6))
    Y = rng.choice([-1.0, 1.0], size=(40, 3))
    H = hidden_map(p, X)
    for ridge in (0.0, 1e-3):
        want = np.linalg.solve(H.T @ H + ridge * np.eye(10), H.T @ Y)
        got = batch_train(p, X, Y, ridge=ridge)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_batch_train_rank_deficient_raises_and_ridge_recovers():
    # a constant hidden layer gives H of rank one
    p = ElmParams(W=np.zeros((3, 2)), b=np.zeros(3),
                  activation=Activation.SIGMOID, n_features=2, n_hidden=3)
    X = np.random.default_rng(13).uniform(size=(5, 2))
    Y = np.ones((5, 2))
    with pytest.raises(SingularMatrixError,
                       match="rank deficient, pass ridge > 0 or add rows"):
        batch_train(p, X, Y)
    beta = batch_train(p, X, Y, ridge=1e-6)
    assert np.all(np.isfinite(beta))
    with pytest.raises(ValueError, match="ridge must be >= 0"):
        batch_train(p, X, Y, ridge=-1.0)


def test_predict_raw_zero_beta():
    p = init_params(3, 5, seed=1)
    X = np.random.default_rng(0).normal(size=(4, 3))
    out = predict_raw(p, np.zeros((5, 2)), X)
    assert np.array_equal(out, np.zeros((4, 2)))


def test_predict_raw_scalar_case():
    # H = [0.5] against beta = [2] gives exactly 1.0
    p = ElmParams(W=np.zeros((1, 1)), b=np.zeros(1),
                  activation=Activation.SIGMOID, n_features=1, n_hidden=1)
    out = predict_raw(p, np.array([[2.0]]), np.array([[3.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 1.0


def test_predict_raw_matches_two_step_oracle():
    p = init_params(5, 9, seed=3)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 5))
    beta = rng.normal(size=(9, 4))
    want = hidden_map(p, X) @ beta
    assert np.max(np.abs(predict_raw(p, beta, X) - want)) <= 1e-12


def test_predict_raw_beta_dim_check():
    p = init_params(3, 5, seed=1)
    with pytest.raises(ValueError):
        predict_raw(p, np.zeros((4, 2)), np.ones((2, 3)))
