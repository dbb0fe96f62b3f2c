import numpy as np
import pytest

from streamlabel import (Activation, ElmParams, OselmState,
                         SingularMatrixError, batch_train, hidden_map,
                         init_params, init_phase, update_chunk)


def _stream(seed, n=200, d=8, m=5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, d))
    Y = np.where(rng.integers(0, 2, size=(n, m)) == 1, 1.0, -1.0)
    return X, Y


def test_init_phase_zero_targets():
    p = init_params(8, 10, seed=0)
    X, _ = _stream(1, n=50)
    st = init_phase(p, X, np.zeros((50, 3)))
    assert np.allclose(st.beta, 0.0, atol=1e-12)
    H = hidden_map(p, X)
    assert np.max(np.abs(st.M - np.linalg.inv(H.T @ H))) <= 1e-8
    assert st.samples_seen == 50


def test_init_phase_matches_batch():
    p = init_params(8, 10, seed=2)
    X, Y = _stream(3, n=50)
    st = init_phase(p, X, Y)
    beta = batch_train(p, X, Y)
    assert np.max(np.abs(st.beta - beta)) <= 1e-10


def test_init_phase_rank_deficient_guard():
    p = init_params(8, 10, seed=4)
    X, Y = _stream(5, n=5)
    with pytest.raises(SingularMatrixError, match="initial block"):
        init_phase(p, X, Y)


def test_init_phase_ridge_recovers():
    p = init_params(8, 10, seed=4)
    X, Y = _stream(5, n=5)
    st = init_phase(p, X, Y, ridge=1e-3)
    assert np.all(np.isfinite(st.beta))
    assert st.ridge_used == 1e-3


def test_init_phase_rejects_negative_ridge():
    p = init_params(8, 10, seed=4)
    X, Y = _stream(5, n=50)
    with pytest.raises(ValueError):
        init_phase(p, X, Y, ridge=-1.0)


def test_update_sample_by_hand():
    # constant-0.5 hidden feature: with M=[[1]] and beta=[[0]],
    #   denom = 1 + 0.25 = 1.25, M' = 1 - 0.25/1.25 = 0.8
    #   beta' = 0.8 * 0.5 * (1 - 0) = 0.4
    p = ElmParams(W=np.zeros((1, 1)), b=np.zeros(1),
                  activation=Activation.SIGMOID, n_features=1, n_hidden=1)
    st = OselmState(beta=np.zeros((1, 1)), M=np.ones((1, 1)),
                    samples_seen=1, ridge_used=0.0)
    update_chunk(st, p, np.array([[0.0]]), np.array([[1.0]]))
    assert abs(st.M[0, 0] - 0.8) <= 1e-15
    assert abs(st.beta[0, 0] - 0.4) <= 1e-15
    assert st.samples_seen == 2


def test_update_sample_zero_innovation():
    p = init_params(4, 6, seed=6)
    X, Y = _stream(7, n=40, d=4, m=3)
    st = init_phase(p, X[:30], Y[:30])
    x = X[30:31]
    # target chosen so the residual is exactly zero
    y = hidden_map(p, x) @ st.beta
    before = st.beta.copy()
    update_chunk(st, p, x, y)
    assert np.array_equal(st.beta, before)
    assert st.samples_seen == 31


def test_sequential_matches_batch():
    p = init_params(8, 10, seed=8)
    X, Y = _stream(9)
    st = init_phase(p, X[:50], Y[:50])
    for i in range(50, 200):
        update_chunk(st, p, X[i:i + 1], Y[i:i + 1])
    beta = batch_train(p, X, Y)
    rel = np.linalg.norm(st.beta - beta) / np.linalg.norm(beta)
    assert rel <= 1e-6
    assert st.samples_seen == 200


def test_partition_invariance():
    p = init_params(8, 10, seed=12)
    X, Y = _stream(13)
    per_sample = init_phase(p, X[:50], Y[:50])
    for i in range(50, 200):
        update_chunk(per_sample, p, X[i:i + 1], Y[i:i + 1])
    chunked = init_phase(p, X[:50], Y[:50])
    i = 50
    for c in (1, 7, 32):
        update_chunk(chunked, p, X[i:i + c], Y[i:i + c])
        i += c
    update_chunk(chunked, p, X[i:], Y[i:])  # remainder
    rel = (np.linalg.norm(chunked.beta - per_sample.beta)
           / np.linalg.norm(per_sample.beta))
    assert rel <= 1e-6
    assert chunked.samples_seen == 200


def test_chunk_zero_innovation():
    p = init_params(8, 10, seed=14)
    X, Y = _stream(15, n=80)
    st = init_phase(p, X, Y)
    Xc, _ = _stream(16, n=7)
    Yc = hidden_map(p, Xc) @ st.beta
    before = st.beta.copy()
    update_chunk(st, p, Xc, Yc)
    assert np.max(np.abs(st.beta - before)) <= 1e-10


def test_m_stays_symmetric():
    p = init_params(8, 10, seed=17)
    X, Y = _stream(18)
    st = init_phase(p, X[:50], Y[:50])
    assert np.array_equal(st.M, st.M.T)
    i = 50
    for c in (1, 3, 9, 27, 81):
        c = min(c, 200 - i)
        update_chunk(st, p, X[i:i + c], Y[i:i + c])
        assert np.array_equal(st.M, st.M.T)
        i += c


def test_samples_seen_accounting():
    p = init_params(8, 10, seed=19)
    X, Y = _stream(20)
    st = init_phase(p, X[:60], Y[:60])
    update_chunk(st, p, X[60:75], Y[60:75])
    update_chunk(st, p, X[75:76], Y[75:76])
    update_chunk(st, p, X[76:100], Y[76:100])
    assert st.samples_seen == 100


def test_update_dimension_checks():
    p = init_params(8, 10, seed=21)
    X, Y = _stream(22, n=60)
    st = init_phase(p, X[:50], Y[:50])
    with pytest.raises(ValueError):
        update_chunk(st, p, np.ones((1, 3)), Y[50:51])
    with pytest.raises(ValueError):
        update_chunk(st, p, X[50:51], np.ones((1, 2)))
    with pytest.raises(ValueError):
        update_chunk(st, p, X[50:55], Y[50:54])


def test_init_phase_target_shape_check():
    p = init_params(8, 10, seed=23)
    X, Y = _stream(24, n=50)
    with pytest.raises(ValueError):
        init_phase(p, X, Y[:40])


def _rank_one_oracle(beta, M, h, y):
    """Textbook rank-one RLS step, independent of the package's update path:
        M' = M - (M h h' M) / (1 + h' M h)
        beta' = beta + M' h (y' - h' beta)
    """
    Mh = M @ h
    M_new = M - np.outer(Mh, Mh) / (1.0 + h @ Mh)
    return beta + np.outer(M_new @ h, y - h @ beta), M_new


def test_rank_one_oracle_by_hand():
    # the same constant-0.5 feature case as test_update_sample_by_hand
    beta, M = _rank_one_oracle(np.zeros((1, 1)), np.ones((1, 1)),
                               np.array([0.5]), np.array([1.0]))
    assert abs(M[0, 0] - 0.8) <= 1e-15
    assert abs(beta[0, 0] - 0.4) <= 1e-15


def test_rank_one_oracle_and_sample_path_match_batch():
    p = init_params(8, 10, seed=8)
    X, Y = _stream(9)
    st = init_phase(p, X[:50], Y[:50])
    beta, M = st.beta.copy(), st.M.copy()
    H = hidden_map(p, X)
    for i in range(50, 200):
        beta, M = _rank_one_oracle(beta, M, H[i], Y[i])
        update_chunk(st, p, X[i:i + 1], Y[i:i + 1])
    want = batch_train(p, X, Y)
    for got in (beta, st.beta):
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-6


def test_update_chunk_writes_m_in_place():
    p = init_params(8, 10, seed=25)
    X, Y = _stream(26, n=70)
    st = init_phase(p, X[:50], Y[:50])
    M = st.M
    before = M.copy()
    update_chunk(st, p, X[50:70], Y[50:70])
    # the caller's reference sees the new values: snapshot with .copy()
    assert np.array_equal(M, st.M)
    assert not np.array_equal(M, before)


@pytest.mark.parametrize("layout", ["read-only", "fortran"])
def test_update_chunk_hand_built_m_layouts(layout):
    p = init_params(8, 10, seed=27)
    X, Y = _stream(28, n=90)
    want = init_phase(p, X[:50], Y[:50])
    M = want.M.copy()
    if layout == "read-only":
        M.setflags(write=False)
    else:
        M = np.asfortranarray(M)
    snapshot = M.copy()
    st = OselmState(beta=want.beta.copy(), M=M, samples_seen=50,
                    ridge_used=0.0)
    for start in range(50, 90, 20):
        update_chunk(want, p, X[start:start + 20], Y[start:start + 20])
        update_chunk(st, p, X[start:start + 20], Y[start:start + 20])
    assert np.array_equal(M, snapshot)  # the caller's array is not written
    assert np.max(np.abs(st.M - want.M)) <= 1e-12
    assert np.max(np.abs(st.beta - want.beta)) <= 1e-12
    assert np.array_equal(st.M, st.M.T)


def test_wide_chunks_stay_symmetric_and_match_batch():
    p = init_params(20, 300, seed=30)
    X, Y = _stream(31, n=650, d=20)
    st = init_phase(p, X[:350], Y[:350])
    assert np.array_equal(st.M, st.M.T)
    for start in range(350, 650, 50):
        update_chunk(st, p, X[start:start + 50], Y[start:start + 50])
        assert np.array_equal(st.M, st.M.T)
    beta = batch_train(p, X, Y)
    assert np.linalg.norm(st.beta - beta) / np.linalg.norm(beta) <= 1e-6


def test_init_phase_ridge_matches_batch():
    p = init_params(8, 10, seed=2)
    X, Y = _stream(3, n=50)
    st = init_phase(p, X, Y, ridge=1e-3)
    beta = batch_train(p, X, Y, ridge=1e-3)
    assert np.max(np.abs(st.beta - beta)) <= 1e-10


@pytest.mark.parametrize("name,row", [("Xc", 3), ("Yc", 0), ("Yc", 4)])
def test_non_finite_chunk_leaves_state_untouched(name, row):
    p = init_params(8, 10, seed=32)
    X, Y = _stream(33, n=60)
    st = init_phase(p, X[:50], Y[:50])
    Xc, Yc = X[50:55].copy(), Y[50:55].copy()
    if name == "Xc":
        Xc[row, 2] = np.nan
    else:
        Yc[row, 1] = np.inf
    M = st.M
    beta, M_copy = st.beta.copy(), st.M.copy()
    with pytest.raises(ValueError, match=f"{name} row {row} is not finite"):
        update_chunk(st, p, Xc, Yc)
    assert st.M is M
    assert np.array_equal(st.M, M_copy)
    assert np.array_equal(st.beta, beta)
    assert st.samples_seen == 50


def test_update_chunk_precomputed_hidden_rows():
    p = init_params(8, 10, seed=34)
    X, Y = _stream(35, n=70)
    a = init_phase(p, X[:50], Y[:50])
    b = init_phase(p, X[:50], Y[:50])
    update_chunk(a, p, X[50:70], Y[50:70])
    update_chunk(b, p, X[50:70], Y[50:70], Hc=hidden_map(p, X[50:70]))
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.M, b.M)
    with pytest.raises(ValueError, match="hidden rows"):
        update_chunk(b, p, X[50:70], Y[50:70], Hc=hidden_map(p, X[50:69]))
    assert b.samples_seen == 70


def test_update_chunk_precomputed_scores():
    p = init_params(8, 10, seed=36)
    X, Y = _stream(37, n=70)
    a = init_phase(p, X[:50], Y[:50])
    b = init_phase(p, X[:50], Y[:50])
    Hc = hidden_map(p, X[50:70])
    update_chunk(a, p, X[50:70], Y[50:70], Hc=Hc)
    update_chunk(b, p, X[50:70], Y[50:70], Hc=Hc, scores=Hc @ b.beta)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.M, b.M)
    assert a.samples_seen == b.samples_seen == 70


@pytest.mark.parametrize("bad", ["short", "wide", "nan", "inf"])
def test_bad_scores_leave_state_untouched(bad):
    p = init_params(8, 10, seed=38)
    X, Y = _stream(39, n=60)
    st = init_phase(p, X[:50], Y[:50])
    Hc = hidden_map(p, X[50:55])
    scores = Hc @ st.beta
    if bad == "short":
        scores, match = scores[:4], "chunk scores of shape"
    elif bad == "wide":
        scores, match = scores[:, :4], "chunk scores of shape"
    else:
        scores[2, 1] = np.nan if bad == "nan" else -np.inf
        match = "scores row 2 is not finite"
    M = st.M
    beta, M_copy = st.beta.copy(), st.M.copy()
    with pytest.raises(ValueError, match=match):
        update_chunk(st, p, X[50:55], Y[50:55], Hc=Hc, scores=scores)
    assert st.M is M
    assert np.array_equal(st.M, M_copy)
    assert np.array_equal(st.beta, beta)
    assert st.samples_seen == 50


def test_m_is_mirrored_once_when_read(monkeypatch):
    import streamlabel.online as online
    p = init_params(8, 70, seed=40)
    X, Y = _stream(41, n=200)
    st = init_phase(p, X[:100], Y[:100])
    M = st.M
    real = online.mirror_lower
    calls = []

    def counting(A):
        calls.append(A)
        real(A)

    monkeypatch.setattr(online, "mirror_lower", counting)
    for start in range(100, 200, 25):
        update_chunk(st, p, X[start:start + 25], Y[start:start + 25])
    assert calls == []  # the updates keep one triangle and copy nothing
    first = st.M
    assert len(calls) == 1 and calls[0] is first
    assert st.M is first and len(calls) == 1
    assert first is M
    assert np.array_equal(first, first.T)
    snapshot = first.copy()
    update_chunk(st, p, X[:25], Y[:25])
    st.M = snapshot  # assigning drops the pending copy: M is stored as given
    assert st.M is snapshot and len(calls) == 1


@pytest.mark.parametrize("where,match", [
    ("M", "update_chunk: matrix has a NaN or infinite entry"),
    ("beta", "update_chunk: scores row 0 is not finite"),
], ids=["M", "beta"])
def test_non_finite_state_raises_and_leaves_state_untouched(where, match):
    # the scores are computed by update_chunk itself, not passed in
    p = init_params(8, 10, seed=42)
    X, Y = _stream(43, n=60)
    st = init_phase(p, X[:50], Y[:50])
    if where == "M":
        M = st.M.copy()
        M[3, 3] = np.nan
        st.M = M
    else:
        st.beta[4, 1] = np.nan
    M = st.M
    beta, M_copy = st.beta.copy(), st.M.copy()
    with pytest.raises(ValueError, match=match):
        update_chunk(st, p, X[50:55], Y[50:55])
    assert st.M is M
    assert np.array_equal(st.M, M_copy, equal_nan=True)
    assert np.array_equal(st.beta, beta, equal_nan=True)
    assert st.samples_seen == 50
