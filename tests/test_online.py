import tracemalloc

import numpy as np
import pytest
from scipy.linalg import blas, cholesky

from streamlabel import (ElmParams, OselmState, SingularMatrixError,
                         batch_train, hidden_map, init_params, init_phase,
                         look_ahead, online, update_chunk)


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


@pytest.mark.parametrize("L", [40, 300, 1000])
def test_init_phase_beta_is_batch_train_bit_for_bit(L, monkeypatch):
    # one solve of the normal equations gives both betas, and init_phase
    # mirrors only its inverse, M. Wide rows, as in the stream-wide shape,
    # keep H'H well conditioned
    d = 8 + L // 3
    p = init_params(d, L, seed=L)
    X, Y = _stream(L, n=3 * L // 2, d=d)
    real, mirrored = online.mirror_lower, []
    monkeypatch.setattr(online, "mirror_lower",
                        lambda A: mirrored.append(A) or real(A))
    st = init_phase(p, X, Y)
    assert np.array_equal(st.beta, batch_train(p, X, Y))
    assert len(mirrored) == 1 and np.shares_memory(mirrored[0], st.M)


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


@pytest.mark.parametrize("solve", [init_phase, batch_train],
                         ids=["init_phase", "batch_train"])
def test_solve_names_itself_on_a_nan_row(solve):
    p = init_params(8, 10, seed=4)
    X, Y = _stream(5, n=50)
    X[7, 2] = np.nan
    match = f"^{solve.__name__}: X row 7 is not finite$"
    with pytest.raises(ValueError, match=match):
        solve(p, X, Y)


@pytest.mark.parametrize("solve", [init_phase, batch_train],
                         ids=["init_phase", "batch_train"])
@pytest.mark.parametrize("name,row", [("X", 5), ("X", 300), ("Y", 4),
                                      ("Y", 260)])
def test_solve_rejects_an_inf_row_and_a_nan_target(solve, name, row):
    # an inf feature only saturated a hidden unit and trained a finite beta;
    # a NaN target trained a NaN beta. Rows 300 and 260 lie in the second
    # block of 256
    p = init_params(8, 10, seed=4)
    X, Y = _stream(5, n=400)
    if name == "X":
        X[row, 2] = np.inf
    else:
        Y[row, 1] = np.nan
    match = f"^{solve.__name__}: {name} row {row} is not finite$"
    with pytest.raises(ValueError, match=match):
        solve(p, X, Y)


@pytest.mark.parametrize("ridge", [np.nan, np.inf, -np.inf])
def test_non_finite_ridge_is_rejected(ridge):
    # NaN fails every comparison: unchecked, it trains as if ridge were 0
    p = init_params(8, 10, seed=4)
    X, Y = _stream(5, n=50)
    for fit in (init_phase, batch_train):
        with pytest.raises(ValueError,
                           match="ridge must be a finite number >= 0"):
            fit(p, X, Y, ridge=ridge)


def test_update_sample_by_hand():
    # constant-0.5 hidden feature: with M=[[1]] and beta=[[0]],
    #   denom = 1 + 0.25 = 1.25, M' = 1 - 0.25/1.25 = 0.8
    #   beta' = 0.8 * 0.5 * (1 - 0) = 0.4
    p = ElmParams(W=np.zeros((1, 1)), b=np.zeros(1))
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
    # unannounced rows are announced by look_ahead, whose message names them X
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
    match = ("^look_ahead: X" if name == "Xc" else "^update_chunk: Yc")
    with pytest.raises(ValueError, match=f"{match} row {row} is not finite"):
        update_chunk(st, p, Xc, Yc)
    assert st.M is M
    assert np.array_equal(st.M, M_copy)
    assert np.array_equal(st.beta, beta)
    assert st.samples_seen == 50


def test_update_chunk_precomputed_scores():
    p = init_params(8, 10, seed=36)
    X, Y = _stream(37, n=70)
    a = init_phase(p, X[:50], Y[:50])
    b = init_phase(p, X[:50], Y[:50])
    update_chunk(a, p, X[50:70], Y[50:70])
    update_chunk(b, p, X[50:70], Y[50:70],
                 scores=hidden_map(p, X[50:70]) @ b.beta)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.M, b.M)
    assert a.samples_seen == b.samples_seen == 70


@pytest.mark.parametrize("bad", ["short", "wide", "nan", "inf"])
def test_bad_scores_leave_state_untouched(bad):
    p = init_params(8, 10, seed=38)
    X, Y = _stream(39, n=60)
    st = init_phase(p, X[:50], Y[:50])
    scores = hidden_map(p, X[50:55]) @ st.beta
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
        update_chunk(st, p, X[50:55], Y[50:55], scores=scores)
    assert st.M is M
    assert np.array_equal(st.M, M_copy)
    assert np.array_equal(st.beta, beta)
    assert st.samples_seen == 50


def test_m_is_mirrored_once_per_fold(monkeypatch):
    import streamlabel.online as online
    p = init_params(8, 70, seed=40)
    X, Y = _stream(41, n=240)
    st = init_phase(p, X[:160], Y[:160])
    M = st.M
    real = online.mirror_lower
    calls = []

    def counting(A):
        calls.append(A)
        real(A)

    monkeypatch.setattr(online, "mirror_lower", counting)
    # one block of four chunks, too small for the staleness guard: their
    # downdates are held back, so nothing is folded or mirrored
    look_ahead(st, p, X[160:200])
    for start in range(160, 200, 10):
        update_chunk(st, p, X[start:start + 10], Y[start:start + 10])
    assert calls == []
    first = st.M  # the read folds the pending downdate and mirrors once
    assert len(calls) == 1 and calls[0] is first
    assert st.M is first and len(calls) == 1  # nothing pending: no mirror
    assert first is M
    assert np.array_equal(first, first.T)
    # unannounced chunks: each look-ahead of its own folds the one before
    for start in range(200, 240, 10):
        update_chunk(st, p, X[start:start + 10], Y[start:start + 10])
    assert len(calls) == 4 and all(A is M for A in calls)
    assert np.array_equal(st.M, M.T) and len(calls) == 5


@pytest.mark.parametrize("which", ["M", "beta"])
def test_update_chunk_rejects_a_state_of_another_width(which):
    p = init_params(8, 10, seed=44)
    X, Y = _stream(45, n=60)
    st = init_phase(p, X[:50], Y[:50])
    if which == "M":
        # M enters only through the constructor, which holds it to beta
        with pytest.raises(ValueError, match=r"^OselmState: M is "
                           r"\(11, 11\), not \(10, 10\)$"):
            OselmState(beta=st.beta, M=np.eye(11), samples_seen=50,
                       ridge_used=0.0)
        st = OselmState(beta=np.zeros((11, 5)), M=np.eye(11),
                        samples_seen=50, ridge_used=0.0)
    else:
        st.beta = np.zeros((11, 5))
    with pytest.raises(ValueError, match=r"^state shapes M \(\d+, \d+\), "
                       r"beta \(\d+, 5\) do not match n_hidden=10$"):
        update_chunk(st, p, X[50:55], Y[50:55])
    assert st.samples_seen == 50


@pytest.mark.parametrize("bad,match", [
    ("asymmetric", "^OselmState: M is not exactly symmetric$"),
    ("non-square", r"^OselmState: M is \(150, 149\), not \(150, 150\)$"),
    ("wrong-L", r"^OselmState: M is \(149, 149\), not \(150, 150\)$"),
    ("nan", "^OselmState: M has a NaN or infinite entry$"),
    ("inf", "^OselmState: M has a NaN or infinite entry$"),
], ids=["asymmetric", "non-square", "wrong-L", "nan", "inf"])
def test_state_rejects_an_m_it_cannot_use_as_given(bad, match):
    # the defects sit in the last 64-row block of M, past the first ones
    # the check reads; an asymmetric M would otherwise train, the first fold
    # keeping only its lower triangle, and a non-square one fail at the
    # first update
    p = init_params(8, 150, seed=46)
    X, Y = _stream(47, n=300)
    st = init_phase(p, X, Y)
    M = st.M.copy()
    if bad == "asymmetric":
        M[70, 149] = np.nextafter(M[70, 149], np.inf)
    elif bad == "non-square":
        M = M[:, :149]
    elif bad == "wrong-L":
        M = M[:149, :149]
    else:
        M[149, 149] = np.nan if bad == "nan" else np.inf
    with pytest.raises(ValueError, match=match):
        OselmState(beta=st.beta, M=M, samples_seen=300, ridge_used=0.0)


def test_state_takes_m_once():
    p = init_params(8, 10, seed=48)
    X, Y = _stream(49, n=50)
    st = init_phase(p, X, Y)
    M = st.M.copy()
    given = OselmState(beta=st.beta, M=M, samples_seen=50, ridge_used=0.0)
    assert given.M is M  # already C-ordered, writable float64: not copied
    with pytest.raises(AttributeError):
        given.M = np.eye(10)
    assert given.M is M


@pytest.mark.parametrize("where,match", [
    ("M", "^look_ahead: matrix has a NaN or infinite entry$"),
    ("beta", "update_chunk: scores row 0 is not finite"),
    ("beta-inf", "update_chunk: scores row 0 is not finite"),
], ids=["M", "beta", "beta-inf"])
def test_non_finite_state_raises_and_leaves_state_untouched(where, match):
    # the scores are computed by update_chunk itself, not passed in
    p = init_params(8, 10, seed=42)
    X, Y = _stream(43, n=60)
    st = init_phase(p, X[:50], Y[:50])
    if where == "M":
        M = st.M.copy()
        M[3, 3] = np.nan
        with pytest.raises(ValueError, match="^OselmState: M has a NaN or "
                                             "infinite entry$"):
            OselmState(beta=st.beta, M=M, samples_seen=50, ridge_used=0.0)
        # written into the state's own M, the NaN reaches the gain
        st.M[3, 3] = np.nan
    elif where == "beta":
        st.beta[4, 1] = np.nan
    else:
        # inf - inf in the score product: the named error, not a warning
        st.beta[0, 0] = np.inf
        st.beta[1, 0] = -np.inf
    M = st.M
    beta, M_copy = st.beta.copy(), st.M.copy()
    with pytest.raises(ValueError, match=match):
        update_chunk(st, p, X[50:55], Y[50:55])
    assert st.M is M
    assert np.array_equal(st.M, M_copy, equal_nan=True)
    assert np.array_equal(st.beta, beta, equal_nan=True)
    assert st.samples_seen == 50


def _announced(seed, L=40, c=5, n=120, n0=60):
    """Twin states on one stream and the chunk starts."""
    p = init_params(8, L, seed=seed)
    X, Y = _stream(seed + 1, n=n)
    a = init_phase(p, X[:n0], Y[:n0])
    b = init_phase(p, X[:n0], Y[:n0])
    return p, X, Y, a, b, range(n0, n, c)


def test_unannounced_rows_give_the_per_chunk_result():
    p, X, Y, a, b, starts = _announced(50)
    # b was told to expect other rows: each chunk falls back to a
    # look-ahead of its own, which is exactly the unannounced update
    look_ahead(b, p, X[::-1][:20])
    for s in starts:
        update_chunk(a, p, X[s:s + 5], Y[s:s + 5])
        update_chunk(b, p, X[s:s + 5], Y[s:s + 5])
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.M, b.M)

    # a block whose third chunk differs from the announced rows: the two
    # chunks before it are pending, and its own look-ahead folds them in
    p, X, Y, a, b, starts = _announced(52)
    look_ahead(b, p, X[60:80])
    for s in starts:
        Xc = X[s:s + 5].copy()
        if s == 70:
            Xc[1, 3] += 1e-3
        update_chunk(a, p, Xc, Y[s:s + 5])
        update_chunk(b, p, Xc, Y[s:s + 5])
    rel = np.linalg.norm(a.beta - b.beta) / np.linalg.norm(a.beta)
    assert rel <= 1e-10
    assert np.max(np.abs(a.M - b.M)) <= 1e-10 * np.max(np.abs(a.M))


def test_m_read_mid_block_is_exact_and_the_stream_continues():
    p, X, Y, a, b, starts = _announced(54)
    look_ahead(b, p, X[60:120])
    for s in starts:
        update_chunk(a, p, X[s:s + 5], Y[s:s + 5])
        update_chunk(b, p, X[s:s + 5], Y[s:s + 5])
        if s == 80:
            # the pending downdate of chunks 60..85 is folded into the read
            scale = np.max(np.abs(a.M))
            assert np.max(np.abs(b.M - a.M)) <= 1e-12 * scale
            assert np.array_equal(b.M, b.M.T)
    assert np.max(np.abs(b.M - a.M)) <= 1e-12 * np.max(np.abs(a.M))
    rel = np.linalg.norm(b.beta - a.beta) / np.linalg.norm(a.beta)
    assert rel <= 1e-10
    assert b.samples_seen == a.samples_seen == 120


def _announces(monkeypatch, state):
    """Row counts of the announces made for state: look_ahead's own, and
    those update_chunk makes when it re-projects."""
    import streamlabel.online as online
    real, calls = online._announce, []

    def counting(st, X, H):
        if st is state:
            calls.append(len(H))
        return real(st, X, H)

    monkeypatch.setattr(online, "_announce", counting)
    return calls


def test_m_read_mid_block_keeps_the_announced_rows(monkeypatch):
    # the rows still to come do not depend on when M is folded, so reads
    # fold the applied rows and keep the rest of the block
    p, X, Y, a, b, starts = _announced(64, L=20, n=80)
    announces = _announces(monkeypatch, b)
    for st in (a, b):
        look_ahead(st, p, X[60:80])
    for s in starts:
        for st in (a, b):
            update_chunk(st, p, X[s:s + 5], Y[s:s + 5])
        if s == 60:
            repr(b)  # reads b.M
        elif s == 65:
            assert np.array_equal(b.M, b.M.T)
    assert announces == [20]  # the look_ahead call alone
    assert np.array_equal(a.beta, b.beta)
    assert np.max(np.abs(a.M - b.M)) <= 1e-12 * np.max(np.abs(a.M))
    assert np.array_equal(b.M, b.M.T)


def test_uneven_chunks_in_one_block_match_the_per_chunk_loop(monkeypatch):
    # the gain is solved row by row, so where a block is cut into chunks
    # does not matter
    p, X, Y, a, b, _ = _announced(66, L=20, n=80)
    announces = _announces(monkeypatch, b)
    look_ahead(b, p, X[60:80])
    s = 60
    for c in (3, 7, 1, 9):
        for st in (a, b):
            update_chunk(st, p, X[s:s + c], Y[s:s + c])
        s += c
    assert announces == [20]  # the look_ahead call alone
    assert np.max(np.abs(a.beta - b.beta)) <= 1e-10 * np.max(np.abs(a.beta))
    assert np.max(np.abs(a.M - b.M)) <= 1e-10 * np.max(np.abs(a.M))
    assert b.samples_seen == a.samples_seen == 80


def test_failed_update_mid_block_leaves_state_untouched():
    p, X, Y, a, b, starts = _announced(58)
    for st in (a, b):
        look_ahead(st, p, X[60:80])
        update_chunk(st, p, X[60:65], Y[60:65])
    Xc = X[65:70].copy()
    Xc[2, 1] = np.nan
    with pytest.raises(ValueError, match="^look_ahead: X row 2 is not finite"):
        update_chunk(b, p, Xc, Y[65:70])
    # the targets and passed scores of rows not announced are checked before
    # the rows are announced, so their errors drop nothing either
    with pytest.raises(ValueError, match="^chunk target shape"):
        update_chunk(b, p, X[65:70] + 1.0, Y[65:69])
    with pytest.raises(ValueError, match="^update_chunk: scores row 0"):
        update_chunk(b, p, X[65:70] + 1.0, Y[65:70],
                     scores=np.full((5, 5), np.nan))
    # the rest of the block still comes from the look-ahead, in step with a
    for s in (65, 70):
        for st in (a, b):
            update_chunk(st, p, X[s:s + 5], Y[s:s + 5])
    assert np.array_equal(a.beta, b.beta)
    assert b.samples_seen == a.samples_seen == 75
    assert np.array_equal(a.M, b.M)


def test_singular_gain_mid_block_leaves_state_untouched():
    # a hand-built negative definite M: the gain I + H M H' stays positive
    # for small hidden rows and turns indefinite for large ones. With W = I
    # and b = 0 each hidden unit is the sigmoid of one feature: features in
    # [-10, -8) give rows under 4e-4, and features in [8, 10) rows near 1
    rng = np.random.default_rng(60)
    L = 10
    p = ElmParams(W=np.eye(L), b=np.zeros(L))
    X = rng.uniform(8.0, 10.0, size=(15, L)) * np.array([[-1.0]] * 5
                                                         + [[1.0]] * 10)
    Y = np.where(rng.integers(0, 2, size=(15, 2)) == 1, 1.0, -1.0)
    a, b = (OselmState(beta=np.zeros((L, 2)), M=-0.2 * np.eye(L),
                       samples_seen=1, ridge_used=0.0) for _ in range(2))
    for st in (a, b):
        look_ahead(st, p, X[:5])
        update_chunk(st, p, X[:5], Y[:5])

    def untouched():
        assert np.array_equal(a.beta, b.beta)
        assert b.samples_seen == a.samples_seen == 6
        assert np.array_equal(a.M, b.M)

    # announced rows: the block's gain is factored, and fails, at announce
    with pytest.raises(SingularMatrixError,
                       match=r"look_ahead: gain matrix is singular \(pivot"):
        look_ahead(b, p, X[5:])
    untouched()
    # rows not announced: the failing chunk's own update raises
    with pytest.raises(SingularMatrixError, match="gain matrix is singular"):
        update_chunk(b, p, X[5:10], Y[5:10])
    untouched()


def test_look_ahead_checks_the_row_width():
    p = init_params(8, 10, seed=62)
    X, Y = _stream(63, n=60)
    st = init_phase(p, X[:50], Y[:50])
    with pytest.raises(ValueError, match="X has 9 columns, hidden layer "
                                         "expects 8"):
        look_ahead(st, p, np.ones((4, 9)))
    st = OselmState(beta=np.zeros((11, 5)), M=np.eye(11), samples_seen=50,
                    ridge_used=0.0)
    with pytest.raises(ValueError, match=r"^state shapes M \(11, 11\)"):
        look_ahead(st, p, X[50:54])
    assert st._ahead is None


def test_look_ahead_returns_the_read_only_hidden_rows():
    p = init_params(8, 10, seed=74)
    X, Y = _stream(75, n=70)
    st = init_phase(p, X[:50], Y[:50])
    H = look_ahead(st, p, X[50:70])
    assert not H.flags.writeable
    assert np.array_equal(H, hidden_map(p, X[50:70]))


def test_changing_x_after_the_announce_keeps_the_announced_rows(monkeypatch):
    # look_ahead copies X: a chunk matches the rows as they were announced
    p, X, Y, a, b, _ = _announced(76, L=20, n=80)
    announces = _announces(monkeypatch, b)
    block = X[60:80].copy()
    look_ahead(b, p, block)
    block[5:10] += 1.0
    for s in range(60, 80, 5):
        for st in (a, b):
            update_chunk(st, p, X[s:s + 5], Y[s:s + 5])
    assert announces == [20]  # the look_ahead call alone
    assert np.max(np.abs(a.beta - b.beta)) <= 1e-10 * np.max(np.abs(a.beta))
    assert np.max(np.abs(a.M - b.M)) <= 1e-10 * np.max(np.abs(a.M))


def test_non_finite_announced_rows_raise_from_look_ahead():
    p, X, Y, a, b, _ = _announced(78, L=20, n=80)
    M = b.M
    beta, M_copy = b.beta.copy(), b.M.copy()
    Xb = X[60:80].copy()
    Xb[3, 2] = np.nan
    with pytest.raises(ValueError,
                       match=r"^look_ahead: X row 3 is not finite"):
        look_ahead(b, p, Xb)
    assert b._ahead is None  # nothing announced
    assert b.M is M
    assert np.array_equal(b.M, M_copy)
    assert np.array_equal(b.beta, beta)
    assert b.samples_seen == 60


def _stiff_errors(seed, block):
    """beta's error against lstsq, announced in blocks and chunk by chunk.

    An initial block of exactly L rows, ridge 0 and uniform features make
    M large and ill-conditioned, so the first chunks remove most of its
    trace and a later row's share of the block gain nearly cancels its
    projection.
    """
    L, d, m, c, n = 300, 100, 5, 5, 1500
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, d))
    Y = np.where(rng.integers(0, 2, size=(n, m)) == 1, 1.0, -1.0)
    p = init_params(d, L, seed=seed)
    H = hidden_map(p, X)
    ref = np.linalg.lstsq(H, Y, rcond=None)[0]
    errors = []
    for announce in (True, False):
        st = init_phase(p, X[:L], Y[:L])
        for s in range(L, n, c):
            if announce and (s - L) % block == 0:
                look_ahead(st, p, X[s:s + block])
            update_chunk(st, p, X[s:s + c], Y[s:s + c])
        errors.append(np.linalg.norm(st.beta - ref) / np.linalg.norm(ref))
    return errors


def test_look_ahead_error_stays_at_the_per_chunk_level():
    # summed over four streams: on one stream the per-chunk error alone
    # moves by 1.6x between one and two BLAS threads; without the staleness
    # guard the announced sum is 1.15x to 2.0x the per-chunk one. Blocks of
    # 100 rows (L // 3) are train_stream's at this shape; 255 rows is a
    # longer announce, as a custom loop may make.
    for block in (100, 255):
        announced, per_chunk = np.sum(
            [_stiff_errors(seed, block) for seed in range(4)], axis=0)
        assert per_chunk < 4e-8
        assert announced <= 1.25 * per_chunk, block


def test_init_phase_memory_does_not_grow_with_rows():
    # the initial block is mapped one block of rows at a time: 4x the rows
    # adds no (N0, n_hidden) hidden matrix
    p = init_params(20, 200, seed=70)
    peaks = []
    for n in (1024, 4096):
        X, Y = _stream(71, n=n, d=20, m=3)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            init_phase(p, X, Y, ridge=1e-6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_init_phase_blocks_match_one_block():
    # 700 rows are three blocks; the reference maps them in one
    p = init_params(10, 40, seed=72)
    X, Y = _stream(73, n=700, d=10, m=5)
    st = init_phase(p, X, Y, ridge=1e-8)
    H = hidden_map(p, X)
    M = np.linalg.inv(H.T @ H + 1e-8 * np.eye(40))
    beta = M @ (H.T @ Y)

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    assert rel(st.M, M) <= 1e-10
    assert rel(st.beta, beta) <= 1e-10
    assert st.samples_seen == 700


def _one_dtrsm(F, P):
    return blas.dtrsm(1.0, F, P.T, side=1, lower=1, trans_a=1).T


def test_blocked_gain_solve_equals_one_triangular_solve():
    # train_stream's widest announce at L = 1000 is 240 rows
    rng = np.random.default_rng(64)
    L, k = 1000, 240
    A = rng.normal(size=(L, L))
    H = rng.uniform(size=(k, L))
    P = H @ (A @ A.T / L)
    K = np.eye(k) + P @ H.T
    F = cholesky(0.5 * (K + K.T), lower=True)
    want = _one_dtrsm(F, P)
    U = online._solve_lower(F, P)
    assert np.shares_memory(U, P)
    assert np.max(np.abs(U - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("block", [100, 255])
def test_look_ahead_gain_equals_one_triangular_solve_on_a_stiff_stream(block):
    # the stiff stream of _stiff_errors, announced a block at a time; both
    # solves leave a residual of a few ulps. The first announce after the
    # initial block has the worst-conditioned F: there, at 255 rows, the two
    # solutions differ by up to about 1e-13 of max |U|, as cond(F) lets two
    # backward-stable solves differ, so the bitwise-near check is made at
    # train_stream's 100-row block.
    L, d, m = 300, 100, 5
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(L + 2 * block, d))
    Y = np.where(rng.integers(0, 2, size=(len(X), m)) == 1, 1.0, -1.0)
    p = init_params(d, L, seed=0)
    H = hidden_map(p, X)
    st = init_phase(p, X[:L], Y[:L])
    eps = np.finfo(np.float64).eps
    for s in (L, L + block):
        P = H[s:s + block] @ st.M
        look_ahead(st, p, X[s:s + block])
        F, U = np.tril(st._ahead.F), st._ahead.U
        residual = np.max(np.abs(F @ U - P))
        assert residual <= 8 * eps * np.abs(F).sum(axis=1).max() * \
            np.max(np.abs(U)), s
        if block == 100:
            want = _one_dtrsm(st._ahead.F, P)
            assert np.max(np.abs(U - want)) <= 1e-13 * np.max(np.abs(want)), s
        update_chunk(st, p, X[s:s + block], Y[s:s + block])
