import re
from pathlib import Path

import numpy as np

import streamlabel as sl

README = Path(__file__).resolve().parents[1] / "README.md"


def _custom_loops():
    """The README's code blocks that call update_chunk, in order."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return [compile(b, "README.md", "exec") for b in blocks
            if "update_chunk" in b]


def test_readme_custom_loops_match_batch():
    # the one-sample loop, then the five-chunk look_ahead loop, run on one
    # stream: the documented calls must still train what batch_train fits
    one_sample, five_chunks = _custom_loops()
    n0, n1, n, c, m = 60, 100, 200, 4, 4
    rng = np.random.default_rng(70)
    X = rng.uniform(0.0, 1.0, size=(n, 8))
    truth = rng.integers(0, 2, size=(n, m)) == 1
    Y = np.where(truth, 1.0, -1.0)
    params = sl.init_params(8, 20, seed=71)
    state = sl.init_phase(params, X[:n0], Y[:n0])
    env = dict(np=np, sl=sl, X=X, Y=Y, m=m, c=c, params=params,
               state=state, calib=sl.ThresholdCalib(), threshold=0.0)
    for i in range(n0, n1):
        env.update(i=i, labels=frozenset(np.flatnonzero(truth[i]).tolist()))
        exec(one_sample, env)
    for start in range(n1, n, 5 * c):
        env.update(start=start)
        exec(five_chunks, env)
    assert state.samples_seen == n
    want = sl.batch_train(params, X, Y)
    assert (np.linalg.norm(state.beta - want)
            <= 1e-6 * np.linalg.norm(want))


def test_readme_python_api_names_every_export():
    section = README.read_text().split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    missing = [name for name in sl.__all__
               if not re.search(rf"(?:`|\bsl\.){name}\b", section)]
    assert not missing, f"README's Python API section lacks {missing}"
