"""The eight release criteria, one test each, one printed verdict line each.

Verdict lines are written through the capture-disabled channel so they show
up in a plain ``pytest -v`` run. Criteria 3, 4 and 5 need the real yeast and
scene files; when those are absent the suite substitutes hand-checked
fixtures or skips, and says so on the verdict line. Drop the files into
<repo>/data (or point $STREAMLABEL_DATA at them) to enable the full checks.
"""

import dataclasses
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from streamlabel import (RunConfig, ThresholdCalib, batch_train,
                         calibrate_chunk, dataset_stats, decode_rows,
                         emit_report, evaluate, init_params, init_phase,
                         label_matrix, load_dataset, load_model,
                         run_cv_bundle, run_stream_split, save_model, split,
                         train_stream, update_chunk)
from streamlabel.labels import _threshold_value

from conftest import (dataset_path, golden_run_report, random_labelsets,
                      separable_bundle, synthetic_bundle)


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line, flush=True)
    return _announce


def _verdict(announce, number, name, ok, detail):
    announce(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _skip(announce, number, name, detail):
    announce(f"ACCEPTANCE {number} ({name}): SKIP - {detail}")
    pytest.skip(detail)


def test_acceptance_1_batch_sequential_equivalence(announce):
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = rng.uniform(0.0, 1.0, size=(200, 8))
        Y = np.where(rng.integers(0, 2, size=(200, 5)) == 1, 1.0, -1.0)
        params = init_params(8, 20, seed=seed)
        beta_batch = batch_train(params, X, Y)
        scale = np.linalg.norm(beta_batch)

        per_sample = init_phase(params, X[:50], Y[:50])
        for i in range(50, 200):
            update_chunk(per_sample, params, X[i:i + 1], Y[i:i + 1])
        worst = max(worst,
                    np.linalg.norm(per_sample.beta - beta_batch) / scale)

        chunked = init_phase(params, X[:50], Y[:50])
        i = 50
        for c in (1, 7, 32):
            update_chunk(chunked, params, X[i:i + c], Y[i:i + c])
            i += c
        update_chunk(chunked, params, X[i:], Y[i:])
        worst = max(worst, np.linalg.norm(chunked.beta - beta_batch) / scale)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 5.0
    _verdict(announce, 1, "batch-sequential equivalence", ok,
             f"worst relative error {worst:.3e} (limit 1e-6), "
             f"{elapsed:.2f}s (limit 5s), 20 seeds")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_acceptance_2_metric_oracle_equivalence(announce):
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    preds = random_labelsets(rng, 1000, 10)
    truths = random_labelsets(rng, 1000, 10)
    report = evaluate(preds, truths, 10)

    n = len(preds)
    hl = acc = prec = rec = f1 = 0.0
    for p, t in zip(preds, truths):
        wrong = inter = union = 0
        for i in range(10):
            in_p, in_t = i in p, i in t
            wrong += in_p != in_t
            inter += in_p and in_t
            union += in_p or in_t
        hl += wrong / 10
        if union == 0:
            acc += 1.0
            prec += 1.0
            rec += 1.0
            f1 += 1.0
        else:
            acc += inter / union
            prec += (inter / len(p)) if p else 0.0
            rec += (inter / len(t)) if t else 0.0
            f1 += 2 * inter / (len(p) + len(t))
    oracle = (hl / n, acc / n, prec / n, rec / n, f1 / n)
    got = (report.hamming_loss, report.accuracy, report.precision,
           report.recall, report.f1)
    elapsed = time.perf_counter() - started
    ok = got == oracle and elapsed < 1.0
    _verdict(announce, 2, "metric oracle equivalence", ok,
             f"1000 pairs bit-for-bit equal: {got == oracle}, "
             f"{elapsed:.2f}s (limit 1s)")
    assert got == oracle
    assert elapsed < 1.0


def test_acceptance_3_dataset_statistics(announce):
    yeast = dataset_path("yeast")
    scene = dataset_path("scene")
    if yeast and scene:
        ys = dataset_stats(load_dataset(yeast, "arff", 14).labelsets, 14)
        ss = dataset_stats(load_dataset(scene, "arff", 6).labelsets, 6)
        ok = (abs(ys.label_cardinality - 4.24) <= 0.005
              and abs(ys.label_density - 0.303) <= 0.001
              and abs(ss.label_cardinality - 1.07) <= 0.005
              and abs(ss.label_density - 0.178) <= 0.001)
        _verdict(announce, 3, "dataset statistics", ok,
                 f"yeast LC={ys.label_cardinality:.4f} LD={ys.label_density:.4f}, "
                 f"scene LC={ss.label_cardinality:.4f} LD={ss.label_density:.4f}")
        assert ok
        return
    # dataset files absent: substituting the exhaustive hand-fixture checks
    stats = dataset_stats([{0}, {0, 1}, {1, 2}], 3)
    ok = (stats.label_cardinality == pytest.approx(5.0 / 3.0)
          and stats.label_density == pytest.approx(5.0 / 9.0))
    all_subsets = [frozenset(s) for r in range(4)
                   for s in itertools.combinations(range(3), r)]
    exhaustive = dataset_stats(all_subsets, 3)
    total = sum(len(s) for s in all_subsets)
    ok = ok and exhaustive.label_cardinality == total / len(all_subsets)
    ok = ok and exhaustive.label_density == total / len(all_subsets) / 3
    ok = ok and dataset_stats([{0}, {1}, {2}], 3).label_cardinality == 1.0
    _verdict(announce, 3, "dataset statistics", ok,
             "yeast/scene files absent; substituted exhaustive hand-fixture "
             "checks (all 8 subsets of 3 labels plus hand cases)")
    assert ok


def _benchmark_config(name, path):
    from streamlabel import load_dataset_defaults
    defaults = load_dataset_defaults(name)
    return RunConfig(data_path=path, label_spec=defaults["label_spec"],
                     n_train=defaults["n_train"],
                     n_hidden=defaults["n_hidden"],
                     n_init=defaults["n_init"],
                     chunk_size=defaults["chunk_size"],
                     ridge=defaults["ridge"],
                     threshold_mode=defaults["threshold_mode"],
                     min_one=defaults["min_one"],
                     normalize=defaults["normalize"], dataset_name=name)


def test_acceptance_4_benchmark_performance(announce):
    scene = dataset_path("scene")
    yeast = dataset_path("yeast")
    if not (scene and yeast):
        _skip(announce, 4, "benchmark performance",
              "yeast/scene files absent; drop them into data/ to enable "
              "(floors: scene HL<=0.13 F1>=0.56, yeast HL<=0.24)")
    started = time.perf_counter()
    results = {}
    for name, path in (("scene", scene), ("yeast", yeast)):
        config = _benchmark_config(name, path)
        bundle = load_dataset(path, "arff", config.label_spec)
        train, test = split(bundle, config.n_train)
        hls, f1s = [], []
        for seed in range(10):
            run = dataclasses.replace(config, seed=seed)
            report = run_stream_split(run, train, test)
            hls.append(report.metrics.hamming_loss)
            f1s.append(report.metrics.f1)
        results[name] = (float(np.mean(hls)), float(np.mean(f1s)))
    elapsed = time.perf_counter() - started
    scene_hl, scene_f1 = results["scene"]
    yeast_hl, _ = results["yeast"]
    ok = (scene_hl <= 0.13 and scene_f1 >= 0.56 and yeast_hl <= 0.24
          and elapsed < 120.0)
    _verdict(announce, 4, "benchmark performance", ok,
             f"scene HL={scene_hl:.4f} (<=0.13) F1={scene_f1:.4f} (>=0.56), "
             f"yeast HL={yeast_hl:.4f} (<=0.24), 10 seeds, {elapsed:.1f}s")
    assert scene_hl <= 0.13
    assert scene_f1 >= 0.56
    assert yeast_hl <= 0.24
    assert elapsed < 120.0


def test_acceptance_5_cross_validation_consistency(announce):
    yeast = dataset_path("yeast")
    if not yeast:
        _skip(announce, 5, "cross-validation consistency",
              "yeast file absent; drop it into data/ to enable "
              "(floor: 5-fold hamming-loss std <= 0.01)")
    config = _benchmark_config("yeast", yeast)
    bundle = load_dataset(config.data_path, config.data_format,
                          config.label_spec)
    report = run_cv_bundle(config, bundle, 5)
    std = report.std["hamming_loss"]
    ok = std <= 0.01
    _verdict(announce, 5, "cross-validation consistency", ok,
             f"yeast 5-fold HL mean={report.mean['hamming_loss']:.4f} "
             f"std={std:.5f} (limit 0.01)")
    assert ok


def test_acceptance_6_threshold_correctness(announce):
    # margin-separated streams must decode held-out data perfectly
    zero_losses = []
    for seed in range(5):
        bundle = separable_bundle(420, seed=seed)
        train, test = split(bundle, 320)
        config = RunConfig(data_path="inline", label_spec=3, n_hidden=25,
                           seed=seed, n_init=50, chunk_size=5)
        report = run_stream_split(config, train, test)
        zero_losses.append(report.metrics.hamming_loss)
    recovered = all(hl == 0.0 for hl in zero_losses)

    # shift equivariance, exact in floating point on dyadic inputs
    scores = [np.array([0.75, -0.5, 0.25]), np.array([-0.25, 1.5, 0.5]),
              np.array([1.25, -1.0, -0.75])]
    truths = [{0}, {1, 2}, {0}]
    shift = 2.0
    base, shifted = ThresholdCalib(), ThresholdCalib()
    for y, truth in zip(scores, truths):
        calibrate_chunk(base, y[None], label_matrix([truth], 3))
        calibrate_chunk(shifted, (y + shift)[None], label_matrix([truth], 3))
    t0, t1 = _threshold_value(base), _threshold_value(shifted)
    equivariant = (t1 == t0 + shift) and all(
        decode_rows((y + shift)[None], t1) == decode_rows(y[None], t0)
        for y in scores)

    ok = recovered and equivariant
    _verdict(announce, 6, "threshold correctness", ok,
             f"held-out hamming losses {zero_losses} (all must be 0), "
             f"shift equivariance exact: {equivariant}")
    assert recovered
    assert equivariant


def test_acceptance_7_timing_scaling_and_epoch_accounting(announce):
    # epoch accounting, exact
    bundle = synthetic_bundle(1600, 6, 3, seed=70)
    config = RunConfig(data_path="inline", label_spec=3, n_hidden=25, seed=0,
                       n_init=100, chunk_size=30)
    model = train_stream(config, bundle)
    accounting = model.n_epochs == math.ceil((1600 - 100) / 30) == 50

    # sequential-phase time must grow linearly in the streamed-sample count.
    # The sizes are timed in turn, eight rounds over all four, and each keeps
    # its fastest run. Each round starts one size later than the one before,
    # so every size runs at every place in a round, twice: a slow spell of
    # the host, or a load that comes back once a round, costs runs of every
    # size, not all the runs of one.
    sizes = [2000, 4000, 8000, 16000]
    streams = [synthetic_bundle(n + 100, 8, 3, seed=71) for n in sizes]
    run = RunConfig(data_path="inline", label_spec=3, n_hidden=30, seed=1,
                    n_init=100, chunk_size=8)
    times = [np.inf] * len(sizes)
    for first in range(8):
        for k in range(len(sizes)):
            i = (first + k) % len(sizes)
            times[i] = min(times[i], train_stream(run, streams[i]).seq_s)
    x = np.array(sizes, dtype=float)
    y = np.array(times)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    # over these sizes a time that grows as N^2 still fits a line with
    # R^2 = 0.962, so the 8x span of N may also cost at most 16x the time
    # (linear: 8x; N^2: 64x)
    growth = times[-1] / times[0]
    ok = accounting and r2 >= 0.95 and growth <= 16.0
    _verdict(announce, 7, "timing scaling + epoch accounting", ok,
             f"n_epochs==50 exact: {accounting}, linear fit R^2={r2:.4f} "
             f"(limit 0.95), time growth {growth:.2f}x (limit 16x) over "
             f"N={sizes}, times={[f'{t:.3f}' for t in times]}")
    assert accounting
    assert r2 >= 0.95
    assert growth <= 16.0


def test_acceptance_8_persistence(announce, tmp_path):
    rng = np.random.default_rng(80)
    X = rng.uniform(size=(220, 6))
    Y = np.where(rng.integers(0, 2, (220, 3)) == 1, 1.0, -1.0)
    params = init_params(6, 15, seed=8)

    straight = init_phase(params, X[:40], Y[:40])
    for i in range(40, 220):
        update_chunk(straight, params, X[i:i + 1], Y[i:i + 1])

    resumed = init_phase(params, X[:40], Y[:40])
    for i in range(40, 120):
        update_chunk(resumed, params, X[i:i + 1], Y[i:i + 1])
    path = tmp_path / "mid.json"
    save_model(params, resumed, None, None, path, seed=8)
    loaded = load_model(path)
    for i in range(120, 220):
        update_chunk(loaded.state, loaded.params, X[i:i + 1], Y[i:i + 1])
    gap = float(np.max(np.abs(loaded.state.beta - straight.beta)))

    golden_path = Path(__file__).parent / "data" / "golden_report.json"
    rendered = emit_report(golden_run_report(), "json")
    stable = rendered == golden_path.read_text(encoding="utf-8")

    ok = gap <= 1e-12 and stable
    _verdict(announce, 8, "persistence", ok,
             f"resume-vs-straight beta gap {gap:.2e} (limit 1e-12), "
             f"golden report byte-stable: {stable}")
    assert gap <= 1e-12
    assert stable
