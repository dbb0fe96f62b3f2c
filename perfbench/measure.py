"""The measured work of one worker process, after set-up.

Runs one repetition of a workload against the public API of streamlabel,
times it at the call boundaries, checks its outputs against references
that share no code with the program, and writes one JSON result file.
"""

import json
import math
import os
import resource
import time
import traceback

import numpy as np

import inputs
import spans
from streamlabel import cli, harness, metrics
from streamlabel.dataio import DatasetBundle

_METRIC_KEYS = ("hamming_loss", "accuracy", "precision", "recall", "f1")
PREDICT_REPEATS = 9


def bundle(X, Y, source: str) -> DatasetBundle:
    """An in-memory DatasetBundle over feature rows X and bool labels Y."""
    X = np.array(X, dtype=np.float64)
    X.setflags(write=False)
    return DatasetBundle(
        X=X, labelsets=inputs.matrix_to_sets(Y), m=Y.shape[1],
        feature_names=tuple(f"f{j}" for j in range(X.shape[1])),
        label_names=tuple(f"l{j}" for j in range(Y.shape[1])), source=source)


class Probes:
    """Times the calls that make up a training run, at the harness boundary.

    Each chunk update is one operation; it succeeds when it returns and
    leaves finite output weights. The probes wrap three names in
    ``streamlabel.harness`` and nothing inside the program.
    """

    def __init__(self):
        self.train = []    # (seconds, train bundle, trained model)
        self.predict = []  # (seconds, rows, label sets, args, kwargs)
        self.update_s = []
        self.updates_ok = 0

    def install(self):
        clock = time.perf_counter
        train_stream = harness.train_stream
        predict_sets = harness.predict_sets
        update_chunk = harness.update_chunk

        def timed_train(config, train):
            t0 = clock()
            model = train_stream(config, train)
            self.train.append((clock() - t0, train, model))
            return model

        def timed_predict(params, beta, threshold, norm_stats, bundle,
                          *args, **kwargs):
            t0 = clock()
            out = predict_sets(params, beta, threshold, norm_stats, bundle,
                               *args, **kwargs)
            self.predict.append(
                (clock() - t0, bundle.n_samples, out[0],
                 (params, beta, threshold, norm_stats, bundle) + args, kwargs))
            return out

        def timed_update(state, *args, **kwargs):
            t0 = clock()
            out = update_chunk(state, *args, **kwargs)
            self.update_s.append(clock() - t0)
            if np.isfinite(out.beta).all():
                self.updates_ok += 1
            return out

        harness.train_stream = timed_train
        harness.predict_sets = timed_predict
        harness.update_chunk = timed_update


def _scores_ok(report: dict, preds, truth) -> list:
    """Problems with one scored report: non-finite values, oracle mismatch."""
    problems = []
    if not all(math.isfinite(report[k]) for k in _METRIC_KEYS):
        problems.append(f"non-finite metrics {report}")
    predicted = inputs.sets_to_matrix(preds, truth.shape[1])
    oracle = inputs.oracle_evaluate(predicted, truth)
    wrong = [k for k in _METRIC_KEYS if report[k] != oracle[k]]
    if wrong:
        problems.append(
            "evaluate differs from the left-to-right oracle on "
            + ", ".join(f"{k} ({report[k]!r} vs {oracle[k]!r})" for k in wrong))
    return problems


def run_training(job, work, tracer) -> dict:
    if job["kind"] == "cli":
        out_path = os.path.join(work, f"report_{job['rep']}.json")
        argv = ["stream", "--defaults", job["defaults"], "--data",
                job["arff"], "--out", out_path, "--seed", str(job["seed"])]
    else:
        train = bundle(np.load(os.path.join(work, "train_X.npy")),
                       np.load(os.path.join(work, "train_Y.npy")),
                       job["workload"])
        test = bundle(np.load(os.path.join(work, "test_X.npy")),
                      np.load(os.path.join(work, "test_Y.npy")),
                      job["workload"])
        config = harness.RunConfig(data_path=f"<{job['workload']}>",
                                   label_spec=train.m, seed=job["seed"],
                                   **job["config"])
    probes = Probes()
    probes.install()
    report = None
    errors = []
    t0 = time.perf_counter()
    try:
        if job["kind"] == "cli":
            code = cli.main(argv)
            run_s = time.perf_counter() - t0
            if code == 0:
                with open(out_path, encoding="utf-8") as fh:
                    report = json.load(fh)["metrics"]
            else:
                errors.append(f"cli.main returned {code}")
        else:
            report = harness.run_stream_split(config, train, test)
            run_s = time.perf_counter() - t0
            report = report.metrics.as_dict()
    except Exception:  # noqa: BLE001 -- a failing program is a measured outcome
        run_s = time.perf_counter() - t0
        errors.append(traceback.format_exc())
    if tracer is not None:
        tracer.uninstall()

    expected_updates = job["expected_updates"]
    scoring_ok = False
    result = {"run_s": run_s, "update_s": probes.update_s}
    if report is not None and probes.train and probes.predict:
        train_s, train, model = probes.train[-1]
        _, rows, preds, args, kwargs = probes.predict[-1]
        # one held-out prediction is short; repeat it for a steady median
        for _ in range(PREDICT_REPEATS):
            harness.predict_sets(*args, **kwargs)
        predict_s = float(np.median([p[0] for p in probes.predict]))
        truth = np.load(os.path.join(work, "test_Y.npy"))
        problems = _scores_ok(report, preds, truth)
        beta = model.state.beta
        if not np.isfinite(beta).all():
            problems.append("non-finite output weights")
        errors.extend(problems)
        scoring_ok = not problems
        np.savez(os.path.join(work, f"model_{job['rep']}.npz"), beta=beta,
                 W=model.params.W, b=model.params.b)
        result.update(train_s=train_s, train_rows=train.n_samples,
                      predict_s=predict_s, predict_rows=rows,
                      f1=report["f1"], hamming_loss=report["hamming_loss"],
                      beta_file=f"model_{job['rep']}.npz")
        if tracer is not None:
            result["layers"], result["trace"] = spans.layer_metrics(
                tracer.spans, tracer.wrapped,
                train.n_samples - job["n0"], training=True)
    elif report is not None:
        errors.append("training or prediction never reached the harness")
    result["attempted"] = expected_updates + 1
    result["failed"] = (expected_updates - min(probes.updates_ok,
                                               expected_updates)
                        + (0 if scoring_ok else 1))
    result["errors"] = errors
    return result


def run_serve(job, work, model, tracer) -> dict:
    """Closed loop: one client sends the pool's row batches back to back.

    The pool is served ``passes`` times in this process; ``run_s`` is the
    median pass, the sum of its request latencies. Each request is checked
    right after it is timed, so no pass's label sets are kept. The model
    was loaded during set-up.
    """
    pool_X = np.load(os.path.join(work, "pool_X.npy"))
    pool_Y = np.load(os.path.join(work, "pool_Y.npy"))
    expected = np.load(os.path.join(work, "pool_pred.npy"))
    batch = job["batch"]
    requests = [bundle(pool_X[i:i + batch], pool_Y[i:i + batch], "pool")
                for i in range(0, pool_X.shape[0], batch)]
    m = pool_Y.shape[1]
    min_one = job["min_one"]
    weights_finite = all(np.isfinite(a).all() for a in
                         (model.params.W, model.params.b, model.state.beta))
    clock = time.perf_counter
    latencies, pass_s, errors = [], [], []
    served = {}
    failed = 0
    if not weights_finite:
        errors.append("loaded model has non-finite weights")

    for n_pass in range(job["passes"]):
        busy = 0.0
        for k, req in enumerate(requests):
            t0 = clock()
            try:
                preds, _ = harness.predict_sets(
                    model.params, model.state.beta, model.threshold,
                    model.norm_stats, req, min_one)
                report = metrics.evaluate(preds, req.labelsets, m)
            except Exception:  # noqa: BLE001 -- a failing request is an outcome
                errors.append(traceback.format_exc())
                failed += 1
                continue
            latency = clock() - t0
            latencies.append(latency)
            busy += latency
            rows = slice(k * batch, (k + 1) * batch)
            problems = _scores_ok(report.as_dict(), preds, pool_Y[rows])
            if not np.array_equal(inputs.sets_to_matrix(preds, m),
                                  expected[rows]):
                problems.append(f"request {k}: label sets differ from the "
                                "in-memory model's")
            if problems or not weights_finite:
                failed += 1
                errors.extend(problems)
            if n_pass == 0:
                served[k] = preds
        pass_s.append(busy)
    if tracer is not None:
        tracer.uninstall()

    result = {"run_s": float(np.median(pass_s)), "request_s": latencies,
              "attempted": job["passes"] * len(requests), "failed": failed,
              "errors": errors, "predict_rows": pool_Y.shape[0]}
    if len(served) == len(requests):
        all_preds = [p for k in range(len(requests)) for p in served[k]]
        pool = metrics.evaluate(all_preds, inputs.matrix_to_sets(pool_Y), m)
        errors.extend(_scores_ok(pool.as_dict(), all_preds, pool_Y))
        result.update(f1=pool.f1, hamming_loss=pool.hamming_loss)
    if tracer is not None:
        result["layers"], result["trace"] = spans.layer_metrics(
            tracer.spans, tracer.wrapped,
            pool_Y.shape[0] * job["passes"], training=False)
    return result


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    getrusage's ru_maxrss survives execve, so a worker would inherit the
    peak of the process that launched it; VmHWM belongs to this image only.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(job, model, tracer, setup_s: float) -> None:
    work = job["work_dir"]
    if job["kind"] == "serve":
        result = run_serve(job, work, model, tracer)
    else:
        result = run_training(job, work, tracer)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = peak_rss_mb()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)

