"""streamlabel benchmark: one workload, measured in fresh worker processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --workload NAME --seed N --seconds S --diagnose

Inputs are generated from --seed before anything is timed. The workload
then runs as many times as fit in --seconds (at least three), each
repetition in a new worker process. With --trace 0 the
result holds the end-to-end metrics, taken over the repetitions as BEST_OF
says; with --trace 1 traced and untraced repetitions alternate and the result holds
the per-layer metrics of the traced ones. The last line of output is the
result object; the line before it records the environment and the checks.

BLAS runs single-threaded in every process of the benchmark (see
SINGLE_THREAD_ENV). --diagnose measures the workload twice: once with the
thread environment the benchmark was started with, once single-threaded,
and reports both and their ratio on their own.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Every process of the benchmark runs BLAS single-threaded. On a shared
# 2-vCPU host, default OpenBLAS threading made the same chunk update take
# either about 4 ms or about 15 ms, switching from one minute to the next,
# which no run length averages out. --diagnose measures the inherited
# thread environment as well. Set before numpy is first imported.
INHERITED_ENV = dict(os.environ)
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD_ENV)

import numpy as np  # noqa: E402

import envinfo  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_FAILED = 3
MIN_REPS = 3
# every run must end well inside three minutes, builds aside
DEADLINE_S = 165.0
BETA_PROMISE = 1e-6
MISSING = -1

# Why each gated workload exists is recorded in BENCHMARK.json. Two more run
# but are left out of it because their figures did not hold still on a shared
# 2-vCPU host (see README.md): stream-chunk1, the one-sample-at-a-time mode,
# and ingest-corel5k, the only workload that reads a file, whose repetitions
# are too long to dodge the host's slow spells.
WORKLOADS = {
    "stream-chunk1": {
        "kind": "memory", "shape": "yeast", "stream": 1,
        "n_train": 5000, "n_test": 4000,
        "config": {"n_hidden": 200, "n_init": 300, "chunk_size": 1,
                   "ridge": 0.0, "threshold_mode": "calibrated",
                   "min_one": False, "normalize": True},
    },
    "stream-wide": {
        "kind": "memory", "shape": "scene", "stream": 2,
        "n_train": 4500, "n_test": 4000,
        "config": {"n_hidden": 1000, "n_init": 1500, "chunk_size": 20,
                   "ridge": 1e-6, "threshold_mode": "calibrated",
                   "min_one": True, "normalize": True},
    },
    "ingest-corel5k": {
        "kind": "cli", "shape": "corel5k", "stream": 3, "n_rows": 5000,
        "defaults": "corel5k",
    },
    "serve-batch": {
        "kind": "serve", "shape": "corel5k", "stream": 4,
        "pool": 16384, "batch": 64, "passes": 4, "defaults": "corel5k",
    },
}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "train_samples_per_s": "1/s",
    "predict_samples_per_s": "1/s", "request_ms_p50": "ms",
    "request_ms_p99": "ms", "peak_rss_mb": "MB", "ops_ok_ratio": "ratio",
}
# Reported on every run in the detail record, not in the gated result: they
# are deterministic per seed but swing widely from seed to seed.
QUALITY_UNITS = {"f1": "ratio", "hamming_loss": "ratio",
                 "beta_rel_err": "ratio"}


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".cells_per_s", "1/s"),
                         (".rows_per_sample", "ratio"), (".gflops", "GFLOP/s"),
                         (".ms_p50", "ms"), (".ms_p99", "ms"),
                         ("_bytes", "B"), ("_pct", "%"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


class BenchmarkError(Exception):
    """The benchmark could not measure: no result is printed."""


def _import_program():
    src = ROOT / "src"
    if not (src / "streamlabel" / "__init__.py").is_file():
        raise BenchmarkError(f"no streamlabel package under {src}")
    sys.path.insert(0, str(src))
    try:
        import streamlabel  # noqa: F401
    except ImportError as err:
        raise BenchmarkError(f"cannot import streamlabel: {err}") from err


# ---------------------------------------------------------------------------
# inputs and set-up, none of it timed as part of a run

def prepare(name: str, seed: int, work: Path, traced: bool) -> dict:
    """Write the workload's inputs under ``work``; returns the job template.

    The returned dict also carries, under keys starting with ``_``, what the
    parent needs afterwards for the beta reference.
    """
    import measure  # imports the program, so only after _import_program
    from streamlabel import harness

    spec = WORKLOADS[name]
    job = {"workload": name, "kind": spec["kind"], "seed": seed,
           "work_dir": str(work)}
    if spec["kind"] == "memory":
        n_train = spec["n_train"]
        X, Y = inputs.make_table(spec["shape"], n_train + spec["n_test"],
                                 seed, spec["stream"])
        config = spec["config"]
        for part, rows in (("train", slice(0, n_train)),
                           ("test", slice(n_train, None))):
            np.save(work / f"{part}_X.npy", X[rows])
            np.save(work / f"{part}_Y.npy", Y[rows])
        job["config"] = config
    elif spec["kind"] == "cli":
        config = harness.load_dataset_defaults(spec["defaults"])
        n_train = config["n_train"]
        X, Y = inputs.make_table(spec["shape"], spec["n_rows"], seed,
                                 spec["stream"])
        job["arff"] = str(work / f"{spec['defaults']}.arff")
        job["defaults"] = spec["defaults"]
        inputs.write_arff(job["arff"], X, Y, spec["defaults"])
        np.save(work / "test_Y.npy", Y[n_train:])
    else:
        config = harness.load_dataset_defaults(spec["defaults"])
        n_train = config["n_train"]
        X, Y = inputs.make_table(spec["shape"], n_train + spec["pool"], seed,
                                 spec["stream"])
        train = measure.bundle(X[:n_train], Y[:n_train], name)
        pool = measure.bundle(X[n_train:], Y[n_train:], name)
        run_config = harness.RunConfig(
            data_path=f"<{name}>", seed=seed, dataset_name=name,
            **{k: v for k, v in config.items() if k != "n_train"})
        # this first training also warms the process up: it is not timed;
        # the timed ones are spread over the run (see retrain)
        model = harness.train_stream(run_config, train)
        job["_retrain"] = (run_config, train)
        job["_train_s"] = []
        job["model"] = str(work / "model.json")
        tracer = None
        if traced:
            tracer = spans.Tracer()
            tracer.install()
        harness.save_model(model.params, model.state, model.threshold,
                           model.norm_stats, job["model"], seed=seed)
        if tracer is not None:
            tracer.uninstall()
            job["_save_s"] = spans.summarize(tracer.spans)[
                "harness.save_model"]["self_s"]
        job["_model_bytes"] = os.path.getsize(job["model"])
        preds, _ = harness.predict_sets(model.params, model.state.beta,
                                        model.threshold, model.norm_stats,
                                        pool, config["min_one"])
        np.save(work / "pool_X.npy", X[n_train:])
        np.save(work / "pool_Y.npy", Y[n_train:])
        np.save(work / "pool_pred.npy",
                inputs.sets_to_matrix(preds, Y.shape[1]))
        job.update(batch=spec["batch"], passes=spec["passes"],
                   min_one=config["min_one"])
        job["_beta"] = [model.state.beta]
        job["_W"], job["_b"] = model.params.W, model.params.b
    n0 = max(config["n_hidden"], config["n_init"])
    job["n0"] = n0
    job["expected_updates"] = math.ceil((n_train - n0) / config["chunk_size"])
    job["_train"] = (X[:n_train], Y[:n_train])
    job["_ridge"] = config["ridge"]
    job["_normalize"] = config["normalize"]
    return job


# ---------------------------------------------------------------------------
# worker processes

def launch(template: dict, rep: int, traced: bool, env: dict,
           deadline: float):
    """Run one worker to completion; returns its result dict or None."""
    work = Path(template["work_dir"])
    job = {k: v for k, v in template.items() if not k.startswith("_")}
    job.update(rep=rep, traced=traced,
               result=str(work / f"result_{rep}.json"))
    job_path = work / f"job_{rep}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(job_path), repr(launched)],
        cwd=ROOT, env=env, stdout=sys.stderr.fileno())
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker {rep} passed the run deadline; stopped",
              file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code == SETUP_FAILED:
        raise BenchmarkError("the worker could not set up the program")
    result_path = Path(job["result"])
    if code != 0 or not result_path.is_file():
        print(f"perfbench: worker {rep} exited with {code}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def retrain(template: dict) -> None:
    """Time one more training of the served model, in this process.

    Run between serve-batch workers, so the trainings sample the whole
    window, as the workers do, rather than a few seconds of set-up.
    """
    from streamlabel import harness
    run_config, train = template["_retrain"]
    t0 = time.perf_counter()
    harness.train_stream(run_config, train)
    template["_train_s"].append(time.perf_counter() - t0)


def repeat(template: dict, seconds: float, trace: bool, env: dict,
           started: float):
    """Start workers while they fit in ``seconds``; returns [(traced, result)].

    Once the minimum number of repetitions has run, a worker is started
    only if a typical repetition would still end inside the window. On
    serve-batch each untraced worker is followed by one timed training.
    """
    deadline = started + DEADLINE_S
    t0 = time.monotonic()
    runs = []
    durations = []
    while True:
        n_plain = sum(1 for traced, _ in runs if not traced)
        n_traced = len(runs) - n_plain
        enough = (n_plain >= 2 and n_traced >= 2) if trace else (
            n_plain >= MIN_REPS)
        now = time.monotonic()
        typical = statistics.median(durations) if durations else 0.0
        if enough and now - t0 + typical > seconds:
            break
        if now + max(durations, default=0.0) > deadline:
            break
        traced = trace and n_traced < n_plain
        runs.append((traced, launch(template, len(runs), traced, env,
                                    deadline)))
        if template["kind"] == "serve" and not trace:
            retrain(template)
        durations.append(time.monotonic() - now)
    return runs


# ---------------------------------------------------------------------------
# aggregation

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _percentile(samples, pct):
    return float(np.percentile(samples, pct))


def beta_errors(template: dict, results) -> list:
    X, Y = template["_train"]
    work = Path(template["work_dir"])
    if "_beta" in template:
        betas = template["_beta"]
        W, b = template["_W"], template["_b"]
    else:
        betas = []
        for r in results:
            if r.get("beta_file"):
                with np.load(work / r["beta_file"]) as f:
                    betas.append(f["beta"])
                    W, b = f["W"], f["b"]
    if not betas:
        return []
    ref = inputs.beta_reference(X, Y, W, b, template["_ridge"],
                                template["_normalize"])
    return [inputs.rel_err(beta, ref) for beta in betas]


def per_worker(template: dict, ok: list, detail: dict) -> dict:
    """Each end-to-end metric as one value per worker process of the run.

    Latency percentiles are taken within each worker, then aggregated like
    every other metric.
    """
    reps = {
        "setup_s": [r["setup_s"] for r in ok],
        "run_s": [r["run_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    if template["kind"] == "serve":
        latencies = [r["request_s"] for r in ok]
        rows = len(template["_train"][0])
        reps["train_samples_per_s"] = [rows / t for t in template["_train_s"]]
        reps["predict_samples_per_s"] = [r["predict_rows"] / r["run_s"]
                                         for r in ok]
        detail["request"] = ("one predict_sets + evaluate call on "
                             f"{template['batch']} rows")
    else:
        latencies = [r["update_s"] for r in ok]
        reps["train_samples_per_s"] = [r["train_rows"] / r["train_s"]
                                       for r in ok if "train_s" in r]
        reps["predict_samples_per_s"] = [r["predict_rows"] / r["predict_s"]
                                         for r in ok if "predict_s" in r]
        detail["request"] = "one update_chunk call (a chunk update)"
    latencies = [samples for samples in latencies if samples]
    if latencies:
        tail = spans.tail_percentile(min(map(len, latencies)))
        reps["request_ms_p50"] = [_percentile(samples, 50.0) * 1e3
                                  for samples in latencies]
        reps["request_ms_p99"] = [_percentile(samples, tail) * 1e3
                                  for samples in latencies]
        detail["request_samples_per_worker"] = min(map(len, latencies))
        detail["request_ms_p99_percentile"] = tail
    detail["per_worker"] = reps
    return reps


# The speed metrics of a run are those of its fastest repetition. On a
# shared 2-vCPU host the neighbours slow a repetition by up to 1.5x, in spells
# from under a second to several minutes, and the share of slow spells in a
# run varies from run to run: the median repetition follows that share, the
# fastest one follows the program (the reason timeit reports a minimum).
# Set-up time, the latency tail and memory stay medians over the repetitions.
BEST_OF = {"run_s": min, "request_ms_p50": min,
           "train_samples_per_s": max, "predict_samples_per_s": max}


def end_to_end(template: dict, results: list, detail: dict) -> dict:
    ok = [r for r in results if r is not None]
    return {k: BEST_OF[k](v) if k in BEST_OF and v else _median(v)
            for k, v in per_worker(template, ok, detail).items()}


def quality(template: dict, results: list, detail: dict) -> None:
    """Record f1, hamming_loss and beta_rel_err in the detail record."""
    ok = [r for r in results if r is not None]
    beta = _median(beta_errors(template, ok))
    detail["beta"] = {"rel_err": beta, "promise": BETA_PROMISE,
                      "within_promise": beta is not None
                      and beta <= BETA_PROMISE,
                      "reference": "numpy.linalg.lstsq on ridge-augmented H"}
    q = {"f1": _median(r.get("f1") for r in ok),
         "hamming_loss": _median(r.get("hamming_loss") for r in ok),
         "beta_rel_err": beta}
    detail["quality"] = {k: {"value": v, "unit": QUALITY_UNITS[k]}
                         for k, v in q.items()}


def per_layer(template: dict, runs, detail: dict) -> dict:
    traced = [r for t, r in runs if t and r is not None and "layers" in r]
    plain = [r for t, r in runs if not t and r is not None]
    names = sorted({k for r in traced for k in r["layers"]})
    out = {}
    for name in names:
        values = [r["layers"][name] for r in traced]
        out[name] = MISSING if None in values else statistics.median(values)
    if template["kind"] == "serve":
        out["harness.save_model.s"] = template.get("_save_s", MISSING)
        out["harness.model_file_bytes"] = template["_model_bytes"]
    else:
        out["harness.save_model.s"] = MISSING
        out["harness.model_file_bytes"] = MISSING
    run_traced = _median(r["run_s"] for r in traced)
    run_plain = _median(r["run_s"] for r in plain)
    out["trace.overhead_pct"] = (100.0 * (run_traced / run_plain - 1.0)
                                 if run_traced and run_plain else MISSING)
    if traced:
        first = traced[0]["trace"]
        detail["trace"] = {k: first[k] for k in
                           ("span_count", "root_s", "top_self", "missing",
                            "update_chunk_pct")}
        detail["trace"]["runs"] = len(traced)
        detail["trace"]["missing_metrics"] = sorted(
            k for k, v in out.items() if v == MISSING)
        detail["trace"]["design_check"] = design_check(
            template["workload"], first["self_share"])
    return out


def design_check(workload: str, share: dict) -> dict:
    """Whether the traced self-time shares match why the workload exists."""
    top = max(share, key=share.get)
    if workload in ("stream-chunk1", "stream-wide"):
        return {"expect": "online.update_chunk has the largest self time",
                "top": top, "holds": top == "online.update_chunk"}
    if workload == "ingest-corel5k":
        return {"expect": "dataio.load_dataset has the largest self time",
                "top": top, "holds": top == "dataio.load_dataset"}
    lead = ("elm.predict_raw", "labels.decode", "metrics.evaluate")
    together = sum(share.get(k, 0.0) for k in lead)
    others = max((v for k, v in share.items() if k not in lead), default=0.0)
    return {"expect": "predict_raw + decode + evaluate lead together",
            "together": round(together, 4), "largest_other": round(others, 4),
            "holds": together > others}


def measure_workload(name: str, seed: int, seconds: float, trace: bool,
                     env: dict, started: float):
    """Returns (result object, detail record) for one workload."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        template = prepare(name, seed, work, trace)
        runs = repeat(template, seconds, trace, env, started)
        detail = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "env": envinfo.record(),
                  "worker_thread_env": {k: env.get(k)
                                        for k in envinfo.THREAD_VARS}}
        spec = WORKLOADS[name]
        per_rep_attempts = (math.ceil(spec["pool"] / spec["batch"])
                            * spec["passes"] if template["kind"] == "serve"
                            else template["expected_updates"] + 1)
        attempted = failed = 0
        errors = []
        for _, r in runs:
            if r is None:
                attempted += per_rep_attempts
                failed += per_rep_attempts
                errors.append("worker failed or timed out")
            else:
                attempted += r["attempted"]
                failed += r["failed"]
                errors.extend(r["errors"])
        detail["runs"] = {"plain": sum(1 for t, _ in runs if not t),
                          "traced": sum(1 for t, _ in runs if t)}
        detail["errors"] = errors[:5]
        plain = [r for t, r in runs if not t]
        if all(r is None for r in plain):
            raise BenchmarkError("every repetition failed: " + "; ".join(
                e.strip().splitlines()[-1] for e in errors[:3] if e.strip()))
        quality(template, [r for _, r in runs], detail)
        if trace:
            metrics = per_layer(template, runs, detail)
            units = {k: _layer_unit(k) for k in metrics}
        else:
            metrics = end_to_end(template, plain, detail)
            metrics["ops_ok_ratio"] = 1.0 - failed / attempted
            units = END_TO_END_UNITS
        result = {
            "correct": failed == 0 and not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v if v is not None else MISSING,
                            "unit": units[k]} for k, v in metrics.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run is still using it
            pass


def diagnose(name: str, seed: int, seconds: float) -> dict:
    """The inherited thread environment against the gated single thread.

    Only the workers get the inherited environment; set-up in this process
    stays single-threaded.
    """
    out = {"diagnostic": "inherited BLAS thread environment against the "
                         "single-threaded runs that are gated (not gated)",
           "workload": name}
    for label, env in (("default", INHERITED_ENV),
                       ("openblas_1_thread", dict(os.environ))):
        result, _ = measure_workload(name, seed, seconds, False, env,
                                     time.monotonic())
        out[label] = {k: v["value"] for k, v in result["metrics"].items()}
    out["default_over_single"] = {
        k: out["default"][k] / out["openblas_1_thread"][k]
        for k in ("run_s", "train_samples_per_s", "predict_samples_per_s",
                  "request_ms_p50")
        if out["openblas_1_thread"][k]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--diagnose", action="store_true",
                        help="also measure with the inherited thread "
                        "environment")
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        _import_program()
        names = sorted(WORKLOADS) if args.workload == "all" else [
            args.workload]
        if args.diagnose:
            for name in names:
                print(json.dumps(diagnose(name, args.seed, args.seconds)))
            return 0
        results = {}
        for name in names:
            if len(names) > 1:
                started = time.monotonic()
            result, detail = measure_workload(
                name, args.seed, args.seconds, bool(args.trace),
                dict(os.environ), started)
            print(json.dumps({"detail": detail}))
            for key, metric in {**result["metrics"],
                                **detail["quality"]}.items():
                print(f"# {name:15s} {key:34s} {metric['value']:>14.6g} "
                      f"{metric['unit']}")
            results[name] = result
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
