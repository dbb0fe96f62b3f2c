"""Span recorder that wraps the public functions of streamlabel's modules.

Wrappers are installed at every name a function is looked up by: the
defining module, each module that imported it by name, and the package
namespace. A call records one span (name, start, end, parent span) in
memory; a few functions also record the shape of their work (rows mapped,
chunk shape, cells parsed) so that rates can be formed where the work
happens. Self time is a span's duration minus the time its child spans
cover.
"""

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("dataio", "elm", "online", "numerics", "labels", "metrics",
          "harness", "cli")

# function -> what to record about its work, from (args, result)
_WORK = {
    "elm.hidden_map": lambda args, out: len(args[1]),
    "online.update_chunk": lambda args, out: (
        len(args[2]), args[1].n_hidden, args[0].beta.shape[1]),
    "dataio.load_dataset": lambda args, out: (
        out.n_samples * (out.n_features + out.m)),
}


class Tracer:
    """Wraps every public function of the LAYERS modules while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work]
        self.wrapped = []  # qualified names of the wrapped functions
        self._stack = []
        self._restore = []

    def install(self) -> None:
        names = {}
        for layer in LAYERS:
            module = importlib.import_module(f"streamlabel.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    names[obj] = f"{layer}.{attr}"
        self.wrapped = sorted(names.values())
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        owners = [m for n, m in sys.modules.items()
                  if n == "streamlabel" or n.startswith("streamlabel.")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, out)
            return out

        return traced


def summarize(spans):
    """Per-function totals: calls, self seconds, span durations, work items."""
    n = len(spans)
    child_total = np.zeros(n)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                      "durations": [], "work": []})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_total[i]
        entry["durations"].append(end - start)
        if work is not None:
            entry["work"].append((work, i))
    return out


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def tail_percentile(n: int, want: float = 99.0) -> float:
    """Highest percentile up to ``want`` with at least ten samples beyond it."""
    if n <= 20:
        return 50.0
    return min(want, 100.0 * (1.0 - 10.0 / n))


def _update_flops(c: int, L: int, m: int) -> int:
    # the update's own matrix products, without the hidden map and gain
    # solve that run as child spans: T = Hc M (2cL^2), K = T Hc' (2c^2 L),
    # M - T'S (2cL^2), residual and Hc' residual (4cLm), M (Hc' r) (2L^2 m)
    return 4 * c * L * L + 2 * c * c * L + 4 * c * L * m + 2 * L * L * m


def layer_metrics(spans, wrapped, rows_entered: int, training: bool):
    """(metrics, detail) of one traced run; None marks a function never called.

    ``rows_entered`` is the number of rows that entered the measured path:
    rows streamed after the initial block when ``training``, rows served
    otherwise. It is the base of ``elm.hidden_map.rows_per_sample``.
    """
    s = summarize(spans)

    def self_s(*names):
        hits = [s[n]["self_s"] for n in names if n in s]
        return sum(hits) if hits else None

    def calls(name):
        return s[name]["calls"] if name in s else None

    def per_call_ms(name, pct):
        if name not in s:
            return None
        durations = s[name]["durations"]
        return float(np.percentile(durations, pct(len(durations)))) * 1e3

    out = {
        "dataio.load_dataset.s": self_s("dataio.load_dataset"),
        "dataio.normalize.s": self_s("dataio.normalize_fit",
                                     "dataio.normalize_apply"),
        "elm.hidden_map.s": self_s("elm.hidden_map"),
        "elm.hidden_map.calls": calls("elm.hidden_map"),
        "elm.predict_raw.s": self_s("elm.predict_raw"),
        "online.init_phase.s": self_s("online.init_phase"),
        "online.update_chunk.s": self_s("online.update_chunk"),
        "online.update_chunk.calls": calls("online.update_chunk"),
        "online.update_chunk.ms_p50": per_call_ms("online.update_chunk",
                                                  lambda n: 50.0),
        "online.update_chunk.ms_p99": per_call_ms("online.update_chunk",
                                                  tail_percentile),
        "numerics.solve_spd.s": self_s("numerics.solve_spd"),
        "numerics.solve_spd.calls": calls("numerics.solve_spd"),
        "labels.encode_bipolar.s": self_s("labels.encode_bipolar"),
        "labels.calibrate_update.s": self_s("labels.calibrate_update"),
        "labels.calibrate_update.calls": calls("labels.calibrate_update"),
        "labels.decode.s": self_s("labels.decode"),
        "labels.decode.calls": calls("labels.decode"),
        "metrics.evaluate.s": self_s("metrics.evaluate"),
        "harness.train_stream.s": self_s("harness.train_stream"),
        "harness.predict_sets.s": self_s("harness.predict_sets"),
        "harness.load_model.s": self_s("harness.load_model"),
        "cli.main.s": self_s("cli.main"),
    }
    load = s.get("dataio.load_dataset")
    out["dataio.load_dataset.cells_per_s"] = (
        sum(w for w, _ in load["work"]) / load["self_s"] if load else None)
    update = s.get("online.update_chunk")
    out["online.update_chunk.gflops"] = (
        sum(_update_flops(*w) for w, _ in update["work"])
        / update["self_s"] / 1e9 if update else None)
    hidden = s.get("elm.hidden_map")
    if hidden is None:
        out["elm.hidden_map.rows_per_sample"] = None
    else:
        mapped = sum(w for w, i in hidden["work"]
                     if not training
                     or (has_ancestor(spans, i, "harness.train_stream")
                         and not has_ancestor(spans, i, "online.init_phase")))
        out["elm.hidden_map.rows_per_sample"] = mapped / rows_entered

    roots = sum(end - start for _, start, end, parent, _ in spans
                if parent < 0)
    ranked = sorted(((v["self_s"], k) for k, v in s.items()), reverse=True)
    detail = {
        "span_count": len(spans),
        "root_s": roots,
        "top_self": [[k, round(v, 6), round(v / roots, 4)]
                     for v, k in ranked[:8]],
        "missing": [name for name in wrapped if name not in s],
        "update_chunk_pct": (tail_percentile(len(update["durations"]))
                             if update else None),
        "self_share": {k: v["self_s"] / roots for k, v in s.items()},
    }
    return out, detail
