"""Benchmark driver: streaming train/eval runs, cross-validation, persistence.

Runs take loaded bundles. A streaming run is: split -> fit normalization
-> encode labels -> solve the initial block -> per block of chunks
(normalize their rows and announce them to the update, which maps them) ->
per-chunk (predict raw, fold scores into the threshold calibration,
recursive update) -> pick threshold -> decode test set -> score. Rows are
normalized as they are mapped, one block at a time, so a run holds its data,
M and a few blocks of derived rows, never a normalized copy of a split or
an (n, n_hidden) hidden matrix; only the initial block is normalized whole.
Training time covers normalizing and solving the initial block and the
sequential phase; test time covers the finite-row check, normalizing, raw
prediction and decoding. Data loading, the training rows' finite check and
the normalization fit (each feature's min and max) are excluded from both.

Results are JSON documents: run_cv_bundle returns its document as a dict,
as the CLI's other commands build theirs. RunReport, MetricsReport,
TrainedModel and LoadedModel stay classes because the benchmark
(perfbench/) reads their attributes, such as report.metrics and
model.state.beta; emit_report renders a RunReport or a dict.
"""

import base64
import hashlib
import json
import math
import numbers
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .dataio import (DatasetBundle, NormStats, _label_spec_problem,
                     _normalize_rows, _take_rows, normalize_fit)
from .elm import _MAP_ROWS, ElmParams, init_params, predict_raw
from .labels import (ThresholdCalib, _threshold_value, calibrate_chunk,
                     decode_rows, label_matrix)
from .metrics import MetricsReport, evaluate
from .numerics import _GENERATOR_TAG, _check_finite, _make_rng
from .online import OselmState, init_phase, look_ahead, update_chunk

REPORT_SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 1
THRESHOLD_MODES = ("calibrated", "zero")


class ConfigError(ValueError):
    """One or more invalid configuration values, all listed together."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ModelFormatError(ValueError):
    """Model file is unreadable, unversioned, or corrupted."""


@dataclass(frozen=True)
class RunConfig:
    """A run's data file (path, label spec, format, name) and its learner.

    Checked when built (and by dataclasses.replace): one ConfigError lists
    every invalid value. A valid config then holds plain Python values: int
    counts and seed, a float ridge, and an int or a list of names for
    label_spec, so numpy scalars given to it serialize as JSON.
    """

    data_path: str
    label_spec: object
    data_format: str = "arff"
    dataset_name: str | None = None
    n_train: int | None = None
    n_hidden: int = 40
    seed: int = 0
    n_init: int = 1
    chunk_size: int = 1
    ridge: float = 0.0
    threshold_mode: str = "calibrated"
    min_one: bool = False
    normalize: bool = True

    def __post_init__(self):
        problems = []
        if self.data_format not in ("arff", "csv"):
            problems.append(f"data_format must be arff or csv, got {self.data_format!r}")
        spec_problem = _label_spec_problem(self.label_spec)
        if spec_problem:
            problems.append(spec_problem)
        counts = [key for key in ("n_hidden", "n_init", "chunk_size",
                                  "n_train", "seed")
                  if not (key == "n_train" and self.n_train is None)]
        for key in counts:
            value = getattr(self, key)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool)):
                problems.append(f"{key} must be an integer, got {value!r}")
            elif key != "seed" and value < 1:
                problems.append(f"{key} must be >= 1, got {value}")
        if (not isinstance(self.ridge, numbers.Real)
                or isinstance(self.ridge, bool)
                or not 0.0 <= self.ridge < math.inf):
            problems.append(
                f"ridge must be a finite number >= 0, got {self.ridge!r}")
        if self.threshold_mode not in THRESHOLD_MODES:
            problems.append(
                f"threshold_mode must be one of {'/'.join(THRESHOLD_MODES)}, "
                f"got {self.threshold_mode!r}")
        for key in ("min_one", "normalize"):
            if not isinstance(getattr(self, key), bool):
                problems.append(
                    f"{key} must be true or false, got {getattr(self, key)!r}")
        if problems:
            raise ConfigError(problems)
        for key in counts:
            object.__setattr__(self, key, int(getattr(self, key)))
        object.__setattr__(self, "ridge", float(self.ridge))
        spec = self.label_spec
        if not isinstance(spec, str):
            object.__setattr__(self, "label_spec", list(spec)
                               if isinstance(spec, (list, tuple)) else int(spec))

    @property
    def n_init_effective(self) -> int:
        # the initial block must make the Gram matrix invertible
        return max(self.n_hidden, self.n_init)

    def name(self) -> str:
        return self.dataset_name or Path(self.data_path).stem


def config_echo(config: RunConfig) -> dict:
    return {
        "data_path": config.data_path,
        "data_format": config.data_format,
        "label_spec": config.label_spec,
        "n_train": config.n_train,
        "n_hidden": config.n_hidden,
        "seed": config.seed,
        "n_init": config.n_init,
        "n_init_effective": config.n_init_effective,
        "chunk_size": config.chunk_size,
        "ridge": config.ridge,
        "threshold_mode": config.threshold_mode,
        "min_one": config.min_one,
        "normalize": config.normalize,
    }


@dataclass
class RunReport:
    """One streaming benchmark run: metrics, timing, threshold, config echo."""

    dataset: str
    config: dict
    metrics: MetricsReport
    train_time_s: float
    test_time_s: float
    n_epochs: int
    avg_epoch_s: float
    threshold: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "dataset": self.dataset,
            "config": self.config,
            "metrics": self.metrics.as_dict(),
            "timing": {
                "train_s": self.train_time_s,
                "test_s": self.test_time_s,
                "n_epochs": self.n_epochs,
                "avg_epoch_s": self.avg_epoch_s,
            },
            "threshold": self.threshold,
        }


@dataclass
class TrainedModel:
    """Output of the streaming training phase, ready to predict or persist."""

    params: ElmParams
    state: OselmState
    threshold: float
    norm_stats: NormStats | None
    calib: ThresholdCalib
    n_epochs: int
    init_s: float
    seq_s: float

    @property
    def train_s(self) -> float:
        return self.init_s + self.seq_s


def train_stream(config: RunConfig, train: DatasetBundle) -> TrainedModel:
    """Run the full streaming training phase over a training bundle.

    Checks the rows finite (naming the first bad bundle row), fits
    normalization (when enabled), solves the initial block, streams the
    remaining samples in chunks, and selects the decoding threshold. Each
    chunk's raw scores are taken before its own update touches the weights.
    """
    n0 = config.n_init_effective
    n_train = train.n_samples
    if n_train <= n0:
        raise ConfigError(
            f"initial block (N0={n0}) consumes all {n_train} training "
            "samples; need more training data or a smaller n_hidden/n_init")

    # before the fit, which a NaN would poison, in blocks like predict_sets
    for i in range(0, n_train, _MAP_ROWS):
        _check_finite("train_stream", "X", train.X[i:i + _MAP_ROWS], i)
    norm_stats = normalize_fit(train) if config.normalize else None
    truth = label_matrix(train.labelsets, train.m)
    targets = np.where(truth, 1.0, -1.0)
    params = init_params(train.n_features, config.n_hidden, config.seed)

    t0 = time.perf_counter()
    state = init_phase(params, _normalized(norm_stats, train.X[:n0]),
                       targets[:n0], config.ridge)
    init_s = time.perf_counter() - t0

    calib = ThresholdCalib()
    chunk = config.chunk_size
    n_epochs = math.ceil((n_train - n0) / chunk)
    # whole chunks are announced together, and look_ahead maps each block
    # at once. Its gain solve, P H' and F^-1 P, costs about 1.5 (its rows /
    # n_hidden) of the projection P = H M, which caps a block at n_hidden // 3
    # rows and at least one chunk; blocks of one wide chunk map too few rows
    # per call (at L=300, chunks of 50 and one BLAS thread they streamed 8%
    # slower than blocks of two)
    block_rows = max(1, min(_MAP_ROWS, config.n_hidden // 3) // chunk) * chunk
    t0 = time.perf_counter()
    for block in range(n0, n_train, block_rows):
        X = _normalized(norm_stats, train.X[block:block + block_rows])
        H = look_ahead(state, params, X)
        for start in range(block, min(block + block_rows, n_train), chunk):
            stop = min(start + chunk, n_train)
            rows = slice(start - block, stop - block)
            # one score product per chunk: the calibration and the update
            # share it
            raw = H[rows] @ state.beta
            calibrate_chunk(calib, raw, truth[start:stop])
            update_chunk(state, params, X[rows], targets[start:stop],
                         scores=raw)
    seq_s = time.perf_counter() - t0

    threshold = (0.0 if config.threshold_mode == "zero"
                 else _threshold_value(calib))
    return TrainedModel(params=params, state=state, threshold=threshold,
                        norm_stats=norm_stats, calib=calib, n_epochs=n_epochs,
                        init_s=init_s, seq_s=seq_s)


def _normalized(norm_stats: NormStats | None, X) -> np.ndarray:
    return X if norm_stats is None else _normalize_rows(norm_stats, X)


def predict_sets(params: ElmParams, beta, threshold: float,
                 norm_stats: NormStats | None, bundle: DatasetBundle,
                 min_one: bool = False):
    """Decode one label set per bundle row; returns (label sets, seconds).

    Rows are checked finite, normalized, mapped and decoded one block of
    _MAP_ROWS at a time, and the seconds cover all four. A beta whose label
    count is not the bundle's raises ValueError, and so does a NaN or inf
    feature, naming its bundle row. A bundle with no rows is one empty
    block, so its shapes are still checked.
    """
    if np.shape(beta)[1:] != (bundle.m,):
        raise ValueError(
            f"predict_sets: beta has shape {np.shape(beta)}, but the bundle "
            f"has {bundle.m} labels")
    t0 = time.perf_counter()
    preds = []
    for start in range(0, max(len(bundle.X), 1), _MAP_ROWS):
        rows = bundle.X[start:start + _MAP_ROWS]
        _check_finite("predict_sets", "X", rows, start)
        raw = predict_raw(params, beta, _normalized(norm_stats, rows))
        preds += decode_rows(raw, threshold, min_one)
    elapsed = time.perf_counter() - t0
    return preds, elapsed


def run_stream_split(config: RunConfig, train: DatasetBundle,
                     test: DatasetBundle) -> RunReport:
    """Streaming train on one bundle, threshold-decode and score the other."""
    if train.m != test.m:
        raise ValueError(
            f"train and test label spaces differ: {train.m} vs {test.m}")
    model = train_stream(config, train)
    preds, test_s = predict_sets(model.params, model.state.beta,
                                 model.threshold, model.norm_stats, test,
                                 config.min_one)
    report_metrics = evaluate(preds, test.labelsets, test.m)
    return RunReport(dataset=config.name(), config=config_echo(config),
                     metrics=report_metrics, train_time_s=model.train_s,
                     test_time_s=test_s, n_epochs=model.n_epochs,
                     avg_epoch_s=model.seq_s / model.n_epochs,
                     threshold=model.threshold)


def _cv_folds(n_samples: int, k: int, seed: int) -> list:
    """Shuffle 0..n-1 with the seed and cut into k contiguous index folds."""
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    if k > n_samples:
        raise ValueError(f"k={k} folds exceed dataset size {n_samples}")
    order = _make_rng(seed).permutation(n_samples)
    return np.array_split(order, k)


def run_cv_bundle(config: RunConfig, bundle: DatasetBundle, k: int) -> dict:
    """Seeded k-fold cross-validation of the full streaming pipeline.

    Rows are shuffled once with the config seed and cut into k contiguous
    folds; each fold serves as the test set exactly once, with fold-local
    normalization and threshold calibration. Returns the CV document: each
    fold's metrics with their mean and sample standard deviation.
    """
    folds = _cv_folds(bundle.n_samples, k, config.seed)
    fold_metrics = []
    for i in range(k):
        test_idx = folds[i]
        train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
        report = run_stream_split(config, _take_rows(bundle, train_idx),
                                  _take_rows(bundle, test_idx))
        fold_metrics.append(report.metrics.as_dict())
    values = {key: np.array([m[key] for m in fold_metrics])
              for key in fold_metrics[0]}
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dataset": config.name(),
        "config": config_echo(config),
        "n_folds": k,
        "folds": fold_metrics,
        "mean": {key: float(v.mean()) for key, v in values.items()},
        "std": {key: float(v.std(ddof=1)) for key, v in values.items()},
    }


# ---------------------------------------------------------------------------
# model persistence

def _encode_array(a) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(obj, name: str, shape: tuple) -> np.ndarray:
    """Decode one stored array, which must have exactly the given shape."""
    try:
        stored = tuple(int(s) for s in obj["shape"])
        raw = base64.b64decode(obj["data"], validate=True)
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"model array {name!r} is malformed: {err}") from err
    if stored != shape:
        raise ModelFormatError(
            f"model array {name!r} has shape {list(stored)}, "
            f"expected {list(shape)} from the file header")
    flat = np.frombuffer(raw, dtype="<f8")
    if flat.size != math.prod(shape):
        raise ModelFormatError(
            f"model array {name!r} has {flat.size} values, "
            f"expected {math.prod(shape)}")
    if not np.isfinite(flat).all():
        raise ModelFormatError(f"model array {name!r} has a NaN or inf value")
    a = flat.reshape(shape).astype(np.float64)
    a.setflags(write=False)
    return a


def _header_field(doc: dict, key: str, least=None, number=False):
    # exactly a JSON integer, or a finite number: int() would truncate 5.7,
    # float() would accept "0.5", and both would accept true
    value = doc[key]
    if type(value) is not int and not (number and isinstance(value, float)):
        kind = "a number" if number else "an integer"
        raise ValueError(f"field {key!r} must be {kind}, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"field {key!r} is {value}")
    if least is not None and value < least:
        raise ValueError(f"need {key} >= {least}, got {key}={value}")
    return float(value) if number else value


def _header_fields(doc: dict) -> tuple:
    """The one header rule of save_model and load_model.

    Returns (n_features, n_hidden, n_labels, samples_seen, ridge, threshold,
    seed). A missing field raises KeyError, a bad one ValueError naming it.
    """
    if doc["activation"] != "sigmoid":
        raise ValueError(f"unsupported activation {doc['activation']!r}")
    return (*(_header_field(doc, k, 1)
              for k in ("n_features", "n_hidden", "n_labels")),
            _header_field(doc, "samples_seen", 0),
            _header_field(doc, "ridge", 0, number=True),
            None if doc.get("threshold") is None
            else _header_field(doc, "threshold", number=True),
            None if doc.get("seed") is None else _header_field(doc, "seed"))


def _checksum(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_model(params: ElmParams, state: OselmState, threshold: float | None,
               norm_stats: NormStats | None, path, seed: int | None = None) -> None:
    """Write a versioned, checksummed JSON model file.

    Arrays are stored as base64 little-endian float64 bytes, so a reload
    reproduces the saved predictor bit for bit and can resume streaming.
    A header load_model would refuse raises ValueError naming the field, and
    nothing is written.
    """
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": "streamlabel-model",
        "generator": _GENERATOR_TAG,
        "seed": None if seed is None else int(seed),
        "activation": "sigmoid",
        "n_features": params.n_features,
        "n_hidden": params.n_hidden,
        "n_labels": int(state.beta.shape[1]),
        "samples_seen": state.samples_seen,
        "ridge": state.ridge_used,
        "threshold": None if threshold is None else float(threshold),
    }
    _header_fields(doc)
    doc["arrays"] = {
        "W": _encode_array(params.W),
        "b": _encode_array(params.b),
        "beta": _encode_array(state.beta),
        "M": _encode_array(state.M),
        "norm_min": _encode_array(norm_stats.min_) if norm_stats else None,
        "norm_max": _encode_array(norm_stats.max_) if norm_stats else None,
    }
    doc["checksum"] = _checksum(doc)
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


@dataclass
class LoadedModel:
    """A reconstructed predictor: hidden layer, state, threshold, scaling."""

    params: ElmParams
    state: OselmState
    threshold: float | None
    norm_stats: NormStats | None
    seed: int | None


def load_model(path) -> LoadedModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ModelFormatError(f"cannot read model file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or doc.get("kind") != "streamlabel-model":
        raise ModelFormatError(f"{path} is not a streamlabel model file")
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ModelFormatError(
            f"unsupported model schema version {version!r} "
            f"(this build reads version {MODEL_SCHEMA_VERSION})")
    stored = doc.get("checksum")
    body = {k: v for k, v in doc.items() if k != "checksum"}
    if stored != _checksum(body):
        raise ModelFormatError(f"{path}: checksum mismatch, file is corrupted")

    # the checksum proves only that the body was not edited by accident;
    # the structure is checked field by field before any array is used
    try:
        (n_features, n_hidden, n_labels, samples_seen, ridge, threshold,
         seed) = _header_fields(doc)
    except KeyError as err:
        raise ModelFormatError(f"{path}: missing field {err}") from err
    except ValueError as err:
        raise ModelFormatError(f"{path}: malformed header: {err}") from err
    arrays = doc.get("arrays")
    if not isinstance(arrays, dict):
        raise ModelFormatError(f"{path}: field 'arrays' is not an object")

    W = _decode_array(arrays.get("W"), "W", (n_hidden, n_features))
    b = _decode_array(arrays.get("b"), "b", (n_hidden,))
    beta = _decode_array(arrays.get("beta"), "beta", (n_hidden, n_labels))
    M = _decode_array(arrays.get("M"), "M", (n_hidden, n_hidden))
    params = ElmParams(W=W, b=b)
    try:  # the state's own rule: save_model writes M exactly symmetric
        state = OselmState(beta=beta.copy(), M=M,
                           samples_seen=samples_seen, ridge_used=ridge)
    except ValueError as err:
        raise ModelFormatError(
            f"{path}: model array 'M' is rejected: {err}") from err
    norm_stats = None
    if arrays.get("norm_min") is not None or arrays.get("norm_max") is not None:
        norm_stats = NormStats(
            min_=_decode_array(arrays.get("norm_min"), "norm_min", (n_features,)),
            max_=_decode_array(arrays.get("norm_max"), "norm_max", (n_features,)))
    return LoadedModel(params=params, state=state, threshold=threshold,
                       norm_stats=norm_stats, seed=seed)


# ---------------------------------------------------------------------------
# report emission

def emit_report(report, format: str = "json") -> str:
    """Render a RunReport or a command's plain document (a dict).

    "json" is the document itself, machine-stable. "text" is one aligned
    ``key  value`` line per scalar: a nested object's keys print as
    ``outer.key``, lists are left out and floats take six decimals.
    """
    doc = report if isinstance(report, dict) else report.to_json_dict()
    if format == "json":
        return json.dumps(doc, indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    rows = list(_scalars(doc, ""))
    width = max(len(key) for key, _ in rows) + 2
    return "".join(f"{key:<{width}}{value:.6f}\n" if isinstance(value, float)
                   else f"{key:<{width}}{value}\n" for key, value in rows)


def _scalars(doc: dict, prefix: str):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _scalars(value, f"{prefix}{key}.")
        elif not isinstance(value, list):
            yield prefix + key, value


def load_dataset_defaults(name: str) -> dict:
    """Shipped benchmark defaults (hyperparameters and split) for a dataset."""
    text = resources.files("streamlabel").joinpath(
        "dataset_defaults.json").read_text(encoding="utf-8")
    defaults = json.loads(text)
    if name not in defaults:
        known = ", ".join(sorted(defaults))
        raise ConfigError(f"no shipped defaults for {name!r} (known: {known})")
    return defaults[name]
