import dataclasses
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from streamlabel import (ConfigError, ModelFormatError, NormStats,
                         OselmState, RunConfig, batch_train, decode_rows,
                         emit_report, harness, init_params, hidden_map,
                         init_phase, load_dataset, load_dataset_defaults,
                         load_model, normalize_fit, predict_raw,
                         predict_sets, run_cv_bundle, run_stream_split,
                         save_model, split, train_stream, update_chunk)
from streamlabel.cli import main
from streamlabel.dataio import _normalize_rows

from conftest import golden_run_report, separable_bundle, synthetic_bundle

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"


def _config(**kw):
    base = dict(data_path="inline", label_spec=3, n_hidden=20, seed=0,
                n_init=40, chunk_size=7, dataset_name="synth")
    base.update(kw)
    return RunConfig(**base)


def _write_csv(bundle, path):
    header = list(bundle.feature_names) + list(bundle.label_names)
    lines = [",".join(header)]
    for i in range(bundle.n_samples):
        feats = [repr(float(v)) for v in bundle.X[i]]
        labs = ["1" if j in bundle.labelsets[i] else "0"
                for j in range(bundle.m)]
        lines.append(",".join(feats + labs))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_validate_collects_all_problems():
    with pytest.raises(ConfigError) as excinfo:
        _config(n_hidden=0, chunk_size=-2, threshold_mode="sometimes",
                ridge=-1.0)
    text = str(excinfo.value)
    assert "n_hidden" in text
    assert "chunk_size" in text
    assert "threshold_mode" in text
    assert "ridge" in text
    assert len(excinfo.value.problems) == 4


def test_config_is_frozen_and_checked_on_replace():
    config = _config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.chunk_size = 0
    with pytest.raises(ConfigError, match="chunk_size must be >= 1, got 0"):
        dataclasses.replace(config, chunk_size=0)
    assert config.chunk_size == 7


@pytest.mark.parametrize("key,value", [
    ("n_hidden", True), ("n_hidden", 40.0), ("n_init", "100"),
    ("chunk_size", 2.5), ("n_train", False), ("seed", 1.5), ("seed", None),
    ("min_one", "no"), ("min_one", 1), ("normalize", None),
    ("ridge", math.nan), ("ridge", math.inf), ("ridge", "0.5"),
    ("ridge", True), ("data_format", "xlsx"), ("label_spec", 2.5),
    ("label_spec", 0), ("label_spec", True), ("label_spec", ""),
    ("label_spec", []), ("label_spec", ("a", 2)), ("seed", -1),
])
def test_config_checks_types(key, value):
    # each of these used to build, then fail later or run as something else
    with pytest.raises(ConfigError, match=f"^{key} must be ") as excinfo:
        _config(**{key: value})
    assert len(excinfo.value.problems) == 1


def test_config_accepts_numpy_scalars():
    config = _config(n_hidden=np.int64(20), seed=np.uint32(3),
                     ridge=np.float64(0.5), n_train=np.int32(100))
    assert config.n_hidden == 20 and config.ridge == 0.5
    # stored as plain Python values, and dataclasses.replace keeps them so
    for config in (config, dataclasses.replace(config, n_init=np.int16(30))):
        for key in ("n_hidden", "n_init", "chunk_size", "n_train", "seed"):
            assert type(getattr(config, key)) is int
        assert type(config.ridge) is float
    assert _config(label_spec=("b", "a")).label_spec == ["b", "a"]
    assert type(_config(label_spec=np.uint8(3)).label_spec) is int


def test_numpy_scalar_config_reports_and_saves_as_json(tmp_path):
    train, test = split(synthetic_bundle(260, 6, 3, seed=32), 200)
    config = _config(seed=np.int64(1), n_hidden=np.int32(20),
                     chunk_size=np.uint16(7), n_train=np.int64(200),
                     ridge=np.float32(0.25))
    plain = _config(seed=1, n_hidden=20, chunk_size=7, n_train=200,
                    ridge=float(np.float32(0.25)))
    docs = [json.loads(emit_report(run_stream_split(c, train, test), "json"))
            for c in (config, plain)]
    for doc in docs:
        doc["timing"] = None
    assert docs[0] == docs[1]
    assert docs[0]["config"]["seed"] == 1
    model = train_stream(config, train)
    path, numpy_path = tmp_path / "model.json", tmp_path / "numpy.json"
    save_model(model.params, model.state, model.threshold, model.norm_stats,
               path, seed=config.seed)
    assert load_model(path).seed == 1
    # numpy scalars given to save_model itself are stored as plain numbers
    save_model(model.params, model.state, np.float64(model.threshold),
               model.norm_stats, numpy_path, seed=np.int64(1))
    assert numpy_path.read_bytes() == path.read_bytes()
    save_model(model.params, model.state, np.float32(0.25), model.norm_stats,
               numpy_path, seed=np.uint8(1))
    assert load_model(numpy_path).threshold == 0.25


def test_config_requires_label_spec():
    with pytest.raises(ConfigError) as excinfo:
        _config(label_spec=None)
    assert excinfo.value.problems == ["label_spec is required"]


def test_label_spec_count_may_be_a_numpy_integer():
    train, test = split(synthetic_bundle(260, 6, 3, seed=32), 200)
    docs = [run_stream_split(_config(label_spec=spec), train,
                             test).to_json_dict()
            for spec in (3, np.int64(3))]
    assert type(docs[1]["config"]["label_spec"]) is int
    for doc in docs:
        doc["timing"] = None
    assert json.dumps(docs[0]) == json.dumps(docs[1])


def test_train_rejects_non_finite_ridge(tmp_path, capsys):
    data = tmp_path / "synth.csv"
    _write_csv(synthetic_bundle(120, 6, 3, seed=52), data)
    model_path = tmp_path / "model.json"
    code = main(["train", "--data", str(data), "--format", "csv",
                 "--labels", "3", "--hidden", "10", "--chunk", "5",
                 "--ridge", "nan", "--out", str(model_path)])
    assert code == 2
    assert ("ridge must be a finite number >= 0, got nan"
            in capsys.readouterr().err)
    assert not model_path.exists()


def test_effective_initial_block_is_at_least_hidden_width():
    assert _config(n_hidden=20, n_init=5).n_init_effective == 20
    assert _config(n_hidden=20, n_init=64).n_init_effective == 64


def test_epoch_accounting():
    # 1600 train rows, first 100 solve the init block, chunks of 30
    bundle = synthetic_bundle(1600, 6, 3, seed=30)
    config = _config(n_hidden=25, n_init=100, chunk_size=30)
    model = train_stream(config, bundle)
    assert model.n_epochs == math.ceil((1600 - 100) / 30)
    assert model.n_epochs == 50
    assert model.state.samples_seen == 1600


def test_train_stream_requires_room_after_init_block():
    bundle = synthetic_bundle(40, 6, 3, seed=31)
    with pytest.raises(ConfigError, match="initial block"):
        train_stream(_config(n_hidden=20, n_init=40), bundle)


def test_report_fields_and_determinism_excluding_timing():
    bundle = synthetic_bundle(260, 6, 3, seed=32)
    train, test = split(bundle, 200)
    reports = [run_stream_split(_config(), train, test) for _ in range(2)]
    docs = [r.to_json_dict() for r in reports]
    for doc in docs:
        assert list(doc) == ["schema_version", "dataset", "config", "metrics",
                             "timing", "threshold"]
        assert list(doc["metrics"]) == ["hamming_loss", "accuracy",
                                        "precision", "recall", "f1"]
        assert list(doc["timing"]) == ["train_s", "test_s", "n_epochs",
                                       "avg_epoch_s"]
        doc["timing"] = None  # wall-clock noise is the one allowed difference
    assert json.dumps(docs[0]) == json.dumps(docs[1])


def test_run_stream_split_rejects_label_space_mismatch():
    train = synthetic_bundle(200, 6, 3, seed=33)
    test = synthetic_bundle(60, 6, 2, seed=34)
    with pytest.raises(ValueError,
                       match="^train and test label spaces differ: 3 vs 2$"):
        run_stream_split(_config(), train, test)


def test_timing_sanity():
    bundle = synthetic_bundle(300, 6, 3, seed=33)
    model = train_stream(_config(), bundle)
    assert model.train_s > 0.0
    assert model.seq_s > 0.0
    reconstructed = (model.seq_s / model.n_epochs) * model.n_epochs
    assert abs(reconstructed - model.seq_s) <= 0.2 * model.seq_s


def test_separable_stream_reaches_zero_hamming_loss():
    bundle = separable_bundle(420, seed=3)
    train, test = split(bundle, 320)
    config = RunConfig(data_path="inline", label_spec=3, n_hidden=25, seed=3,
                       n_init=50, chunk_size=5, dataset_name="separable")
    report = run_stream_split(config, train, test)
    assert report.metrics.hamming_loss == 0.0
    assert report.metrics.f1 == 1.0


def test_threshold_modes():
    bundle = synthetic_bundle(260, 6, 3, seed=34)
    train, test = split(bundle, 200)
    zero = run_stream_split(_config(threshold_mode="zero"), train, test)
    assert zero.threshold == 0.0
    calibrated = train_stream(_config(), train)
    expected = (calibrated.calib.min_pos + calibrated.calib.max_neg) / 2.0
    assert calibrated.threshold == expected


def test_stream_command_matches_split_and_run_stream_split(tmp_path, capsys):
    bundle = synthetic_bundle(260, 6, 3, seed=35)
    path = tmp_path / "synth.csv"
    _write_csv(bundle, path)
    assert main(["stream", "--data", str(path), "--format", "csv",
                 "--labels", "3", "--n-train", "200", "--hidden", "20",
                 "--init", "40", "--chunk", "7", "--seed", "0"]) == 0
    a = json.loads(capsys.readouterr().out)
    # the file round trip must not change the result
    config = _config(data_path=str(path), data_format="csv", n_train=200)
    train, test = split(load_dataset(path, "csv", 3), 200)
    b = run_stream_split(config, train, test).to_json_dict()
    a["timing"] = b["timing"] = None
    a["dataset"] = b["dataset"] = "x"
    assert json.dumps(a) == json.dumps(b)


def test_cv_folds_partition():
    folds = harness._cv_folds(10, 5, seed=4)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]
    merged = np.sort(np.concatenate(folds))
    assert np.array_equal(merged, np.arange(10))


def test_cv_folds_validation():
    with pytest.raises(ValueError):
        harness._cv_folds(10, 1, seed=0)
    with pytest.raises(ValueError):
        harness._cv_folds(5, 6, seed=0)


def test_cv_bundle_deterministic_and_aggregated():
    bundle = synthetic_bundle(160, 6, 3, seed=36)
    config = _config(n_hidden=12, n_init=24, chunk_size=5)
    a = run_cv_bundle(config, bundle, 4)
    b = run_cv_bundle(config, bundle, 4)
    assert json.dumps(a) == json.dumps(b)
    assert list(a) == ["schema_version", "dataset", "config", "n_folds",
                       "folds", "mean", "std"]
    assert a["n_folds"] == 4
    assert len(a["folds"]) == 4
    keys = ["hamming_loss", "accuracy", "precision", "recall", "f1"]
    assert all(list(fold) == keys for fold in a["folds"])
    assert list(a["mean"]) == list(a["std"]) == keys
    hl = [fold["hamming_loss"] for fold in a["folds"]]
    assert a["mean"]["hamming_loss"] == pytest.approx(np.mean(hl))
    assert a["std"]["hamming_loss"] == pytest.approx(np.std(hl, ddof=1))


def test_model_round_trip_predictions(tmp_path):
    bundle = synthetic_bundle(200, 6, 3, seed=37)
    config = _config()
    model = train_stream(config, bundle)
    path = tmp_path / "model.json"
    save_model(model.params, model.state, model.threshold, model.norm_stats,
               path, seed=config.seed)
    loaded = load_model(path)
    probe = synthetic_bundle(50, 6, 3, seed=38)
    want, _ = predict_sets(model.params, model.state.beta, model.threshold,
                           model.norm_stats, probe)
    got, _ = predict_sets(loaded.params, loaded.state.beta, loaded.threshold,
                          loaded.norm_stats, probe)
    assert want == got
    raw_want = predict_raw(model.params, model.state.beta, probe.X)
    raw_got = predict_raw(loaded.params, loaded.state.beta, probe.X)
    assert np.array_equal(raw_want, raw_got)
    assert loaded.seed == config.seed
    assert loaded.state.samples_seen == model.state.samples_seen
    assert np.array_equal(loaded.norm_stats.min_, model.norm_stats.min_)


def test_unnormalized_model_round_trip(tmp_path):
    # normalize=False end to end: raw features are mapped in training, the
    # file stores no scaling, and the reloaded model predicts the same sets
    bundle = synthetic_bundle(200, 6, 3, seed=37)
    model = train_stream(_config(normalize=False), bundle)
    assert model.norm_stats is None
    scaled = train_stream(_config(), bundle)
    assert not np.array_equal(model.state.beta, scaled.state.beta)
    path = tmp_path / "model.json"
    save_model(model.params, model.state, model.threshold, None, path)
    loaded = load_model(path)
    assert loaded.norm_stats is None
    probe = synthetic_bundle(50, 6, 3, seed=38)
    want = decode_rows(predict_raw(model.params, model.state.beta, probe.X),
                       model.threshold)
    got, _ = predict_sets(loaded.params, loaded.state.beta, loaded.threshold,
                          loaded.norm_stats, probe)
    assert got == want


def test_saved_m_is_symmetric_and_resumes_like_streaming(tmp_path):
    # n_hidden 70 crosses the 64-row block of the triangle copy
    bundle = synthetic_bundle(300, 6, 3, seed=39)
    model = train_stream(_config(n_hidden=70, n_init=100, chunk_size=9),
                         bundle)
    path = tmp_path / "model.json"
    save_model(model.params, model.state, model.threshold, model.norm_stats,
               path)
    loaded = load_model(path)
    assert np.array_equal(loaded.state.M, loaded.state.M.T)
    rng = np.random.default_rng(40)
    X = rng.uniform(0.0, 1.0, size=(60, 6))
    Y = np.where(rng.random((60, 3)) < 0.3, 1.0, -1.0)
    for start in range(0, 60, 9):
        for state in (model.state, loaded.state):
            update_chunk(state, model.params, X[start:start + 9],
                         Y[start:start + 9])
    assert np.max(np.abs(loaded.state.beta - model.state.beta)) <= 1e-12
    assert np.max(np.abs(loaded.state.M - model.state.M)) <= 1e-12


def test_model_version_tamper_detected(tmp_path):
    params = init_params(4, 6, seed=1)
    rng = np.random.default_rng(2)
    state = init_phase(params, rng.uniform(size=(12, 4)),
                       np.where(rng.integers(0, 2, (12, 2)) == 1, 1.0, -1.0))
    path = tmp_path / "model.json"
    save_model(params, state, 0.0, None, path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_model_corruption_detected(tmp_path):
    params = init_params(4, 6, seed=3)
    rng = np.random.default_rng(4)
    state = init_phase(params, rng.uniform(size=(12, 4)),
                       np.where(rng.integers(0, 2, (12, 2)) == 1, 1.0, -1.0))
    path = tmp_path / "model.json"
    save_model(params, state, 0.125, None, path)
    doc = json.loads(path.read_text())
    doc["threshold"] = 0.5  # silent edit must not go unnoticed
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_model_rejects_non_model_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": "world"}')
    with pytest.raises(ModelFormatError):
        load_model(path)
    path.write_text("not json at all")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model(path)


def test_model_missing_file_is_a_model_error(tmp_path):
    with pytest.raises(ModelFormatError, match="^cannot read model file "):
        load_model(tmp_path / "absent.json")


def _set_array(name, a):
    def edit(doc):
        doc["arrays"][name] = harness._encode_array(a)
    return edit


def _set_field(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _bump_m(doc):
    # a stored M that is not exactly symmetric, which save_model never writes
    M = harness._decode_array(doc["arrays"]["M"], "M", (6, 6)).copy()
    M[0, 1] += 1.0
    doc["arrays"]["M"] = harness._encode_array(M)


def _set_b_shape(doc):
    # 20 values, so only the negative shape itself is wrong
    doc["arrays"]["b"] = dict(harness._encode_array(np.zeros(20)),
                              shape=[-1, -20])


@pytest.mark.parametrize("edit,match", [
    (lambda doc: doc.pop("arrays"), None),
    (lambda doc: doc.pop("n_hidden"), None),
    (lambda doc: doc["arrays"].pop("M"), None),
    (_set_field("activation", "tanh"), None),
    (_set_field("n_labels", 3), None),
    (_set_field("n_features", 0), None),
    (_set_array("W", np.zeros((6, 5))), None),
    (_set_array("beta", np.zeros((5, 2))), None),
    (_set_array("M", np.zeros((6, 5))), None),
    (_set_array("norm_min", np.zeros(3)), None),
    (_set_array("norm_max", np.zeros(5)), None),
    (_set_b_shape, None),
    (lambda doc: doc["arrays"].update(norm_max=None), None),
    (_set_array("W", np.full((6, 4), np.nan)), "'W'"),
    (_set_array("b", np.full(6, np.inf)), "'b'"),
    (_set_array("beta", np.full((6, 2), np.nan)), "'beta'"),
    (_set_array("M", np.full((6, 6), -np.inf)), "'M'"),
    (_bump_m, "model array 'M' is rejected: OselmState: M is not exactly "
              "symmetric$"),
    (_set_array("norm_min", np.full(4, np.nan)), "'norm_min'"),
    (_set_array("norm_max", np.full(4, np.inf)), "'norm_max'"),
    (_set_field("threshold", math.nan), "'threshold'"),
    (_set_field("threshold", -math.inf), "'threshold'"),
    (_set_field("ridge", math.nan), "'ridge'"),
    (_set_field("ridge", math.inf), "'ridge'"),
    (_set_field("samples_seen", -5), "samples_seen=-5"),
    (_set_field("ridge", -1.0), "ridge=-1.0"),
    (_set_field("samples_seen", True), "'samples_seen' must be an integer"),
    (_set_field("n_hidden", 5.7), "'n_hidden' must be an integer"),
    (_set_field("n_hidden", 6.0), "'n_hidden' must be an integer"),
    (_set_field("seed", "7"), "'seed' must be an integer"),
    (_set_field("seed", -3), "need seed >= 0, got seed=-3$"),
    (_set_field("threshold", True), "'threshold' must be a number"),
    (_set_field("threshold", "0.25"), "'threshold' must be a number"),
    (_set_field("ridge", "0.5"), "'ridge' must be a number"),
    (_set_field("ridge", False), "'ridge' must be a number"),
    (_set_field("arrays", [1, 2]), "field 'arrays' is not an object"),
    (lambda doc: doc["arrays"]["b"].update(
        data=harness._encode_array(np.zeros(5))["data"]),
     "'b' has 5 values, expected 6"),
], ids=["no-arrays", "no-n_hidden", "no-M", "activation", "n_labels",
        "zero-features", "W-width", "beta-short", "M-width", "norm_min-short",
        "norm_max-long", "b-negative-shape", "norm_max-missing", "W-nan",
        "b-inf", "beta-nan", "M-inf", "M-asymmetric", "norm_min-nan",
        "norm_max-inf", "threshold-nan", "threshold-inf", "ridge-nan",
        "ridge-inf", "samples_seen-negative", "ridge-negative",
        "samples_seen-bool",
        "n_hidden-fraction", "n_hidden-float", "seed-string", "seed-negative",
        "threshold-bool", "threshold-string", "ridge-string", "ridge-bool",
        "arrays-list", "b-short-data"])
def test_model_structure_checked_behind_valid_checksum(tmp_path, edit, match):
    # the checksum can be recomputed by anyone, so each structural fault
    # must still be a ModelFormatError when the checksum matches
    params = init_params(4, 6, seed=7)
    rng = np.random.default_rng(8)
    state = init_phase(params, rng.uniform(size=(12, 4)),
                       np.where(rng.integers(0, 2, (12, 2)) == 1, 1.0, -1.0))
    path = tmp_path / "model.json"
    save_model(params, state, 0.0, NormStats(np.zeros(4), np.ones(4)), path)
    doc = json.loads(path.read_text())
    del doc["checksum"]
    edit(doc)
    doc["checksum"] = harness._checksum(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=match):
        load_model(path)


@pytest.mark.parametrize("threshold,state_field,value,match", [
    (math.nan, None, None, "^field 'threshold' is nan$"),
    (math.inf, None, None, "^field 'threshold' is inf$"),
    (0.0, "ridge_used", math.nan, "^field 'ridge' is nan$"),
    (0.0, "ridge_used", -math.inf, "^field 'ridge' is -inf$"),
    (0.0, "samples_seen", 12.0,
     "^field 'samples_seen' must be an integer, got 12.0$"),
    (0.0, "samples_seen", np.int64(12),
     "^field 'samples_seen' must be an integer, got "),
    (0.0, "beta", np.zeros((6, 0)), "^need n_labels >= 1, got n_labels=0$"),
], ids=["threshold-nan", "threshold-inf", "ridge-nan", "ridge-inf",
        "samples_seen-float", "samples_seen-numpy", "no-labels"])
def test_save_model_refuses_a_header_load_model_refuses(
        tmp_path, threshold, state_field, value, match):
    params = init_params(4, 6, seed=7)
    rng = np.random.default_rng(8)
    state = init_phase(params, rng.uniform(size=(12, 4)),
                       np.where(rng.integers(0, 2, (12, 2)) == 1, 1.0, -1.0))
    if state_field is not None:
        setattr(state, state_field, value)
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match=match):
        save_model(params, state, threshold, None, path)
    assert not path.exists()


def _nan_beta(params, state, norm):
    beta = state.beta.copy()
    beta[2, 1] = np.nan
    return params, OselmState(beta, state.M.copy(), state.samples_seen,
                              state.ridge_used), norm


@pytest.mark.parametrize("edit,match", [
    (lambda params, state, norm: (
        params, state, NormStats(np.zeros(4), np.ones(4))),
     "'norm_min' has shape [4], expected [5]"),
    (lambda params, state, norm: (init_params(5, 12, seed=1), state, norm),
     "'beta' has shape [10, 3], expected [12, 3]"),
    (_nan_beta, "'beta' has a NaN or inf value"),
], ids=["norm-width", "params-width", "beta-nan"])
def test_save_model_refuses_an_array_load_model_refuses(tmp_path, edit, match):
    # each of these was written, and load_model refused the file
    params = init_params(5, 10, seed=7)
    rng = np.random.default_rng(8)
    state = init_phase(params, rng.uniform(size=(20, 5)),
                       np.where(rng.integers(0, 2, (20, 3)) == 1, 1.0, -1.0))
    norm = NormStats(np.zeros(5), np.ones(5))
    edited_params, edited_state, edited_norm = edit(params, state, norm)
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match=re.escape(match)):
        save_model(edited_params, edited_state, 0.0, edited_norm, path)
    assert not path.exists()
    save_model(params, state, 0.0, norm, path)  # the unedited model saves
    assert load_model(path).norm_stats is not None


def test_save_model_refuses_a_negative_seed(tmp_path):
    # it used to write the file, which loaded back with seed -3
    params = init_params(4, 6, seed=7)
    rng = np.random.default_rng(8)
    state = init_phase(params, rng.uniform(size=(12, 4)),
                       np.where(rng.integers(0, 2, (12, 2)) == 1, 1.0, -1.0))
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="^need seed >= 0, got seed=-3$"):
        save_model(params, state, 0.0, None, path, seed=-3)
    assert not path.exists()
    save_model(params, state, 0.0, None, path, seed=0)
    assert load_model(path).seed == 0


def test_resume_streaming_matches_never_saved(tmp_path):
    rng = np.random.default_rng(40)
    X = rng.uniform(size=(220, 6))
    Y = np.where(rng.integers(0, 2, (220, 3)) == 1, 1.0, -1.0)
    params = init_params(6, 15, seed=5)

    straight = init_phase(params, X[:40], Y[:40])
    for start in range(40, 220, 10):
        update_chunk(straight, params, X[start:start + 10], Y[start:start + 10])

    resumed = init_phase(params, X[:40], Y[:40])
    for start in range(40, 120, 10):
        update_chunk(resumed, params, X[start:start + 10], Y[start:start + 10])
    path = tmp_path / "mid.json"
    save_model(params, resumed, None, None, path, seed=5)
    loaded = load_model(path)
    state = loaded.state
    for start in range(120, 220, 10):
        update_chunk(state, loaded.params, X[start:start + 10],
                     Y[start:start + 10])

    assert np.max(np.abs(state.beta - straight.beta)) <= 1e-12
    assert state.samples_seen == straight.samples_seen == 220


def test_emit_report_golden_bytes():
    report = golden_run_report()
    assert emit_report(report, "json") == GOLDEN.read_text(encoding="utf-8")


def test_emit_report_json_parses_back():
    report = golden_run_report()
    doc = json.loads(emit_report(report, "json"))
    assert doc["schema_version"] == 1
    assert doc["metrics"]["f1"] == report.metrics.f1
    assert doc["timing"]["n_epochs"] == report.n_epochs
    assert doc["threshold"] == report.threshold
    assert doc["config"]["n_hidden"] == 24


def test_emit_report_text_contents():
    lines = emit_report(golden_run_report(), "text").splitlines()
    # the key column is the longest key, config.n_init_effective, plus two
    for line in ("schema_version           1",
                 "dataset                  example",
                 "config.label_spec        4",
                 "config.ridge             0.000000",
                 "config.min_one           False",
                 "metrics.hamming_loss     0.125000",
                 "metrics.f1               0.812500",
                 "timing.train_s           0.031250",
                 "timing.n_epochs          16",
                 "threshold                0.250000"):
        assert line in lines
    assert len(lines) == 25


def test_emit_report_text_for_cv():
    bundle = synthetic_bundle(120, 6, 3, seed=41)
    config = _config(n_hidden=10, n_init=20, chunk_size=5)
    report = run_cv_bundle(config, bundle, 3)
    text = emit_report(report, "text")
    assert "\nn_folds                  3\n" in text
    assert f"\nstd.f1                   {report['std']['f1']:.6f}\n" in text
    assert "folds" not in text.replace("n_folds", "")


def test_emit_report_renders_a_plain_document():
    doc = {"name": "x", "outer": {"ratio": 0.5, "items": [1, 2], "n": 3},
           "flag": True, "missing": None}
    assert emit_report(doc, "json") == json.dumps(doc, indent=2) + "\n"
    assert emit_report(doc, "text") == ("name         x\n"
                                        "outer.ratio  0.500000\n"
                                        "outer.n      3\n"
                                        "flag         True\n"
                                        "missing      None\n")


def test_emit_report_unknown_format():
    with pytest.raises(ValueError):
        emit_report(golden_run_report(), "yaml")


def test_dataset_defaults_shipped():
    yeast = load_dataset_defaults("yeast")
    assert yeast["label_spec"] == 14
    assert yeast["n_train"] == 1600
    # an unknown name lists every shipped one
    with pytest.raises(ConfigError,
                       match="known: corel5k, enron, medical, scene, yeast"):
        load_dataset_defaults("mystery")


def test_train_stream_maps_each_streamed_row_once(monkeypatch):
    import streamlabel.elm as elm
    import streamlabel.harness as harness
    import streamlabel.online as online
    real = elm.hidden_map
    rows = []

    def counting(params, X):
        rows.append(len(X))
        return real(params, X)

    for module in (elm, online):
        monkeypatch.setattr(module, "hidden_map", counting)
    bundle = synthetic_bundle(400, 6, 3, seed=36)
    train_stream(_config(n_hidden=25, n_init=100, chunk_size=30), bundle)
    assert rows[0] == 100  # the initial block
    assert sum(rows[1:]) == 400 - 100


def test_train_stream_calls_update_chunk_once_per_epoch(monkeypatch):
    import streamlabel.harness as harness
    real = harness.update_chunk
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "update_chunk", counting)
    bundle = synthetic_bundle(400, 6, 3, seed=37)
    model = train_stream(_config(n_hidden=25, n_init=100, chunk_size=30),
                         bundle)
    assert len(calls) == model.n_epochs == math.ceil((400 - 100) / 30)
    for args in calls:
        assert len(args) == 4  # (state, params, Xc, Yc), all positional
        assert args[0] is model.state
        assert args[1] is model.params
        assert args[2].shape[0] == args[3].shape[0]
    assert sum(args[2].shape[0] for args in calls) == 400 - 100


@pytest.mark.parametrize("chunk", [1, 7, 256, 300])
def test_train_stream_maps_whole_chunks_in_blocks(monkeypatch, chunk):
    import streamlabel.harness as harness
    real_announce, real_update = harness.look_ahead, harness.update_chunk
    announced, updated = [], []

    def counting_announce(state, params, X):
        announced.append(X)
        return real_announce(state, params, X)

    def counting_update(*args, **kwargs):
        updated.append(args[2])
        return real_update(*args, **kwargs)

    monkeypatch.setattr(harness, "look_ahead", counting_announce)
    monkeypatch.setattr(harness, "update_chunk", counting_update)
    bundle = synthetic_bundle(1000, 6, 3, seed=41)
    config = _config(n_hidden=20, n_init=100, chunk_size=chunk)
    model = train_stream(config, bundle)

    # every streamed row is announced once, in order
    assert np.array_equal(np.concatenate(announced), np.concatenate(updated))
    assert sum(len(X) for X in announced) == 1000 - 100
    block_rows = max(1, min(harness._MAP_ROWS, 20 // 3) // chunk) * chunk
    assert len(announced) == math.ceil((1000 - 100) / block_rows)
    # every announced block starts and ends on a chunk boundary
    chunk_ends = set(np.cumsum([len(X) for X in updated]).tolist())
    block_ends = set(np.cumsum([len(X) for X in announced]).tolist())
    assert block_ends <= chunk_ends

    # the same stream, one hidden map per chunk
    X = _normalize_rows(normalize_fit(bundle), bundle.X)
    targets = np.where(harness.label_matrix(bundle.labelsets, bundle.m),
                       1.0, -1.0)
    params = init_params(6, 20, config.seed)
    state = init_phase(params, X[:100], targets[:100])
    for start in range(100, 1000, chunk):
        real_update(state, params, X[start:start + chunk],
                    targets[start:start + chunk])
    rel = (np.linalg.norm(model.state.beta - state.beta)
           / np.linalg.norm(state.beta))
    assert rel <= 1e-9


def test_train_stream_look_ahead_matches_per_chunk_loop(monkeypatch):
    import streamlabel.harness as harness
    real_calibrate = harness.calibrate_chunk
    streamed = []

    def recording(calib, raw, truth):
        streamed.append(raw.copy())
        return real_calibrate(calib, raw, truth)

    monkeypatch.setattr(harness, "calibrate_chunk", recording)
    # 30 features keep H'H well conditioned, so the two orders of arithmetic
    # agree to rounding (with 6 they differ at eps * cond(H'H), about 1e-6,
    # which the accuracy test in test_online.py measures against lstsq)
    bundle = synthetic_bundle(700, 30, 4, seed=43)
    # each mapped block of 24 rows (n_hidden // 3), six chunks, is one
    # look-ahead
    config = _config(n_hidden=80, n_init=100, chunk_size=4, label_spec=4)
    model = train_stream(config, bundle)

    # the same stream with no announcements: one look-ahead per chunk
    X = _normalize_rows(normalize_fit(bundle), bundle.X)
    truth = harness.label_matrix(bundle.labelsets, bundle.m)
    targets = np.where(truth, 1.0, -1.0)
    params = init_params(30, 80, config.seed)
    state = init_phase(params, X[:100], targets[:100])
    calib = harness.ThresholdCalib()
    starts = range(100, 700, 4)
    assert len(streamed) == len(starts)
    for raw_streamed, start in zip(streamed, starts):
        Xc = X[start:start + 4]
        raw = hidden_map(params, Xc) @ state.beta
        assert (np.linalg.norm(raw_streamed - raw)
                <= 1e-10 * np.linalg.norm(raw))
        real_calibrate(calib, raw, truth[start:start + 4])
        update_chunk(state, params, Xc, targets[start:start + 4],
                     scores=raw)

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    assert rel(model.state.beta, state.beta) <= 1e-10
    assert rel(model.state.M, state.M) <= 1e-10
    for got, want in ((model.calib.min_pos, calib.min_pos),
                      (model.calib.max_neg, calib.max_neg)):
        assert abs(got - want) <= 1e-10 * abs(want)
    assert model.state.samples_seen == state.samples_seen


def test_train_stream_sweeps_m_once_per_block(monkeypatch):
    import streamlabel.elm as elm
    import streamlabel.online as online
    real_blas = online.blas
    real_announce = online._announce
    projections = []  # (caller, rows) of each look-ahead: one H M product
    folds = []  # the function each dsyrk call ran under
    active = ["other"]

    class CountingBlas:
        def __getattr__(self, name):
            fn = getattr(real_blas, name)
            if name != "dsyrk":
                return fn

            def counted(*args, **kwargs):
                folds.append(active[-1])
                return fn(*args, **kwargs)
            return counted

    def tagged(tag, fn):
        def wrapper(*args, **kwargs):
            active.append(tag)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    def announce(state, X, H):
        projections.append((active[-1], len(H)))
        return real_announce(state, X, H)

    monkeypatch.setattr(online, "blas", CountingBlas())
    monkeypatch.setattr(elm, "blas", CountingBlas())
    monkeypatch.setattr(online, "_announce", announce)
    # train_stream announces; update_chunk re-projects when the staleness
    # guard fires, or when its rows were not announced
    monkeypatch.setattr(harness, "look_ahead",
                        tagged("train_stream", harness.look_ahead))
    monkeypatch.setattr(harness, "update_chunk",
                        tagged("update_chunk", harness.update_chunk))
    # the stream-wide shape, scaled down: L = 400, chunks of 20, ridge 1e-6
    bundle = synthetic_bundle(1500, 30, 6, seed=44)
    config = _config(n_hidden=400, n_init=500, chunk_size=20, ridge=1e-6,
                     label_spec=6)
    model = train_stream(config, bundle)

    # each map block of 120 rows (six chunks, at most n_hidden // 3) is
    # announced whole, and the last block is what is left
    announced = [rows for tag, rows in projections if tag == "train_stream"]
    assert announced == [120] * 8 + [40]
    assert model.n_epochs == 50
    # update_chunk re-projects rarely, not once per chunk (here the
    # staleness guard fires once)
    assert len(projections) - len(announced) <= len(announced) // 2
    # init_phase builds the Gram matrix with one dsyrk per block of
    # _MAP_ROWS = 256 initial rows, two for these 500; every later
    # look-ahead folds the chunks applied since the one before, and no
    # fold runs in update_chunk outside a look-ahead
    assert folds[:2] == ["other"] * 2
    assert sorted(folds[2:]) == sorted(tag for tag, _ in projections[1:])


def test_train_stream_factors_each_gain_once_per_block(monkeypatch):
    # the design: look_ahead factors a block's gain once and folds the block
    # before it; an announced update_chunk only steps beta
    import streamlabel.online as online
    events = []

    def logged(tag, fn):
        def wrapper(*args, **kwargs):
            events.append(tag)
            return fn(*args, **kwargs)
        return wrapper

    def bracketed(fn):
        def update_chunk(*args, **kwargs):
            events.append("(")
            try:
                return fn(*args, **kwargs)
            finally:
                events.append(")")
        return update_chunk

    monkeypatch.setattr(online, "_cholesky",
                        logged("factor", online._cholesky))
    monkeypatch.setattr(online.blas, "dsyrk",
                        logged("fold", online.blas.dsyrk))
    monkeypatch.setattr(harness, "look_ahead",
                        logged("announce", harness.look_ahead))
    monkeypatch.setattr(harness, "update_chunk",
                        bracketed(harness.update_chunk))
    # 300 initial rows keep M well conditioned, so no block's rows take half
    # its trace and the staleness guard never fires: 20 blocks of 24 rows,
    # six chunks each
    bundle = synthetic_bundle(780, 30, 4, seed=45)
    config = _config(n_hidden=80, n_init=300, chunk_size=4, label_spec=4)
    model = train_stream(config, bundle)

    assert model.n_epochs == 120
    # init_phase's Gram matrix, one dsyrk per block of 256 initial rows
    assert events[:2] == ["fold"] * 2
    block = ["(", ")"] * 6
    assert events[2:] == (["announce", "factor"] + block
                          + (["announce", "fold", "factor"] + block) * 19)


def test_factored_matrices_are_f_ordered_and_never_symmetrized(monkeypatch):
    # the factor reads the lower triangle of an F-ordered matrix, so nothing
    # is made symmetric for it: both solves' Gram matrices keep a zero upper
    # triangle, and the gain of announced and unannounced chunks is factored
    # as formed, with its rounding-level asymmetry
    import streamlabel.elm as elm
    import streamlabel.online as online
    real, factored = online._cholesky, []

    def checked(A, who, singular):
        assert A.flags.f_contiguous, who
        factored.append((who, A.copy()))
        return real(A, who, singular)

    monkeypatch.setattr(elm, "_cholesky", checked)
    monkeypatch.setattr(online, "_cholesky", checked)
    bundle = synthetic_bundle(300, 6, 3, seed=52)
    model = train_stream(_config(), bundle)
    X = _normalize_rows(model.norm_stats, bundle.X)
    Y = np.where(harness.label_matrix(bundle.labelsets, 3), 1.0, -1.0)
    batch_train(model.params, X, Y)
    # rows that were never announced: update_chunk announces them itself
    update_chunk(model.state, model.params, X[:5], Y[:5])
    who = [w for w, _ in factored]
    assert who[0] == "init_phase"
    assert set(who[1:-2]) == {"look_ahead"}
    assert who[-2:] == ["batch_train", "look_ahead"]
    for (_, A), rows in zip((factored[0], factored[-2]), (X[:40], X)):
        H = hidden_map(model.params, rows)
        assert not np.triu(A, 1).any()
        assert np.allclose(np.tril(A), np.tril(H.T @ H), rtol=0,
                           atol=1e-12 * np.abs(A).max())
    gains = [A for w, A in factored if w == "look_ahead"]
    assert not all(np.array_equal(A, A.T) for A in gains)
    for A in gains:
        assert np.allclose(A, A.T, rtol=0, atol=1e-10 * np.abs(A).max())


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("row", [70, 300])
def test_train_stream_names_a_non_finite_row_by_its_bundle_row(normalize,
                                                                row):
    # with n_init 30 and chunks of 7, row 70 was named look_ahead's row 5
    # unnormalized; normalized, its NaN poisoned the fitted min and max and
    # the initial solve reported a NaN matrix. Row 300 lies in the second
    # block of 256
    bundle = synthetic_bundle(400, 6, 3, seed=53)
    X = bundle.X.copy()
    X[row, 2] = np.nan
    bad = dataclasses.replace(bundle, X=X)
    config = _config(n_hidden=8, n_init=30, normalize=normalize)
    with pytest.raises(ValueError,
                       match=f"^train_stream: X row {row} is not finite$"):
        train_stream(config, bad)


def test_predict_sets_matches_one_decode_over_all_rows():
    # 600 test rows span several blocks of 256; decoding block by block
    # equals decoding all rows at once
    train = synthetic_bundle(700, 6, 3, seed=46)
    test = synthetic_bundle(600, 6, 3, seed=47)
    config = _config(n_hidden=30, n_init=60, chunk_size=5)
    model = train_stream(config, train)
    stats = model.norm_stats
    beta = model.state.beta
    preds, _ = predict_sets(model.params, beta, model.threshold, stats, test,
                            min_one=True)
    raw = predict_raw(model.params, beta, _normalize_rows(stats, test.X))
    assert preds == decode_rows(raw, model.threshold, min_one=True)


def test_train_and_predict_memory_grows_only_by_outputs():
    # 3000 more training and 3000 more test rows may add their per-row
    # outputs: float targets and scores, bool truth and one predicted label
    # set each (per_row below). With d = n_hidden = 300, a normalized
    # copy of either split (8 * d bytes a row) or an (n, n_hidden) hidden
    # matrix (8 * n_hidden) would add 2400 bytes a row
    m, d = 4, 300
    config = _config(n_hidden=300, n_init=300, chunk_size=10, ridge=1e-6,
                     label_spec=m)
    peaks = []
    for n in (1000, 4000):
        train = synthetic_bundle(n, d, m, seed=48)
        test = synthetic_bundle(n, d, m, seed=49)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            model = train_stream(config, train)
            predict_sets(model.params, model.state.beta, model.threshold,
                         model.norm_stats, test)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_row = 24 * m + sys.getsizeof(set())
    assert peaks[1] - peaks[0] <= 2 * 3000 * per_row


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_predict_sets_rejects_a_non_finite_row_by_its_bundle_row(value):
    # a NaN row scored NaN and decoded, under min_one, as {0}; an inf fed
    # the sigmoid a saturated unit; row 300 lies in the second block of 256
    train = synthetic_bundle(120, 6, 3, seed=50)
    model = train_stream(_config(n_hidden=8, n_init=30), train)
    test = synthetic_bundle(400, 6, 3, seed=51)
    X = test.X.copy()
    X[300, 2] = value
    bad = dataclasses.replace(test, X=X)
    for norm_stats in (model.norm_stats, None):
        with pytest.raises(ValueError,
                           match="^predict_sets: X row 300 is not finite$"):
            predict_sets(model.params, model.state.beta, model.threshold,
                         norm_stats, bad, min_one=True)
    # the same value as a threshold is decode_rows' error
    with pytest.raises(ValueError,
                       match="^decode_rows: threshold must be finite"):
        predict_sets(model.params, model.state.beta, value,
                     model.norm_stats, test, min_one=True)


def test_predict_sets_rejects_a_beta_of_another_label_count():
    # a 3-label beta decoded a 1-label bundle; the mismatch showed only in
    # evaluate, as "label index 2 outside label space of size 1", or never
    model = train_stream(_config(n_hidden=8, n_init=30),
                         synthetic_bundle(120, 6, 3, seed=50))
    test = synthetic_bundle(40, 6, 1, seed=51)
    with pytest.raises(ValueError, match=r"^predict_sets: beta has shape "
                       r"\(8, 3\), but the bundle has 1 labels$"):
        predict_sets(model.params, model.state.beta, model.threshold,
                     model.norm_stats, test)


def test_reloaded_model_predict_sets_match_one_decode(tmp_path):
    # a corel5k-shaped model (499 features, 374 labels, 300 hidden units)
    # saved and loaded back; 256 and 257 rows sit on and just past the
    # edge of one block of predict_sets
    defaults = load_dataset_defaults("corel5k")
    d, m = 499, defaults["label_spec"]
    config = _config(**{k: defaults[k] for k in (
        "label_spec", "n_hidden", "n_init", "chunk_size", "ridge",
        "threshold_mode", "min_one", "normalize")})
    # a threshold near the 98th percentile of the scores keeps the label
    # sets sparse, as corel5k's are
    train = synthetic_bundle(600, d, m, seed=80, threshold=45.0)
    model = train_stream(config, train)
    path = tmp_path / "model.json"
    save_model(model.params, model.state, model.threshold, model.norm_stats,
               path, seed=config.seed)
    loaded = load_model(path)
    for n in (64, 256, 257):
        probe = synthetic_bundle(n, d, m, seed=81 + n)
        got, _ = predict_sets(loaded.params, loaded.state.beta,
                              loaded.threshold, loaded.norm_stats, probe,
                              config.min_one)
        raw = predict_raw(loaded.params, loaded.state.beta,
                          _normalize_rows(loaded.norm_stats, probe.X))
        assert got == decode_rows(raw, loaded.threshold, config.min_one), n
        assert len(got) == n and all(got)
