import json
import math
from pathlib import Path

import numpy as np
import pytest

from streamlabel import (ConfigError, ModelFormatError, NormStats, RunConfig,
                         cv_folds, emit_report, harness, init_params,
                         init_phase, load_dataset,
                         load_dataset_defaults, load_model, predict_raw,
                         predict_sets, run_cv_bundle, run_stream,
                         run_stream_split, save_model, split, train_stream,
                         update_chunk, validate_config)

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
    config = _config(n_hidden=0, chunk_size=-2, threshold_mode="sometimes",
                     ridge=-1.0)
    with pytest.raises(ConfigError) as excinfo:
        validate_config(config)
    text = str(excinfo.value)
    assert "n_hidden" in text
    assert "chunk_size" in text
    assert "threshold_mode" in text
    assert "ridge" in text
    assert len(excinfo.value.problems) == 4


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
    recal = run_stream_split(_config(threshold_mode="recalibrate"), train, test)
    assert np.isfinite(recal.threshold)


def test_run_stream_from_file(tmp_path):
    bundle = synthetic_bundle(260, 6, 3, seed=35)
    path = tmp_path / "synth.csv"
    _write_csv(bundle, path)
    config = _config(data_path=str(path), data_format="csv", n_train=200)
    report = run_stream(config)
    # the file round trip must not change the result
    train, test = split(load_dataset(path, "csv", 3), 200)
    direct = run_stream_split(config, train, test)
    a = report.to_json_dict()
    b = direct.to_json_dict()
    a["timing"] = b["timing"] = None
    a["dataset"] = b["dataset"] = "x"
    assert json.dumps(a) == json.dumps(b)


def test_run_stream_requires_n_train():
    with pytest.raises(ConfigError, match="n_train"):
        run_stream(_config(n_train=None))


def test_cv_folds_partition():
    folds = cv_folds(10, 5, seed=4)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]
    merged = np.sort(np.concatenate(folds))
    assert np.array_equal(merged, np.arange(10))


def test_cv_folds_validation():
    with pytest.raises(ValueError):
        cv_folds(10, 1, seed=0)
    with pytest.raises(ValueError):
        cv_folds(5, 6, seed=0)


def test_cv_bundle_deterministic_and_aggregated():
    bundle = synthetic_bundle(160, 6, 3, seed=36)
    config = _config(n_hidden=12, n_init=24, chunk_size=5)
    a = run_cv_bundle(config, bundle, 4)
    b = run_cv_bundle(config, bundle, 4)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    assert a.n_folds == 4
    assert len(a.folds) == 4
    hl = [m.hamming_loss for m in a.folds]
    assert a.mean["hamming_loss"] == pytest.approx(np.mean(hl))
    assert a.std["hamming_loss"] == pytest.approx(np.std(hl, ddof=1))
    doc = a.to_json_dict()
    assert list(doc) == ["schema_version", "dataset", "config", "n_folds",
                         "folds", "mean", "std"]


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


def _set_array(name, a):
    def edit(doc):
        doc["arrays"][name] = harness._encode_array(a)
    return edit


def _set_field(key, value):
    def edit(doc):
        doc[key] = value
    return edit


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
    (_set_array("norm_min", np.full(4, np.nan)), "'norm_min'"),
    (_set_array("norm_max", np.full(4, np.inf)), "'norm_max'"),
    (_set_field("threshold", math.nan), "'threshold'"),
    (_set_field("threshold", -math.inf), "'threshold'"),
    (_set_field("ridge", math.nan), "'ridge'"),
    (_set_field("ridge", math.inf), "'ridge'"),
], ids=["no-arrays", "no-n_hidden", "no-M", "activation", "n_labels",
        "zero-features", "W-width", "beta-short", "M-width", "norm_min-short",
        "norm_max-long", "b-negative-shape", "norm_max-missing", "W-nan",
        "b-inf", "beta-nan", "M-inf", "norm_min-nan", "norm_max-inf",
        "threshold-nan", "threshold-inf", "ridge-nan", "ridge-inf"])
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
    text = emit_report(golden_run_report(), "text")
    for name in ("hamming_loss", "accuracy", "precision", "recall", "f1",
                 "train_s", "test_s", "n_epochs", "avg_epoch_s", "threshold"):
        assert name in text


def test_emit_report_text_for_cv():
    bundle = synthetic_bundle(120, 6, 3, seed=41)
    config = _config(n_hidden=10, n_init=20, chunk_size=5)
    report = run_cv_bundle(config, bundle, 3)
    text = emit_report(report, "text")
    assert "n_folds" in text
    assert "hamming_loss" in text


def test_emit_report_unknown_format():
    with pytest.raises(ValueError):
        emit_report(golden_run_report(), "yaml")


def test_dataset_defaults_shipped():
    defaults = load_dataset_defaults()
    assert set(defaults) == {"yeast", "scene", "corel5k", "enron", "medical"}
    yeast = load_dataset_defaults("yeast")
    assert yeast["label_spec"] == 14
    assert yeast["n_train"] == 1600
    with pytest.raises(ConfigError, match="known"):
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

    for module in (elm, harness, online):
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
    real_map, real_update = harness.hidden_map, harness.update_chunk
    mapped, updated = [], []

    def counting_map(params, X):
        mapped.append(X)
        return real_map(params, X)

    def counting_update(*args, **kwargs):
        updated.append(args[2])
        return real_update(*args, **kwargs)

    monkeypatch.setattr(harness, "hidden_map", counting_map)
    monkeypatch.setattr(harness, "update_chunk", counting_update)
    bundle = synthetic_bundle(1000, 6, 3, seed=41)
    config = _config(n_hidden=20, n_init=100, chunk_size=chunk)
    model = train_stream(config, bundle)

    # every streamed row is mapped once, in order
    assert np.array_equal(np.concatenate(mapped), np.concatenate(updated))
    assert sum(len(X) for X in mapped) == 1000 - 100
    block_rows = max(1, harness._MAP_ROWS // chunk) * chunk
    assert len(mapped) == math.ceil((1000 - 100) / block_rows)
    # every map call starts and ends on a chunk boundary
    chunk_ends = set(np.cumsum([len(X) for X in updated]).tolist())
    map_ends = set(np.cumsum([len(X) for X in mapped]).tolist())
    assert map_ends <= chunk_ends

    # the same stream, one hidden map per chunk
    norm = harness.normalize_apply(harness.normalize_fit(bundle), bundle)
    targets = np.where(harness.label_matrix(norm.labelsets, norm.m), 1.0, -1.0)
    params = init_params(6, 20, config.seed)
    state = init_phase(params, norm.X[:100], targets[:100])
    for start in range(100, 1000, chunk):
        Xc = norm.X[start:start + chunk]
        real_update(state, params, Xc, targets[start:start + chunk],
                    Hc=real_map(params, Xc))
    rel = (np.linalg.norm(model.state.beta - state.beta)
           / np.linalg.norm(state.beta))
    assert rel <= 1e-9
