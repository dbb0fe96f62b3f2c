import json

import numpy as np
import pytest

from streamlabel import (ConfigError, DatasetFormatError, RunConfig, harness,
                         load_dataset, save_model, train_stream)
from streamlabel import cli
from streamlabel.cli import main

from conftest import synthetic_bundle


def _write_csv(bundle, path):
    header = list(bundle.feature_names) + list(bundle.label_names)
    lines = [",".join(header)]
    for i in range(bundle.n_samples):
        feats = [repr(float(v)) for v in bundle.X[i]]
        labs = ["1" if j in bundle.labelsets[i] else "0"
                for j in range(bundle.m)]
        lines.append(",".join(feats + labs))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def synth_csv(tmp_path):
    return _write_csv(synthetic_bundle(260, 6, 3, seed=50),
                      tmp_path / "synth.csv")


RUN_FLAGS = ["--format", "csv", "--labels", "3", "--n-train", "200",
             "--hidden", "20", "--init", "40", "--chunk", "7", "--seed", "1"]


def test_stats_json(synth_csv, capsys):
    code = main(["stats", "--data", synth_csv, "--format", "csv",
                 "--labels", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_samples"] == 260
    assert doc["n_features"] == 6
    assert doc["n_labels"] == 3
    assert 0.0 <= doc["label_density"] <= 1.0


def test_stats_text(synth_csv, capsys):
    code = main(["stats", "--data", synth_csv, "--format", "csv",
                 "--labels", "3", "--text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "label_cardinality" in out


def test_stream_json_report(synth_csv, capsys):
    code = main(["stream", "--data", synth_csv] + RUN_FLAGS)
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert set(doc["metrics"]) == {"hamming_loss", "accuracy", "precision",
                                   "recall", "f1"}
    assert doc["config"]["n_hidden"] == 20
    assert doc["timing"]["n_epochs"] == 23  # ceil((200-40)/7) on this config


def test_stream_writes_out_file(synth_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["stream", "--data", synth_csv, "--out", str(out)] + RUN_FLAGS)
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["dataset"] == "synth"


def test_stream_deterministic_across_invocations(synth_csv, capsys):
    main(["stream", "--data", synth_csv] + RUN_FLAGS)
    first = json.loads(capsys.readouterr().out)
    main(["stream", "--data", synth_csv] + RUN_FLAGS)
    second = json.loads(capsys.readouterr().out)
    first["timing"] = second["timing"] = None
    assert first == second


def test_train_then_eval_matches_stream(synth_csv, tmp_path, capsys):
    main(["stream", "--data", synth_csv] + RUN_FLAGS)
    stream_doc = json.loads(capsys.readouterr().out)

    model_path = tmp_path / "model.json"
    code = main(["train", "--data", synth_csv, "--out", str(model_path)]
                + RUN_FLAGS)
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_samples_trained"] == 200
    assert model_path.exists()

    code = main(["eval", "--model", str(model_path), "--data", synth_csv,
                 "--format", "csv", "--labels", "3", "--skip", "200"])
    assert code == 0
    eval_doc = json.loads(capsys.readouterr().out)
    assert eval_doc["metrics"] == stream_doc["metrics"]
    assert eval_doc["threshold"] == stream_doc["threshold"]


def test_cv_text(synth_csv, capsys):
    code = main(["cv", "--data", synth_csv, "--format", "csv", "--labels", "3",
                 "--hidden", "12", "--init", "24", "--chunk", "5",
                 "--folds", "3", "--seed", "2", "--text"])
    assert code == 0
    out = capsys.readouterr().out
    # the key column is the longest key, config.n_init_effective, plus two
    assert "\nn_folds                  3\n" in out
    assert "\nmean.hamming_loss        0." in out


def test_defaults_merge_with_overrides(synth_csv, capsys):
    # shipped yeast defaults fill the gaps; explicit flags win
    code = main(["stream", "--defaults", "yeast", "--data", synth_csv]
                + RUN_FLAGS)
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dataset"] == "yeast"
    assert doc["config"]["n_hidden"] == 20       # explicit flag
    assert doc["config"]["label_spec"] == 3      # explicit flag
    assert doc["config"]["threshold_mode"] == "calibrated"  # from defaults


def test_every_command_names_its_dataset_as_the_config_does(
        synth_csv, tmp_path, capsys):
    # --defaults names the dataset even when --data names another file
    model = str(tmp_path / "model.json")
    data = ["--defaults", "yeast", "--data", synth_csv, "--format", "csv",
            "--labels", "3"]
    for argv in (["train", "--out", model] + data + RUN_FLAGS,
                 ["stream"] + data + RUN_FLAGS,
                 ["cv", "--folds", "3"] + data + RUN_FLAGS,
                 ["eval", "--model", model, "--skip", "200"] + data,
                 ["stats"] + data):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["dataset"] == "yeast"


@pytest.mark.parametrize("command,keys", [
    ("stream", ("config.n_hidden", "metrics.f1", "timing.train_s")),
    ("cv", ("config.seed", "mean.hamming_loss", "std.f1")),
    ("eval", ("metrics.accuracy", "timing.test_s", "threshold")),
    ("stats", ("n_samples", "label_density")),
])
def test_text_output_is_one_aligned_line_per_scalar(synth_csv, tmp_path,
                                                    capsys, command, keys):
    model = str(tmp_path / "model.json")
    if command == "eval":
        assert main(["train", "--data", synth_csv, "--out", model]
                    + RUN_FLAGS) == 0
    argv = {"stream": ["stream"] + RUN_FLAGS,
            "cv": ["cv", "--folds", "3"] + RUN_FLAGS,
            "eval": ["eval", "--model", model, "--skip", "200", "--format",
                     "csv", "--labels", "3"],
            "stats": ["stats", "--format", "csv", "--labels", "3"]}[command]
    capsys.readouterr()
    assert main(argv + ["--data", synth_csv, "--text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    pairs = dict(line.split(None, 1) for line in lines)
    width = max(len(key) for key in pairs) + 2
    assert all(line[width - 2:width] == "  " and line[width] != " "
               for line in lines)
    for key in keys:
        assert key in pairs
    assert pairs["dataset"] == "synth"


@pytest.mark.parametrize("spec", ["", 2.0, True, [], [1]],
                         ids=["empty-path", "float", "bool", "empty-list",
                              "int-name"])
def test_one_label_spec_rule_for_config_loader_and_cli(
        synth_csv, monkeypatch, capsys, spec):
    with pytest.raises(ConfigError) as excinfo:
        RunConfig(data_path=synth_csv, label_spec=spec)
    [message] = excinfo.value.problems
    assert message == ("label_spec must be a count >= 1, a path or a "
                       f"non-empty list of names, got {spec!r}")
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(synth_csv, "csv", spec)
    assert str(excinfo.value) == message
    # a label_spec reaches the CLI only through shipped defaults
    monkeypatch.setattr(cli, "load_dataset_defaults",
                        lambda name: {"label_spec": spec})
    assert main(["stats", "--defaults", "x", "--data", synth_csv,
                 "--format", "csv"]) == 2
    assert capsys.readouterr().err == f"error[config]: {message}\n"


def test_a_numpy_label_count_reads_the_same_columns_everywhere(
        synth_csv, monkeypatch, capsys):
    want = load_dataset(synth_csv, "csv", 3)
    got = load_dataset(synth_csv, "csv", np.int64(3))
    assert got.label_names == want.label_names == ("L0", "L1", "L2")
    assert RunConfig(data_path=synth_csv, label_spec=np.int64(3)).label_spec == 3
    docs = []
    for spec in (3, np.int64(3)):
        monkeypatch.setattr(cli, "load_dataset_defaults",
                            lambda name, spec=spec: {"label_spec": spec})
        assert main(["stats", "--defaults", "x", "--data", synth_csv,
                     "--format", "csv"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0] == docs[1]
    assert (docs[0]["n_features"], docs[0]["n_labels"]) == (6, 3)



@pytest.mark.parametrize("labels", ["", " "], ids=["empty", "blank"])
def test_blank_labels_flag_is_a_usage_error(synth_csv, capsys, labels):
    # blank names are dropped, so the label_spec rule sees an empty list
    code = main(["stats", "--data", synth_csv, "--format", "csv",
                 "--labels", labels])
    assert code == 2
    assert capsys.readouterr().err == (
        "error[config]: label_spec must be a count >= 1, a path or a "
        "non-empty list of names, got []\n")


@pytest.mark.parametrize("delimiter", ["ab", ""], ids=["two", "none"])
def test_delimiter_must_be_one_character(synth_csv, capsys, delimiter):
    message = f"delimiter must be one character, got {delimiter!r}"
    with pytest.raises(ValueError) as excinfo:
        load_dataset(synth_csv, "csv", 3, delimiter)
    assert str(excinfo.value) == message
    assert not isinstance(excinfo.value, DatasetFormatError)
    code = main(["stats", "--data", synth_csv, "--format", "csv",
                 "--labels", "3", "--delimiter", delimiter])
    assert code == 2
    assert capsys.readouterr().err == f"error[config]: {message}\n"

def test_unknown_defaults_name(capsys):
    code = main(["stream", "--defaults", "mystery"])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_missing_labels_flag(synth_csv, capsys):
    code = main(["stream", "--data", synth_csv, "--format", "csv",
                 "--n-train", "200"])
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_invalid_config_values(synth_csv, capsys):
    code = main(["stream", "--data", synth_csv, "--format", "csv",
                 "--labels", "3", "--n-train", "200", "--hidden", "0",
                 "--chunk", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "n_hidden" in err
    assert "chunk_size" in err


def test_missing_file_is_io_error(capsys):
    code = main(["stats", "--data", "/nonexistent/never.csv",
                 "--format", "csv", "--labels", "3"])
    assert code == 6
    assert "error[io]" in capsys.readouterr().err


def test_malformed_data_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,l1\nnot_a_number,1\n")
    code = main(["stats", "--data", str(path), "--format", "csv",
                 "--labels", "1"])
    assert code == 3
    assert "error[data]" in capsys.readouterr().err


def test_singular_init_is_numeric_error(tmp_path, capsys):
    # constant features make the hidden Gram rank deficient
    lines = ["a,b,l1"] + ["1.0,2.0,1"] * 80
    path = tmp_path / "flat.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["stream", "--data", str(path), "--format", "csv",
                 "--labels", "1", "--n-train", "60", "--hidden", "10",
                 "--init", "20", "--chunk", "5"])
    assert code == 4
    assert "error[numeric]" in capsys.readouterr().err


def test_tampered_model_is_model_error(synth_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["train", "--data", synth_csv, "--out", str(model_path)] + RUN_FLAGS)
    capsys.readouterr()
    doc = json.loads(model_path.read_text())
    doc["schema_version"] = 42
    model_path.write_text(json.dumps(doc))
    code = main(["eval", "--model", str(model_path), "--data", synth_csv,
                 "--format", "csv", "--labels", "3"])
    assert code == 5
    assert "error[model]" in capsys.readouterr().err


def test_eval_text_output(synth_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["train", "--data", synth_csv, "--out", str(model_path)] + RUN_FLAGS)
    capsys.readouterr()
    code = main(["eval", "--model", str(model_path), "--data", synth_csv,
                 "--format", "csv", "--labels", "3", "--skip", "200",
                 "--text"])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("hamming_loss", "f1", "test_s"):
        assert name in out


def test_train_requires_out(synth_csv, capsys):
    code = main(["train", "--data", synth_csv] + RUN_FLAGS)
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_eval_min_one_comes_from_defaults(tmp_path, capsys):
    # Every row carries all three labels and the stored threshold sits above
    # any reachable score, so the prediction is empty unless min_one fires.
    # The medical profile ships min_one=true; no flag is passed here.
    rng = np.random.default_rng(3)
    lines = ["a,b,c,d,l1,l2,l3"]
    for _ in range(80):
        feats = [repr(float(v)) for v in rng.uniform(-1.0, 1.0, size=4)]
        lines.append(",".join(feats) + ",1,1,1")
    data = tmp_path / "allon.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    bundle = load_dataset(str(data), "csv", 3)
    # threshold_mode zero: with no negative labels anywhere the calibrated
    # midpoint is undefined, and the stored threshold is replaced below.
    config = RunConfig(data_path=str(data), label_spec=3, n_hidden=8,
                       n_init=16, chunk_size=4, threshold_mode="zero")
    model = train_stream(config, bundle)
    model_path = tmp_path / "m.json"
    save_model(model.params, model.state, 1e9, model.norm_stats,
               str(model_path), seed=0)

    base = ["eval", "--model", str(model_path), "--data", str(data),
            "--format", "csv", "--labels", "3"]
    assert main(base) == 0
    plain = json.loads(capsys.readouterr().out)
    assert plain["metrics"]["hamming_loss"] == 1.0

    assert main(base + ["--defaults", "medical"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["metrics"]["hamming_loss"] == pytest.approx(2.0 / 3.0)


def test_stream_requires_n_train(synth_csv, capsys):
    code = main(["stream", "--data", synth_csv, "--format", "csv",
                 "--labels", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "n_train" in err


@pytest.mark.parametrize("command", ["eval", "stats"])
def test_seed_flag_only_on_run_commands(synth_csv, tmp_path, capsys, command):
    argv = [command, "--data", synth_csv, "--format", "csv", "--labels", "3",
            "--seed", "1"]
    if command == "eval":
        # never read: argument parsing fails first
        argv += ["--model", str(tmp_path / "model.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_stats_explicit_labels_win_over_defaults(synth_csv, capsys):
    # the medical profile ships 45 labels; the flag asks for 3
    code = main(["stats", "--defaults", "medical", "--data", synth_csv,
                 "--format", "csv", "--labels", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_labels"] == 3
    assert doc["dataset"] == "medical"


def test_eval_rejects_label_space_mismatch(synth_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["train", "--data", synth_csv, "--out", str(model_path)] + RUN_FLAGS)
    capsys.readouterr()
    wide = _write_csv(synthetic_bundle(120, 6, 5, seed=51),
                      tmp_path / "wide.csv")
    code = main(["eval", "--model", str(model_path), "--data", wide,
                 "--format", "csv", "--labels", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "3 labels" in err and "has 5" in err


def test_eval_rejects_model_without_threshold(synth_csv, tmp_path, capsys):
    config = RunConfig(data_path=synth_csv, label_spec=3, n_hidden=20,
                       n_init=40, chunk_size=7)
    model = train_stream(config, load_dataset(synth_csv, "csv", 3))
    model_path = tmp_path / "m.json"
    save_model(model.params, model.state, None, model.norm_stats,
               str(model_path))
    code = main(["eval", "--model", str(model_path), "--data", synth_csv,
                 "--format", "csv", "--labels", "3"])
    assert code == 5
    assert "stores no decoding threshold" in capsys.readouterr().err


@pytest.mark.parametrize("skip", [-1, 260, 300])
def test_eval_rejects_skip_outside_the_rows(synth_csv, tmp_path, capsys,
                                            skip):
    model_path = tmp_path / "model.json"
    main(["train", "--data", synth_csv, "--out", str(model_path)] + RUN_FLAGS)
    capsys.readouterr()
    code = main(["eval", "--model", str(model_path), "--data", synth_csv,
                 "--format", "csv", "--labels", "3", "--skip", str(skip)])
    assert code == 2
    assert (f"--skip must be in (0, 260), got {skip}"
            in capsys.readouterr().err)


def test_no_normalize_flag_trains_and_evals_on_raw_features(
        synth_csv, tmp_path, capsys):
    flags = RUN_FLAGS + ["--no-normalize"]
    main(["stream", "--data", synth_csv] + flags)
    stream_doc = json.loads(capsys.readouterr().out)
    assert stream_doc["config"]["normalize"] is False
    model_path = tmp_path / "model.json"
    assert main(["train", "--data", synth_csv, "--out", str(model_path)]
                + flags) == 0
    capsys.readouterr()
    assert harness.load_model(model_path).norm_stats is None
    code = main(["eval", "--model", str(model_path), "--data", synth_csv,
                 "--format", "csv", "--labels", "3", "--skip", "200"])
    assert code == 0
    eval_doc = json.loads(capsys.readouterr().out)
    assert eval_doc["metrics"] == stream_doc["metrics"]
    assert eval_doc["threshold"] == stream_doc["threshold"]


def test_stream_runs_through_harness_names(synth_csv, monkeypatch, capsys):
    # the benchmark's probes (perfbench/measure.py) wrap these three
    # module attributes; the stream command must reach each through harness
    calls = {"train_stream": 0, "predict_sets": 0, "update_chunk": 0}

    def counting(name):
        inner = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    assert main(["stream", "--data", synth_csv] + RUN_FLAGS) == 0
    doc = json.loads(capsys.readouterr().out)
    assert calls["train_stream"] == 1
    assert calls["predict_sets"] == 1
    assert calls["update_chunk"] == doc["timing"]["n_epochs"]


@pytest.mark.parametrize("form,n_labels", [
    ("L0,L2", 2), ("L1", 1), ("sidecar.txt", 2), ("names", 3),
], ids=["comma-list", "one-name", "txt-path", "bare-path"])
def test_labels_flag_forms(synth_csv, tmp_path, capsys, form, n_labels):
    # a comma list and a single name are names; a .txt/.xml name or one
    # with a directory in it is a sidecar file
    if form in ("sidecar.txt", "names"):
        sidecar = tmp_path / form
        sidecar.write_text("\n".join(["L0", "L1", "L2"][:n_labels]) + "\n",
                           encoding="utf-8")
        form = str(sidecar)
    code = main(["stats", "--data", synth_csv, "--format", "csv",
                 "--labels", form])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_labels"] == n_labels
    assert doc["n_features"] == 9 - n_labels


def test_defaults_find_the_data_file_under_the_working_directory(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["stats", "--defaults", "yeast"])
    assert code == 2
    assert ("error[config]: no dataset file for 'yeast' found under data"
            in capsys.readouterr().err)
    # the yeast profile names 14 trailing label columns
    (tmp_path / "data").mkdir()
    rows = ["0.5,0.25," + ",".join("1" if j == i else "0" for j in range(14))
            for i in range(4)]
    (tmp_path / "data" / "yeast.arff").write_text(
        "@relation yeast\n@attribute a numeric\n@attribute b numeric\n"
        + "".join(f"@attribute l{j} {{0,1}}\n" for j in range(14))
        + "@data\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert main(["stats", "--defaults", "yeast"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dataset"] == "yeast"
    assert (doc["n_samples"], doc["n_features"], doc["n_labels"]) == (4, 2, 14)


def test_data_flag_is_required_without_defaults(capsys):
    code = main(["stats", "--format", "csv", "--labels", "3"])
    assert code == 2
    assert ("error[config]: --data is required (or --defaults NAME)"
            in capsys.readouterr().err)


def test_unexpected_error_exits_1(synth_csv, monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "stats", boom)
    code = main(["stats", "--data", synth_csv, "--format", "csv",
                 "--labels", "3"])
    assert code == 1
    assert capsys.readouterr().err == "error[unexpected]: RuntimeError: boom\n"


def test_stream_report_keys_follow_the_declared_fields(synth_csv, capsys):
    # the config block follows RunConfig's field order, less dataset_name,
    # with n_init_effective after n_init; the metrics follow MetricsReport's
    assert main(["stream", "--data", synth_csv] + RUN_FLAGS) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["config"]) == [
        "data_path", "data_format", "label_spec", "n_train", "n_hidden",
        "seed", "n_init", "n_init_effective", "chunk_size", "ridge",
        "threshold_mode", "min_one", "normalize"]
    assert list(doc["metrics"]) == ["hamming_loss", "accuracy", "precision",
                                    "recall", "f1"]


def test_negative_seed_is_a_named_usage_error(synth_csv, capsys):
    code = main(["stream", "--data", synth_csv] + RUN_FLAGS[:-1] + ["-1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error[config]: seed must be >= 0, got -1\n")
