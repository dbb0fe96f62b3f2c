"""Command line entry point.

Subcommands:
  stream  train on the first n_train rows, score the rest, print a report
  train   train on a dataset (or its first n_train rows) and save a model
  eval    score a saved model against a dataset
  cv      k-fold cross-validation of the streaming pipeline
  stats   label cardinality / density and dataset shape

Exit codes: 0 success, 2 config or usage, 3 data format, 4 numeric failure,
5 model file, 6 file I/O, 1 anything unexpected. Errors are printed to
stderr as "error[category]: message".
"""

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .dataio import DatasetFormatError, load_dataset, split
from .harness import (REPORT_SCHEMA_VERSION, THRESHOLD_MODES, ConfigError,
                      ModelFormatError, RunConfig, emit_report,
                      load_dataset_defaults, load_model, predict_sets,
                      run_cv_bundle, run_stream_split, save_model,
                      train_stream)
from .labels import dataset_stats
from .metrics import evaluate
from .numerics import SingularMatrixError


def _parse_label_spec(value: str):
    """--labels accepts a count, a sidecar path, or a comma list of names;
    blank names are dropped, so a blank list fails the label_spec rule."""
    if value.isdigit():
        return int(value)
    if "," not in value and (value.endswith((".xml", ".txt"))
                             or os.path.sep in value):
        return value
    return [name.strip() for name in value.split(",") if name.strip()]


def _default_data_path(name: str) -> str:
    """Find data/<name>.arff (or .csv) relative to the working directory."""
    root = Path("data")
    for suffix in (".arff", ".csv"):
        candidate = root / f"{name}{suffix}"
        if candidate.exists():
            return str(candidate)
    raise ConfigError(
        f"no dataset file for {name!r} found under {root}; "
        "pass --data explicitly")


# Each run and data flag but --delimiter and --defaults stores into the
# RunConfig field of its dest; a flag left unset is None (--seed alone
# defaults to 0), so shipped defaults show through.

def _add_data_args(parser):
    parser.add_argument("--data", dest="data_path", help="dataset file path")
    parser.add_argument("--format", dest="data_format", choices=("arff", "csv"),
                        help="dataset file format (default arff)")
    parser.add_argument("--labels", dest="label_spec", type=_parse_label_spec,
                        help="label columns: trailing count, comma-separated "
                             "names, or sidecar .txt/.xml path")
    parser.add_argument("--delimiter", default=",",
                        help="csv field delimiter (default ,)")
    parser.add_argument("--defaults", metavar="NAME",
                        help="start from shipped defaults for a named dataset")


def _add_run_args(parser):
    parser.add_argument("--n-train", dest="n_train", type=int,
                        help="rows in the training split")
    parser.add_argument("--hidden", dest="n_hidden", type=int,
                        help="hidden layer width")
    parser.add_argument("--init", dest="n_init", type=int,
                        help="initial block size (raised to the hidden width)")
    parser.add_argument("--chunk", dest="chunk_size", type=int,
                        help="streaming chunk size")
    parser.add_argument("--ridge", type=float,
                        help="ridge added to the initial Gram matrix")
    parser.add_argument("--threshold-mode", choices=THRESHOLD_MODES,
                        help="how the decoding threshold is chosen")
    parser.add_argument("--no-normalize", dest="normalize",
                        action="store_false", default=None,
                        help="skip min-max feature scaling")
    parser.add_argument("--name", dest="dataset_name",
                        help="dataset name used in reports")
    parser.add_argument("--seed", type=int, default=0, help="run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamlabel",
        description="Online multi-label classification benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, summary in (
            ("stream", "train on a prefix of the data and score the rest"),
            ("train", "train and save a model file"),
            ("eval", "score a saved model"),
            ("cv", "k-fold cross-validation"),
            ("stats", "dataset shape and label statistics"),
    ):
        p = sub.add_parser(command, help=summary)
        _add_data_args(p)
        if command in ("stream", "train", "cv"):
            _add_run_args(p)
        if command != "stats":
            p.add_argument("--min-one", action="store_true", default=None,
                           help="never predict an empty label set")
        if command == "eval":
            p.add_argument("--model", required=True, help="model file to load")
            p.add_argument("--skip", type=int, default=0,
                           help="skip this many leading rows "
                                "(e.g. the training split)")
        if command == "cv":
            p.add_argument("--folds", type=int, default=5, help="fold count")
        p.add_argument("--out", help="write output to this path")
        if command != "train":
            p.add_argument("--text", action="store_true",
                           help="aligned text output instead of JSON")
    return parser


def _build_config(args) -> RunConfig:
    """Merge shipped defaults (lowest) with explicit flags (highest)."""
    merged = {}
    if args.defaults:
        merged.update(load_dataset_defaults(args.defaults))
        merged.setdefault("dataset_name", args.defaults)
    flags = vars(args)
    merged.update({f.name: flags[f.name] for f in fields(RunConfig)
                   if flags.get(f.name) is not None})
    if not merged.get("data_path"):
        if args.defaults:
            merged["data_path"] = _default_data_path(args.defaults)
        else:
            raise ConfigError("--data is required (or --defaults NAME)")
    if "label_spec" not in merged:
        raise ConfigError("--labels is required (or --defaults NAME)")
    return RunConfig(**merged)


def _load(config: RunConfig, args):
    return load_dataset(config.data_path, config.data_format,
                        config.label_spec, args.delimiter)


def _write_report(args, report) -> None:
    """A command's report, as JSON or --text, to --out or else stdout."""
    text = emit_report(report, "text" if args.text else "json")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_report(args) -> None:
    config = _build_config(args)
    if args.command == "stream" and config.n_train is None:
        raise ConfigError("n_train is required for a streaming benchmark run")
    bundle = _load(config, args)
    if args.command == "cv":
        report = run_cv_bundle(config, bundle, args.folds)
    else:
        report = run_stream_split(config, *split(bundle, config.n_train))
    _write_report(args, report)


def _cmd_train(args) -> None:
    config = _build_config(args)
    if not args.out:
        raise ConfigError("--out is required: path for the saved model file")
    bundle = _load(config, args)
    if config.n_train is not None:
        bundle, _ = split(bundle, config.n_train)
    model = train_stream(config, bundle)
    save_model(model.params, model.state, model.threshold, model.norm_stats,
               args.out, seed=config.seed)
    summary = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dataset": config.name(),
        "model_path": args.out,
        "n_samples_trained": model.state.samples_seen,
        "n_epochs": model.n_epochs,
        "threshold": model.threshold,
        "train_s": model.train_s,
    }
    sys.stdout.write(emit_report(summary, "json"))


def _cmd_eval(args) -> None:
    config = _build_config(args)
    model = load_model(args.model)
    bundle = _load(config, args)
    n_labels = model.state.beta.shape[1]
    if bundle.m != n_labels:
        raise ConfigError(
            f"model and dataset label spaces differ: the model has {n_labels} "
            f"labels, {config.data_path} has {bundle.m}")
    if args.skip:
        if not 0 < args.skip < bundle.n_samples:
            raise ConfigError(
                f"--skip must be in (0, {bundle.n_samples}), got {args.skip}")
        _, bundle = split(bundle, args.skip)
    if model.threshold is None:
        raise ModelFormatError(
            f"{args.model} stores no decoding threshold; cannot eval")
    preds, test_s = predict_sets(model.params, model.state.beta,
                                 model.threshold, model.norm_stats, bundle,
                                 config.min_one)
    metrics = evaluate(preds, bundle.labelsets, bundle.m)
    _write_report(args, {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dataset": config.name(),
        "model_path": args.model,
        "n_samples": bundle.n_samples,
        "metrics": metrics.as_dict(),
        "timing": {"test_s": test_s},
        "threshold": model.threshold,
    })


def _cmd_stats(args) -> None:
    config = _build_config(args)
    bundle = _load(config, args)
    _write_report(args, {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dataset": config.name(),
        "n_samples": bundle.n_samples,
        "n_features": bundle.n_features,
        "n_labels": bundle.m,
        **dataset_stats(bundle.labelsets, bundle.m),
    })


_COMMANDS = {
    "stream": _cmd_report,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "cv": _cmd_report,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except DatasetFormatError as err:
        print(f"error[data]: {err}", file=sys.stderr)
        return 3
    except SingularMatrixError as err:
        print(f"error[numeric]: {err}", file=sys.stderr)
        return 4
    except ModelFormatError as err:
        print(f"error[model]: {err}", file=sys.stderr)
        return 5
    except OSError as err:
        print(f"error[io]: {err}", file=sys.stderr)
        return 6
    except ValueError as err:  # a ConfigError or any other invalid value
        print(f"error[config]: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 -- keep the CLI's contract
        print(f"error[unexpected]: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
