"""Online multi-label classification with a random-feature network.

The model is a single hidden layer of fixed random sigmoid neurons whose
output weights are fit by least squares and then updated recursively as
samples stream in, one at a time or in chunks. Labels are predicted by
thresholding the raw network outputs; the threshold is calibrated from
score extrema observed during training.
"""

from .dataio import (DatasetBundle, DatasetFormatError, NormStats,
                     load_dataset, normalize_apply, normalize_fit, split,
                     take_rows)
from .elm import (Activation, ElmParams, batch_train, hidden_map, init_params,
                  predict_raw)
from .harness import (ConfigError, CvReport, LoadedModel, ModelFormatError,
                      RunConfig, RunReport, TrainedModel, cv_folds,
                      emit_report, load_dataset_defaults, load_model,
                      predict_sets, run_cv, run_cv_bundle, run_stream,
                      run_stream_split, save_model, train_stream,
                      validate_config)
from .labels import (DatasetStats, ThresholdCalib, calibrate_chunk,
                     calibrate_update, dataset_stats, decode, decode_rows,
                     encode_bipolar, label_matrix, threshold_value)
from .metrics import MetricsReport, evaluate
from .numerics import (GENERATOR_TAG, SingularMatrixError, cholesky_spd,
                       make_rng, pinv_normal, rand_uniform, solve_spd)
from .online import OselmState, init_phase, update_chunk, update_sample

__version__ = "0.1.0"

__all__ = [
    "Activation", "ConfigError", "CvReport", "DatasetBundle",
    "DatasetFormatError", "DatasetStats", "ElmParams", "GENERATOR_TAG",
    "LoadedModel", "MetricsReport", "ModelFormatError", "NormStats",
    "OselmState", "RunConfig", "RunReport", "SingularMatrixError",
    "ThresholdCalib", "TrainedModel", "batch_train", "calibrate_chunk",
    "calibrate_update", "cholesky_spd", "cv_folds", "dataset_stats",
    "decode", "decode_rows", "emit_report", "encode_bipolar", "evaluate",
    "hidden_map", "init_params", "init_phase", "label_matrix", "load_dataset",
    "load_dataset_defaults", "load_model", "make_rng", "normalize_apply",
    "normalize_fit", "pinv_normal", "predict_raw", "predict_sets",
    "rand_uniform", "run_cv", "run_cv_bundle", "run_stream",
    "run_stream_split", "save_model", "solve_spd", "split", "take_rows",
    "threshold_value", "train_stream", "update_chunk", "update_sample",
    "validate_config",
]
