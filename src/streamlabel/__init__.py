"""Online multi-label classification with a random-feature network.

The model is a single hidden layer of fixed random sigmoid neurons whose
output weights are fit by least squares and then updated recursively as
samples stream in, one at a time or in chunks. Labels are predicted by
thresholding the raw network outputs; the threshold is calibrated from
score extrema observed during training.
"""

from .dataio import (DatasetBundle, DatasetFormatError, NormStats,
                     load_dataset, normalize_fit, split)
from .elm import ElmParams, batch_train, hidden_map, init_params, predict_raw
from .harness import (ConfigError, CvReport, ModelFormatError, RunConfig,
                      RunReport, emit_report, load_dataset_defaults,
                      load_model, predict_sets, run_cv_bundle,
                      run_stream_split, save_model, train_stream)
from .labels import (ThresholdCalib, calibrate_chunk, dataset_stats,
                     decode_rows, label_matrix)
from .metrics import MetricsReport, evaluate
from .numerics import SingularMatrixError
from .online import OselmState, init_phase, look_ahead, update_chunk

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CvReport", "DatasetBundle", "DatasetFormatError",
    "ElmParams", "MetricsReport", "ModelFormatError", "NormStats",
    "OselmState", "RunConfig", "RunReport", "SingularMatrixError",
    "ThresholdCalib", "batch_train", "calibrate_chunk", "dataset_stats",
    "decode_rows", "emit_report", "evaluate", "hidden_map", "init_params",
    "init_phase", "label_matrix", "load_dataset", "load_dataset_defaults",
    "load_model", "look_ahead", "normalize_fit", "predict_raw",
    "predict_sets", "run_cv_bundle", "run_stream_split", "save_model",
    "split", "train_stream", "update_chunk",
]
