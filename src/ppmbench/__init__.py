"""Desk-scale benchmark toolbox for predictive business process monitoring:
event-log ingestion, chronological splitting, prefix encoders, trainable
sequence models, suffix decoding, and evaluation metrics."""

__version__ = "0.1.0"

from .eventlog import (
    EOC,
    MISSING,
    CsvSchema,
    EmptyLogError,
    EocConflictError,
    Event,
    EventLog,
    LogParseError,
    LogStats,
    Trace,
    UniquenessViolationError,
    UnknownLabelError,
    Vocabulary,
    augment_eoc,
    compute_stats,
    parse_csv,
    to_csv,
)
from .splitting import PrefixSample, SplitLog, make_prefix_samples, temporal_split
from .encoding import (
    FeatureMatrix,
    Normalizer,
    PrefixEncoder,
    ngram_hash_encode,
    ngram_universe_size,
    onehot,
    time_features,
)
from .petrinet import PetriNet, TimedStateVector, Transition, load_petri_net, replay_timed_state
from .models import (
    MarkovPredictor,
    Predictor,
    TrainConfig,
    TrainReport,
    build_predictor,
    load_predictor,
    save_predictor,
    train,
)
from .inference import DecodeConfig, SuffixPrediction, decode_suffix, decode_suffixes
from .metrics import MetricsReport, accuracy, brier, dl_distance, dl_similarity, evaluate_protocol, mae
from .bench import BenchmarkConfig, ConfigError, RunRecord, run_matrix
