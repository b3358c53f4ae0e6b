"""Automated selection of anomaly detectors for normal-only training data.

Detectors are characterized by two features computable without anomalies:
the hypervolume they span inside the minimal enclosing hypersphere of the
training data, and their Monte-Carlo cross-validated false-positive rate.
Candidates are ranked either by a linear combination of the two or by a
random-forest meta-model trained to predict scaled MCC from landmark
features of labeled corpora.
"""

from .dataset import (
    LabeledDataset,
    ScalingParams,
    SemiSupervisedSplit,
    apply_scaler,
    fit_robust_scaler,
    load_csv,
    strip_anomalies,
    stratified_split,
    subsample_outliers,
)
from .detectors import (
    ALGORITHMS,
    DetectorConfig,
    TrainedDetector,
    default_configs,
    fit,
    predict,
    sample_random_config,
    score,
)
from .errors import AdSelectError, ConfigError, DataError, FitError, ModelFormatError
from .features import (
    DatasetSamples,
    DetectorFeatures,
    LandmarkVector,
    MetaDataset,
    MetaInstance,
    assemble_meta_dataset,
    build_detector_instance,
    build_landmarks,
    mc_cv_fpr,
)
from .hypervolume import (
    BallSample,
    EnclosingBall,
    HypervolumeEstimate,
    estimate_hypervolume,
    fit_enclosing_ball,
    sample_uniform_in_ball,
)
from .metamodel import (
    FeatureScaler,
    ForestModel,
    Imputer,
    MetaModel,
    drop_empty_landmarks,
    fit_meta_model,
    load_model,
    rf_fit,
    save_model,
)
from .pipeline import RecommendationResult, RunConfig, assimilate_dataset, rank_candidates
from .ranking import (
    ConfusionCounts,
    Ranking,
    RankingReport,
    kendall_tau_b,
    lc_score,
    leave_one_out_evaluate,
    mcc,
    ndcg,
    rank_by,
    regret_at_k,
    scaled_mcc,
)

__version__ = "0.1.0"
