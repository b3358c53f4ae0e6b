"""Detector features, landmark rows, and the meta-dataset layout.

A detector's features are its hypervolume and its Monte-Carlo
cross-validated false-positive rate, both computable from normal-only data.
A dataset's landmark row stacks those two features for every
default-configured portfolio detector. A meta-dataset row is that landmark
row followed by one detector's features; its target is the detector's scaled
MCC on the labeled test partition. This module is the one owner of that
layout: ``meta_columns()`` fixes it, ``MetaDataset.of`` builds rows in it,
and ``MetaDataset`` answers every question other modules ask about it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import detectors
from .dataset import LabeledDataset
from .detectors import ALGORITHMS, DetectorConfig, TrainedDetector
from .errors import DataError, FitError
from .hypervolume import DIMENSION_WARN, BallSample, estimate_hypervolume, fit_enclosing_ball
from .ranking import confusion_counts, mcc, scaled_mcc
from .util import csv_text, log_event, pmap, read_csv, rng_from, seed_from

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import RunConfig


@dataclass(frozen=True)
class DetectorFeatures:
    hypervolume: float
    fpr: float
    config_id: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.hypervolume <= 1.0 and 0.0 <= self.fpr <= 1.0):
            raise ValueError("detector features must lie in [0, 1]")


_LANDMARK = "landmark_"
_DETECTOR = ("detector_hv", "detector_fpr")


def _landmark_pair(alg: str) -> tuple[str, str]:
    return f"{_LANDMARK}hv_{alg}", f"{_LANDMARK}fpr_{alg}"


def meta_columns() -> list[str]:
    """A meta row's features: each algorithm's landmark HV and FPR, then the detector's."""
    return [c for alg in ALGORITHMS for c in _landmark_pair(alg)] + list(_DETECTOR)


@dataclass
class MetaDataset:
    """Stacked meta-instances with a fixed column schema; NaN encodes absence."""

    columns: list[str]
    X: np.ndarray  # (m, len(columns)) float64 with NaN for absent values
    y: np.ndarray  # (m,) target scaled MCC
    dataset_ids: list[str]
    config_ids: list[str]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @classmethod
    def of(cls, dataset_id: str, landmarks: Sequence[float],
           instances: Sequence[tuple[DetectorFeatures, float]]) -> "MetaDataset":
        """One dataset's (features, target) instances, each after the dataset's
        landmark row (``build_landmarks``), in ``meta_columns()`` order."""
        if not instances:
            raise DataError("no instances to assemble")
        return cls(
            columns=meta_columns(),
            X=np.asarray([[*landmarks, f.hypervolume, f.fpr] for f, _ in instances], dtype=np.float64),
            y=np.asarray([target for _, target in instances], dtype=np.float64),
            dataset_ids=[dataset_id] * len(instances),
            config_ids=[f.config_id for f, _ in instances],
        )

    def landmark_columns(self) -> list[int]:
        """Positions of the landmark columns among ``columns``, projected or not."""
        return [j for j, name in enumerate(self.columns) if name.startswith(_LANDMARK)]

    def absent_landmarks(self) -> tuple[str, ...]:
        """The algorithms, in portfolio order, whose landmark is absent (NaN) in some row."""
        absent = {self.columns[j] for j in np.flatnonzero(np.isnan(self.X).any(axis=0))}
        return tuple(alg for alg in ALGORITHMS if absent.intersection(_landmark_pair(alg)))

    def detector_features(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's detector hypervolume and FPR."""
        hv, fpr = (self.columns.index(name) for name in _DETECTOR)
        return self.X[:, hv], self.X[:, fpr]

    def landmarks_csv_text(self) -> str:
        """The landmark header and the first row's landmark values: one dataset's landmark row."""
        cols = self.landmark_columns()
        return csv_text([[self.columns[j] for j in cols], list(self.X[0, cols])])

    def detectors_csv_text(self) -> str:
        """Each row's config id, detector features and target."""
        return csv_text([["config_id", *_DETECTOR, "target_scaled_mcc"],
                         *zip(self.config_ids, *self.detector_features(), self.y)])

    @staticmethod
    def concat(parts: Sequence["MetaDataset"]) -> "MetaDataset":
        if not parts:
            raise ValueError("nothing to concatenate")
        cols = parts[0].columns
        for p in parts[1:]:
            if p.columns != cols:
                raise DataError("meta-datasets have mismatched schemas")
        return MetaDataset(
            columns=list(cols),
            X=np.concatenate([p.X for p in parts], axis=0),
            y=np.concatenate([p.y for p in parts]),
            dataset_ids=[d for p in parts for d in p.dataset_ids],
            config_ids=[c for p in parts for c in p.config_ids],
        )

    def csv_text(self) -> str:
        rows = [[d, c, *x, y] for d, c, x, y in zip(self.dataset_ids, self.config_ids, self.X, self.y)]
        return csv_text([["dataset_id", "config_id", *self.columns, "target_scaled_mcc"], *rows])

    @classmethod
    def from_csv(cls, path: str, text: str | None = None) -> "MetaDataset":
        """Read a meta CSV, or ``text`` already read from it, as ``csv_text`` writes it.

        The header must be ``dataset_id, config_id, *meta_columns(),
        target_scaled_mcc``; every feature cell must be empty (absent) or in
        [0, 1], and every target in [0, 1]. Any other file raises DataError.
        """
        header, rows = read_csv(path, "meta-dataset", text)
        columns = meta_columns()
        if header != ["dataset_id", "config_id", *columns, "target_scaled_mcc"]:
            raise DataError(f"{path}: not a meta-dataset CSV; its header must be dataset_id, config_id, "
                            f"{', '.join(columns)}, target_scaled_mcc")
        X, y = [], []
        for row_no, row in rows:
            try:
                values = [float(c) if c else np.nan for c in row[2:]]
            except ValueError as exc:
                raise DataError(f"{path}: row {row_no}: non-numeric cell: {exc}") from None
            if not row[-1] or not all(0.0 <= v <= 1.0 for c, v in zip(row[2:], values) if c):
                raise DataError(f"{path}: row {row_no}: a feature outside [0, 1], or a target missing or outside it")
            X.append(values[:-1])
            y.append(values[-1])
        return cls(
            columns=columns,
            X=np.asarray(X, dtype=np.float64),
            y=np.asarray(y, dtype=np.float64),
            dataset_ids=[row[0] for _, row in rows],
            config_ids=[row[1] for _, row in rows],
        )


# ---------------------------------------------------------------------------
# feature computation


# the share of train rows each MC-CV repetition holds out
MC_CV_TEST_FRACTION = 0.3


class DatasetSamples:
    """The common random numbers of one dataset under one run's settings.

    ``cfg`` is the run's ``RunConfig``; every featurization reads its
    settings from it. Every featurization on the dataset (its landmarks, its
    random detectors, its rank candidates) scores the same hypervolume
    points, ``ball``, a ``BallSample`` inside the minimal enclosing ball of
    ``train``'s rows under the seed ``(cfg.seed, dataset_id, "hv")``, of
    which it scores ``cfg.hv_samples``, and refits on the same MC-CV splits,
    repetition r drawn under ``(cfg.seed, dataset_id, "mccv", r)``. Shared
    samples lower the variance of every difference between two detectors'
    features, and let per-point work run once per dataset. The ball is
    settled here, the splits on first read, and ``BallSample`` is
    thread-safe, so one object serves every worker. Besides the ball sample
    (see ``BallSample``) it holds each split's held-out and fit rows once
    read, repetitions x n x d x 8 bytes. Above d = ``DIMENSION_WARN`` it
    logs ``hypervolume_high_dimension`` once.
    """

    def __init__(self, train: LabeledDataset, dataset_id: str, cfg: RunConfig):
        self.train, self.dataset_id, self.cfg = train, dataset_id, cfg
        self.ball = BallSample(fit_enclosing_ball(train.features), seed_from(cfg.seed, dataset_id, "hv"))
        if train.dim > DIMENSION_WARN:  # the ball's volume dwarfs the data's, so HV fractions tend to 0
            log_event("hypervolume_high_dimension", dataset=dataset_id, dim=train.dim, above=DIMENSION_WARN)
        self._splits: tuple[tuple[np.ndarray, LabeledDataset], ...] | None = None
        self._splits_lock = threading.Lock()

    @property
    def splits(self) -> tuple[tuple[np.ndarray, LabeledDataset], ...]:
        """(held-out rows, fit set) per repetition, the first ``MC_CV_TEST_FRACTION``
        of a permutation held out; none if a side would have no row. Built
        once, on the first read of any worker."""
        with self._splits_lock:
            if self._splits is None:
                train, n, cfg = self.train, self.train.n, self.cfg
                held = int(np.floor(n * MC_CV_TEST_FRACTION))
                perms = [
                    rng_from(cfg.seed, self.dataset_id, "mccv", rep).permutation(n)
                    for rep in range(cfg.mc_cv_repetitions if 1 <= held < n else 0)
                ]
                self._splits = tuple(
                    (train.features[perm[:held]], train.take(perm[held:], name=f"{train.name}/mccv{rep}"))
                    for rep, perm in enumerate(perms)
                )
            return self._splits


def mc_cv_fpr_rates(config: DetectorConfig, samples: DatasetSamples) -> list[float]:
    """Per-repetition held-out false-positive rates on the dataset's MC-CV splits.

    Fit failures propagate so the caller can mark the feature absent or
    replace the config.
    """
    if not samples.splits:
        raise FitError(
            f"MC-CV needs at least one row on each side, n={samples.train.n}, "
            f"test_fraction={MC_CV_TEST_FRACTION}"
        )
    return [int(detectors.fit(config, fit_set).predict_many(held).sum()) / len(held) for held, fit_set in samples.splits]


def mc_cv_fpr(config: DetectorConfig, samples: DatasetSamples) -> float:
    """Mean held-out FPR over the Monte-Carlo cross-validation repetitions."""
    return float(np.mean(mc_cv_fpr_rates(config, samples)))


def _detector_features(config: DetectorConfig, samples: DatasetSamples) -> tuple[TrainedDetector, DetectorFeatures]:
    det = detectors.fit(config, samples.train)
    hv = estimate_hypervolume(det, samples.ball, samples.cfg.hv_samples)
    fpr = mc_cv_fpr(config, samples)
    return det, DetectorFeatures(hypervolume=hv.fraction, fpr=fpr, config_id=config.config_id)


# event names of each kind of featurization: (fit failed, over budget, retries exhausted)
_EVENTS = {
    "landmark": ("landmark_failed", "landmark_timeout", None),
    "detector": ("detector_replaced", "detector_timeout", "instance_skipped"),
    "candidate": ("candidate_replaced", "candidate_timeout", "candidate_skipped"),
}


def random_draw(seed: int, dataset_id: str, index: int, config_key: str) -> Callable[[int], DetectorConfig]:
    """attempt -> config of the index-th random detector of a dataset."""
    return lambda attempt: detectors.sample_random_config(rng_from(seed, dataset_id, config_key, index, attempt))


def featurize(
    kind: str, draw: Callable[[int], DetectorConfig], samples: DatasetSamples, **where,
) -> tuple[DetectorConfig, TrainedDetector, DetectorFeatures] | None:
    """Features of the first drawn config that fits and finishes within the kind's budget.

    Attempt a featurizes ``draw(a)`` on the dataset's shared ``samples``. A
    landmark gets one attempt under ``landmark_budget_s``, a detector or a
    candidate ``retries + 1`` under ``detector_budget_s``, all read from
    ``samples.cfg``. A FitError, or a wall time over the budget (checked once
    the attempt has finished), logs the kind's failure or timeout event and
    moves on. Once the attempts run out the kind's skip event is logged and
    None returned. Every event names the dataset, and the `where` fields
    (algorithm or index) too.
    """
    failed, timeout, skipped = _EVENTS[kind]
    cfg = samples.cfg
    retries, budget_s = (0, cfg.landmark_budget_s) if kind == "landmark" else (cfg.retries, cfg.detector_budget_s)
    where = {"dataset": samples.dataset_id, **where}
    for attempt in range(retries + 1):
        config = draw(attempt)
        t0 = time.monotonic()
        try:
            det, feats = _detector_features(config, samples)
        except FitError as exc:
            log_event(failed, **where, attempt=attempt, config=config.config_id, reason=str(exc))
            continue
        if time.monotonic() - t0 > budget_s:
            log_event(timeout, **where, attempt=attempt, config=config.config_id, budget_s=budget_s)
            continue
        return config, det, feats
    if skipped is not None:
        log_event(skipped, **where, retries=retries)
    return None


def build_landmarks(samples: DatasetSamples) -> list[float]:
    """The landmark row: hypervolume and FPR of every default-configured
    portfolio detector, in ``meta_columns()`` order, on ``samples.cfg.jobs``
    workers.

    A detector that fails to fit or overruns its budget leaves a NaN pair;
    the others are unaffected.
    """

    def one(config: DetectorConfig) -> tuple[float, float]:
        got = featurize("landmark", lambda attempt: config, samples, algorithm=config.algorithm)
        return (np.nan, np.nan) if got is None else (got[2].hypervolume, got[2].fpr)

    return [v for pair in pmap(one, detectors.default_configs(), samples.cfg.jobs) for v in pair]


def build_detector_instance(
    samples: DatasetSamples, test: LabeledDataset, index: int,
) -> tuple[DetectorFeatures, float] | None:
    """One randomly configured detector's features and its target, the scaled
    MCC measured on the labeled ``test`` partition.

    On fit failure or an overrun of ``detector_budget_s`` a freshly
    configured detector replaces the old one, up to ``retries`` times;
    exhaustion skips the instance with a logged reason.
    """
    draw = random_draw(samples.cfg.seed, samples.dataset_id, index, "detector")
    got = featurize("detector", draw, samples, index=index)
    if got is None:
        return None
    _, det, feats = got
    predicted = det.predict_many(test.features)
    return feats, scaled_mcc(mcc(confusion_counts(predicted, test.labels)))
