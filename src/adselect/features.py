"""Detector features, landmark vectors, and meta-dataset assembly.

A detector's features are its hypervolume and its Monte-Carlo
cross-validated false-positive rate, both computable from normal-only data.
A dataset's landmark vector stacks those two features for every
default-configured portfolio detector. A meta-instance is one detector's
features and its scaled-MCC target measured on the labeled test partition;
assembly puts the dataset's landmark row before each.
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import detectors
from .dataset import LabeledDataset
from .detectors import ALGORITHMS, DetectorConfig, TrainedDetector
from .errors import DataError, FitError
from .hypervolume import BallSample, estimate_hypervolume, fit_enclosing_ball
from .ranking import confusion_counts, mcc, scaled_mcc
from .util import csv_text, log_event, pmap, rng_from, seed_from, write_text


@dataclass(frozen=True)
class DetectorFeatures:
    hypervolume: float
    fpr: float
    config_id: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.hypervolume <= 1.0 and 0.0 <= self.fpr <= 1.0):
            raise ValueError("detector features must lie in [0, 1]")


@dataclass(frozen=True)
class LandmarkVector:
    """Features of every default-configured portfolio detector; None marks a failed landmark."""

    dataset_id: str
    entries: dict[str, DetectorFeatures | None]

    def __post_init__(self) -> None:
        missing = set(ALGORITHMS) - set(self.entries)
        if missing:
            raise ValueError(f"landmark vector lacks algorithms {sorted(missing)}")

    def as_row(self) -> list[float]:
        """The landmark columns of ``meta_columns()``, NaN where a landmark is absent."""
        row: list[float] = []
        for alg in ALGORITHMS:
            entry = self.entries[alg]
            row.extend((np.nan, np.nan) if entry is None else (entry.hypervolume, entry.fpr))
        return row


@dataclass(frozen=True)
class MetaInstance:
    """One random detector's features and its scaled MCC on the labeled test partition."""

    detector: DetectorFeatures
    target_scaled_mcc: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.target_scaled_mcc <= 1.0):
            raise ValueError("target scaled MCC must lie in [0, 1]")


def meta_columns() -> list[str]:
    cols: list[str] = []
    for alg in ALGORITHMS:
        cols.append(f"landmark_hv_{alg}")
        cols.append(f"landmark_fpr_{alg}")
    cols.extend(["detector_hv", "detector_fpr"])
    return cols


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

    def to_csv(self, path: str) -> None:
        rows = [[d, c, *x, y] for d, c, x, y in zip(self.dataset_ids, self.config_ids, self.X, self.y)]
        write_text(path, csv_text([["dataset_id", "config_id", *self.columns, "target_scaled_mcc"], *rows]))

    @classmethod
    def from_csv(cls, path: str) -> "MetaDataset":
        try:
            fh = open(path, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise DataError(f"cannot read meta-dataset file {path!r}: {exc}") from exc
        with fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:2] != ["dataset_id", "config_id"] or header[-1] != "target_scaled_mcc":
                raise DataError(f"{path}: not a meta-dataset CSV")
            columns = header[2:-1]
            X_rows, y_vals, ds_ids, cfg_ids = [], [], [], []
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
                try:
                    X_rows.append([np.nan if c == "" else float(c) for c in row[2:-1]])
                    y_vals.append(float(row[-1]))
                except ValueError as exc:
                    raise DataError(f"{path}: row {row_no}: non-numeric cell: {exc}") from None
                ds_ids.append(row[0])
                cfg_ids.append(row[1])
        if not X_rows:
            raise DataError(f"{path}: no instances")
        return cls(
            columns=columns,
            X=np.asarray(X_rows, dtype=np.float64),
            y=np.asarray(y_vals, dtype=np.float64),
            dataset_ids=ds_ids,
            config_ids=cfg_ids,
        )


# ---------------------------------------------------------------------------
# feature computation


class DatasetSamples:
    """The common random numbers of one dataset under one master seed.

    Every featurization on the dataset (its landmarks, its random detectors,
    its rank candidates) scores the same hypervolume points, ``ball``, a
    ``BallSample`` of ``hv_samples`` points inside the minimal enclosing ball
    of ``train``'s rows under the seed ``(seed, dataset_id, "hv")``, and
    refits on the same MC-CV splits, repetition r drawn under ``(seed,
    dataset_id, "mccv", r)``. Shared samples lower the variance of every
    difference between two detectors' features, and let per-point work run
    once per dataset. The ball is settled here, the splits on first read, and
    ``BallSample`` is thread-safe, so one object serves every worker. Besides
    the ball sample (see ``BallSample``) it holds each split's held-out and
    fit rows once read, repetitions x n x d x 8 bytes.
    """

    def __init__(
        self, train: LabeledDataset, dataset_id: str, seed: int,
        hv_samples: int, mc_cv_test_fraction: float, mc_cv_repetitions: int,
    ):
        self.train, self.dataset_id, self.seed, self.hv_samples = train, dataset_id, seed, hv_samples
        self.ball = BallSample(fit_enclosing_ball(train.features), seed_from(seed, dataset_id, "hv"))
        self.mc_cv_test_fraction, self.mc_cv_repetitions = mc_cv_test_fraction, mc_cv_repetitions
        self._splits: tuple[tuple[np.ndarray, LabeledDataset], ...] | None = None
        self._splits_lock = threading.Lock()

    @property
    def splits(self) -> tuple[tuple[np.ndarray, LabeledDataset], ...]:
        """(held-out rows, fit set) per repetition, none if a side would have no row;
        built once, on the first read of any worker."""
        with self._splits_lock:
            if self._splits is None:
                train, n = self.train, self.train.n
                held = int(np.floor(n * self.mc_cv_test_fraction))
                perms = [
                    rng_from(self.seed, self.dataset_id, "mccv", rep).permutation(n)
                    for rep in range(self.mc_cv_repetitions if 1 <= held < n else 0)
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
            f"test_fraction={samples.mc_cv_test_fraction}"
        )
    return [int(detectors.fit(config, fit_set).predict_many(held).sum()) / len(held) for held, fit_set in samples.splits]


def mc_cv_fpr(config: DetectorConfig, samples: DatasetSamples) -> float:
    """Mean held-out FPR over the Monte-Carlo cross-validation repetitions."""
    return float(np.mean(mc_cv_fpr_rates(config, samples)))


def _detector_features(config: DetectorConfig, samples: DatasetSamples) -> tuple[TrainedDetector, DetectorFeatures]:
    det = detectors.fit(config, samples.train)
    hv = estimate_hypervolume(det, samples.ball, samples.hv_samples)
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
    kind: str, draw: Callable[[int], DetectorConfig], samples: DatasetSamples,
    retries: int, budget_s: float, **where,
) -> tuple[DetectorConfig, TrainedDetector, DetectorFeatures] | None:
    """Features of the first drawn config that fits and finishes within budget_s.

    Attempt a featurizes ``draw(a)`` on the dataset's shared ``samples``. A
    FitError, or a wall time over budget_s (checked once the attempt has
    finished), logs the kind's failure or timeout event and moves on. After
    retries + 1 failed attempts the kind's skip event is logged and None
    returned. Every event names the dataset, and the `where` fields
    (algorithm or index) too.
    """
    failed, timeout, skipped = _EVENTS[kind]
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


def build_landmarks(samples: DatasetSamples, budget_s: float, jobs: int = 1) -> LandmarkVector:
    """Hypervolume and FPR of every default-configured portfolio detector.

    A detector that fails to fit or overruns its budget contributes an
    absent (None) entry; the others are unaffected.
    """

    def one(config: DetectorConfig) -> tuple[str, DetectorFeatures | None]:
        got = featurize(
            "landmark", lambda attempt: config, samples, retries=0, budget_s=budget_s, algorithm=config.algorithm
        )
        return config.algorithm, None if got is None else got[2]

    results = pmap(one, detectors.default_configs(), jobs)
    return LandmarkVector(dataset_id=samples.dataset_id, entries=dict(results))


def build_detector_instance(
    samples: DatasetSamples, test: LabeledDataset, index: int, retries: int, budget_s: float
) -> MetaInstance | None:
    """One meta-instance from one randomly configured detector, its target
    measured on the labeled ``test`` partition.

    On fit failure or an overrun of budget_s a freshly configured detector
    replaces the old one, up to `retries` times; exhaustion skips the
    instance with a logged reason.
    """
    draw = random_draw(samples.seed, samples.dataset_id, index, "detector")
    got = featurize("detector", draw, samples, retries, budget_s, index=index)
    if got is None:
        return None
    _, det, feats = got
    predicted = det.predict_many(test.features)
    return MetaInstance(feats, scaled_mcc(mcc(confusion_counts(predicted, test.labels))))


def assemble_meta_dataset(landmarks: LandmarkVector, instances: Sequence[MetaInstance]) -> MetaDataset:
    """One dataset's instances, each after the dataset's landmark row, in ``meta_columns()`` order."""
    if not instances:
        raise DataError("no instances to assemble")
    lm_row = landmarks.as_row()
    return MetaDataset(
        columns=meta_columns(),
        X=np.asarray([lm_row + [i.detector.hypervolume, i.detector.fpr] for i in instances], dtype=np.float64),
        y=np.asarray([i.target_scaled_mcc for i in instances], dtype=np.float64),
        dataset_ids=[landmarks.dataset_id] * len(instances),
        config_ids=[i.detector.config_id for i in instances],
    )
