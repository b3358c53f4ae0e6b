"""Labeled datasets and the assimilation steps that precede feature extraction.

A base dataset carries a numeric feature matrix plus binary labels
(0 = normal, 1 = anomaly). Assimilation sub-samples over-represented
anomalies, shuffles and splits 70/20/10 stratified by class, strips anomalies
from the train partition, and centers/scales each feature by the train
interquartile range.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DataError
from .util import log_event


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with binary labels; immutable after construction."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int8, values in {0, 1}
    name: str
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.asarray(self.labels, dtype=np.int8)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError(f"{self.name}: feature matrix must be (n>=1, d>=1), got {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise DataError(f"{self.name}: labels length {labs.shape} does not match {feats.shape[0]} rows")
        if not np.all((labs == 0) | (labs == 1)):
            raise DataError(f"{self.name}: labels must be 0 or 1")
        if not np.all(np.isfinite(feats)):
            raise DataError(f"{self.name}: feature values must be finite")
        if self.feature_names is not None and len(self.feature_names) != feats.shape[1]:
            raise DataError(f"{self.name}: {len(self.feature_names)} feature names for {feats.shape[1]} columns")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_anomalies(self) -> int:
        return int(self.labels.sum())

    def take(self, indices: np.ndarray, name: str | None = None) -> "LabeledDataset":
        return LabeledDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            name=name if name is not None else self.name,
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature center (mean) and spread (IQR; degenerate columns stored as 1.0)."""

    means: np.ndarray
    iqrs: np.ndarray
    fitted_on: str

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        iqrs = np.asarray(self.iqrs, dtype=np.float64)
        if means.shape != iqrs.shape or means.ndim != 1:
            raise DataError("scaling params: means and iqrs must be equal-length vectors")
        if not np.all(iqrs > 0):
            raise DataError("scaling params: all iqrs must be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "iqrs", iqrs)

    def to_dict(self) -> dict:
        return {
            "means": [float(v) for v in self.means],
            "iqrs": [float(v) for v in self.iqrs],
            "fitted_on": self.fitted_on,
        }


@dataclass(frozen=True)
class SemiSupervisedSplit:
    """Train/test/holdout partition; train is anomaly-free once stripped."""

    train: LabeledDataset
    test: LabeledDataset
    holdout: LabeledDataset
    origin_indices: dict[str, np.ndarray]  # partition -> indices into the source dataset
    scaler: ScalingParams | None = None


def load_csv(path: str, label_column: str = "label", labels_required: bool = True) -> LabeledDataset:
    """Read a headered numeric CSV into a LabeledDataset.

    All non-label columns must parse as numbers; the label column must hold
    0/1 values. Row order is preserved. With labels_required=False, a file
    without the label column loads as all-normal (labels all 0).
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if label_column in header:
            label_idx = header.index(label_column)
        elif labels_required:
            raise DataError(f"{path}: label column {label_column!r} not found in header {header}")
        else:
            label_idx = -1
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

        rows: list[list[float]] = []
        labels: list[int] = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            feats = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_no}, column {header[i]!r}: non-numeric cell {cell!r}"
                    ) from None
            if label_idx < 0:
                lab = 0.0
            else:
                try:
                    lab = float(row[label_idx])
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_no}, column {label_column!r}: non-numeric label {row[label_idx]!r}"
                    ) from None
                if lab not in (0.0, 1.0):
                    raise DataError(
                        f"{path}: row {row_no}, column {label_column!r}: label {row[label_idx]!r} outside {{0, 1}}"
                    )
            rows.append(feats)
            labels.append(int(lab))

    if not rows:
        raise DataError(f"{path}: no data rows")
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".csv"):
        name = name[:-4]
    return LabeledDataset(
        features=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int8),
        name=name,
        feature_names=feature_names,
    )


def subsample_outliers(
    data: LabeledDataset, lo: float = 0.05, hi: float = 0.10, *, rng: np.random.Generator
) -> LabeledDataset:
    """Down-sample anomalies so they make up at most `hi` of the dataset.

    Keeps every normal row. If the original anomaly fraction is already <= hi
    the dataset is returned unchanged; otherwise a uniform subset of anomalies
    of maximal size a with a / (n_normal + a) <= hi is retained. Emits a
    warning if the achieved fraction falls below `lo`.
    """
    if not (0 < lo <= hi < 1):
        raise ValueError(f"invalid outlier band ({lo}, {hi})")
    n_anom = data.n_anomalies
    n_norm = data.n - n_anom
    if n_norm == 0:
        raise DataError(f"{data.name}: no normal rows, anomaly fraction undefined")
    if n_anom / data.n <= hi:
        return data
    # maximal a with a/(n_norm + a) <= hi  <=>  a <= hi*n_norm/(1-hi)
    keep = int(np.floor(hi * n_norm / (1.0 - hi)))
    anom_idx = np.flatnonzero(data.labels == 1)
    chosen = rng.choice(anom_idx, size=keep, replace=False) if keep > 0 else np.empty(0, dtype=int)
    mask = data.labels == 0
    mask[chosen] = True
    kept = np.flatnonzero(mask)  # preserves original row order
    result = data.take(kept)
    if keep / (n_norm + keep) < lo:
        warnings.warn(
            f"{data.name}: achieved anomaly fraction {keep / (n_norm + keep):.4f} below lo={lo}",
            stacklevel=2,
        )
    return result


def _largest_remainder(count: int, fractions: Sequence[float]) -> list[int]:
    """Allocate `count` items to partitions by largest remainder."""
    quotas = [count * f for f in fractions]
    base = [int(np.floor(q)) for q in quotas]
    remaining = count - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:remaining]:
        base[i] += 1
    return base


def stratified_split(
    data: LabeledDataset, fractions: tuple[float, float, float] = (0.70, 0.20, 0.10), *, rng: np.random.Generator
) -> SemiSupervisedSplit:
    """Shuffle, then split into train/test/holdout preserving class proportions.

    Per-class counts follow largest-remainder rounding, so each partition's
    class count is within one row of the exact proportion. The returned split
    is pre-strip and pre-scale.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    perm = rng.permutation(data.n)
    parts: list[list[int]] = [[], [], []]
    for cls in (0, 1):
        members = [int(i) for i in perm if data.labels[i] == cls]
        counts = _largest_remainder(len(members), fractions)
        pos = 0
        for p, c in enumerate(counts):
            parts[p].extend(members[pos : pos + c])
            pos += c
    origin = {
        "train": np.asarray(parts[0], dtype=np.int64),
        "test": np.asarray(parts[1], dtype=np.int64),
        "holdout": np.asarray(parts[2], dtype=np.int64),
    }
    return SemiSupervisedSplit(
        train=data.take(origin["train"], name=f"{data.name}/train"),
        test=data.take(origin["test"], name=f"{data.name}/test"),
        holdout=data.take(origin["holdout"], name=f"{data.name}/holdout"),
        origin_indices=origin,
    )


def strip_anomalies(split: SemiSupervisedSplit) -> SemiSupervisedSplit:
    """Drop label-1 rows from train; test and holdout are untouched."""
    keep = np.flatnonzero(split.train.labels == 0)
    if len(keep) == split.train.n:
        return split
    origin = dict(split.origin_indices)
    origin["train"] = origin["train"][keep]
    return replace(split, train=split.train.take(keep), origin_indices=origin)


def fit_robust_scaler(train: LabeledDataset) -> ScalingParams:
    """Per-feature mean and IQR (Q3 - Q1, linearly interpolated quantiles) from train.

    Degenerate columns (IQR == 0) store 1.0 so scaling only centers them.
    """
    means = train.features.mean(axis=0)
    q1 = np.quantile(train.features, 0.25, axis=0, method="linear")
    q3 = np.quantile(train.features, 0.75, axis=0, method="linear")
    iqrs = q3 - q1
    degenerate = iqrs <= 0
    if degenerate.any():
        log_event("degenerate_scaler_columns", dataset=train.name, columns=np.flatnonzero(degenerate).tolist())
        iqrs = np.where(degenerate, 1.0, iqrs)
    return ScalingParams(means=means, iqrs=iqrs, fitted_on=train.name)


def apply_scaler(params: ScalingParams, data: LabeledDataset) -> LabeledDataset:
    if len(params.means) != data.dim:
        raise DataError(
            f"scaler fitted on {len(params.means)} features, dataset {data.name} has {data.dim}"
        )
    scaled = (data.features - params.means) / params.iqrs
    return LabeledDataset(
        features=scaled, labels=data.labels, name=data.name, feature_names=data.feature_names
    )


def scale_split(split: SemiSupervisedSplit) -> SemiSupervisedSplit:
    """Fit the robust scaler on train and apply it to all three partitions."""
    params = fit_robust_scaler(split.train)
    return replace(
        split,
        train=apply_scaler(params, split.train),
        test=apply_scaler(params, split.test),
        holdout=apply_scaler(params, split.holdout),
        scaler=params,
    )


def split_manifest(split: SemiSupervisedSplit, dataset_name: str, seed: int) -> dict:
    """JSON-serializable record of a split: origin indices plus scaler params."""
    return {
        "dataset": dataset_name,
        "seed": seed,
        "origin_indices": {k: v.tolist() for k, v in split.origin_indices.items()},
        "scaler": split.scaler.to_dict() if split.scaler is not None else None,
    }
