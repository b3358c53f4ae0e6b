"""Labeled datasets and the assimilation steps that precede feature extraction.

A base dataset carries a numeric feature matrix plus binary labels
(0 = normal, 1 = anomaly). Assimilation (``pipeline.assimilate_split``)
sub-samples anomalies to at most ``OUTLIER_HI`` of the rows, shuffles and
splits the kept rows by ``SPLIT_FRACTIONS`` (70/20/10) stratified by class,
drops the anomalies from the train partition, and centers/scales each feature
by the train interquartile range. The split steps here work on row indices,
so each partition is a set of rows of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .util import log_event, read_csv


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with binary labels; immutable after construction."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int8, values in {0, 1}
    name: str

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


def load_csv(path: str, label_column: str = "label", labels_required: bool = True) -> LabeledDataset:
    """Read a headered numeric CSV into a LabeledDataset.

    All non-label columns must parse as numbers; the label column must hold
    0/1 values. Row order is preserved. With labels_required=False, a file
    without the label column loads as all-normal (labels all 0).
    """
    header, cells = read_csv(path, "dataset")
    header = [h.strip() for h in header]
    if label_column in header:
        label_idx = header.index(label_column)
    elif labels_required:
        raise DataError(f"{path}: label column {label_column!r} not found in header {header}")
    else:
        label_idx = -1

    matrix = []
    for row_no, row in cells:
        values = []
        for column, cell in zip(header, row):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"{path}: row {row_no}, column {column!r}: non-numeric cell {cell!r}") from None
        if label_idx >= 0 and values[label_idx] not in (0.0, 1.0):
            raise DataError(f"{path}: row {row_no}, column {label_column!r}: label {row[label_idx]!r} outside {{0, 1}}")
        matrix.append(values)
    table = np.asarray(matrix, dtype=np.float64)
    if label_idx < 0:
        features, labels = table, np.zeros(len(table), dtype=np.int8)
    else:
        features, labels = np.delete(table, label_idx, axis=1), table[:, label_idx].astype(np.int8)
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".csv"):
        name = name[:-4]
    return LabeledDataset(features=features, labels=labels, name=name)


# the anomaly share below which sub-sampling logs, and the most it keeps
OUTLIER_LO, OUTLIER_HI = 0.05, 0.10


def subsample_outliers(data: LabeledDataset, *, rng: np.random.Generator) -> np.ndarray:
    """The rows of `data` to keep, in order, so anomalies make up at most ``OUTLIER_HI``.

    Keeps every normal row. If the anomaly fraction is already at most
    ``OUTLIER_HI`` every row is kept; otherwise a uniform subset of anomalies
    of maximal size a with a / (n_normal + a) <= ``OUTLIER_HI``. Logs
    ``anomaly_fraction_below_lo`` if the kept fraction falls below ``OUTLIER_LO``.
    """
    n_anom = data.n_anomalies
    n_norm = data.n - n_anom
    if n_norm == 0:
        raise DataError(f"{data.name}: no normal rows, anomaly fraction undefined")
    if n_anom / data.n <= OUTLIER_HI:
        return np.arange(data.n)
    # maximal a with a/(n_norm + a) <= hi  <=>  a <= hi*n_norm/(1-hi)
    keep = int(np.floor(OUTLIER_HI * n_norm / (1.0 - OUTLIER_HI)))
    anom_idx = np.flatnonzero(data.labels == 1)
    chosen = rng.choice(anom_idx, size=keep, replace=False) if keep > 0 else np.empty(0, dtype=int)
    mask = data.labels == 0
    mask[chosen] = True
    if keep / (n_norm + keep) < OUTLIER_LO:
        log_event("anomaly_fraction_below_lo", dataset=data.name, fraction=keep / (n_norm + keep), lo=OUTLIER_LO)
    return np.flatnonzero(mask)


def _largest_remainder(count: int, fractions: Sequence[float]) -> list[int]:
    """Allocate `count` items to partitions by largest remainder."""
    quotas = [count * f for f in fractions]
    base = [int(np.floor(q)) for q in quotas]
    remaining = count - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:remaining]:
        base[i] += 1
    return base


# each class's train, test and holdout shares
SPLIT_FRACTIONS = (0.70, 0.20, 0.10)


def stratified_split(labels: np.ndarray, *, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle the positions of `labels`, then split them into train, test and
    holdout by ``SPLIT_FRACTIONS``, preserving class proportions.

    Per-class counts follow largest-remainder rounding, so each partition's
    class count is within one row of the exact proportion. Each partition
    holds its normal positions, then its anomalous ones, in shuffled order.
    """
    perm = rng.permutation(len(labels))
    by_class = [perm[labels[perm] == cls] for cls in (0, 1)]
    chunks = [np.split(m, np.cumsum(_largest_remainder(len(m), SPLIT_FRACTIONS))[:-1]) for m in by_class]
    return tuple(np.concatenate(part) for part in zip(*chunks))


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
    return LabeledDataset(features=scaled, labels=data.labels, name=data.name)
