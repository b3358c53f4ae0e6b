"""Surrogate model: imputation, [0,1] scaling, and a random-forest regressor.

The forest is deliberately self-contained so its behavior is pinned down:
100 trees, bootstrap with replacement of size n, all features considered at
every split, variance-reduction criterion with midpoint candidate
thresholds, unlimited depth, min 2 samples to split, and gain ties broken
by lowest feature index then lowest threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ModelFormatError
from .features import MetaDataset
from .util import log_event, pmap, rng_from

MODEL_FORMAT = "adselect-meta-model"
MODEL_VERSION = 1


# ---------------------------------------------------------------------------
# meta-feature preparation


def drop_empty_landmarks(meta_train: MetaDataset, meta_test: MetaDataset) -> tuple[MetaDataset, MetaDataset]:
    """Remove landmark columns that hold no values in meta-test from both sets.

    Detector feature columns are never dropped.
    """
    if meta_train.columns != meta_test.columns:
        raise ValueError("meta-train and meta-test schemas differ")
    keep = []
    for j, col in enumerate(meta_train.columns):
        if col.startswith("landmark_") and np.all(np.isnan(meta_test.X[:, j])):
            continue
        keep.append(j)
    keep_idx = np.asarray(keep, dtype=np.int64)
    cols = [meta_train.columns[j] for j in keep]

    def project(md: MetaDataset) -> MetaDataset:
        return MetaDataset(
            columns=list(cols),
            X=md.X[:, keep_idx].copy(),
            y=md.y.copy(),
            dataset_ids=list(md.dataset_ids),
            config_ids=list(md.config_ids),
        )

    return project(meta_train), project(meta_test)


@dataclass(frozen=True)
class Imputer:
    """Column means of present meta-train values; all-absent columns fill 0.0."""

    means: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Imputer":
        means = np.empty(X.shape[1])
        for j in range(X.shape[1]):
            col = X[:, j]
            present = col[~np.isnan(col)]
            if len(present) == 0:
                means[j] = 0.0
                log_event("imputer_empty_column", column=j)
            else:
                means[j] = present.mean()
        return cls(means=means)

    def transform(self, X: np.ndarray) -> np.ndarray:
        out = X.copy()
        nan = np.isnan(out)
        out[nan] = np.broadcast_to(self.means, out.shape)[nan]
        return out


@dataclass(frozen=True)
class FeatureScaler:
    """Min-max scaling fitted on meta-train; degenerate columns map to 0.0.

    Meta-test values may land outside [0, 1]; they are not clipped.
    """

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "FeatureScaler":
        return cls(mins=X.min(axis=0), maxs=X.max(axis=0))

    def transform(self, X: np.ndarray) -> np.ndarray:
        span = self.maxs - self.mins
        out = np.zeros_like(X)
        ok = span > 0
        out[:, ok] = (X[:, ok] - self.mins[ok]) / span[ok]
        return out


# ---------------------------------------------------------------------------
# regression trees and forest


@dataclass
class _Tree:
    feature: np.ndarray  # int32, -1 for leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # leaf mean (stored for every node)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            internal = self.feature[node] >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            cur = node[rows]
            go = X[rows, self.feature[cur]] <= self.threshold[cur]
            node[rows] = np.where(go, self.left[cur], self.right[cur])
        return self.value[node]


def _best_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
    """Best (feature, threshold) by variance reduction, all features at once.

    Candidates are midpoints between consecutive sorted unique feature
    values. Equal gains keep the lowest feature index, then the lowest
    threshold: one argmax over the feature-major gain table returns the
    first maximum. Column-wise cumsums add in the same order as a per-column
    scan, so the gains are the same floats.
    """
    m = X.shape[0]
    xs = np.sort(X, axis=0, kind="stable")
    boundary = xs[:-1] < xs[1:]
    if not boundary.any():
        return None
    total_sum = y.sum()
    total_sq = (y * y).sum()
    parent_sse = total_sq - total_sum**2 / m
    ys = y[X.argsort(axis=0, kind="stable")]
    csum = ys.cumsum(axis=0)[:-1]
    csq = (ys * ys).cumsum(axis=0)[:-1]
    counts = np.arange(1, m, dtype=np.float64)[:, None]
    left_sse = csq - csum**2 / counts
    right_sse = (total_sq - csq) - (total_sum - csum) ** 2 / (m - counts)
    gains = parent_sse - left_sse - right_sse
    gains[~boundary] = -np.inf
    j, k = divmod(int(gains.T.argmax()), m - 1)
    if not gains[k, j] > 0.0:
        return None
    thr = (xs[k, j] + xs[k + 1, j]) / 2.0
    if thr >= xs[k + 1, j]:  # adjacent floats: midpoint rounded up, keep the split real
        thr = xs[k, j]
    return j, float(thr)


def _node_mean(values: np.ndarray) -> float:
    """Arithmetic mean, exact (no fp drift) when every value is identical.

    ``sum / len`` is the same float as ``values.mean()``, without its overhead.
    """
    if (values == values[0]).all():
        return float(values[0])
    return float(values.sum() / len(values))


def _grow_tree(X: np.ndarray, y: np.ndarray, min_samples_split: int) -> _Tree:
    """Grow one tree depth first; a split node's children get the next two ids."""
    value = [_node_mean(y)]
    splits: list[tuple[int, int, float]] = []  # (node, feature, threshold)
    # explicit stack: degenerate splits can make trees n deep
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if len(rows) < min_samples_split:
            continue
        X_rows = X[rows]
        y_rows = y[rows]
        split = _best_split(X_rows, y_rows)
        if split is None:
            continue
        j, thr = split
        go = X_rows[:, j] <= thr
        left_rows = rows[go]
        right_rows = rows[~go]
        child = len(value)
        splits.append((node, j, thr))
        value.append(_node_mean(y_rows[go]))
        value.append(_node_mean(y_rows[~go]))
        stack.append((child + 1, right_rows))
        stack.append((child, left_rows))

    n_nodes = len(value)
    feature = np.full(n_nodes, -1, dtype=np.int32)
    threshold = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.int32)
    right = np.full(n_nodes, -1, dtype=np.int32)
    if splits:
        split_nodes, split_features, split_thresholds = zip(*splits)
        nodes = np.asarray(split_nodes)
        feature[nodes] = split_features
        threshold[nodes] = split_thresholds
        # the i-th split made nodes 2i+1 and 2i+2
        left[nodes] = np.arange(1, 2 * len(splits), 2)
        right[nodes] = left[nodes] + 1
    return _Tree(feature=feature, threshold=threshold, left=left, right=right, value=np.asarray(value))


@dataclass
class ForestModel:
    """Bagged regression trees; prediction is the mean over trees."""

    trees: list[_Tree]
    n_features: int
    seed: int
    n_trees: int = 100
    bootstrap: bool = True
    min_samples_split: int = 2

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (m, {self.n_features}) inputs, got {X.shape}")
        preds = np.stack([t.predict(X) for t in self.trees])
        out = preds.mean(axis=0)
        # where every tree agrees the mean is that value exactly
        unanimous = np.all(preds == preds[0], axis=0)
        out[unanimous] = preds[0, unanimous]
        return out


def rf_fit(
    X: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
    n_trees: int = 100,
    bootstrap: bool = True,
    min_samples_split: int = 2,
    jobs: int = 1,
) -> ForestModel:
    """Fit the forest; each tree owns a seed derived from (seed, tree index)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with matching y")
    if X.shape[0] < 1:
        raise ValueError("cannot fit on an empty training set")
    n = X.shape[0]

    def grow(t: int) -> _Tree:
        if bootstrap:
            rows = rng_from(seed, "tree", t).integers(0, n, size=n)
            return _grow_tree(X[rows], y[rows], min_samples_split)
        return _grow_tree(X, y, min_samples_split)

    trees = pmap(grow, list(range(n_trees)), jobs)
    return ForestModel(
        trees=trees,
        n_features=X.shape[1],
        seed=seed,
        n_trees=n_trees,
        bootstrap=bootstrap,
        min_samples_split=min_samples_split,
    )


# ---------------------------------------------------------------------------
# persisted meta-model bundle


@dataclass
class MetaModel:
    """Everything needed to score new instances: schema, imputer, scaler, forest."""

    columns: list[str]
    imputer: Imputer
    scaler: FeatureScaler
    forest: ForestModel

    def predict(self, md: MetaDataset) -> np.ndarray:
        if md.columns != self.columns:
            raise ValueError(
                f"instance schema {md.columns} does not match model schema {self.columns}"
            )
        X = self.scaler.transform(self.imputer.transform(md.X))
        return self.forest.predict(X)


def fit_meta_model(meta_train: MetaDataset, seed: int = 0, n_trees: int = 100, jobs: int = 1) -> MetaModel:
    """Impute, scale to [0,1], and fit the forest on a meta-training set."""
    imputer = Imputer.fit(meta_train.X)
    imputed = imputer.transform(meta_train.X)
    scaler = FeatureScaler.fit(imputed)
    forest = rf_fit(scaler.transform(imputed), meta_train.y, seed=seed, n_trees=n_trees, jobs=jobs)
    return MetaModel(columns=list(meta_train.columns), imputer=imputer, scaler=scaler, forest=forest)


def save_model(model: MetaModel, path: str) -> None:
    """Versioned JSON serialization; floats round-trip exactly."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "columns": model.columns,
        "imputer_means": model.imputer.means.tolist(),
        "scaler_mins": model.scaler.mins.tolist(),
        "scaler_maxs": model.scaler.maxs.tolist(),
        "forest": {
            "seed": model.forest.seed,
            "n_trees": model.forest.n_trees,
            "bootstrap": model.forest.bootstrap,
            "min_samples_split": model.forest.min_samples_split,
            "n_features": model.forest.n_features,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in model.forest.trees
            ],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path: str) -> MetaModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: corrupt model file ({exc})") from exc
    try:
        if payload.get("format") != MODEL_FORMAT:
            raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
        if payload.get("version") != MODEL_VERSION:
            raise ModelFormatError(
                f"{path}: model version {payload.get('version')!r}, expected {MODEL_VERSION}"
            )
        f = payload["forest"]
        trees = [
            _Tree(
                feature=np.asarray(t["feature"], dtype=np.int32),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int32),
                right=np.asarray(t["right"], dtype=np.int32),
                value=np.asarray(t["value"], dtype=np.float64),
            )
            for t in f["trees"]
        ]
        forest = ForestModel(
            trees=trees,
            n_features=int(f["n_features"]),
            seed=int(f["seed"]),
            n_trees=int(f["n_trees"]),
            bootstrap=bool(f["bootstrap"]),
            min_samples_split=int(f["min_samples_split"]),
        )
        return MetaModel(
            columns=list(payload["columns"]),
            imputer=Imputer(means=np.asarray(payload["imputer_means"], dtype=np.float64)),
            scaler=FeatureScaler(
                mins=np.asarray(payload["scaler_mins"], dtype=np.float64),
                maxs=np.asarray(payload["scaler_maxs"], dtype=np.float64),
            ),
            forest=forest,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc
