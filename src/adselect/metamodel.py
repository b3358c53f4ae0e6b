"""Surrogate model: mean imputation and a random-forest regressor.

The forest reads the imputed features in their own units: a per-feature
increasing rescaling would not change how its splits divide the training
rows, so none is applied. The forest is deliberately self-contained and has
one configuration, so its behavior is pinned down: ``N_TREES`` (100) trees,
each on a bootstrap with replacement of size n, all features considered at
every split, variance-reduction criterion with midpoint candidate
thresholds, unlimited depth, 2 rows needed to split, and gain ties broken
by lowest feature index then lowest threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .detectors import PORTFOLIO_VERSION
from .errors import ModelFormatError
from .features import MetaDataset
from .util import log_event, pmap, read_json, read_text, rng_from, sha256_text, write_text

MODEL_FORMAT = "adselect-meta-model"
MODEL_VERSION = 3
N_TREES = 100


# ---------------------------------------------------------------------------
# meta-feature preparation


def drop_empty_landmarks(meta_train: MetaDataset, meta_test: MetaDataset) -> tuple[MetaDataset, MetaDataset]:
    """Remove landmark columns that hold no values in meta-test from both sets.

    Detector feature columns are never dropped.
    """
    if meta_train.columns != meta_test.columns:
        raise ValueError("meta-train and meta-test schemas differ")
    empty = np.all(np.isnan(meta_test.X), axis=0)
    dropped = {j for j in meta_test.landmark_columns() if empty[j]}
    keep = [j for j in range(len(meta_test.columns)) if j not in dropped]
    cols = [meta_train.columns[j] for j in keep]

    def project(md: MetaDataset) -> MetaDataset:
        return MetaDataset(
            columns=list(cols),
            X=md.X[:, keep].copy(),
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


# ---------------------------------------------------------------------------
# regression trees and forest

# Fixed, never derived from --jobs or the machine. A tree group holds at most
# this many (row, feature) values, or one tree's when that is more; padding
# keeps each split-search array under twice the group's values.
_FOREST_ELEMENTS = 1 << 16


@dataclass
class _Tree:
    feature: np.ndarray  # int32, -1 for leaves
    threshold: np.ndarray  # 0.0 at leaves
    left: np.ndarray  # int32, -1 for leaves; a split's right child is left + 1
    value: np.ndarray  # leaf mean; 0.0 at splits


def _predict_trees(trees: list[_Tree], X: np.ndarray) -> np.ndarray:
    """(len(trees), m) predictions: every tree descends together, one gather per level."""
    sizes = [len(t.feature) for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(roots, sizes)  # trees back to back: child ids become flat indices

    def flat(name):
        return np.concatenate([getattr(t, name) for t in trees])

    feature, threshold, value = flat("feature"), flat("threshold"), flat("value")
    left = flat("left") + shift
    node = np.repeat(roots[:, None], X.shape[0], axis=1)
    cols = np.arange(X.shape[0])
    while True:
        f = feature[node]
        inner = f >= 0
        if not inner.any():
            return value[node]
        go = X[cols, f] <= threshold[node]  # leaves read column -1; discarded below
        node = np.where(inner, left[node] + ~go, node)


def _node_stats(y: np.ndarray, ysq: np.ndarray, starts, counts) -> tuple[np.ndarray, ...]:
    """Target sum, sum of squares and parent SSE of each node's contiguous rows.

    One ``np.add.reduce`` per node: numpy's pairwise sum is not a sequential
    sum, so a segmented reduction (``reduceat``) can differ in the last bits.
    The square is ``s * s``, correctly rounded everywhere; a numpy scalar
    power ``s**2`` calls the C library's ``pow``, which need not be.
    """
    sums, sqs, parent = [], [], []
    for a, c in zip(starts.tolist(), counts.tolist()):
        s = np.add.reduce(y[a : a + c])
        q = np.add.reduce(ysq[a : a + c])
        sums.append(s)
        sqs.append(q)
        parent.append(q - s * s / c)
    return np.asarray(sums), np.asarray(sqs), np.asarray(parent)


def _best_splits(X, y, counts, sums, sqs, parent_sse) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (feature, threshold) of each of k nodes by variance reduction.

    X is (features, k, m) and y is (k, m); a node's rows past its count are
    padding, NaN in X, which sorts after every real value (+inf included), so
    each node's own rows keep their sorted positions and cumsums. Candidates
    are midpoints between consecutive sorted unique values. Equal gains keep
    the lowest feature, then the lowest threshold: one argmax over each
    node's feature-major gain table returns the first maximum. Returns
    (feature, threshold, found), found False where no split gains.
    """
    d, k, m = X.shape
    order = X.argsort(axis=2, kind="stable")
    xs = X.ravel()[order + np.arange(0, d * k * m, m).reshape(d, k, 1)]
    ys = y.ravel()[order + np.arange(0, k * m, m).reshape(1, k, 1)]
    csum = ys.cumsum(axis=2)[:, :, :-1]
    csq = (ys * ys).cumsum(axis=2)[:, :, :-1]
    left_n = np.arange(1, m, dtype=np.float64)
    total_sum, total_sq, n = sums[:, None], sqs[:, None], counts[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # padding only; masked below
        left_sse = csq - csum**2 / left_n
        right_sse = (total_sq - csq) - (total_sum - csum) ** 2 / (n - left_n)
    gains = parent_sse[:, None] - left_sse - right_sse
    gains[~((xs[:, :, :-1] < xs[:, :, 1:]) & (left_n < n))] = -np.inf
    gains = gains.transpose(1, 0, 2).reshape(k, -1)  # feature-major within each node
    best = gains.argmax(axis=1)
    j, pos = np.divmod(best, m - 1)
    nodes = np.arange(k)
    lo, hi = xs[j, nodes, pos], xs[j, nodes, pos + 1]
    thr = (lo + hi) / 2.0
    thr = np.where(thr >= hi, lo, thr)  # adjacent floats: midpoint rounded up, keep the split real
    return j, thr, gains[nodes, best] > 0.0


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(start, start + count) for every pair."""
    offsets = np.cumsum(counts) - counts
    return np.arange(counts.sum()) - np.repeat(offsets - starts, counts)


def _grow_trees(X: np.ndarray, y: np.ndarray, rows: np.ndarray) -> list[_Tree]:
    """Grow one tree per row of ``rows`` (its sample of X), level by level.

    Every live node of every tree is split in one pass per depth. A node owns
    a contiguous run of the tree's rows, in the order a depth-first grower
    would see them: a split moves its left rows before its right rows,
    each side keeping its order. Nodes are searched together by power-of-two
    size class, padded to the class's largest node, so every node fills more
    than half of its padded rows. Trees are then numbered depth first: the
    i-th split in preorder owns nodes 2i+1 and 2i+2.
    """
    n = rows.shape[1]
    XT = X[rows.ravel()].T.copy()  # (features, rows); node rows are contiguous
    yc = y[rows.ravel()]
    ysq = yc * yc
    tree = np.arange(len(rows))
    starts, counts = tree * n, np.full(len(rows), n)
    levels = []  # per depth: tree, value and split flag of each node; feature, threshold of each split
    while True:
        differ = np.logical_or.reduceat(
            yc[_ranges(starts, counts)] != np.repeat(yc[starts], counts), np.cumsum(counts) - counts
        )
        cand = np.flatnonzero(counts >= 2)  # one row cannot split; nodes whose targets differ are among these
        sums, sqs, parent = _node_stats(yc, ysq, starts[cand], counts[cand])
        value = yc[starts]  # every target equal: that value, exactly
        value[differ] = (sums / counts[cand])[differ[cand]]
        feature = np.zeros(cand.size, dtype=np.int64)
        threshold = np.zeros(cand.size)
        found = np.zeros(cand.size, dtype=bool)
        size_class = np.ceil(np.log2(counts[cand])).astype(int)
        for c in np.unique(size_class):
            part = np.flatnonzero(size_class == c)
            m = int(counts[cand[part]].max())
            node_rows = starts[cand[part], None] + np.arange(m)
            pad = np.arange(m) >= counts[cand[part], None]
            node_rows[pad] = 0
            Xp = XT[:, node_rows]
            Xp[:, pad] = np.nan
            feature[part], threshold[part], found[part] = _best_splits(
                Xp, yc[node_rows], counts[cand[part]], sums[part], sqs[part], parent[part]
            )
        split = np.zeros(starts.size, dtype=bool)
        split[cand[found]] = True
        feature, threshold = feature[found], threshold[found]
        levels.append((tree, value, split, feature, threshold))
        if not found.any():
            break

        # stable partition of each split node's rows: left rows first, each side in order
        s_starts, s_counts = starts[split], counts[split]
        pos = _ranges(s_starts, s_counts)
        owner = np.repeat(np.arange(s_starts.size), s_counts)
        go = XT[feature[owner], pos] <= threshold[owner]
        offsets = np.cumsum(s_counts) - s_counts
        left_before = np.cumsum(go) - go  # left rows ahead of this one, within its node below
        left_before -= left_before[offsets][owner]
        n_left = np.add.reduceat(go.astype(np.int64), offsets)
        dest = np.where(go, s_starts[owner] + left_before, pos + n_left[owner] - left_before)
        XT[:, dest] = XT[:, pos]
        yc[dest], ysq[dest] = yc[pos], ysq[pos]
        starts = np.stack([s_starts, s_starts + n_left], axis=1).ravel()
        counts = np.stack([n_left, s_counts - n_left], axis=1).ravel()
        tree = np.repeat(tree[split], 2)
    return _number_trees(levels)


def _number_trees(levels: list) -> list[_Tree]:
    """Node arrays in depth-first numbering from per-depth node records.

    The children of the i-th split node of a depth are nodes 2i and 2i+1 of
    the next depth. In a tree, the i-th split in preorder gets the children
    2i+1 and 2i+2, so its right child is always its left child + 1. Only
    leaves keep their value.
    """
    below = [None] * len(levels)  # splits in each node's subtree, itself included
    for depth in reversed(range(len(levels))):
        split = levels[depth][2]
        below[depth] = split.astype(np.int64)
        if split.any():
            below[depth][split] += below[depth + 1][0::2] + below[depth + 1][1::2]
    sizes = 2 * below[0] + 1
    offsets = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    feature = np.full(total, -1, dtype=np.int32)
    threshold = np.zeros(total)
    left = np.full(total, -1, dtype=np.int32)
    value = np.zeros(total)
    ids = np.zeros(sizes.size, dtype=np.int64)
    pre = np.zeros(sizes.size, dtype=np.int64)  # preorder rank among splits
    for depth, (tree, val, split, feat, thr) in enumerate(levels):
        at = offsets[tree] + ids
        value[at[~split]] = val[~split]
        p = pre[split]
        feature[at[split]] = feat
        threshold[at[split]] = thr
        left[at[split]] = 2 * p + 1
        if split.any():
            left_splits = below[depth + 1][0::2]
            pre = np.stack([p + 1, p + 1 + left_splits], axis=1).ravel()
            ids = np.stack([2 * p + 1, 2 * p + 2], axis=1).ravel()
    return [
        _Tree(feature=feature[a:b], threshold=threshold[a:b], left=left[a:b], value=value[a:b])
        for a, b in zip(offsets.tolist(), (offsets + sizes).tolist())
    ]


@dataclass
class ForestModel:
    """Bagged regression trees; prediction is the mean over trees."""

    trees: list[_Tree]
    n_features: int
    seed: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected (m, {self.n_features}) inputs, got {X.shape}")
        preds = _predict_trees(self.trees, X)
        out = preds.mean(axis=0)
        # where every tree agrees the mean is that value exactly
        unanimous = np.all(preds == preds[0], axis=0)
        out[unanimous] = preds[0, unanimous]
        return out


def rf_fit(X: np.ndarray, y: np.ndarray, seed: int, jobs: int = 1) -> ForestModel:
    """Fit the forest; tree t is grown on row t of the (N_TREES, n)
    bootstraps, all drawn from one stream under (seed, "forest") before any
    tree grows.

    Trees grow in groups of about ``_FOREST_ELEMENTS`` values, on ``jobs``
    workers. Trees are independent, so the grouping never changes a tree.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with matching y")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError("cannot fit on an empty training set or without features")
    n = X.shape[0]
    rows = rng_from(seed, "forest").integers(0, n, size=(N_TREES, n))
    per_group = max(1, _FOREST_ELEMENTS // (n * X.shape[1]))
    groups = [rows[s : s + per_group] for s in range(0, N_TREES, per_group)]
    grown = pmap(lambda g: _grow_trees(X, y, g), groups, jobs)
    return ForestModel(trees=[t for group in grown for t in group], n_features=X.shape[1], seed=seed)


# ---------------------------------------------------------------------------
# persisted meta-model bundle


@dataclass
class MetaModel:
    """Everything needed to score new instances: schema, imputer, forest."""

    columns: list[str]
    imputer: Imputer
    forest: ForestModel
    sha256: str | None = None  # of the bundle text it was loaded from; None for a model fitted here

    def predict(self, md: MetaDataset) -> np.ndarray:
        if md.columns != self.columns:
            raise ModelFormatError(f"instance schema {md.columns} does not match model schema {self.columns}")
        return self.forest.predict(self.imputer.transform(md.X))


def fit_meta_model(meta_train: MetaDataset, seed: int, jobs: int = 1) -> MetaModel:
    """Fill absent values with the train means and fit the forest on the result."""
    imputer = Imputer.fit(meta_train.X)
    forest = rf_fit(imputer.transform(meta_train.X), meta_train.y, seed=seed, jobs=jobs)
    return MetaModel(columns=list(meta_train.columns), imputer=imputer, forest=forest)


def save_model(model: MetaModel, path: str) -> None:
    """Versioned JSON serialization; floats round-trip exactly. The bundle
    names the detector portfolio whose features it was trained on, and
    keeps of each tree only the node arrays prediction reads."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "portfolio_version": PORTFOLIO_VERSION,
        "columns": model.columns,
        "imputer_means": model.imputer.means.tolist(),
        "forest": {
            "seed": model.forest.seed,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "value": t.value.tolist(),
                }
                for t in model.forest.trees
            ],
        },
    }
    write_text(path, json.dumps(payload))


def _node_ids(values: list) -> np.ndarray:
    """values as int32; ValueError unless each is a JSON integer, since a cast
    would truncate a fraction and read ``true`` as 1."""
    if not all(type(v) is int for v in values):
        raise ValueError("a feature or left that is not an integer")
    return np.asarray(values, dtype=np.int32)


def _checked_tree(t: dict, n_columns: int) -> _Tree:
    """One bundle tree's node arrays; ValueError unless every descent ends.

    The arrays must be one-dimensional, non-empty and of one length; every
    feature and ``left`` an integer; every feature in [-1, n_columns); every
    leaf's ``left`` -1; every split's children after it and inside the tree;
    every threshold and value finite.
    """
    tree = _Tree(
        feature=_node_ids(t["feature"]),
        threshold=np.asarray(t["threshold"], dtype=np.float64),
        left=_node_ids(t["left"]),
        value=np.asarray(t["value"], dtype=np.float64),
    )
    arrays = (tree.feature, tree.threshold, tree.left, tree.value)
    n = len(tree.feature)
    if n == 0 or any(a.shape != (n,) for a in arrays):
        raise ValueError("a tree's node arrays are empty or of unequal lengths")
    if not ((tree.feature >= -1) & (tree.feature < n_columns)).all():
        raise ValueError(f"a split feature outside [-1, {n_columns})")
    split = tree.feature >= 0
    left = tree.left[split]
    if (tree.left[~split] != -1).any() or (left <= np.flatnonzero(split)).any() or (left + 1 >= n).any():
        raise ValueError("a leaf with a child, or a split whose children are not after it inside the tree")
    if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
        raise ValueError("a threshold or value that is not finite")
    return tree


def load_model(path: str) -> MetaModel:
    """The bundle at ``path``, read once, with the sha256 of its text; one of
    another format version or detector portfolio is refused, since its
    forest was fitted on other features, and so is one whose imputer or trees
    do not fit its columns (``_checked_tree``)."""
    text = read_text(path, ModelFormatError, "model")
    payload = read_json(path, ModelFormatError, "model", text)
    try:
        if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
            raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
        if payload.get("version") != MODEL_VERSION:
            raise ModelFormatError(
                f"{path}: model version {payload.get('version')!r}, expected {MODEL_VERSION}; rerun train-meta"
            )
        if payload.get("portfolio_version") != PORTFOLIO_VERSION:
            raise ModelFormatError(
                f"{path}: trained on detector portfolio {payload.get('portfolio_version')!r}, "
                f"expected {PORTFOLIO_VERSION!r}; rerun assimilate and train-meta"
            )
        columns = list(payload["columns"])
        means = np.asarray(payload["imputer_means"], dtype=np.float64)
        if means.shape != (len(columns),) or not np.isfinite(means).all():
            raise ValueError(f"imputer means must be {len(columns)} finite numbers, one per column")
        trees = [_checked_tree(t, len(columns)) for t in payload["forest"]["trees"]]
        if len(trees) != N_TREES:
            raise ValueError(f"{len(trees)} trees, expected {N_TREES}")
        forest = ForestModel(trees=trees, n_features=len(columns), seed=int(payload["forest"]["seed"]))
        return MetaModel(columns=columns, imputer=Imputer(means=means), forest=forest, sha256=sha256_text(text))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc
