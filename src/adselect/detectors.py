"""Native portfolio of semi-supervised anomaly detectors.

Seven families covering distance (knn), local density (lof), ensemble
(iforest), histogram (hbos), projection (pca), parametric (gaussian), and
kernel density (kde) approaches. Every detector is fitted on normal-only
data; its decision threshold is the (1 - contamination) interpolated
quantile of its training scores, and scores are oriented so that higher
means more anomalous.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigError, FitError
from .util import rng_from

PORTFOLIO_VERSION = "native-7/2"


# ---------------------------------------------------------------------------
# configuration space


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # "int" | "real" | "log-real" | "categorical"
    low: float | None = None
    high: float | None = None
    choices: tuple | None = None
    default: object = None

    def contains(self, value: object) -> bool:
        if self.kind == "categorical":
            return value in (self.choices or ())
        if self.kind == "int":
            return isinstance(value, (int, np.integer)) and self.low <= value <= self.high
        if self.kind in ("real", "log-real"):
            return isinstance(value, (int, float, np.floating)) and self.low <= value <= self.high
        raise ValueError(f"unknown param kind {self.kind!r}")

    def sample(self, rng: np.random.Generator):
        if self.kind == "categorical":
            return self.choices[int(rng.integers(0, len(self.choices)))]
        if self.kind == "int":
            return int(rng.integers(int(self.low), int(self.high) + 1))
        if self.kind == "real":
            return float(rng.uniform(self.low, self.high))
        if self.kind == "log-real":
            return float(np.exp(rng.uniform(np.log(self.low), np.log(self.high))))
        raise ValueError(f"unknown param kind {self.kind!r}")


CONTAMINATION = ParamSpec("contamination", "real", 0.01, 0.2, default=0.1)

SPACES: dict[str, tuple[ParamSpec, ...]] = {
    "knn": (
        ParamSpec("k", "int", 1, 50, default=5),
        ParamSpec("aggregation", "categorical", choices=("largest", "mean", "median"), default="largest"),
    ),
    "lof": (ParamSpec("n_neighbors", "int", 2, 50, default=20),),
    "iforest": (
        ParamSpec("n_trees", "int", 50, 300, default=100),
        ParamSpec("subsample", "int", 64, 512, default=256),
    ),
    "hbos": (ParamSpec("n_bins", "int", 5, 50, default=10),),
    "pca": (ParamSpec("retained_variance", "real", 0.5, 0.99, default=0.9),),
    "gaussian": (ParamSpec("ridge", "log-real", 1e-6, 1e-1, default=1e-3),),
    "kde": (ParamSpec("bandwidth", "log-real", 1e-2, 1e1, default=1.0),),
}

ALGORITHMS: tuple[str, ...] = tuple(SPACES)


@dataclass(frozen=True)
class DetectorConfig:
    """An algorithm identity plus a full hyperparameter assignment."""

    algorithm: str
    params: Mapping[str, object]
    contamination: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in SPACES:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; portfolio: {list(SPACES)}")
        if not CONTAMINATION.contains(self.contamination) or not (0 < self.contamination < 0.5):
            raise ConfigError(f"contamination {self.contamination} outside (0, 0.5) band")
        object.__setattr__(self, "params", dict(self.params))
        for p in SPACES[self.algorithm]:
            if p.name not in self.params:
                raise ConfigError(f"{self.algorithm}: missing hyperparameter {p.name!r}")
            if not p.contains(self.params[p.name]):
                raise ConfigError(
                    f"{self.algorithm}: {p.name}={self.params[p.name]!r} outside its space"
                )
        extra = set(self.params) - {s.name for s in SPACES[self.algorithm]}
        if extra:
            raise ConfigError(f"{self.algorithm}: unknown hyperparameters {sorted(extra)}")

    @property
    def config_id(self) -> str:
        digest = hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:10]
        return f"{self.algorithm}-{digest}"

    def to_json(self) -> str:
        return json.dumps(
            {
                "algorithm": self.algorithm,
                "params": self.params,
                "contamination": self.contamination,
                "seed": self.seed,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DetectorConfig":
        try:
            raw = json.loads(text)
            return cls(
                algorithm=raw["algorithm"],
                params=raw["params"],
                contamination=raw["contamination"],
                seed=raw.get("seed", 0),
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"malformed detector config: {exc}") from exc


def default_configs() -> list[DetectorConfig]:
    """One default-parameterized config per portfolio algorithm, stable order."""
    return [
        DetectorConfig(
            algorithm=alg,
            params={s.name: s.default for s in SPACES[alg]},
            contamination=CONTAMINATION.default,
            seed=0,
        )
        for alg in ALGORITHMS
    ]


def sample_random_config(
    rng: np.random.Generator, algorithm: str | None = None
) -> DetectorConfig:
    """Uniformly random algorithm (unless given) and hyperparameter assignment."""
    if algorithm is None:
        algorithm = ALGORITHMS[int(rng.integers(0, len(ALGORITHMS)))]
    params = {s.name: s.sample(rng) for s in SPACES[algorithm]}
    contamination = CONTAMINATION.sample(rng)
    seed = int(rng.integers(0, 2**31 - 1))
    return DetectorConfig(algorithm=algorithm, params=params, contamination=contamination, seed=seed)


# ---------------------------------------------------------------------------
# model implementations

# Fixed sizes, never derived from --jobs, free memory or the machine. A query
# block holds _BLOCK_ELEMENTS // width rows, so that each (rows x width)
# temporary holds at most 2**16 float64 values (512 KB, cache-resident).
_BLOCK_ELEMENTS = 1 << 16
_TREE_GROUP = 64  # isolation trees grown together, level by level


def _block_rows(width: int) -> int:
    """Query rows per block so that a (rows x width) temporary fits the budget."""
    return max(1, _BLOCK_ELEMENTS // width)


def _pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared euclidean distances, (len(A), len(B)), summed feature by feature.

    Each entry depends on its own pair of rows only, so scores do not change
    with the query block size. A BLAS product would not do: its kernel and
    summation order vary with the number of rows.
    """
    cols = np.ascontiguousarray(B.T)
    d2 = np.subtract(A[:, :1], cols[0])
    d2 *= d2
    for j in range(1, A.shape[1]):
        diff = np.subtract(A[:, j : j + 1], cols[j])
        diff *= diff
        d2 += diff
    return d2


class _Model:
    """A portfolio model; ``train_scores`` gives the scores that set its threshold."""

    def train_scores(self, X: np.ndarray) -> np.ndarray:
        """Scores of the training rows X, which the model was fitted on."""
        return self.query_scores(X)


class _KnnModel(_Model):
    def __init__(self, X: np.ndarray, k: int, aggregation: str):
        self.X = X
        self.k = k
        self.aggregation = aggregation

    @classmethod
    def fit(cls, X: np.ndarray, params: Mapping, seed: int) -> "_KnnModel":
        k = int(params["k"])
        if X.shape[0] <= k:
            raise FitError(f"knn with k={k} needs more than {k} training rows, got {X.shape[0]}")
        return cls(X, k, str(params["aggregation"]))

    def _aggregate(self, dists: np.ndarray) -> np.ndarray:
        # dists: (m, k) ascending k smallest, or (m, 1) holding the k-th for "largest"
        if self.aggregation == "largest":
            return dists[:, -1]
        if self.aggregation == "mean":
            return dists.mean(axis=1)
        return np.median(dists, axis=1)

    def _knn_dists(self, Q: np.ndarray, exclude_self: bool) -> np.ndarray:
        k_eff = self.k + 1 if exclude_self else self.k
        largest = self.aggregation == "largest"
        out = np.empty((Q.shape[0], 1 if largest else self.k))
        rows = _block_rows(self.X.shape[0])
        for s in range(0, Q.shape[0], rows):
            block = Q[s : s + rows]
            d2 = _pairwise_sq_dists(block, self.X)
            if largest:  # the k_eff-th smallest alone: no sort
                part = d2.min(axis=1, keepdims=True) if k_eff == 1 else np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1 : k_eff]
            else:  # mean and median sum in order: sort the k_eff nearest, drop the self-distance
                part = np.sort(np.partition(d2, k_eff - 1, axis=1)[:, :k_eff], axis=1)[:, k_eff - self.k :]
            out[s : s + block.shape[0]] = np.sqrt(part)
        return out

    def train_scores(self, X: np.ndarray) -> np.ndarray:
        """Leave-self-out: the k nearest other training rows."""
        return self._aggregate(self._knn_dists(X, exclude_self=True))

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        return self._aggregate(self._knn_dists(Q, exclude_self=False))


def _k_nearest(d: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row, by (distance, index).

    Equal to ``np.argsort(d, axis=1, kind="stable")[:, :k]``, without sorting
    whole rows. A partition finds each row's k-th smallest distance; where
    exactly k entries lie at or below it, they are the k nearest, found in
    index order and then sorted stably by distance. A row where the k-th
    distance recurs beyond the k nearest is sorted in full, so that the tie
    goes to the lower index.
    """
    m, n = d.shape
    within = d <= np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    full = np.count_nonzero(within, axis=1) != k
    within[full] = False
    flat = np.flatnonzero(within).reshape(-1, k)  # row-major, so ascending index within a row
    flat = np.take_along_axis(flat, d.ravel()[flat].argsort(axis=1, kind="stable"), axis=1)
    out = np.empty((m, k), dtype=np.intp)
    out[~full] = flat % n
    for row in np.flatnonzero(full):
        out[row] = np.argsort(d[row], kind="stable")[:k]
    return out


_LRD_CAP = 1e10  # stands in for infinite local reachability density at duplicates


class _LofModel(_Model):
    def __init__(self, X: np.ndarray, k: int, kdist: np.ndarray):
        self.X = X
        self.k = k
        self.kdist = kdist

    @classmethod
    def fit(cls, X: np.ndarray, params: Mapping, seed: int) -> "_LofModel":
        k = int(params["n_neighbors"])
        n = X.shape[0]
        if n <= k:
            raise FitError(f"lof with n_neighbors={k} needs more than {k} training rows, got {n}")
        order = np.empty((n, k), dtype=np.intp)
        ndist = np.empty((n, k))
        rows = _block_rows(n)
        for s in range(0, n, rows):
            d = np.sqrt(_pairwise_sq_dists(X[s : s + rows], X))
            m = d.shape[0]
            d[np.arange(m), np.arange(s, s + m)] = np.inf  # a row is not its own neighbour
            order[s : s + m] = _k_nearest(d, k)
            ndist[s : s + m] = np.take_along_axis(d, order[s : s + m], axis=1)
        model = cls(X, k, kdist=ndist[:, -1])
        model._lrd = model._lrd_from(ndist, order)
        model._train_lof = model._lrd[order].mean(axis=1) / model._lrd
        return model

    def _lrd_from(self, ndist: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
        reach = np.maximum(self.kdist[neighbors], ndist)
        mean_reach = reach.mean(axis=1)
        lrd = np.full_like(mean_reach, _LRD_CAP)
        pos = mean_reach > 0
        lrd[pos] = 1.0 / mean_reach[pos]
        return np.minimum(lrd, _LRD_CAP)

    def train_scores(self, X: np.ndarray) -> np.ndarray:
        """Leave-self-out LOF of the training rows, found during the fit."""
        return self._train_lof

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        out = np.empty(Q.shape[0])
        rows = _block_rows(self.X.shape[0])
        for s in range(0, Q.shape[0], rows):
            block = Q[s : s + rows]
            d = np.sqrt(_pairwise_sq_dists(block, self.X))
            order = _k_nearest(d, self.k)
            ndist = np.take_along_axis(d, order, axis=1)
            lrd_q = self._lrd_from(ndist, order)
            out[s : s + block.shape[0]] = self._lrd[order].mean(axis=1) / lrd_q
        return out


class _IsolationForest(_Model):
    """Isolation forest (Liu, Ting & Zhou, ICDM 2008) stored level-major.

    Every tree is a complete binary tree of depth ``cap = ceil(log2 psi)``.
    Level L of the forest holds ``n_trees * 2**L`` nodes, tree after tree, so
    node i of a level has its children at 2i (left) and 2i+1 (right) of the
    next level, with no per-tree offset. The flat arrays ``_feature``,
    ``_threshold`` and ``_path`` hold the levels back to back. Internal nodes
    send x left when ``x[feature] < threshold``. ``path`` is NaN at internal
    nodes and holds ``depth + c(size)`` at a leaf and at every node below it,
    so a query descends exactly ``cap`` levels and reads its path length from
    the bottom level. The read-only properties ``feature``, ``threshold`` and
    ``path`` give each tree as one complete-tree row, where node i has
    children 2i+1 and 2i+2.
    """

    def __init__(self, feature: np.ndarray, threshold: np.ndarray, path: np.ndarray, n_trees: int, psi: int):
        self._feature = feature
        self._threshold = threshold
        self._path = path
        self.n_trees = n_trees
        self.psi = psi
        self.cap = int(np.log2(feature.size // n_trees + 1)) - 1

    def _level(self, depth: int) -> slice:
        return slice(self.n_trees * (2**depth - 1), self.n_trees * (2 ** (depth + 1) - 1))

    def _trees(self, flat: np.ndarray) -> np.ndarray:
        out = np.concatenate([flat[self._level(L)].reshape(self.n_trees, -1) for L in range(self.cap + 1)], axis=1)
        out.flags.writeable = False
        return out

    feature = property(lambda self: self._trees(self._feature))
    threshold = property(lambda self: self._trees(self._threshold))
    path = property(lambda self: self._trees(self._path))

    @staticmethod
    def _avg_path(n: np.ndarray | float):
        """Expected unsuccessful-search path length c(n) in a BST of n points."""
        n = np.asarray(n, dtype=np.float64)
        out = np.zeros_like(n)
        big = n > 2
        out[big] = 2.0 * (np.log(n[big] - 1.0) + np.euler_gamma) - 2.0 * (n[big] - 1.0) / n[big]
        out[n == 2] = 1.0
        return out

    @classmethod
    def fit(cls, X: np.ndarray, params: Mapping, seed: int) -> "_IsolationForest":
        n = X.shape[0]
        if n < 2:
            raise FitError(f"iforest needs at least 2 training rows, got {n}")
        n_trees = int(params["n_trees"])
        psi = min(int(params["subsample"]), n)
        cap = max(1, int(np.ceil(np.log2(max(psi, 2)))))
        size = n_trees * (2 ** (cap + 1) - 1)
        model = cls(np.zeros(size, dtype=np.intp), np.zeros(size), np.full(size, np.nan), n_trees, psi)
        c = cls._avg_path(np.arange(psi + 1))
        rng = rng_from(seed, "iforest")
        for g in range(0, n_trees, _TREE_GROUP):
            model._grow(X, rng, g, min(g + _TREE_GROUP, n_trees), c)
        # copy each leaf's path length down to every node of its subtree
        for depth in range(cap):
            children = model._path[model._level(depth + 1)]
            np.copyto(children, np.repeat(model._path[model._level(depth)], 2), where=np.isnan(children))
        return model

    def _grow(self, X: np.ndarray, rng: np.random.Generator, first: int, last: int, c: np.ndarray) -> None:
        """Grow trees ``first`` to ``last - 1`` together, level by level.

        ``c[k]`` is ``c(k)`` for k = 0..psi. The rows of every live segment (a
        node still to be split) are kept contiguous, segments in node order.
        One stable sort on (segment, goes right) carries each segment forward
        as its two child segments, left rows then right rows, each side in
        its old order; child sizes come from each segment's count of rows
        going right. Rows of leaves and finished children are dropped once.
        """
        n, d = X.shape
        flat_x = np.ascontiguousarray(X).ravel()
        psi = self.psi
        at = d * np.concatenate(  # offset of each sampled row in flat_x
            [rng.choice(n, size=psi, replace=False) if psi < n else np.arange(n) for _ in range(first, last)]
        )
        sizes = np.full(last - first, psi)
        node = np.arange(first, last)  # index of each live segment's node within its level
        for depth in range(self.cap):
            level = self._level(depth)
            starts = np.cumsum(sizes) - sizes
            feats = rng.integers(0, d, size=sizes.size)
            vals = flat_x.take(at + np.repeat(feats, sizes))
            lo = np.minimum.reduceat(vals, starts)
            hi = np.maximum.reduceat(vals, starts)
            # constant drawn feature: redraw uniformly among non-constant ones
            const = np.flatnonzero(lo == hi)
            if const.size:
                in_const = np.repeat(lo == hi, sizes)
                sub = X[at[in_const] // d]
                sub_starts = np.cumsum(sizes[const]) - sizes[const]
                mins = np.minimum.reduceat(sub, sub_starts, axis=0)
                maxs = np.maximum.reduceat(sub, sub_starts, axis=0)
                usable = mins < maxs
                n_usable = usable.sum(axis=1)
                ok = np.flatnonzero(n_usable > 0)  # others stay constant: they become leaves
                if ok.size:
                    pick = rng.integers(0, n_usable[ok])
                    f = np.argmax(np.cumsum(usable[ok], axis=1) > pick[:, None], axis=1)
                    feats[const[ok]] = f
                    lo[const[ok]] = mins[ok, f]
                    hi[const[ok]] = maxs[ok, f]
                    vals[in_const] = sub[np.arange(sub.shape[0]), np.repeat(feats[const], sizes[const])]
            thr = rng.uniform(lo, hi)
            thr = np.where(thr > lo, thr, np.nextafter(lo, hi))

            split = lo < hi
            self._path[level][node[~split]] = depth + c[sizes[~split]]
            self._feature[level][node[split]] = feats[split]
            self._threshold[level][node[split]] = thr[split]

            # segment s has children 2s (left) and 2s+1 (right)
            go_right = vals >= np.repeat(thr, sizes)
            n_right = np.add.reduceat(go_right, starts, dtype=np.intp)
            child_sizes = np.empty(2 * sizes.size, dtype=np.intp)
            child_sizes[0::2] = sizes - n_right
            child_sizes[1::2] = n_right
            child_node = np.repeat(2 * node, 2)
            child_node[1::2] += 1
            # children that are single rows or at the depth cap become leaves
            live = np.repeat(split, 2)
            done = live & ((child_sizes == 1) | (depth + 1 == self.cap))
            live ^= done
            self._path[self._level(depth + 1)][child_node[done]] = depth + 1 + c[child_sizes[done]]
            if not live.any():
                break

            # sort every row by child (2s + go_right), then cut out the rows of leaves
            # and finished children. Each segment holds 2+ of a group's at most
            # 64 * 512 rows, so keys fit 16 bits, where numpy's stable sort is a radix sort.
            key_type = np.min_scalar_type(2 * sizes.size - 1)
            key = np.repeat(np.arange(0, 2 * sizes.size, 2, dtype=key_type), sizes) + go_right
            at = at.take(np.argsort(key, kind="stable"))
            if not live.all():
                at = at[np.repeat(live, child_sizes)]
            sizes, node = child_sizes[live], child_node[live]

    def _path_lengths(self, Q: np.ndarray) -> np.ndarray:
        """Mean path length of each query over all trees, summed in tree order."""
        m, d = Q.shape
        flat_q = np.ascontiguousarray(Q).ravel()
        row_base = np.arange(m) * d
        level = self._level(0)  # the roots: one node per tree, no gather
        v = flat_q.take(row_base + self._feature[level][:, None])
        node = 2 * np.arange(self.n_trees)[:, None] + (v >= self._threshold[level][:, None])
        for depth in range(1, self.cap):
            level = self._level(depth)
            v = flat_q.take(row_base + self._feature[level].take(node))
            go_right = v >= self._threshold[level].take(node)
            node *= 2
            node += go_right
        lengths = self._path[self._level(self.cap)].take(node)
        total = lengths[0].copy()
        for row in lengths[1:]:
            total += row
        return total / self.n_trees

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        c = max(float(self._avg_path(np.asarray([self.psi], dtype=np.float64))[0]), 1.0)
        rows = _block_rows(self.n_trees)
        out = np.empty(Q.shape[0])
        for s in range(0, Q.shape[0], rows):
            out[s : s + rows] = np.power(2.0, -self._path_lengths(Q[s : s + rows]) / c)
        return out


class _HbosModel(_Model):
    def __init__(self, edges: list[np.ndarray | None], masses: list[np.ndarray], ranges: np.ndarray):
        self.edges = edges
        self.masses = masses
        self.ranges = ranges  # (d, 2) of (min, max)

    _EPS = 1e-12

    @classmethod
    def fit(cls, X: np.ndarray, params: Mapping, seed: int) -> "_HbosModel":
        n, d = X.shape
        bins = int(params["n_bins"])
        edges: list[np.ndarray | None] = []
        masses: list[np.ndarray] = []
        ranges = np.empty((d, 2))
        for j in range(d):
            col = X[:, j]
            mn, mx = float(col.min()), float(col.max())
            ranges[j] = (mn, mx)
            if mn == mx:
                edges.append(None)
                masses.append(np.asarray([1.0]))
                continue
            counts, e = np.histogram(col, bins=bins, range=(mn, mx))
            edges.append(e)
            masses.append(counts / n)
        return cls(edges, masses, ranges)

    def _feature_mass(self, col: np.ndarray, j: int) -> np.ndarray:
        mn, mx = self.ranges[j]
        if self.edges[j] is None:
            return np.where(col == mn, 1.0, 0.0)
        bins = len(self.masses[j])
        width = (mx - mn) / bins
        pos = np.clip(np.floor((col - mn) / width).astype(np.int64), 0, bins - 1)
        mass = self.masses[j][pos]
        return np.where((col >= mn) & (col <= mx), mass, 0.0)

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        s = np.zeros(Q.shape[0])
        for j in range(Q.shape[1]):
            s -= np.log(np.maximum(self._feature_mass(Q[:, j], j), self._EPS))
        return s


class _PcaModel(_Model):
    def __init__(self, mean: np.ndarray, components: np.ndarray):
        self.mean = mean
        self.components = components  # (m, d) orthonormal rows

    @classmethod
    def fit(cls, X: np.ndarray, params: Mapping, seed: int) -> "_PcaModel":
        n, d = X.shape
        if n < 2:
            raise FitError(f"pca needs at least 2 training rows, got {n}")
        retained = float(params["retained_variance"])
        mean = X.mean(axis=0)
        _, s, vt = np.linalg.svd(X - mean, full_matrices=False)
        var = s**2
        total = var.sum()
        if total <= 0:
            m = 1
        else:
            ratio = np.cumsum(var) / total
            m = int(np.searchsorted(ratio, retained - 1e-12) + 1)
            m = min(m, vt.shape[0])
        return cls(mean, vt[:m])

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        centered = Q - self.mean
        proj = centered @ self.components.T
        recon = proj @ self.components
        return np.sum((centered - recon) ** 2, axis=1)


class _GaussianModel(_Model):
    def __init__(self, mean: np.ndarray, chol: np.ndarray):
        self.mean = mean
        self.chol = chol

    @classmethod
    def fit(cls, X: np.ndarray, params: Mapping, seed: int) -> "_GaussianModel":
        ridge = float(params["ridge"])
        mean = X.mean(axis=0)
        centered = X - mean
        cov = (centered.T @ centered) / X.shape[0]
        cov[np.diag_indices_from(cov)] += ridge
        return cls(mean, np.linalg.cholesky(cov))

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        # squared Mahalanobis distance via triangular solve
        z = np.linalg.solve(self.chol, (Q - self.mean).T)
        return np.sum(z * z, axis=0)


class _KdeModel(_Model):
    def __init__(self, X: np.ndarray, bandwidth: float):
        self.X = X
        self.h = bandwidth

    @classmethod
    def fit(cls, X: np.ndarray, params: Mapping, seed: int) -> "_KdeModel":
        return cls(X, float(params["bandwidth"]))

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        """Negative log of the gaussian kernel density estimate."""
        n, d = self.X.shape
        const = -np.log(n) - d * np.log(self.h) - 0.5 * d * np.log(2.0 * np.pi)
        out = np.empty(Q.shape[0])
        rows = _block_rows(self.X.shape[0])
        for s in range(0, Q.shape[0], rows):
            block = Q[s : s + rows]
            e = -_pairwise_sq_dists(block, self.X) / (2.0 * self.h**2)
            m = e.max(axis=1)
            lse = m + np.log(np.sum(np.exp(e - m[:, None]), axis=1))
            out[s : s + block.shape[0]] = -(lse + const)
        return out


_FITTERS: dict[str, Callable] = {
    "knn": _KnnModel.fit,
    "lof": _LofModel.fit,
    "iforest": _IsolationForest.fit,
    "hbos": _HbosModel.fit,
    "pca": _PcaModel.fit,
    "gaussian": _GaussianModel.fit,
    "kde": _KdeModel.fit,
}


# ---------------------------------------------------------------------------
# fitting, scoring, prediction


@dataclass(frozen=True)
class TrainedDetector:
    """A fitted scorer with a contamination-calibrated decision threshold."""

    config: DetectorConfig
    model: object
    threshold: float
    trained_on: str
    dim: int

    def scores(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim}-dimensional inputs, got {X.shape[1]}")
        return self.model.query_scores(X)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        """1 where score exceeds the threshold (anomaly), else 0."""
        return (self.scores(X) > self.threshold).astype(np.int8)


def canonical_rows(X: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically (first column primary).

    Fitting on canonically ordered rows makes every detector's state, and
    hence its scores, bitwise independent of training-row order (randomized
    detectors additionally need a fixed structural seed).
    """
    return X[np.lexsort(X.T[::-1])]


def fit(config: DetectorConfig, train: LabeledDataset) -> TrainedDetector:
    """Fit a detector on (nominally all-normal) training data.

    The threshold is the (1 - contamination) linearly interpolated quantile
    of training scores; for knn/lof those are leave-self-out scores.
    """
    if train.n_anomalies > 0:
        warnings.warn(
            f"{train.name}: training data contains {train.n_anomalies} labeled anomalies",
            stacklevel=2,
        )
    X = canonical_rows(train.features)
    model = _FITTERS[config.algorithm](X, config.params, config.seed)
    train_scores = np.asarray(model.train_scores(X), dtype=np.float64)
    if not np.all(np.isfinite(train_scores)):
        raise FitError(f"{config.algorithm}: non-finite training scores")
    threshold = float(np.quantile(train_scores, 1.0 - config.contamination, method="linear"))
    return TrainedDetector(
        config=config, model=model, threshold=threshold, trained_on=train.name, dim=train.dim
    )


def score(detector: TrainedDetector, x: np.ndarray) -> float:
    """Anomaly score of a single feature vector (higher = more anomalous)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != detector.dim:
        raise ValueError(f"expected a {detector.dim}-vector, got shape {x.shape}")
    return float(detector.scores(x[None, :])[0])


def predict(detector: TrainedDetector, x: np.ndarray) -> int:
    """1 if x scores above the calibrated threshold (anomaly), else 0."""
    return int(score(detector, x) > detector.threshold)


def describe_portfolio() -> list[dict]:
    """Machine-readable portfolio description for the list-detectors command."""
    out = []
    for alg in ALGORITHMS:
        params = []
        for s in SPACES[alg] + (CONTAMINATION,):
            entry: dict = {"name": s.name, "kind": s.kind, "default": s.default}
            if s.kind == "categorical":
                entry["choices"] = list(s.choices)
            else:
                entry["low"], entry["high"] = s.low, s.high
            params.append(entry)
        out.append({"algorithm": alg, "params": params})
    return out
