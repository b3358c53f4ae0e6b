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
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigError, FitError
from .util import rng_from

PORTFOLIO_VERSION = "native-8/1"


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
        if isinstance(value, bool):  # JSON true would pass as 1
            return False
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
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
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
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DetectorConfig":
        """The config a JSON object names. Unknown keys are refused; a
        ``config_id`` (as ``rank`` prints one) must be the config's own."""
        try:
            raw = json.loads(text)
            if not isinstance(raw, dict):
                raise TypeError("not a JSON object")
            unknown = set(raw) - {"algorithm", "params", "contamination", "seed", "config_id"}
            if unknown:
                raise ConfigError(f"unknown detector config keys {sorted(unknown)}")
            config = cls(
                algorithm=raw["algorithm"],
                params=raw["params"],
                contamination=raw["contamination"],
                seed=raw.get("seed", 0),
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"malformed detector config: {exc}") from exc
        if raw.get("config_id", config.config_id) != config.config_id:
            raise ConfigError(f"config_id {raw['config_id']!r} is not this config's id {config.config_id!r}")
        return config


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


def _pairwise_sq_dists(A: np.ndarray, cols: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Squared euclidean distances of A's rows to n training rows, summed feature by feature.

    ``cols`` holds the training rows transposed, (d, n) and C-contiguous.
    The distances are written to ``out[:len(A)]``, which is returned; ``tmp``
    is scratch of the same shape. Both are caller-owned and reused across
    blocks. Each entry depends on its own pair of rows only, so scores do not
    change with the query block size. No score comes from a BLAS product,
    whose kernel and summation order vary with the number of rows and
    threads: BLAS only bounds distances, in ``_SqDistBounds``.
    """
    m = A.shape[0]
    d2, diff = out[:m], tmp[:m]
    np.subtract(A[:, :1], cols[0], out=d2)
    d2 *= d2
    for j in range(1, A.shape[1]):
        np.subtract(A[:, j : j + 1], cols[j], out=diff)
        diff *= diff
        d2 += diff
    return d2


def _by_blocks(Q: np.ndarray, width: int, score_block: Callable) -> np.ndarray:
    """Scores of Q's rows from ``score_block(block, out, tmp)``, block by block.

    A block holds ``_block_rows(width)`` rows. Every block reuses one pair of
    (rows x width) buffers, ``out`` and ``tmp``.
    """
    rows = min(_block_rows(width), max(Q.shape[0], 1))
    out, tmp = np.empty((rows, width)), np.empty((rows, width))
    scores = np.empty(Q.shape[0])
    for s in range(0, Q.shape[0], rows):
        scores[s : s + rows] = score_block(Q[s : s + rows], out, tmp)
    return scores


_U = np.finfo(np.float64).eps / 2  # unit roundoff
_TINY = np.finfo(np.float64).tiny  # smallest normal: bounds the absolute error of an underflow


class _SqDistBounds:
    """Two-sided bounds on the squared distances of query rows Q to the
    training rows, as ``_pairwise_sq_dists`` computes them, from BLAS products.

    ``w`` stacks ``-2 x.T`` over ``|x|^2``, for x the training rows centred on
    the training mean, and ``radius`` is the largest ``|x|``. The per-row
    terms are computed once for all of Q: ``q2 = |q|^2`` and the error bound
    ``err``, for q the row centred on the training mean.
    ``products`` yields, block by block, the product ``p = [q, 1] @ w``, which
    gives ``|x_j|^2 - 2 q.x_j`` per row, and ``v = p + |q|^2`` the squared
    distance.

    Error bound (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3;
    u the unit roundoff, gamma_n = n u / (1 - n u), S = (|q| + radius)^2):
      * the length-(d+1) product, ``|x|^2`` and ``|q|^2`` each err by at most
        gamma_{d+1} times the sum of their terms' magnitudes, together at most
        2 gamma_{d+2} S for every training row;
      * centring moves q - x by at most u (|q| + |x|), so |q - x|^2 by 2u S;
      * adding ``|q|^2`` rounds once more, by u S.
    So the computed v lies within ``err = (2d + 16) u S`` (with room for
    rounding S itself) plus (4d + 16) underflows of the exact squared distance
    D, on either side, whatever the summation order of any of these sums. The
    feature-by-feature sum of d rounded squares of rounded differences lies
    within a factor (1 +- u)^(d+2) of D, and each bound below rounds three
    times more (add, subtract, product): the factor ``1 -+ (d + 8) u`` covers
    all of them, so ``lo(p) <= computed <= hi(p)`` for every entry of every
    product, whichever block computed it. Both are monotone in p, so the k-th
    smallest p of a row bounds its k-th smallest distance. Every distance,
    exact or computed, is at most (1 + d u) S, which ``2 S`` bounds. A NaN or
    infinite input gives a NaN or infinite bound, which settles nothing.
    """

    def __init__(self, Q: np.ndarray, mean: np.ndarray, w: np.ndarray, radius: float):
        (m, d), n = Q.shape, w.shape[1]
        self.Q, self.mean, self.w, self.radius = Q, mean, w, radius
        self.q2, col = np.zeros(m), np.empty(m)
        for j in range(d):  # column by column: no (m x d) copy of Q
            np.subtract(Q[:, j], mean[j], out=col)
            col *= col
            self.q2 += col
        self.err = self.scale(out=col)
        self.err *= (2 * d + 16) * _U
        self.err += (4 * d + 16) * _TINY
        self.rel = (d + 8) * _U
        self.buffer_shape = (min(_block_rows(n), max(m, 1)), n)  # one block's (rows x n) products
        self._qa = np.ones((self.buffer_shape[0], d + 1))
        self._p = np.empty(self.buffer_shape)

    def products(self, rows: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """``(s, p)`` per block of the query rows ``rows`` (all of Q by
        default): p holds the products of rows ``s`` to ``s + len(p)`` of them,
        in one buffer reused by every block."""
        m = self.Q.shape[0] if rows is None else rows.size
        step = self.buffer_shape[0]
        for s in range(0, m, step):
            e = min(s + step, m)
            qa = self._qa[: e - s]
            np.subtract(self.Q[s:e] if rows is None else self.Q[rows[s:e]], self.mean, out=qa[:, :-1])
            yield s, np.matmul(qa, self.w, out=self._p[: e - s])

    def scale(self, out: np.ndarray | None = None) -> np.ndarray:
        """S = (|q| + radius)^2 of every query row."""
        S = np.sqrt(self.q2, out=out)
        S += self.radius
        S *= S
        return S

    def nearest(self) -> np.ndarray:
        """Each query row's lower bound on its smallest computed squared
        distance: ``lo`` of its smallest product, as ``lo`` is monotone."""
        least = np.empty(self.Q.shape[0])
        for s, p in self.products():
            np.minimum.reduce(p, axis=1, out=least[s : s + len(p)])
        return self.lo(least, out=least)

    def _terms(self, p: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        q2, err = self.q2[rows], self.err[rows]
        return (q2[:, None], err[:, None]) if p.ndim == 2 else (q2, err)

    def lo(self, p: np.ndarray, rows=slice(None), out: np.ndarray | None = None) -> np.ndarray:
        """Lower bounds on the computed squared distances whose products are
        p, of query rows ``rows``: one per row, or a (rows x columns) block."""
        q2, err = self._terms(p, rows)
        lo = np.add(p, q2, out=out)
        lo -= err
        np.maximum(lo, 0.0, out=lo)
        lo *= 1.0 - self.rel
        return lo

    def hi(self, p: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Upper bounds, likewise."""
        q2, err = self._terms(p, rows)
        return (p + q2 + err) * (1.0 + self.rel)


def _only_settled(floor: np.ndarray, above: float) -> np.ndarray:
    """``floor`` where it is finite and above ``above``, NaN elsewhere."""
    floor[~(np.isfinite(floor) & (floor > above))] = np.nan
    return floor


class TrainingRows:
    """Training rows X, as a model is fitted on them, shared by every model
    fitted on one training matrix: the transposed columns that the exact
    distance kernel reads, and the operands of ``_SqDistBounds``."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self.cols = np.ascontiguousarray(X.T)

    @classmethod
    def of(cls, train: LabeledDataset) -> "TrainingRows":
        """The canonical rows of ``train``, made once per dataset object and
        kept on it, so that every fit on one dataset object shares them."""
        rows = train.__dict__.get("_training_rows")
        if rows is None:  # two threads may both build it; setdefault keeps the first
            rows = train.__dict__.setdefault("_training_rows", cls(canonical_rows(train.features)))
        return rows

    @cached_property
    def operands(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The training mean, ``[-2 x.T; |x|^2]`` and the radius of the centred rows x."""
        mean = self.X.mean(axis=0)
        xc = self.X - mean
        x2 = np.einsum("ij,ij->i", xc, xc)
        return mean, np.vstack([-2.0 * xc.T, x2]), np.sqrt(x2.max())

    def nearest(self, Q: np.ndarray) -> np.ndarray:
        """``_SqDistBounds.nearest`` of Q's rows against these rows: the bound
        that a distance model fitted on them computes for Q itself."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _SqDistBounds(Q, *self.operands).nearest()


class _Model:
    """A portfolio model; ``train_scores`` gives the scores that set its threshold."""

    def train_scores(self, X: np.ndarray) -> np.ndarray:
        """Scores of the training rows X, which the model was fitted on."""
        return self.query_scores(X)

    def decision_scores(self, Q: np.ndarray, above: float, nearest: Callable | None = None) -> np.ndarray:
        """Scores of Q's rows, where a row proven to score above ``above`` may
        get a lower bound of its score instead, itself above ``above``."""
        return self.query_scores(Q)


class _DistanceModel(_Model):
    """A model scored from each query row's squared distances to its training rows.

    Subclasses give ``_block_scores(block, out, tmp)``, the exact scores of
    one query block, and ``_decide(bounds, above, nearest)``, which returns
    per query row a floor of its score above ``above``, an exact score, or
    NaN for a row to be scored by ``_block_scores``. ``nearest`` is the
    rows' ``TrainingRows.nearest`` bound when the caller shares one, else None.
    """

    def __init__(self, rows: TrainingRows):
        self.rows = rows
        self.X = rows.X
        self._cols = rows.cols

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        return _by_blocks(Q, self.X.shape[0], self._block_scores)

    def decision_scores(self, Q: np.ndarray, above: float, nearest: Callable | None = None) -> np.ndarray:
        """Bound and refine. ``_decide`` bounds every distance from BLAS
        products, block by block, and runs each per-row stage once over all
        of Q; the rows it leaves NaN are scored exactly, gathered. An exact
        score depends on its own row only, so ``decision_scores(Q, t) > t``
        equals ``query_scores(Q) > t`` bit for bit. ``nearest(rows)``, if
        given, returns ``rows.nearest(Q)``, computed once for every model
        fitted on the same rows."""
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN or infinite bound settles nothing
            shared = None if nearest is None else nearest(self.rows)
            scores = self._decide(_SqDistBounds(Q, *self.rows.operands), above, shared)
            full = np.flatnonzero(np.isnan(scores))
            if full.size:
                scores[full] = self.query_scores(Q[full])
        return scores


class _KnnModel(_DistanceModel):
    def __init__(self, rows: TrainingRows, k: int, aggregation: str):
        super().__init__(rows)
        self.k = k
        self.aggregation = aggregation

    @classmethod
    def fit(cls, rows: TrainingRows, params: Mapping, seed: int) -> "_KnnModel":
        k = int(params["k"])
        if rows.X.shape[0] <= k:
            raise FitError(f"knn with k={k} needs more than {k} training rows, got {rows.X.shape[0]}")
        return cls(rows, k, str(params["aggregation"]))

    def _block_scores(self, block: np.ndarray, out: np.ndarray, tmp: np.ndarray, exclude_self: bool = False) -> np.ndarray:
        k_eff = self.k + 1 if exclude_self else self.k
        d2 = _pairwise_sq_dists(block, self._cols, out, tmp)
        if self.aggregation == "largest":  # the k_eff-th smallest alone: no sort
            if k_eff == 1:
                return np.sqrt(d2.min(axis=1))
            d2.partition(k_eff - 1, axis=1)
            return np.sqrt(d2[:, k_eff - 1])
        # mean and median sum in order: sort the k_eff nearest, drop the self-distance
        d2.partition(k_eff - 1, axis=1)
        dists = np.sqrt(np.sort(d2[:, :k_eff], axis=1)[:, k_eff - self.k :])
        return dists.mean(axis=1) if self.aggregation == "mean" else np.median(dists, axis=1)

    def _decide(self, bounds: _SqDistBounds, above: float, nearest: np.ndarray | None) -> np.ndarray:
        # Every aggregation of k distances, each at least sqrt(nearest) as sqrt
        # and the sum are monotone, is at least that less k + 1 roundings.
        floor = np.sqrt(bounds.nearest() if nearest is None else nearest)
        floor *= 1.0 - (self.k + 4) * _U
        return _only_settled(floor, above)

    def train_scores(self, X: np.ndarray) -> np.ndarray:
        """Leave-self-out: the k nearest other training rows."""
        return _by_blocks(X, X.shape[0], lambda b, out, tmp: self._block_scores(b, out, tmp, exclude_self=True))


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


class _LofModel(_DistanceModel):
    def __init__(self, rows: TrainingRows, k: int, kdist: np.ndarray):
        super().__init__(rows)
        self.k = k
        self.kdist = kdist

    @classmethod
    def fit(cls, rows: TrainingRows, params: Mapping, seed: int) -> "_LofModel":
        k = int(params["n_neighbors"])
        X = rows.X
        n = X.shape[0]
        if n <= k:
            raise FitError(f"lof with n_neighbors={k} needs more than {k} training rows, got {n}")
        order = np.empty((n, k), dtype=np.intp)
        ndist = np.empty((n, k))
        step = _block_rows(n)
        out, tmp = np.empty((min(step, n), n)), np.empty((min(step, n), n))
        for s in range(0, n, step):
            d = _pairwise_sq_dists(X[s : s + step], rows.cols, out, tmp)
            np.sqrt(d, out=d)
            m = d.shape[0]
            d[np.arange(m), np.arange(s, s + m)] = np.inf  # a row is not its own neighbour
            order[s : s + m] = _k_nearest(d, k)
            ndist[s : s + m] = np.take_along_axis(d, order[s : s + m], axis=1)
        model = cls(rows, k, kdist=ndist[:, -1])
        model._lrd = model._lrd_from(ndist, order)
        model._train_lof = model._lrd[order].mean(axis=1) / model._lrd
        model._least_lrd = np.sort(model._lrd)[:k].mean()  # the first floor's terms
        model._least_kdist = model.kdist.min()
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

    def _lof(self, order: np.ndarray, ndist: np.ndarray) -> np.ndarray:
        """LOF of query rows from their k nearest, ``order``, and distances, ``ndist``."""
        return self._lrd[order].mean(axis=1) / self._lrd_from(ndist, order)

    def _block_scores(self, block: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        d = _pairwise_sq_dists(block, self._cols, out, tmp)
        np.sqrt(d, out=d)
        order = _k_nearest(d, self.k)
        return self._lof(order, np.take_along_axis(d, order, axis=1))

    def _certified(self, bounds: _SqDistBounds, rows: np.ndarray | None) -> Iterator:
        """Certified neighbour sets of the query rows ``rows`` (all of Q if
        None), ``(q, p, cert, flat)`` per block of them as ``products`` yields
        them, q holding the block's query row indices.

        One partition of a copy of the product finds each row's k smallest
        entries, N. When ``sqrt(hi)`` of the k-th stays below
        ``sqrt(lo)`` of the (k+1)-th, every computed distance in N is below
        every other one after the rounded ``sqrt`` too (both monotone), so N
        is exactly the set ``_k_nearest`` picks, with no tie at the k-th.
        ``cert`` marks those rows of the block, and ``flat`` holds the flat
        indices into p of their N, k per row in ascending column order.
        """
        k = self.k
        index = np.arange(bounds.Q.shape[0]) if rows is None else rows
        part, mask = np.empty(bounds.buffer_shape), np.empty(bounds.buffer_shape, dtype=bool)
        for s, p in bounds.products(rows):
            q = index[s : s + len(p)]
            part_b = part[: len(p)]
            np.copyto(part_b, p)
            part_b.partition(k, axis=1)
            kth = part_b[:, :k].max(axis=1)
            cert = np.sqrt(bounds.hi(kth, q)) < np.sqrt(bounds.lo(part_b[:, k], q))
            within = np.less_equal(p, kth[:, None], out=mask[: len(p)])
            within[~cert] = False
            yield q, p, cert, np.flatnonzero(within).reshape(-1, k)

    def _decide(self, bounds: _SqDistBounds, above: float, nearest: np.ndarray | None) -> np.ndarray:
        """On a certified row the floor is mean(lrd[N]) * mean(max(kdist[N],
        sqrt(lo_N))): each reach is at most the computed one, so each real
        mean is too; each computed mean (of k terms) is within gamma_k of its
        real mean, ``1 / mean_reach`` and the division (or the lrd cap, which
        only raises the score) round twice, and the floor's product and
        slack round twice, so ``1 - (4k + 16) u`` covers them all; underflows
        cost less than ``_TINY`` as every lrd is at most ``_LRD_CAP``. A
        certified row left open keeps its N, and is scored from N alone in
        batches of at most ``_BLOCK_ELEMENTS`` neighbour indices; any other
        row is NaN, to be scored in full.

        A shared ``nearest`` bound gives every row a first floor, before any
        product: L * max(sqrt(nearest), min kdist), L the computed mean of
        the k smallest training lrds. Every computed distance is at least
        the rounded sqrt(nearest) (sqrt is monotone), so every reach of N is
        at least r = max(sqrt(nearest), min kdist), exactly. The computed
        mean_reach is at least r (1 - gamma_(k-1)) (1 - u); the computed
        mean(lrd[N]) is at least (1 - gamma_(k-1)) (1 - u) times the real
        mean of the k smallest lrds, which is at least L / (1 + gamma_(k-1))
        / (1 + u); 1 / mean_reach and the division round once each, and the
        floor's product and slack once each: about 3k + 9 roundings in all,
        which ``1 - (4k + 16) u`` covers with room for the second-order
        terms, and ``_TINY`` covers the underflows as above. Only the rows
        it leaves open reach the partition. Without a shared bound the
        certified floor alone is used: up to rounding it is never below the
        first floor, and every row pays for its product anyway.
        """
        m, n, k = bounds.Q.shape[0], self.X.shape[0], self.k
        floor = np.full(m, np.nan)
        rows = None
        if nearest is not None:
            first = np.sqrt(nearest)
            np.maximum(first, self._least_kdist, out=first)
            first *= self._least_lrd
            first *= 1.0 - (4 * k + 16) * _U
            first -= _TINY
            settled = np.isfinite(first) & (first > above)
            floor[settled] = first[settled]
            rows = np.flatnonzero(~settled)
        total = m if rows is None else rows.size
        # each block adds at most buffer_shape[0] open rows, and k < n, so a block always fits the batch
        kept = np.empty((min(max(1, _BLOCK_ELEMENTS // k), total), k), dtype=np.intp)
        kept_rows = np.empty(len(kept), dtype=np.intp)
        held = done = 0
        for q, p, ok, flat in self._certified(bounds, rows):
            done += len(p)
            got_rows, nbr = q[ok], flat % n
            reach = np.sqrt(bounds.lo(p.ravel()[flat], got_rows))
            np.maximum(self.kdist[nbr], reach, out=reach)
            got = self._lrd[nbr].mean(axis=1) * reach.mean(axis=1)
            got *= 1.0 - (4 * k + 16) * _U
            got -= _TINY
            floor[got_rows] = got
            left = ~(np.isfinite(got) & (got > above))
            opened = np.count_nonzero(left)
            kept[held : held + opened], kept_rows[held : held + opened] = nbr[left], got_rows[left]
            held += opened
            if held and (held + bounds.buffer_shape[0] > len(kept) or done == total):
                floor[kept_rows[:held]] = self._from_neighbours(bounds.Q[kept_rows[:held]], kept[:held])
                held = 0
        return floor

    def _from_neighbours(self, Q: np.ndarray, nbr: np.ndarray) -> np.ndarray:
        """Exact scores of Q's rows from their certified k nearest ``nbr``
        alone, in ascending index per row. The k distances are summed feature
        by feature and sorted stably by (distance, index) as in
        ``_k_nearest``, so bit for bit."""
        d = np.sqrt(_pairwise_sq_dists(Q, self._cols[:, nbr], np.empty(nbr.shape), np.empty(nbr.shape)))
        order = d.argsort(axis=1, kind="stable")
        return self._lof(np.take_along_axis(nbr, order, axis=1), np.take_along_axis(d, order, axis=1))


class _IsolationForest(_Model):
    """Isolation forest (Liu, Ting & Zhou, ICDM 2008) stored level-major.

    Every tree is a complete binary tree of depth ``cap = ceil(log2 psi)``.
    Level L of the forest holds ``n_trees * 2**L`` nodes, tree after tree, so
    node i of a level has its children at 2i (left) and 2i+1 (right) of the
    next level, with no per-tree offset. The flat arrays ``_feature`` and
    ``_path`` hold the levels back to back. Internal nodes send x right when
    ``x[feature] >= threshold``, so a NaN goes left. ``path`` is NaN at
    internal nodes and holds ``depth + c(size)`` at a leaf and at every node
    below it, so a query descends exactly ``cap`` levels and reads its path
    length from the bottom level. The read-only properties ``feature``,
    ``threshold`` and ``path`` give each tree as one complete-tree row, where
    node i has children 2i+1 and 2i+2.

    Packed keys. A forest whose rank fields fit one 64-bit word keeps one key
    per node in place of its threshold, and a query descends it with one
    gather per level, of the node's key. Feature f's field is
    ``bit_length(n_f) + 1`` bits wide, n_f the number of split nodes on f,
    and its top bit is a guard. A split node's key is its threshold's
    position among f's sorted thresholds S_f, plus 1, shifted into f's field;
    leaves and the nodes below them have key 0. A query row's code holds, in
    each field, r_f(x) = #{s in S_f : s <= x} (0 for NaN) with every guard
    set. Then ``x >= threshold`` exactly when r_f(x) >= key rank k, as
    #{s < threshold} < k <= #{s <= threshold}; a NaN has rank 0 and goes
    left, as ``NaN >= threshold`` does. A key never exceeds its field, so
    ``code - key`` borrows across no field, and its guards are all set
    exactly when the node's comparison holds. A forest too wide for one word
    keeps its float thresholds and compares the node feature's value: there,
    a row's d binary searches for its ranks cost more than the gathers they
    save. A packed node takes 17 bytes (key, path, one-byte feature id for
    up to 256 features), a wider forest's node 24 as before.
    """

    _WORD_BITS = 64

    def __init__(self, feature: np.ndarray, threshold: np.ndarray, path: np.ndarray, n_trees: int, psi: int):
        self._feature = feature
        self._threshold = threshold
        self._path = path
        self._key = None  # packed keys, once ``_pack`` finds that the fields fit one word
        self.n_trees = n_trees
        self.psi = psi
        self.cap = int(np.log2(feature.size // n_trees + 1)) - 1

    def _level(self, depth: int) -> slice:
        return slice(self.n_trees * (2**depth - 1), self.n_trees * (2 ** (depth + 1) - 1))

    def _trees(self, flat: np.ndarray) -> np.ndarray:
        out = np.concatenate([flat[self._level(L)].reshape(self.n_trees, -1) for L in range(self.cap + 1)], axis=1)
        out.flags.writeable = False
        return out

    feature = property(lambda self: self._trees(self._feature.astype(np.intp)))
    threshold = property(lambda self: self._trees(self._thresholds()))
    path = property(lambda self: self._trees(self._path))

    def _pack(self, d: int) -> None:
        """Where the rank fields of d features fit one word, replace the
        thresholds with packed keys and shrink the feature ids to the
        smallest integer type. Split nodes are sorted by threshold, then
        stably by feature: one ``argsort`` and a radix sort on the small ids.
        A wider forest keeps intp feature ids, which its descent adds to row
        offsets: a smaller type would cost a cast at every level."""
        split = np.flatnonzero(np.isnan(self._path[: self._level(self.cap).start]))  # the bottom level splits nothing
        counts = np.bincount(self._feature[split], minlength=d)
        widths = np.asarray([int(n).bit_length() + 1 for n in counts], dtype=np.uint64)
        if widths.sum() > self._WORD_BITS:
            return
        self._feature = self._feature.astype(np.min_scalar_type(d - 1))
        f = self._feature[split]
        thr = self._threshold[split]
        order = np.argsort(thr)
        order = order[np.argsort(f[order], kind="stable")]
        self._starts = np.concatenate([[0], np.cumsum(counts)])  # S_f is _sorted[_starts[f] : _starts[f + 1]]
        self._shifts = np.cumsum(widths) - widths
        self._guards = np.bitwise_or.reduce(np.uint64(1) << (self._shifts + widths - np.uint64(1)))
        self._sorted = thr[order]
        rank = np.empty(split.size, dtype=np.uint64)
        rank[order] = np.arange(1, split.size + 1) - np.repeat(self._starts[:-1], counts)
        self._key = np.zeros(self._path.size, dtype=np.uint64)
        self._key[split] = rank << self._shifts[f]
        self._threshold = None

    def _thresholds(self) -> np.ndarray:
        """Each node's threshold, 0 where it splits nothing, as grown."""
        if self._key is None:
            return self._threshold
        out = np.zeros(self._key.size)
        split = np.flatnonzero(self._key)
        f = self._feature[split]
        out[split] = self._sorted[self._starts[f] + (self._key[split] >> self._shifts[f]).astype(np.intp) - 1]
        return out

    def _encode(self, Q: np.ndarray) -> np.ndarray:
        """Each row's code: its rank ``r_f`` in every field, every guard set."""
        code = np.full(Q.shape[0], self._guards)
        for j in range(Q.shape[1]):
            S_j = self._sorted[self._starts[j] : self._starts[j + 1]]
            rank = np.searchsorted(S_j, Q[:, j], side="right").astype(np.uint64)
            rank[np.isnan(Q[:, j])] = 0
            rank <<= self._shifts[j]
            code |= rank
        return code

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
    def fit(cls, rows: TrainingRows, params: Mapping, seed: int) -> "_IsolationForest":
        X = rows.X
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
        model._pack(X.shape[1])
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
        """Mean path length of each query over all trees, through float
        thresholds: each level gathers the node's feature, the row's value of
        it and the node's threshold."""
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
        return self._tree_mean(self._path[self._level(self.cap)].take(node))

    def _packed_path_lengths(self, code: np.ndarray, scratch: list[np.ndarray]) -> np.ndarray:
        """Mean path length of each query over all trees, through packed keys:
        each level gathers the node's key, and nothing else. ``scratch`` holds
        an intp, a bool and a uint64 buffer of at least n_trees x rows
        entries, which every level and block reuses: fresh (n_trees x rows)
        temporaries would cost a page fault per 4 KB each time the allocator
        hands their pages back."""
        node, go_right, t = (buf[: self.n_trees * code.size].reshape(self.n_trees, -1) for buf in scratch)
        node[:] = np.arange(self.n_trees)[:, None]  # the roots, one per tree
        for depth in range(self.cap):
            key = self._key[self._level(depth)]
            # mode="clip": every index is in range, and the default mode copies through a temporary when given out=
            np.subtract(code, key[:, None] if depth == 0 else key.take(node, out=t, mode="clip"), out=t)
            t &= self._guards
            np.equal(t, self._guards, out=go_right)
            node *= 2
            node += go_right
        return self._tree_mean(self._path[self._level(self.cap)].take(node, out=t.view(np.float64), mode="clip"))

    def _tree_mean(self, lengths: np.ndarray) -> np.ndarray:
        """Mean over the trees (rows) of ``lengths``, summed in tree order."""
        total = lengths[0].copy()  # tree by tree: np.add.reduce would sum a one-row block pairwise
        for row in lengths[1:]:
            total += row
        return total / self.n_trees

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        c = max(float(self._avg_path(np.asarray([self.psi], dtype=np.float64))[0]), 1.0)
        rows = min(_block_rows(self.n_trees), max(Q.shape[0], 1))
        if self._key is not None:
            code = self._encode(Q)
            scratch = [np.empty(self.n_trees * rows, dtype=t) for t in (np.intp, bool, np.uint64)]
        out = np.empty(Q.shape[0])
        for s in range(0, Q.shape[0], rows):
            if self._key is None:
                lengths = self._path_lengths(Q[s : s + rows])
            else:
                lengths = self._packed_path_lengths(code[s : s + rows], scratch)
            out[s : s + rows] = np.power(2.0, -lengths / c)
        return out


class _HbosModel(_Model):
    def __init__(self, edges: list[np.ndarray | None], masses: list[np.ndarray], ranges: np.ndarray):
        self.edges = edges
        self.masses = masses
        self.ranges = ranges  # (d, 2) of (min, max)

    _EPS = 1e-12

    @classmethod
    def fit(cls, rows: TrainingRows, params: Mapping, seed: int) -> "_HbosModel":
        X = rows.X
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
    """Reconstruction error of principal components keeping ``retained_variance``.

    The residual of q is its squared length in the discarded directions,
    ``|(q - mean) V_rest.T|^2``, with V_rest the right singular vectors that
    the kept components leave out, of which there are d - m. Mathematically
    that is ``|centred - reconstruction|^2``; computed this way, a model that
    keeps every component has no discarded direction and scores exactly 0,
    whatever BLAS kernel or block shape, where the difference of the
    centred row and its reconstruction would be rounding noise.
    """

    def __init__(self, mean: np.ndarray, rest: np.ndarray):
        self.mean = mean
        self.rest = rest  # (d - m, d) orthonormal rows: the discarded directions

    @classmethod
    def fit(cls, rows: TrainingRows, params: Mapping, seed: int) -> "_PcaModel":
        X = rows.X
        n, d = X.shape
        if n < 2:
            raise FitError(f"pca needs at least 2 training rows, got {n}")
        retained = float(params["retained_variance"])
        mean = X.mean(axis=0)
        # zero rows pad n < d up to d, so that vt spans all d directions; they change no singular vector
        _, s, vt = np.linalg.svd(np.vstack([X - mean, np.zeros((max(0, d - n), d))]), full_matrices=False)
        var = s**2
        total = var.sum()
        if total <= 0:
            m = 1
        else:
            ratio = np.cumsum(var) / total
            m = int(np.searchsorted(ratio, retained - 1e-12) + 1)
            m = min(m, d)
        return cls(mean, np.ascontiguousarray(vt[m:]))

    def query_scores(self, Q: np.ndarray) -> np.ndarray:
        proj = (Q - self.mean) @ self.rest.T
        return np.einsum("ij,ij->i", proj, proj)


class _GaussianModel(_Model):
    def __init__(self, mean: np.ndarray, chol: np.ndarray):
        self.mean = mean
        self.chol = chol

    @classmethod
    def fit(cls, rows: TrainingRows, params: Mapping, seed: int) -> "_GaussianModel":
        X = rows.X
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


class _KdeModel(_DistanceModel):
    def __init__(self, rows: TrainingRows, bandwidth: float):
        super().__init__(rows)
        self.h = bandwidth

    @classmethod
    def fit(cls, rows: TrainingRows, params: Mapping, seed: int) -> "_KdeModel":
        return cls(rows, float(params["bandwidth"]))

    def _log_norm(self) -> float:
        n, d = self.X.shape
        return -np.log(n) - d * np.log(self.h) - 0.5 * d * np.log(2.0 * np.pi)

    def _block_scores(self, block: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """Negative log of the gaussian kernel density estimate."""
        e = _pairwise_sq_dists(block, self._cols, out, tmp)
        np.negative(e, out=e)
        e /= 2.0 * self.h**2
        m = e.max(axis=1)
        e -= m[:, None]
        np.exp(e, out=e)
        return -(m + np.log(e.sum(axis=1)) + self._log_norm())

    def _decide(self, bounds: _SqDistBounds, above: float, nearest: np.ndarray | None) -> np.ndarray:
        """The score is -(m + log(sum_j exp(e_j - m)) + c), e_j = -a_j with a_j
        = d2_j / (2 h^2) rounded and m = -min_j a_j; with b_j = lo_j / (2 h^2)
        rounded, b_j <= a_j as division is monotone. First floor, from the
        nearest bound: -m >= t = nearest / (2 h^2) = min_j b_j, and each exp(e_j - m <= 0) is at most 1
        within numpy's error (64 u allowed), so the sum of n terms is at most
        n (1 + (n + 64) u) and its log at most log n + (n + 128 + 64 log n) u,
        again allowing 64 u for numpy's log; the two roundings of the exact sum
        and the three of the bound each move it by at most u (t + log n + |c|).

        Rows it leaves open get a second floor, the same log-sum-exp over b,
        as -log sum_j exp(-a_j) rises with every a_j. On either side, rounding
        x_j = a_j - min a >= 0 moves exp(-x_j) by at most x_j e^-x_j u <= u / e,
        and numpy's exp by 64 u e^-x_j more; the sum holds exp(0) = 1, so with
        its own roundings it is within a factor 1 +- (2n + 66) u of the real
        one, and its log within (2n + 131 + 64 log n) u. The floor allows that
        twice, once per side, and 8 u (|lse| + log n + |c|) for the roundings
        of the two sums. As that sum is at least 1 within numpy's error, lse
        is at most t, and the second floor at most t - c, which the first
        floor plus log n and twice its slack exceeds: a row below the
        threshold there is scored exactly without the second floor.

        If some distance over 2 h^2 could overflow, m may be -inf and the score
        NaN: such a row is never settled.
        """
        n = self.X.shape[0]
        h2 = 2.0 * self.h**2
        log_n, c = np.log(n), self._log_norm()
        t = (bounds.nearest() if nearest is None else nearest) / h2
        t[~np.isfinite(2.0 * bounds.scale() / h2)] = np.nan
        slack = t + log_n  # (n + 128 + 64 log n) u + 8 u (t + log n + |c|), in place
        slack += abs(c)
        slack *= 8 * _U
        slack += (n + 128 + 64 * log_n) * _U
        floor = t  # t - log n - c - slack, in place
        floor -= log_n
        floor -= c
        floor -= slack
        ceiling = slack  # floor + log n + 2 slack, at least any second floor
        ceiling *= 2.0
        ceiling += log_n
        ceiling += floor
        rows = np.flatnonzero(np.isfinite(floor) & ~(floor > above) & (ceiling > above))
        del slack, ceiling
        if rows.size:
            lse = np.empty(rows.size)
            for s, p in bounds.products(rows):
                b = bounds.lo(p, rows[s : s + len(p)], out=p)
                b /= h2
                least = b.min(axis=1, keepdims=True)
                np.exp(np.subtract(least, b, out=b), out=b)
                lse[s : s + len(p)] = least[:, 0] - np.log(b.sum(axis=1))
            slack = (4 * n + 512 + 128 * log_n) * _U + 8 * _U * (np.abs(lse) + log_n + abs(c))
            floor[rows] = lse - c - slack
        return _only_settled(floor, above)


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
    dim: int

    def scores(self, X: np.ndarray, above: float | None = None, nearest: Callable | None = None) -> np.ndarray:
        """Anomaly scores of the rows of X.

        With ``above``, a row proven to score above it may get a lower bound
        of its score, itself above ``above``, in place of the score. So
        ``scores(X, above=t) > t`` equals ``scores(X) > t`` bit for bit, and
        knn, LOF and KDE settle clear anomalies without scoring them.
        ``nearest(rows)``, if given, returns ``rows.nearest(X)`` for the
        model's ``TrainingRows``, shared by every model fitted on them.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.dim:
            raise ValueError(f"expected {self.dim}-dimensional inputs, got {X.shape[1]}")
        if above is None:
            return self.model.query_scores(X)
        return self.model.decision_scores(X, above, nearest)

    def predict_many(self, X: np.ndarray, nearest: Callable | None = None) -> np.ndarray:
        """1 where score exceeds the threshold (anomaly), else 0."""
        return (self.scores(X, above=self.threshold, nearest=nearest) > self.threshold).astype(np.int8)


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
    rows = TrainingRows.of(train)
    model = _FITTERS[config.algorithm](rows, config.params, config.seed)
    train_scores = np.asarray(model.train_scores(rows.X), dtype=np.float64)
    if not np.all(np.isfinite(train_scores)):
        raise FitError(f"{config.algorithm}: non-finite training scores")
    threshold = float(np.quantile(train_scores, 1.0 - config.contamination, method="linear"))
    return TrainedDetector(config=config, model=model, threshold=threshold, dim=train.dim)


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
