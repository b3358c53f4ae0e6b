"""Independent reference implementations used only for checking results."""

import sys

import numpy as np

from adselect import metamodel


def welzl_min_circle(points: np.ndarray, seed: int = 0) -> tuple[np.ndarray, float]:
    """Exact minimal enclosing circle in 2-D (Welzl's algorithm)."""

    def circle_two(p, q):
        c = (p + q) / 2.0
        return c, float(np.linalg.norm(p - c))

    def circle_three(a, b, c):
        ax, ay = a
        bx, by = b
        cx, cy = c
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if d == 0:
            return None
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
        center = np.asarray([ux, uy])
        return center, float(np.linalg.norm(a - center))

    def trivial(R):
        if len(R) == 0:
            return np.zeros(2), 0.0
        if len(R) == 1:
            return np.asarray(R[0]), 0.0
        if len(R) == 2:
            return circle_two(R[0], R[1])
        res = circle_three(*R)
        if res is not None:
            return res
        best = None  # collinear support: smallest two-point circle covering all three
        for i in range(3):
            pair = [R[j] for j in range(3) if j != i]
            c, r = circle_two(*pair)
            if all(np.linalg.norm(p - c) <= r * (1 + 1e-12) for p in R):
                if best is None or r < best[1]:
                    best = (c, r)
        return best

    def rec(P, R):
        if not P or len(R) == 3:
            return trivial(R)
        p = P.pop()
        c, r = rec(P, R)
        if np.linalg.norm(p - c) <= r * (1 + 1e-12):
            P.append(p)
            return c, r
        res = rec(P, R + [p])
        P.append(p)
        return res

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10 * len(points) + 1000))
    shuffled = list(np.random.default_rng(seed).permutation(points))
    return rec(shuffled, [])


def kendall_tau_b_bruteforce(x, y) -> float:
    """O(n^2) pair counting straight from the tau-b definition."""
    n = len(x)
    nc = nd = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = int(x[i] > x[j]) - int(x[i] < x[j])
            dy = int(y[i] > y[j]) - int(y[i] < y[j])
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx != 0 and dy != 0:
                if dx == dy:
                    nc += 1
                else:
                    nd += 1
    n0 = n * (n - 1) // 2
    denom = (n0 - tied_x) * (n0 - tied_y)
    if denom <= 0:
        return 0.0
    return (nc - nd) / np.sqrt(denom)


def spearman_rho(x, y) -> float:
    """Rank correlation with average ranks for ties (Pearson on ranks)."""

    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            r[order[i : j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)


class BallDetector:
    """Oracle detector that accepts exactly a ball of the given radius."""

    def __init__(self, center: np.ndarray, radius: float):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def predict_many(self, X: np.ndarray, nearest=None) -> np.ndarray:
        d = np.linalg.norm(X - self.center, axis=1)
        return (d > self.radius).astype(np.int8)


class ConstantDetector:
    """Oracle detector that flags everything (or nothing)."""

    def __init__(self, dim: int, flag_everything: bool):
        self.dim = dim
        self.flag = flag_everything

    def predict_many(self, X: np.ndarray, nearest=None) -> np.ndarray:
        return np.full(X.shape[0], 1 if self.flag else 0, dtype=np.int8)


def iforest_leaves(feature, threshold, path, x) -> list[tuple[int, int]]:
    """(leaf node, depth) that x reaches in every tree of a flat isolation forest.

    Walks one point down one tree at a time and stops at the first node with
    a path length, a leaf; internal nodes hold NaN there. x goes right where
    ``x[feature] >= threshold``, so a NaN goes left.
    """
    leaves = []
    for t in range(feature.shape[0]):
        node, depth = 0, 0
        while np.isnan(path[t, node]):
            node = 2 * node + 2 if x[feature[t, node]] >= threshold[t, node] else 2 * node + 1
            depth += 1
        leaves.append((node, depth))
    return leaves


def iforest_mean_path(feature, threshold, path, Q) -> np.ndarray:
    """Mean path length of each row of Q, summed over trees in tree order."""
    out = []
    for x in Q:
        total = 0.0
        for t, (node, _) in enumerate(iforest_leaves(feature, threshold, path, x)):
            total += path[t, node]
        out.append(total / feature.shape[0])
    return np.asarray(out)


def best_split_per_feature(X: np.ndarray, y: np.ndarray):
    """Best (feature, threshold) by variance reduction, one feature at a time.

    Strict-improvement scans in ascending feature order, with argmax taking
    the lowest threshold, so equal gains keep the lowest feature and then
    the lowest threshold. Midpoints that round up to the upper value fall
    back to the lower value.
    """
    m = X.shape[0]
    total_sum = y.sum()
    total_sq = (y * y).sum()
    parent_sse = total_sq - total_sum * total_sum / m
    best_gain = 0.0
    best = None
    counts = np.arange(1, m, dtype=np.float64)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        boundary = xs[:-1] < xs[1:]
        if not boundary.any():
            continue
        csum = np.cumsum(ys)[:-1]
        csq = np.cumsum(ys * ys)[:-1]
        left_sse = csq - csum**2 / counts
        right_sse = (total_sq - csq) - (total_sum - csum) ** 2 / (m - counts)
        gains = parent_sse - left_sse - right_sse
        gains[~boundary] = -np.inf
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            thr = (xs[k] + xs[k + 1]) / 2.0
            if thr >= xs[k + 1]:
                thr = xs[k]
            best = (j, float(thr))
    return best


def best_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
    """Best (feature, threshold) of one node: the one-node call of the forest's
    batched ``metamodel._best_splits``."""
    m = X.shape[0]
    if m < 2:
        return None
    counts = np.asarray([m])
    stats = metamodel._node_stats(y, y * y, np.zeros(1, int), counts)
    j, thr, found = metamodel._best_splits(X.T[:, None], y[None], counts, *stats)
    return (int(j[0]), float(thr[0])) if found[0] else None


def tree_predict(tree, X: np.ndarray) -> np.ndarray:
    """One tree's predictions: the one-tree call of ``metamodel._predict_trees``."""
    return metamodel._predict_trees([tree], X)[0]


def grow_tree_nodewise(X: np.ndarray, y: np.ndarray, split=best_split_per_feature) -> dict:
    """Regression tree grown depth first, one node record at a time.

    A split node's children are appended left then right; the left subtree
    is grown first. A node of two or more rows splits where ``split`` finds
    a split. A node's value is the mean of its targets, or the shared value
    itself when all targets are equal. Returns the five node arrays, each
    node's ``right`` child and ``value`` included.
    """
    nodes = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def new_node(rows):
        vals = y[rows]
        nodes["feature"].append(-1)
        nodes["threshold"].append(0.0)
        nodes["left"].append(-1)
        nodes["right"].append(-1)
        nodes["value"].append(float(vals[0]) if np.all(vals == vals[0]) else float(vals.mean()))
        return len(nodes["value"]) - 1

    stack = [(new_node(np.arange(X.shape[0])), np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if len(rows) < 2:
            continue
        found = split(X[rows], y[rows])
        if found is None:
            continue
        j, thr = found
        go = X[rows, j] <= thr
        nodes["feature"][node] = j
        nodes["threshold"][node] = thr
        nodes["left"][node] = new_node(rows[go])
        nodes["right"][node] = new_node(rows[~go])
        stack.append((nodes["right"][node], rows[~go]))
        stack.append((nodes["left"][node], rows[go]))
    return {
        "feature": np.asarray(nodes["feature"], dtype=np.int32),
        "threshold": np.asarray(nodes["threshold"], dtype=np.float64),
        "left": np.asarray(nodes["left"], dtype=np.int32),
        "right": np.asarray(nodes["right"], dtype=np.int32),
        "value": np.asarray(nodes["value"], dtype=np.float64),
    }


def grow_trees_nodewise(X: np.ndarray, y: np.ndarray, rows: np.ndarray, split=best_split_per_feature) -> list[dict]:
    """One tree per row of ``rows`` (its sample of X), each grown alone by
    ``grow_tree_nodewise``: the oracle of ``metamodel._grow_trees``."""
    return [grow_tree_nodewise(X[r], y[r], split) for r in rows]


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared euclidean distances, (len(A), len(B)), summed feature by feature.

    The detectors' kernel before it wrote into reused buffers: every call
    allocates its result and one temporary per feature.
    """
    cols = np.ascontiguousarray(B.T)
    d2 = np.subtract(A[:, :1], cols[0])
    d2 *= d2
    for j in range(1, A.shape[1]):
        diff = np.subtract(A[:, j : j + 1], cols[j])
        diff *= diff
        d2 += diff
    return d2


def knn_scores_sorted(X: np.ndarray, Q: np.ndarray | None, k: int, aggregation: str) -> np.ndarray:
    """knn scores from the sorted k nearest distances of each row, whole matrix at once.

    With Q None these are leave-self-out training scores: the k+1 nearest
    of each training row are sorted and the smallest, its own zero, is
    dropped. Distances are summed feature by feature, as in the detector.
    """
    A = X if Q is None else Q
    k_eff = k + 1 if Q is None else k
    d2 = pairwise_sq_dists(A, X)
    part = np.sort(np.partition(d2, k_eff - 1, axis=1)[:, :k_eff], axis=1)
    dists = np.sqrt(part[:, k_eff - k :])
    if aggregation == "largest":
        return dists[:, -1]
    if aggregation == "mean":
        return dists.mean(axis=1)
    return np.median(dists, axis=1)


def kde_scores_full(X: np.ndarray, Q: np.ndarray, h: float) -> np.ndarray:
    """Negative log gaussian KDE of Q's rows from one whole distance matrix."""
    n, d = X.shape
    const = -np.log(n) - d * np.log(h) - 0.5 * d * np.log(2.0 * np.pi)
    e = -pairwise_sq_dists(Q, X) / (2.0 * h**2)
    m = e.max(axis=1)
    return -(m + np.log(np.sum(np.exp(e - m[:, None]), axis=1)) + const)


def lof_full_matrix(X: np.ndarray, k: int, Q: np.ndarray, lrd_cap: float = 1e10) -> tuple[np.ndarray, np.ndarray]:
    """(train, query) LOF scores from whole distance matrices and full stable sorts.

    Neighbours are the first k of ``argsort(kind="stable")`` of each distance
    row, so ties go to the lower index; a training row is not its own
    neighbour. Distances are summed feature by feature, as in the detector.
    """

    def lrd(ndist, neighbors, kdist):
        mean_reach = np.maximum(kdist[neighbors], ndist).mean(axis=1)
        out = np.full_like(mean_reach, lrd_cap)
        pos = mean_reach > 0
        out[pos] = 1.0 / mean_reach[pos]
        return np.minimum(out, lrd_cap)

    d = np.sqrt(pairwise_sq_dists(X, X))
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    ndist = np.take_along_axis(d, order, axis=1)
    kdist = ndist[:, -1]
    train_lrd = lrd(ndist, order, kdist)
    dq = np.sqrt(pairwise_sq_dists(Q, X))
    qorder = np.argsort(dq, axis=1, kind="stable")[:, :k]
    query_lrd = lrd(np.take_along_axis(dq, qorder, axis=1), qorder, kdist)
    return train_lrd[order].mean(axis=1) / train_lrd, train_lrd[qorder].mean(axis=1) / query_lrd
