"""Independent reference implementations used only for checking results."""

import sys

import numpy as np


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

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(X - self.center, axis=1)
        return (d > self.radius).astype(np.int8)


class ConstantDetector:
    """Oracle detector that flags everything (or nothing)."""

    def __init__(self, dim: int, flag_everything: bool):
        self.dim = dim
        self.flag = flag_everything

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], 1 if self.flag else 0, dtype=np.int8)


def iforest_leaves(feature, threshold, path, x) -> list[tuple[int, int]]:
    """(leaf node, depth) that x reaches in every tree of a flat isolation forest.

    Walks one point down one tree at a time and stops at the first node with
    a path length, a leaf; internal nodes hold NaN there.
    """
    leaves = []
    for t in range(feature.shape[0]):
        node, depth = 0, 0
        while np.isnan(path[t, node]):
            node = 2 * node + 1 if x[feature[t, node]] < threshold[t, node] else 2 * node + 2
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
