"""Monte Carlo hypervolume estimation inside the minimal enclosing ball.

A detector's hypervolume is the fraction of the smallest hypersphere around
the (scaled) training data that it classifies as normal. The ball is fitted
with Badoiu-Clarkson core-set iterations; points are sampled uniformly in
fixed-size chunks with per-chunk derived seeds so aggregate counts are
identical for any parallel schedule. A ``BallSample`` draws each chunk once,
so every detector estimated on it scores the same points.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .detectors import TrainedDetector, TrainingRows, canonical_rows
from .util import chunk_ranges, pmap, rng_from

SAMPLE_CHUNK = 65536  # fixed: part of the determinism contract
DIMENSION_WARN = 12


@dataclass(frozen=True)
class EnclosingBall:
    """Minimal enclosing hypersphere (within epsilon slack) of a point set."""

    center: np.ndarray
    radius: float
    epsilon: float

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=np.float64)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, points: np.ndarray, slack: float = 1e-9) -> np.ndarray:
        d = np.linalg.norm(points - self.center, axis=1)
        return d <= self.radius * (1.0 + slack)


@dataclass(frozen=True)
class HypervolumeEstimate:
    """Fraction of ball volume a detector accepts as normal."""

    fraction: float
    n_samples: int
    std_error: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError("fraction must lie in [0, 1]")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


def fit_enclosing_ball(points: np.ndarray, epsilon: float = 1e-3) -> EnclosingBall:
    """Badoiu-Clarkson core-set fit of the minimal enclosing ball.

    Update rule: c <- c + (p_far - c)/(t + 1), capped at ceil(1/epsilon^2)
    iterations, which guarantees radius <= (1 + epsilon) * r_opt. The center
    is an implicit convex combination of visited points, so the dual value
    sum(w_i |p_i|^2) - |c|^2 <= r_opt^2 gives an O(1) certificate used to
    exit as soon as the (1 + epsilon) factor is provably reached.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"need a (n>=1, d) point matrix, got shape {pts.shape}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    pts = canonical_rows(pts)  # exact row-order invariance
    sq_norms = np.einsum("ij,ij->i", pts, pts)

    c = pts[0].copy()
    s1 = float(sq_norms[0])  # running sum(w_i |p_i|^2) under the implicit weights
    max_iter = int(np.ceil(1.0 / epsilon**2))
    for t in range(1, max_iter + 1):
        d2 = sq_norms - 2.0 * (pts @ c) + float(c @ c)
        far = int(np.argmax(d2))
        r_ub = float(np.sqrt(max(d2[far], 0.0)))
        dual = s1 - float(c @ c)
        if dual > 0 and r_ub <= (1.0 + epsilon) * np.sqrt(dual):
            break
        if r_ub == 0.0:
            break
        step = 1.0 / (t + 1.0)
        c += (pts[far] - c) * step
        s1 = (1.0 - step) * s1 + step * float(sq_norms[far])

    radius = float(np.sqrt(np.maximum(np.max(
        np.einsum("ij,ij->i", pts - c, pts - c)), 0.0)))
    return EnclosingBall(center=c, radius=radius, epsilon=epsilon)


def _chunk_points(ball: EnclosingBall, size: int, seed: int, chunk_index: int) -> np.ndarray:
    """Uniform draws in the ball for one chunk; pure function of (seed, chunk)."""
    rng = rng_from(seed, "ball-chunk", chunk_index)
    d = ball.dim
    g = rng.standard_normal((size, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0  # degenerate gaussian draw maps to the center
    u = rng.random(size)
    radii = ball.radius * np.power(u, 1.0 / d)
    return ball.center + g * (radii / norms)[:, None]


def sample_uniform_in_ball(ball: EnclosingBall, n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform points in the ball: gaussian direction, radius R*u^(1/d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    parts = [_chunk_points(ball, size, seed, ci) for ci, size in chunk_ranges(n, SAMPLE_CHUNK)]
    return np.concatenate(parts, axis=0)


class BallSample:
    """Uniform points in a ball under one seed, drawn chunk by chunk, each
    chunk once however many detectors score it: common random numbers.

    Chunk ``ci`` of ``size`` points is ``_chunk_points(ball, size, seed,
    ci)``, so a sample of n points is ``sample_uniform_in_ball(ball, n,
    seed)``. For each chunk and ``TrainingRows`` it also keeps, computed
    once, the chunk's ``TrainingRows.nearest`` bound, which every distance
    model fitted on those rows reads. It holds n x d x 8 bytes of points and
    n x 8 bytes per training matrix. It is safe to share between threads: a
    thread that asks for a chunk or bound under way waits for it.
    """

    def __init__(self, ball: EnclosingBall, seed: int):
        self.ball = ball
        self.seed = seed
        self._lock = threading.Lock()
        self._cells: dict[tuple, list] = {}

    def _once(self, key: tuple, make: Callable[[], np.ndarray]) -> np.ndarray:
        with self._lock:
            cell = self._cells.setdefault(key, [threading.Lock(), None])
        with cell[0]:
            if cell[1] is None:
                cell[1] = make()
                cell[1].setflags(write=False)
        return cell[1]

    def chunk(self, index: int, size: int) -> np.ndarray:
        """The points of chunk ``index``, read-only."""
        return self._once(("chunk", index, size), lambda: _chunk_points(self.ball, size, self.seed, index))

    def nearest(self, index: int, size: int) -> Callable[[TrainingRows], np.ndarray]:
        """``rows -> rows.nearest(chunk)`` for chunk ``index``, computed once per rows."""
        return lambda rows: self._once(("nearest", index, size, rows), lambda: rows.nearest(self.chunk(index, size)))


def estimate_hypervolume(detector: TrainedDetector, sample: BallSample, n: int, jobs: int = 1) -> HypervolumeEstimate:
    """Fraction of n points of ``sample``, ``sample_uniform_in_ball(ball, n,
    sample.seed)``, that the detector predicts as normal."""
    ball = sample.ball
    if n < 1:
        raise ValueError("n must be >= 1")
    if detector.dim != ball.dim:
        raise ValueError(f"detector dimension {detector.dim} != ball dimension {ball.dim}")
    if ball.dim > DIMENSION_WARN:
        warnings.warn(
            f"hypervolume estimation in d={ball.dim} is likely vacuous "
            f"(ball-to-data volume ratio explodes)",
            stacklevel=2,
        )

    def count_normal(task: tuple[int, int]) -> int:
        ci, size = task
        flagged = detector.predict_many(sample.chunk(ci, size), nearest=sample.nearest(ci, size))
        return int(size - flagged.sum())

    counts = pmap(count_normal, list(chunk_ranges(n, SAMPLE_CHUNK)), jobs)
    fraction = sum(counts) / n
    return HypervolumeEstimate(
        fraction=fraction,
        n_samples=n,
        std_error=float(np.sqrt(fraction * (1.0 - fraction) / n)),
    )
