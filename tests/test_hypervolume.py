import sys
import threading

import numpy as np
import pytest

from adselect import hypervolume

from adselect.dataset import LabeledDataset
from adselect.detectors import DetectorConfig, TrainingRows, fit
from adselect.hypervolume import (
    SAMPLE_CHUNK,
    BallSample,
    EnclosingBall,
    HypervolumeEstimate,
    estimate_hypervolume,
    fit_enclosing_ball,
    sample_uniform_in_ball,
)

from oracles import BallDetector, ConstantDetector, welzl_min_circle


# ---------------------------------------------------------------------------
# enclosing ball


def test_ball_two_symmetric_points():
    b = fit_enclosing_ball(np.asarray([[-1.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(b.center, [0.0, 0.0])
    assert b.radius == pytest.approx(1.0, abs=1e-12)


def test_ball_single_point():
    b = fit_enclosing_ball(np.asarray([[3.0, 4.0, 5.0]]))
    assert np.array_equal(b.center, [3.0, 4.0, 5.0])
    assert b.radius == 0.0


def test_ball_identical_points():
    b = fit_enclosing_ball(np.full((7, 2), 2.5))
    assert b.radius == 0.0


def test_ball_close_to_welzl_on_random_sets():
    for i in range(5):
        pts = np.random.default_rng(i).standard_normal((100, 2))
        b = fit_enclosing_ball(pts, epsilon=1e-3)
        _, r_exact = welzl_min_circle(pts, seed=i)
        assert b.radius <= r_exact * (1.0 + 1e-3 * (1 + 1e-6))
        assert b.radius >= r_exact * (1.0 - 1e-9)
        assert b.contains(pts, slack=0.0).all()


def test_ball_row_order_invariant():
    pts = np.random.default_rng(42).standard_normal((80, 3))
    perm = np.random.default_rng(43).permutation(80)
    a = fit_enclosing_ball(pts)
    b = fit_enclosing_ball(pts[perm])
    assert np.array_equal(a.center, b.center)
    assert a.radius == b.radius


# ---------------------------------------------------------------------------
# uniform sampling


def test_samples_stay_inside_ball():
    ball = EnclosingBall(center=np.asarray([1.0, -2.0]), radius=3.0, epsilon=1e-3)
    pts = sample_uniform_in_ball(ball, 50_000, seed=1)
    r = np.linalg.norm(pts - ball.center, axis=1)
    assert np.all(r <= ball.radius * (1 + 1e-12))


def test_sample_half_radius_fraction_d2():
    ball = EnclosingBall(center=np.zeros(2), radius=2.0, epsilon=1e-3)
    n = 200_000
    pts = sample_uniform_in_ball(ball, n, seed=2)
    frac = float(np.mean(np.linalg.norm(pts, axis=1) <= ball.radius / 2))
    p = 0.25
    assert abs(frac - p) <= 3 * np.sqrt(p * (1 - p) / n)


def test_sample_mean_near_center():
    ball = EnclosingBall(center=np.asarray([5.0, -1.0, 2.0]), radius=1.5, epsilon=1e-3)
    n = 100_000
    pts = sample_uniform_in_ball(ball, n, seed=3)
    # per-coordinate variance of uniform ball: R^2/(d+2)
    sigma_mean = ball.radius / np.sqrt(n * (ball.dim + 2))
    assert np.all(np.abs(pts.mean(axis=0) - ball.center) <= 3 * sigma_mean)


def test_sampling_deterministic_and_chunk_stable():
    ball = EnclosingBall(center=np.zeros(2), radius=1.0, epsilon=1e-3)
    a = sample_uniform_in_ball(ball, SAMPLE_CHUNK + 17, seed=9)
    b = sample_uniform_in_ball(ball, SAMPLE_CHUNK + 17, seed=9)
    assert np.array_equal(a, b)
    # a shorter draw is a prefix: chunk seeds depend only on the chunk index
    c = sample_uniform_in_ball(ball, SAMPLE_CHUNK, seed=9)
    assert np.array_equal(a[:SAMPLE_CHUNK], c)


# ---------------------------------------------------------------------------
# hypervolume estimation


def test_estimate_all_normal_and_all_anomalous():
    ball = EnclosingBall(center=np.zeros(3), radius=1.0, epsilon=1e-3)
    assert estimate_hypervolume(ConstantDetector(3, False), BallSample(ball, 4), 1000).fraction == 1.0
    assert estimate_hypervolume(ConstantDetector(3, True), BallSample(ball, 4), 1000).fraction == 0.0


def test_estimate_nested_ball_oracle():
    ball = EnclosingBall(center=np.zeros(2), radius=2.0, epsilon=1e-3)
    n = 200_000
    det = BallDetector(np.zeros(2), 1.0)  # rho = 1/2 -> area fraction 1/4
    est = estimate_hypervolume(det, BallSample(ball, 5), n)
    p = 0.25
    assert abs(est.fraction - p) <= 3 * np.sqrt(p * (1 - p) / n)
    assert est.std_error == pytest.approx(np.sqrt(est.fraction * (1 - est.fraction) / n))


def test_estimate_monotone_for_nested_detectors():
    ball = EnclosingBall(center=np.zeros(2), radius=2.0, epsilon=1e-3)
    small = BallDetector(np.zeros(2), 0.8)
    large = BallDetector(np.zeros(2), 1.4)  # superset of small's acceptance region
    f_small = estimate_hypervolume(small, BallSample(ball, 6), 50_000).fraction
    f_large = estimate_hypervolume(large, BallSample(ball, 6), 50_000).fraction
    assert f_large >= f_small


def test_estimate_seed_stability():
    ball = EnclosingBall(center=np.zeros(2), radius=2.0, epsilon=1e-3)
    det = BallDetector(np.zeros(2), 1.0)
    n = 100_000
    a = estimate_hypervolume(det, BallSample(ball, 7), n)
    b = estimate_hypervolume(det, BallSample(ball, 8), n)
    pooled = np.sqrt(a.std_error**2 + b.std_error**2)
    assert abs(a.fraction - b.fraction) < 6 * pooled


def test_estimate_jobs_do_not_change_counts():
    ball = EnclosingBall(center=np.zeros(2), radius=2.0, epsilon=1e-3)
    det = BallDetector(np.asarray([0.3, -0.2]), 1.1)
    n = 3 * SAMPLE_CHUNK + 123
    a = estimate_hypervolume(det, BallSample(ball, 9), n, jobs=1)
    b = estimate_hypervolume(det, BallSample(ball, 9), n, jobs=4)
    assert a.fraction == b.fraction


@pytest.mark.parametrize("algorithm,params", [
    ("knn", {"k": 3, "aggregation": "mean"}),
    ("lof", {"n_neighbors": 10}),
    ("kde", {"bandwidth": 0.5}),
    ("iforest", {"n_trees": 50, "subsample": 64}),
])
def test_estimate_jobs_do_not_change_detector_counts(algorithm, params):
    # two sample chunks, decided on one worker and on two; both count what the exact scores say
    X = np.random.default_rng(10).standard_normal((300, 3))
    det = fit(DetectorConfig(algorithm=algorithm, params=params, contamination=0.1, seed=1),
              LabeledDataset(features=X, labels=np.zeros(300, dtype=np.int8), name="hv"))
    ball = fit_enclosing_ball(X)
    n = SAMPLE_CHUNK + 4321
    a = estimate_hypervolume(det, BallSample(ball, 11), n, jobs=1)
    b = estimate_hypervolume(det, BallSample(ball, 11), n, jobs=2)
    anomalies = int((det.scores(sample_uniform_in_ball(ball, n, seed=11)) > det.threshold).sum())
    assert a.fraction == b.fraction == (n - anomalies) / n
    assert 0.0 < a.fraction < 1.0


def test_ball_sample_draws_each_chunk_and_bound_once_under_contention(monkeypatch):
    # more threads than cores, switching every microsecond: a lost update would draw twice or hand out two arrays
    drawn = []
    real_chunk = hypervolume._chunk_points
    monkeypatch.setattr(hypervolume, "_chunk_points", lambda *a: drawn.append(a[3]) or real_chunk(*a))
    X = np.random.default_rng(12).standard_normal((50, 3))
    rows = TrainingRows(X)
    sample = BallSample(fit_enclosing_ball(X), 13)
    got = []

    def work():
        for ci in (0, 1):
            got.append((ci, sample.chunk(ci, 500), sample.nearest(ci, 500)(rows)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(drawn) == [0, 1] and len(got) == 16
    for ci in (0, 1):
        mine = [(pts, near) for c, pts, near in got if c == ci]
        assert all(pts is mine[0][0] and near is mine[0][1] for pts, near in mine)
        assert mine[0][0].tobytes() == real_chunk(sample.ball, 500, 13, ci).tobytes()
        assert mine[0][1].tobytes() == rows.nearest(mine[0][0]).tobytes()


def test_estimate_dimension_mismatch():
    ball = EnclosingBall(center=np.zeros(3), radius=1.0, epsilon=1e-3)
    with pytest.raises(ValueError, match="dimension"):
        estimate_hypervolume(BallDetector(np.zeros(2), 1.0), BallSample(ball, 0), 100)


def test_estimate_warns_in_high_dimension():
    ball = EnclosingBall(center=np.zeros(13), radius=1.0, epsilon=1e-3)
    with pytest.warns(UserWarning, match="vacuous"):
        estimate_hypervolume(ConstantDetector(13, False), BallSample(ball, 0), 100)


def test_estimate_invalid_fraction_rejected():
    with pytest.raises(ValueError):
        HypervolumeEstimate(fraction=1.5, n_samples=10, std_error=0.0)
