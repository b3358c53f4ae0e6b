import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from adselect import detectors, features, hypervolume, util
from adselect.dataset import LabeledDataset
from adselect.errors import DataError, FitError
from adselect.features import (
    DatasetSamples,
    DetectorFeatures,
    MetaDataset,
    build_detector_instance,
    build_landmarks,
    mc_cv_fpr,
    mc_cv_fpr_rates,
    meta_columns,
    random_draw,
)
from adselect.pipeline import assimilate_dataset, assimilate_split, rank_candidates, RunConfig

from conftest import make_dataset
from oracles import ConstantDetector


def all_normal(n=100, dim=2, seed=0, name="train"):
    rng = np.random.default_rng(seed)
    return LabeledDataset(
        features=rng.standard_normal((n, dim)), labels=np.zeros(n, dtype=np.int8), name=name
    )


def samples_for(data, dataset_id="d", **settings):
    """The shared HV points and MC-CV splits of data, in its enclosing ball, under
    the RunConfig of `settings`; its default retries and budgets never bind."""
    return DatasetSamples(data, dataset_id, RunConfig(**{"hv_samples": 2000, **settings}))


def absent(row):
    """The algorithms whose landmark pair is NaN in a landmark row; no other cell may be NaN."""
    pairs = np.isnan(np.asarray(row, dtype=np.float64)).reshape(-1, 2)
    assert len(pairs) == len(detectors.ALGORITHMS) and (pairs[:, 0] == pairs[:, 1]).all()
    return [alg for alg, (hv, _) in zip(detectors.ALGORITHMS, pairs) if hv]


def stub_fit(monkeypatch, flag_everything):
    """Every detectors.fit returns a detector that flags everything or nothing."""
    monkeypatch.setattr(detectors, "fit", lambda config, train: ConstantDetector(train.dim, flag_everything))


# ---------------------------------------------------------------------------
# MC-CV FPR


def test_fpr_zero_for_detector_that_flags_nothing(monkeypatch):
    cfg = detectors.default_configs()[0]
    stub_fit(monkeypatch, False)
    assert mc_cv_fpr(cfg, samples_for(all_normal())) == 0.0


def test_fpr_one_for_detector_that_flags_everything(monkeypatch):
    cfg = detectors.default_configs()[0]
    stub_fit(monkeypatch, True)
    assert mc_cv_fpr(cfg, samples_for(all_normal())) == 1.0


def test_fpr_is_mean_of_repetition_rates():
    cfg = next(c for c in detectors.default_configs() if c.algorithm == "gaussian")
    data = all_normal(120, seed=3)
    rates = mc_cv_fpr_rates(cfg, samples_for(data, seed=11))
    assert len(rates) == 10
    assert mc_cv_fpr(cfg, samples_for(data, seed=11)) == pytest.approx(float(np.mean(rates)), abs=0)


def test_fpr_of_calibrated_detector_near_contamination():
    # contamination 0.1 on iid standard normal data: wide reference band
    cfg = next(c for c in detectors.default_configs() if c.algorithm == "gaussian")
    data = all_normal(500, dim=2, seed=4)
    fpr = mc_cv_fpr(cfg, samples_for(data, seed=0))
    assert 0.04 <= fpr <= 0.18


def test_fpr_deterministic():
    cfg = next(c for c in detectors.default_configs() if c.algorithm == "knn")
    data = all_normal(90, seed=5)
    assert mc_cv_fpr(cfg, samples_for(data, seed=7)) == mc_cv_fpr(cfg, samples_for(data, seed=7))


def test_fpr_needs_rows_on_both_sides():
    cfg = detectors.default_configs()[0]
    with pytest.raises(FitError, match="MC-CV"):
        mc_cv_fpr(cfg, samples_for(all_normal(2)))


def test_splits_are_drawn_once_on_first_read_by_concurrent_workers(monkeypatch):
    drawn = []
    real_rng = features.rng_from
    monkeypatch.setattr(features, "rng_from", lambda *parts: drawn.append(parts) or real_rng(*parts))
    samples = samples_for(all_normal(2000, dim=3), mc_cv_repetitions=4)
    assert drawn == []
    start = threading.Barrier(16)

    def read(_):
        start.wait(timeout=60)
        return samples.splits

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            got = list(pool.map(read, range(16), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(got[0]) == 4 and all(s is got[0] for s in got)
    assert [parts[-1] for parts in drawn] == [0, 1, 2, 3]


def test_high_dimension_is_logged_once_per_dataset(logged_events):
    samples = samples_for(all_normal(40, dim=13))
    for _ in range(2):  # two detectors' estimates
        hypervolume.estimate_hypervolume(ConstantDetector(13, False), samples.ball, 100)
    assert logged_events() == [{"event": "hypervolume_high_dimension", "dataset": "d", "dim": 13, "above": 12}]
    samples_for(all_normal(40, dim=12))
    assert len(logged_events()) == 1


# ---------------------------------------------------------------------------
# landmarks


def test_landmark_row_has_two_slots_per_algorithm():
    data = all_normal(80, seed=6)
    row = build_landmarks(samples_for(data, seed=1, mc_cv_repetitions=3))
    assert len(row) == 2 * len(detectors.ALGORITHMS)
    assert all(0 <= v <= 1 for v in row)


def test_landmark_failure_marks_absent(monkeypatch):
    real_fit = detectors.fit

    def flaky(config, train):
        if config.algorithm == "lof":
            raise FitError("injected failure")
        return real_fit(config, train)

    monkeypatch.setattr(detectors, "fit", flaky)
    data = all_normal(80, seed=7)
    row = build_landmarks(samples_for(data, seed=1, mc_cv_repetitions=3))
    assert absent(row) == ["lof"]


def test_landmark_timeout_marks_absent(monkeypatch):
    real_fit = detectors.fit

    def slow_on_kde(config, train):
        if config.algorithm == "kde":
            time.sleep(0.15)
        return real_fit(config, train)

    monkeypatch.setattr(detectors, "fit", slow_on_kde)
    data = all_normal(60, seed=8)
    row = build_landmarks(samples_for(data, seed=1, hv_samples=1000, mc_cv_repetitions=2, landmark_budget_s=0.12))
    assert "kde" in absent(row)
    assert "knn" not in absent(row)


def test_landmarks_deterministic():
    data = all_normal(70, seed=9)
    a = build_landmarks(samples_for(data, seed=2, hv_samples=3000, mc_cv_repetitions=3))
    b = build_landmarks(samples_for(data, seed=2, hv_samples=3000, mc_cv_repetitions=3))
    assert a == b
    c = build_landmarks(samples_for(data, seed=2, hv_samples=3000, mc_cv_repetitions=3, jobs=4))
    assert a == c


# ---------------------------------------------------------------------------
# detector instances


def toy_split(seed=0):
    """The scaled train and test partitions of a toy dataset."""
    cfg = RunConfig(hv_samples=1000, mc_cv_repetitions=2, n_random_detectors=2, seed=seed)
    train, test, _ = assimilate_split(make_dataset(130, 14, seed=seed), cfg)
    return train, test


def landmarks(hv=0.5, fpr=0.1, missing=()):
    """A landmark row as build_landmarks returns it, NaN pairs for the `missing` algorithms."""
    return [v for alg in detectors.ALGORITHMS for v in ((np.nan, np.nan) if alg in missing else (hv, fpr))]


def toy_samples(train, seed, hv_samples=500, **settings):
    return samples_for(train, "toy", seed=seed, hv_samples=hv_samples, mc_cv_repetitions=2, **settings)


def test_instance_from_perfect_detector(monkeypatch):
    train, test = toy_split(1)

    class Distance:
        def __init__(self, center, radius, dim):
            self.center, self.radius, self.dim = center, radius, dim

        def predict_many(self, X, nearest=None):
            return (np.linalg.norm(X - self.center, axis=1) > self.radius).astype(np.int8)

    def fit(config, train):
        # accepts a generous ball around the (scaled) normal cluster
        return Distance(train.features.mean(axis=0), 6.0, train.dim)

    monkeypatch.setattr(detectors, "fit", fit)
    inst = build_detector_instance(toy_samples(train, 3), test, 0)
    assert inst is not None
    assert inst[1] == 1.0


def test_instance_from_all_normal_detector_scores_half(monkeypatch):
    train, test = toy_split(2)
    stub_fit(monkeypatch, False)
    feats, target = build_detector_instance(toy_samples(train, 3), test, 0)
    assert target == 0.5
    assert feats.hypervolume == 1.0
    assert feats.fpr == 0.0


def test_instance_replacement_after_failure(monkeypatch):
    train, test = toy_split(3)
    calls = {"n": 0}
    real_fit = detectors.fit

    def flaky(config, train):
        calls["n"] += 1
        if calls["n"] == 1:
            raise FitError("first config rejected")
        return real_fit(config, train)

    monkeypatch.setattr(detectors, "fit", flaky)
    inst = build_detector_instance(toy_samples(train, 4), test, 0)
    assert inst is not None
    assert calls["n"] >= 2


def test_instance_timeout_triggers_replacement(monkeypatch):
    train, test = toy_split(5)
    first_call = {"done": False}
    real_fit = detectors.fit

    def slow_once(config, train):
        if not first_call["done"]:
            first_call["done"] = True
            time.sleep(2.0)
        return real_fit(config, train)

    monkeypatch.setattr(detectors, "fit", slow_once)
    samples = toy_samples(train, 6, hv_samples=300, retries=3, detector_budget_s=1.0)
    inst = build_detector_instance(samples, test, 0)
    # exactly one instance comes out of the timeout-then-replacement path
    assert inst is not None
    assert first_call["done"]


def test_instance_skipped_when_retries_exhausted(monkeypatch):
    train, test = toy_split(4)

    def always_fail(config, train):
        raise FitError("nope")

    monkeypatch.setattr(detectors, "fit", always_fail)
    inst = build_detector_instance(toy_samples(train, 5, retries=2), test, 0)
    assert inst is None


@pytest.mark.parametrize("kind", ("landmark", "instance"))
def test_patched_fit_sees_every_fit_of_an_attempt(monkeypatch, kind):
    """detectors.fit is the one seam: one attempt fits the training rows, then
    each MC-CV fit set, 1 + mc_cv_repetitions calls in all."""
    train, test = toy_split(2)
    samples = toy_samples(train, 3)
    fits = []
    real_fit = detectors.fit

    def fit(config, train):
        fits.append((config.config_id, train))
        return real_fit(config, train)

    monkeypatch.setattr(detectors, "fit", fit)
    if kind == "landmark":
        configs = detectors.default_configs()
        assert absent(build_landmarks(samples)) == []
    else:
        configs = [random_draw(samples.cfg.seed, samples.dataset_id, 0, "detector")(0)]
        assert build_detector_instance(samples, test, 0) is not None
    expected = [samples.train] + [fit_set for _, fit_set in samples.splits]
    assert len(expected) == 3 and len(fits) == len(configs) * len(expected)
    for config in configs:
        seen = [train for config_id, train in fits if config_id == config.config_id]
        assert len(seen) == len(expected) and all(a is b for a, b in zip(seen, expected))


# ---------------------------------------------------------------------------
# common random numbers


def test_every_featurization_of_a_dataset_shares_its_samples(tmp_path, monkeypatch):
    """Landmarks and random detectors of one dataset, on two workers, score
    the same hypervolume points, each chunk drawn once, and refit on the
    same MC-CV splits; every distance model reads one nearest-distance bound
    per chunk, bit for bit the one it computes alone."""
    cfg = RunConfig(hv_samples=1500, mc_cv_repetitions=2, n_random_detectors=6, seed=3, out_dir=str(tmp_path), jobs=2)
    drawn = []
    real_chunk = hypervolume._chunk_points
    monkeypatch.setattr(hypervolume, "_chunk_points", lambda ball, size, seed, ci: drawn.append(ci) or real_chunk(ball, size, seed, ci))
    seen, bounds = {}, []
    real_scores = detectors.TrainedDetector.scores

    def scores(self, X, above=None, **kw):  # per config: the bytes of every query set, HV chunk and held-out rows
        seen.setdefault(self.config.config_id, []).append(np.asarray(X).tobytes())
        if kw.get("nearest") is not None and isinstance(self.model, detectors._DistanceModel):
            rows = self.model.rows
            bounds.append((kw["nearest"](rows), detectors._SqDistBounds(X, *rows.operands).nearest()))
        return real_scores(self, X, above, **kw)

    monkeypatch.setattr(detectors.TrainedDetector, "scores", scores)
    meta = assimilate_dataset(make_dataset(130, 14, seed=3), cfg)
    assert meta.n == 6
    assert drawn == [0]
    shared = [q[: 1 + cfg.mc_cv_repetitions] for q in seen.values()]  # an instance then scores the test rows
    assert len(shared) == len(detectors.ALGORITHMS) + 6
    assert all(q == shared[0] for q in shared) and len(set(shared[0])) == 1 + cfg.mc_cv_repetitions
    assert len(bounds) >= 3  # the knn, LOF and KDE landmarks at least
    assert all(shared is bounds[0][0] and shared.tobytes() == alone.tobytes() for shared, alone in bounds)


# ---------------------------------------------------------------------------
# the attempt loop's events


def recorded_events(monkeypatch):
    events = []
    monkeypatch.setattr(features, "log_event", lambda event, **fields: events.append({"event": event, **fields}))
    return events


def scripted_fit(monkeypatch, fails=(), slow=()):
    """Patch detectors.fit to raise FitError for configs in `fails` and spend 100 s of a fake clock on `slow`."""
    clock = [0.0]
    monkeypatch.setattr(features, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    real_fit = detectors.fit

    def fit(config, train):
        if config.config_id in fails:
            raise FitError("scripted failure")
        if config.config_id in slow:
            clock[0] += 100.0
        return real_fit(config, train)

    monkeypatch.setattr(detectors, "fit", fit)


def without_reason(events):
    return [{k: v for k, v in e.items() if k != "reason"} for e in events]


def test_landmark_events_name_the_algorithm(monkeypatch):
    ids = {c.algorithm: c.config_id for c in detectors.default_configs()}
    scripted_fit(monkeypatch, fails={ids["lof"]}, slow={ids["kde"]})
    events = recorded_events(monkeypatch)
    data = all_normal(60, seed=8)
    row = build_landmarks(samples_for(data, seed=1, hv_samples=500, mc_cv_repetitions=2, landmark_budget_s=5.0))
    assert absent(row) == ["lof", "kde"]
    assert all(e["reason"] == "scripted failure" for e in events if e["event"] == "landmark_failed")
    assert without_reason(events) == [  # one attempt each, and no skip event
        {"event": "landmark_failed", "dataset": "d", "algorithm": "lof", "attempt": 0, "config": ids["lof"]},
        {"event": "landmark_timeout", "dataset": "d", "algorithm": "kde", "attempt": 0, "config": ids["kde"],
         "budget_s": 5.0},
    ]


@pytest.mark.parametrize("exhausted", (False, True))
def test_detector_events_name_each_attempt(monkeypatch, exhausted):
    train, test = toy_split(3)
    draw = random_draw(7, "toy", 2, "detector")
    ids = [draw(a).config_id for a in range(3)]
    scripted_fit(monkeypatch, fails=set(ids) if exhausted else {ids[0]}, slow={ids[1]})
    events = recorded_events(monkeypatch)
    inst = build_detector_instance(toy_samples(train, 7, retries=2, detector_budget_s=5.0), test, 2)
    where = {"dataset": "toy", "index": 2}
    if exhausted:
        assert inst is None
        assert without_reason(events) == [
            {"event": "detector_replaced", **where, "attempt": a, "config": ids[a]} for a in range(3)
        ] + [{"event": "instance_skipped", **where, "retries": 2}]
    else:
        assert inst[0].config_id == ids[2]
        assert without_reason(events) == [
            {"event": "detector_replaced", **where, "attempt": 0, "config": ids[0]},
            {"event": "detector_timeout", **where, "attempt": 1, "config": ids[1], "budget_s": 5.0},
        ]


def test_candidate_events_name_each_attempt(monkeypatch):
    cfg = RunConfig(seed=3, hv_samples=500, mc_cv_repetitions=2, retries=2, detector_budget_s=5.0)
    ids = [
        [random_draw(3, "cand", i, "candidate")(a).config_id for a in range(3)]
        for i in range(2)
    ]
    # candidate 0 fails, then overruns, then fits; candidate 1 fails every attempt
    scripted_fit(monkeypatch, fails={ids[0][0], *ids[1]}, slow={ids[0][1]})
    events = recorded_events(monkeypatch)
    result = rank_candidates(all_normal(100, name="cand"), cfg, "linear", n_candidates=2)
    assert [c.config_id for c, _ in result.entries] == [ids[0][2]]
    where = {"dataset": "cand"}
    assert without_reason(events) == [
        {"event": "candidate_replaced", **where, "index": 0, "attempt": 0, "config": ids[0][0]},
        {"event": "candidate_timeout", **where, "index": 0, "attempt": 1, "config": ids[0][1], "budget_s": 5.0},
    ] + [
        {"event": "candidate_replaced", **where, "index": 1, "attempt": a, "config": ids[1][a]} for a in range(3)
    ] + [{"event": "candidate_skipped", **where, "index": 1, "retries": 2}]


# ---------------------------------------------------------------------------
# meta-dataset assembly and layout


def make_instance(config_id, hv=0.4, fpr=0.2, target=0.7):
    return DetectorFeatures(hypervolume=hv, fpr=fpr, config_id=config_id), target


def test_assemble_joins_landmarks_per_dataset():
    md_a = MetaDataset.of("a", landmarks(), [make_instance(f"a{i}") for i in range(3)])
    md_b = MetaDataset.of(
        "b", landmarks(hv=0.9, fpr=0.05, missing=("kde",)), [make_instance(f"b{i}", hv=0.1 * i) for i in range(3)]
    )
    md = MetaDataset.concat([md_a, md_b])
    assert md.n == 6
    assert md.columns == meta_columns()
    assert md.dataset_ids == ["a"] * 3 + ["b"] * 3
    assert md.config_ids == ["a0", "a1", "a2", "b0", "b1", "b2"]
    assert len(md.columns) == 2 * len(detectors.ALGORITHMS) + 2
    block_a = md.X[:3, : 2 * len(detectors.ALGORITHMS)]
    assert np.array_equal(block_a, np.tile(block_a[0], (3, 1)))
    assert np.array_equal(block_a[0], [0.5, 0.1] * len(detectors.ALGORITHMS))
    kde_col = md.columns.index("landmark_hv_kde")
    assert np.isnan(md.X[3:, kde_col]).all() and np.isnan(md.X[3:, kde_col + 1]).all()
    assert np.isnan(md.X).sum() == 2 * 3
    assert np.array_equal(md.X[3:, -2:], [[0.0, 0.2], [0.1, 0.2], [0.2, 0.2]])
    assert np.array_equal(md.y, [0.7] * 6)
    assert md_a.absent_landmarks() == () and md.absent_landmarks() == md_b.absent_landmarks() == ("kde",)


def test_assemble_needs_instances():
    with pytest.raises(DataError, match="no instances"):
        MetaDataset.of("a", landmarks(), [])


def test_meta_csv_roundtrip(tmp_path):
    md = MetaDataset.of(
        "a", landmarks(hv=0.25, fpr=0.125, missing=("pca",)),
        [make_instance(f"c{i}", target=0.3 + i / 10) for i in range(4)],
    )
    path = str(tmp_path / "meta.csv")
    util.write_text(path, md.csv_text())
    back = MetaDataset.from_csv(path)
    assert back.columns == md.columns
    assert back.dataset_ids == md.dataset_ids
    assert back.config_ids == md.config_ids
    assert np.array_equal(np.isnan(back.X), np.isnan(md.X))
    assert np.array_equal(back.X[~np.isnan(back.X)], md.X[~np.isnan(md.X)])
    assert np.array_equal(back.y, md.y)
    assert back.absent_landmarks() == ("pca",)


def test_meta_columns_schema():
    cols = meta_columns()
    assert cols[-2:] == ["detector_hv", "detector_fpr"]
    assert cols[0] == f"landmark_hv_{detectors.ALGORITHMS[0]}"
    assert cols[1] == f"landmark_fpr_{detectors.ALGORITHMS[0]}"
    assert len(cols) == 2 * len(detectors.ALGORITHMS) + 2


def test_layout_questions_read_projected_columns():
    """Landmark positions, absent algorithms and detector features come from
    the column names, so a meta-dataset with dropped columns answers them too."""
    md = MetaDataset.of(
        "a", landmarks(missing=("knn", "hbos")), [make_instance("c0", hv=0.3, fpr=0.6), make_instance("c1", hv=0.8)]
    )
    n_lm = 2 * len(detectors.ALGORITHMS)
    assert md.landmark_columns() == list(range(n_lm))
    assert md.absent_landmarks() == ("knn", "hbos")
    hv, fpr = md.detector_features()
    assert hv.tolist() == [0.3, 0.8] and fpr.tolist() == [0.6, 0.2]
    keep = [j for j, c in enumerate(md.columns) if not c.endswith("_knn")][::-1]  # reordered too
    projected = MetaDataset(
        columns=[md.columns[j] for j in keep], X=md.X[:, keep], y=md.y, dataset_ids=md.dataset_ids,
        config_ids=md.config_ids,
    )
    assert projected.landmark_columns() == list(range(2, n_lm))
    assert projected.absent_landmarks() == ("hbos",)
    assert [a.tolist() for a in projected.detector_features()] == [hv.tolist(), fpr.tolist()]


def test_side_tables_hold_the_landmark_row_and_each_detector():
    md = MetaDataset.of(
        "a", landmarks(hv=0.25, fpr=0.125, missing=("pca",)), [make_instance("c0", target=0.5), make_instance("c1")]
    )
    header, row = md.landmarks_csv_text().splitlines()
    assert header.split(",") == meta_columns()[:-2]
    pca = detectors.ALGORITHMS.index("pca")
    cells = row.split(",")
    assert cells[2 * pca : 2 * pca + 2] == ["", ""]
    assert cells[:2 * pca] + cells[2 * pca + 2 :] == ["0.25", "0.125"] * (len(detectors.ALGORITHMS) - 1)
    assert md.detectors_csv_text() == (
        "config_id,detector_hv,detector_fpr,target_scaled_mcc\nc0,0.4,0.2,0.5\nc1,0.4,0.2,0.7\n"
    )


def test_assemble_fifteen_datasets_fifty_detectors():
    md = MetaDataset.concat(
        [MetaDataset.of(f"ds{d}", landmarks(), [make_instance(f"ds{d}-c{i}") for i in range(50)]) for d in range(15)]
    )
    assert md.n == 750
    assert len(set(md.dataset_ids)) == 15
