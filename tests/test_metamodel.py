import tracemalloc

import numpy as np
import pytest

from adselect import metamodel
from adselect.errors import ModelFormatError
from adselect.features import MetaDataset
from adselect.metamodel import (
    FeatureScaler,
    Imputer,
    drop_empty_landmarks,
    fit_meta_model,
    load_model,
    rf_fit,
    save_model,
)

from oracles import best_split_per_feature, rf_fit_nodewise


def make_meta(X, y=None, columns=None, dataset="d"):
    X = np.asarray(X, dtype=np.float64)
    if columns is None:
        columns = [f"col{j}" for j in range(X.shape[1])]
    if y is None:
        y = np.zeros(X.shape[0])
    return MetaDataset(
        columns=list(columns),
        X=X,
        y=np.asarray(y, dtype=np.float64),
        dataset_ids=[dataset] * X.shape[0],
        config_ids=[f"c{i}" for i in range(X.shape[0])],
    )


# ---------------------------------------------------------------------------
# landmark dropping


def test_drop_empty_landmark_pair():
    cols = ["landmark_hv_a", "landmark_fpr_a", "landmark_hv_b", "landmark_fpr_b", "detector_hv", "detector_fpr"]
    train = make_meta([[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]], columns=cols)
    test = make_meta([[0.1, 0.2, np.nan, np.nan, 0.5, 0.6]], columns=cols, dataset="t")
    tr, te = drop_empty_landmarks(train, test)
    assert tr.columns == te.columns == ["landmark_hv_a", "landmark_fpr_a", "detector_hv", "detector_fpr"]
    assert tr.X.shape == (1, 4)


def test_drop_nothing_when_no_absences():
    cols = ["landmark_hv_a", "landmark_fpr_a", "detector_hv", "detector_fpr"]
    train = make_meta([[0.1, 0.2, 0.3, 0.4]], columns=cols)
    test = make_meta([[0.5, 0.6, 0.7, 0.8]], columns=cols, dataset="t")
    tr, te = drop_empty_landmarks(train, test)
    assert tr.columns == cols
    assert np.array_equal(te.X, test.X)


def test_detector_columns_never_dropped():
    cols = ["landmark_hv_a", "landmark_fpr_a", "detector_hv", "detector_fpr"]
    train = make_meta([[0.1, 0.2, 0.3, 0.4]], columns=cols)
    test = make_meta([[np.nan, np.nan, np.nan, np.nan]], columns=cols, dataset="t")
    tr, te = drop_empty_landmarks(train, test)
    assert tr.columns == ["detector_hv", "detector_fpr"]


# ---------------------------------------------------------------------------
# imputer and scaler


def test_imputer_mean_fill():
    imp = Imputer.fit(np.asarray([[1.0], [np.nan], [3.0]]))
    out = imp.transform(np.asarray([[1.0], [np.nan], [3.0]]))
    assert np.array_equal(out[:, 0], [1.0, 2.0, 3.0])


def test_imputer_all_absent_column_fills_zero():
    imp = Imputer.fit(np.asarray([[np.nan], [np.nan]]))
    assert imp.means[0] == 0.0
    assert np.array_equal(imp.transform(np.asarray([[np.nan]])), [[0.0]])


def test_imputer_leaves_present_values_untouched():
    rng = np.random.default_rng(0)
    X = rng.random((20, 3))
    X[3, 1] = np.nan
    imp = Imputer.fit(X)
    out = imp.transform(X)
    mask = ~np.isnan(X)
    assert np.array_equal(out[mask], X[mask])


def test_scaler_min_max():
    sc = FeatureScaler.fit(np.asarray([[0.0], [5.0], [10.0]]))
    assert np.array_equal(sc.transform(np.asarray([[0.0], [5.0], [10.0]]))[:, 0], [0.0, 0.5, 1.0])


def test_scaler_unclipped_outside_train_range():
    sc = FeatureScaler.fit(np.asarray([[0.0], [10.0]]))
    assert sc.transform(np.asarray([[12.0]]))[0, 0] == pytest.approx(1.2, abs=1e-15)


def test_scaler_degenerate_column_maps_to_zero():
    sc = FeatureScaler.fit(np.asarray([[4.0], [4.0]]))
    assert sc.transform(np.asarray([[4.0], [9.0]]))[:, 0].tolist() == [0.0, 0.0]


def test_preprocessing_is_fit_on_train_only():
    rng = np.random.default_rng(1)
    train = rng.random((30, 4))
    imp = Imputer.fit(train)
    sc = FeatureScaler.fit(imp.transform(train))
    # shuffling or changing hypothetical test data cannot alter fitted params
    assert np.array_equal(Imputer.fit(train).means, imp.means)
    assert np.array_equal(FeatureScaler.fit(imp.transform(train)).mins, sc.mins)


# ---------------------------------------------------------------------------
# random forest


def test_constant_target_predictions_exact():
    rng = np.random.default_rng(2)
    X = rng.random((60, 4))
    model = rf_fit(X, np.full(60, 0.7), seed=0, n_trees=50)
    assert np.all(model.predict(X) == 0.7)


def test_stump_configuration_predicts_global_mean():
    rng = np.random.default_rng(3)
    X = rng.random((25, 3))
    y = rng.random(25)
    model = rf_fit(X, y, seed=0, n_trees=1, bootstrap=False, min_samples_split=len(y) + 1)
    assert np.all(model.predict(X) == float(y.mean()))


def test_single_tree_interpolates_distinct_inputs():
    rng = np.random.default_rng(4)
    X = rng.random((50, 2))
    y = rng.random(50)
    model = rf_fit(X, y, seed=0, n_trees=1, bootstrap=False)
    assert np.array_equal(model.predict(X), y)


def test_forest_r2_on_linear_target():
    rng = np.random.default_rng(5)
    Xtr = rng.random((200, 3))
    Xte = rng.random((100, 3))
    model = rf_fit(Xtr, Xtr[:, 0], seed=0, n_trees=100)
    pred = model.predict(Xte)
    resid = np.sum((Xte[:, 0] - pred) ** 2)
    total = np.sum((Xte[:, 0] - Xte[:, 0].mean()) ** 2)
    assert 1 - resid / total >= 0.9


def test_forest_prediction_is_mean_of_trees():
    rng = np.random.default_rng(6)
    X = rng.random((40, 3))
    y = rng.random(40)
    model = rf_fit(X, y, seed=1, n_trees=10)
    probes = rng.random((15, 3))
    stacked = np.stack([t.predict(probes) for t in model.trees])
    assert np.allclose(model.predict(probes), stacked.mean(axis=0), rtol=0, atol=1e-15)


def test_forest_predictions_within_target_range():
    rng = np.random.default_rng(7)
    X = rng.random((80, 2))
    y = rng.random(80)
    model = rf_fit(X, y, seed=2, n_trees=20)
    probes = rng.random((200, 2)) * 3 - 1
    pred = model.predict(probes)
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12


def test_forest_deterministic_given_seed():
    rng = np.random.default_rng(8)
    X = rng.random((50, 3))
    y = rng.random(50)
    probes = rng.random((20, 3))
    a = rf_fit(X, y, seed=42, n_trees=12)
    b = rf_fit(X, y, seed=42, n_trees=12)
    assert np.array_equal(a.predict(probes), b.predict(probes))
    c = rf_fit(X, y, seed=43, n_trees=12)
    assert not np.array_equal(a.predict(probes), c.predict(probes))


def test_forest_jobs_do_not_change_predictions():
    rng = np.random.default_rng(9)
    X = rng.random((60, 3))
    y = rng.random(60)
    probes = rng.random((20, 3))
    a = rf_fit(X, y, seed=3, n_trees=16, jobs=1)
    b = rf_fit(X, y, seed=3, n_trees=16, jobs=4)
    assert np.array_equal(a.predict(probes), b.predict(probes))


def test_tie_breaking_prefers_lowest_feature_index():
    # two identical columns: the split must use column 0
    x = np.asarray([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.asarray([0.0, 0.0, 1.0, 1.0])
    model = rf_fit(x, y, seed=0, n_trees=1, bootstrap=False)
    root_feature = model.trees[0].feature[0]
    assert root_feature == 0


def _split_case(case, seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 30)), int(rng.integers(1, 17))
    X = rng.random((n, d))
    if case == "tied":
        X = rng.integers(0, 3, (n, d)).astype(np.float64)
    elif case == "duplicate-column":
        X[:, -1] = X[:, 0]
    elif case == "constant-column":
        X[:, d // 2] = 0.25
    elif case == "all-constant":
        X = np.full((n, d), 0.5)
    elif case == "duplicate-rows":
        X = np.repeat(X[: (n + 2) // 3], 3, axis=0)[:n]
    elif case == "adjacent-float":
        X[:, 0] = np.where(rng.random(n) < 0.5, 0.3, np.nextafter(0.3, 1.0))
    elif case == "signed-zero":
        X = rng.choice([-0.0, 0.0, 1.0], size=(n, d))
    y = rng.random(n) if seed % 3 else rng.integers(0, 3, n) / 3.0
    return X, y


SPLIT_CASES = (
    "random", "tied", "duplicate-column", "constant-column", "all-constant",
    "duplicate-rows", "adjacent-float", "signed-zero",
)


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_best_split_matches_per_feature_oracle(case):
    for seed in range(40):
        X, y = _split_case(case, seed)
        got = metamodel._best_split(X, y)
        assert got == best_split_per_feature(X, y), (case, seed)
        if got is not None:
            assert np.float64(got[1]).tobytes() == np.float64(best_split_per_feature(X, y)[1]).tobytes()
    if case == "all-constant":
        assert got is None


def test_node_stats_squares_the_sum_with_a_product():
    # a numpy scalar power calls the C library's pow, which can round x**2
    # differently from the IEEE product x * x; split gains must not depend on it
    x = np.random.default_rng(51).standard_normal(100_000) * 1000
    y = np.concatenate([x[:20], [v for v in x if np.float64(v) ** 2 != v * v]])
    ones = np.ones(y.size, dtype=np.intp)
    sums, _, parent = metamodel._node_stats(y, np.zeros(y.size), np.arange(y.size), ones)
    assert np.array_equal(sums, y)
    assert np.array_equal(parent, 0.0 - y * y / ones)


def _forest_arrays(model):
    return [{f: getattr(t, f) for f in ("feature", "threshold", "left", "right", "value")} for t in model.trees]


def _assert_forests_bitwise_equal(a, b):
    trees_a = a if isinstance(a, list) else _forest_arrays(a)
    trees_b = b if isinstance(b, list) else _forest_arrays(b)
    for ta, tb in zip(trees_a, trees_b, strict=True):
        for f in ta:
            assert ta[f].dtype == tb[f].dtype and ta[f].shape == tb[f].shape, f
            assert ta[f].tobytes() == tb[f].tobytes(), f


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_forest_bitwise_equal_with_oracle_split(case):
    for seed in range(4):
        X, y = _split_case(case, seed)
        fast = rf_fit(X, y, seed=seed, n_trees=8)
        _assert_forests_bitwise_equal(fast, rf_fit_nodewise(X, y, seed=seed, n_trees=8))


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_forest_bitwise_equal_to_nodewise_grower(case):
    for seed in range(4):
        X, y = _split_case(case, seed)
        mss = 2 + seed % 2
        fast = rf_fit(X, y, seed=seed, n_trees=8, min_samples_split=mss)
        slow = rf_fit_nodewise(X, y, seed=seed, n_trees=8, min_samples_split=mss, split=metamodel._best_split)
        _assert_forests_bitwise_equal(fast, slow)


def _edge_case(case, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    y = rng.random(n)
    if case == "constant-y":
        y = np.full(n, 0.1)
    elif case == "duplicate-rows":
        X = np.repeat(X[:1], n, axis=0)
    elif case == "tied":
        X = rng.integers(0, 2, (n, 3)).astype(np.float64)
    return X, y


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 33])
@pytest.mark.parametrize("case", ["random", "constant-y", "duplicate-rows", "tied"])
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_bitwise_equal_on_size_class_edges(n, case, bootstrap):
    # without bootstrap every root holds exactly n rows: one node per size-class edge
    X, y = _edge_case(case, n, seed=n)
    for mss in (1, 2, 5, n + 1):
        fast = rf_fit(X, y, seed=n, n_trees=6, bootstrap=bootstrap, min_samples_split=mss)
        slow = rf_fit_nodewise(X, y, seed=n, n_trees=6, bootstrap=bootstrap, min_samples_split=mss)
        _assert_forests_bitwise_equal(fast, slow)
        if mss > n:
            assert all(len(t.feature) == 1 for t in fast.trees)


def test_forest_bitwise_equal_on_chain_shaped_tree():
    # each split peels the largest target off the rest into a one-row right leaf
    n = 40
    X = np.arange(n, dtype=np.float64)[:, None]
    y = 4.0 ** np.arange(n)
    fast = rf_fit(X, y, seed=0, n_trees=2, bootstrap=False)
    slow = rf_fit_nodewise(X, y, seed=0, n_trees=2, bootstrap=False)
    _assert_forests_bitwise_equal(fast, slow)
    tree = fast.trees[0]
    assert len(tree.feature) == 2 * n - 1
    assert np.array_equal(tree.right[tree.feature >= 0], np.arange(2, 2 * n - 1, 2))
    assert np.all(tree.feature[tree.right[tree.feature >= 0]] == -1)
    assert np.array_equal(tree.predict(X), y)


def test_forest_grouping_and_jobs_do_not_change_trees(monkeypatch):
    rng = np.random.default_rng(10)
    X = rng.integers(0, 6, (300, 16)).astype(np.float64)
    y = rng.random(300)
    one = rf_fit(X, y, seed=5, n_trees=20, jobs=1)
    assert metamodel._FOREST_ELEMENTS // (300 * 16) < 20  # more than one tree group
    _assert_forests_bitwise_equal(one, rf_fit(X, y, seed=5, n_trees=20, jobs=4))
    _assert_forests_bitwise_equal(one, rf_fit_nodewise(X, y, seed=5, n_trees=20))
    monkeypatch.setattr(metamodel, "_FOREST_ELEMENTS", 1)  # one tree per group
    _assert_forests_bitwise_equal(one, rf_fit(X, y, seed=5, n_trees=20))


def test_forest_predict_matches_per_point_walk():
    rng = np.random.default_rng(11)
    X = rng.random((60, 4))
    model = rf_fit(X, rng.random(60), seed=2, n_trees=15)
    probes = np.vstack([rng.random((30, 4)), X[:10]])
    stacked = np.stack([t.predict(probes) for t in model.trees])
    for t, row in zip(model.trees, stacked):
        for x, got in zip(probes, row):
            node = 0
            while t.feature[node] >= 0:
                node = t.left[node] if x[t.feature[node]] <= t.threshold[node] else t.right[node]
            assert got.tobytes() == t.value[node].tobytes()


def test_forest_split_search_stays_within_element_budget(monkeypatch):
    rng = np.random.default_rng(12)
    X = rng.random((2000, 16))
    y = rng.random(2000)
    sizes = []
    search = metamodel._best_splits

    def recording(Xp, *args):
        sizes.append(Xp.size)
        return search(Xp, *args)

    monkeypatch.setattr(metamodel, "_best_splits", recording)
    tracemalloc.start()
    try:
        rf_fit(X, y, seed=0, n_trees=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = metamodel._FOREST_ELEMENTS
    assert 2000 * 16 <= budget < 8 * 2000 * 16  # the 8 trees grow in several groups
    assert max(sizes) < 2 * budget
    # a group's rows plus about fifteen split-search temporaries of that size;
    # growing all 8 trees at once would hold about four times as much
    assert peak < 24 * 8 * budget, peak


def test_rf_rejects_empty_training_set():
    with pytest.raises(ValueError):
        rf_fit(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        rf_fit(np.empty((3, 0)), np.zeros(3))


# ---------------------------------------------------------------------------
# persistence


def _toy_bundle(seed=0):
    rng = np.random.default_rng(seed)
    md = make_meta(rng.random((60, 4)), y=rng.random(60))
    return fit_meta_model(md, seed=seed, n_trees=20), md


def test_save_load_roundtrip_bitwise(tmp_path):
    bundle, md = _toy_bundle()
    path = str(tmp_path / "model.json")
    save_model(bundle, path)
    loaded = load_model(path)
    probes = make_meta(np.random.default_rng(1).random((100, 4)))
    assert np.array_equal(bundle.predict(probes), loaded.predict(probes))


def test_load_rejects_wrong_version(tmp_path):
    bundle, _ = _toy_bundle()
    path = str(tmp_path / "model.json")
    save_model(bundle, path)
    import json

    with open(path) as fh:
        payload = json.load(fh)
    payload["version"] = 99
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_load_rejects_wrong_format(tmp_path):
    path = str(tmp_path / "model.json")
    with open(path, "w") as fh:
        fh.write('{"format": "something-else", "version": 1}')
    with pytest.raises(ModelFormatError, match="not a"):
        load_model(path)


def test_load_rejects_truncated_file(tmp_path):
    bundle, _ = _toy_bundle()
    path = str(tmp_path / "model.json")
    save_model(bundle, path)
    with open(path) as fh:
        blob = fh.read()
    with open(path, "w") as fh:
        fh.write(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError, match="corrupt"):
        load_model(path)


def test_load_missing_file():
    with pytest.raises(ModelFormatError):
        load_model("/nonexistent/model.json")


def test_meta_model_schema_mismatch():
    bundle, _ = _toy_bundle()
    bad = make_meta(np.random.default_rng(2).random((5, 3)))
    with pytest.raises(ValueError, match="schema"):
        bundle.predict(bad)


def test_fit_meta_model_pipeline_order():
    # imputation must happen before scaling: train columns map into [0, 1]
    X = np.asarray([[0.0, np.nan], [5.0, 2.0], [10.0, 4.0]])
    md = make_meta(X, y=[0.1, 0.2, 0.3])
    bundle = fit_meta_model(md, seed=0, n_trees=5)
    transformed = bundle.scaler.transform(bundle.imputer.transform(md.X))
    assert transformed.min() >= 0.0
    assert transformed.max() <= 1.0
