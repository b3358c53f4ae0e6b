import tracemalloc

import numpy as np
import pytest

from adselect import metamodel
from adselect.errors import ModelFormatError
from adselect.features import MetaDataset
from adselect.metamodel import (
    Imputer,
    drop_empty_landmarks,
    fit_meta_model,
    load_model,
    rf_fit,
    save_model,
)
from adselect.util import rng_from

from oracles import best_split, best_split_per_feature, grow_trees_nodewise, tree_predict


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
# imputer


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


def test_preprocessing_is_fit_on_train_only():
    rng = np.random.default_rng(1)
    train = rng.random((30, 4))
    imp = Imputer.fit(train)
    # shuffling or changing hypothetical test data cannot alter fitted params
    assert np.array_equal(Imputer.fit(train).means, imp.means)


# ---------------------------------------------------------------------------
# random forest


def test_constant_target_predictions_exact():
    rng = np.random.default_rng(2)
    X = rng.random((60, 4))
    model = rf_fit(X, np.full(60, 0.7), seed=0)
    assert np.all(model.predict(X) == 0.7)


def test_single_tree_interpolates_distinct_inputs():
    rng = np.random.default_rng(4)
    X = rng.random((50, 2))
    y = rng.random(50)
    (tree,) = metamodel._grow_trees(X, y, np.arange(50)[None])  # one tree on every row, no bootstrap
    assert np.array_equal(tree_predict(tree, X), y)


def test_forest_r2_on_linear_target():
    rng = np.random.default_rng(5)
    Xtr = rng.random((200, 3))
    Xte = rng.random((100, 3))
    model = rf_fit(Xtr, Xtr[:, 0], seed=0)
    pred = model.predict(Xte)
    resid = np.sum((Xte[:, 0] - pred) ** 2)
    total = np.sum((Xte[:, 0] - Xte[:, 0].mean()) ** 2)
    assert 1 - resid / total >= 0.9


def test_forest_prediction_is_mean_of_trees():
    rng = np.random.default_rng(6)
    X = rng.random((40, 3))
    y = rng.random(40)
    model = rf_fit(X, y, seed=1)
    probes = rng.random((15, 3))
    stacked = np.stack([tree_predict(t, probes) for t in model.trees])
    assert np.allclose(model.predict(probes), stacked.mean(axis=0), rtol=0, atol=1e-15)


def test_forest_predictions_within_target_range():
    rng = np.random.default_rng(7)
    X = rng.random((80, 2))
    y = rng.random(80)
    model = rf_fit(X, y, seed=2)
    probes = rng.random((200, 2)) * 3 - 1
    pred = model.predict(probes)
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12


def test_forest_deterministic_given_seed():
    rng = np.random.default_rng(8)
    X = rng.random((50, 3))
    y = rng.random(50)
    probes = rng.random((20, 3))
    a = rf_fit(X, y, seed=42)
    b = rf_fit(X, y, seed=42)
    assert np.array_equal(a.predict(probes), b.predict(probes))
    c = rf_fit(X, y, seed=43)
    assert not np.array_equal(a.predict(probes), c.predict(probes))


def test_forest_jobs_do_not_change_predictions():
    rng = np.random.default_rng(9)
    X = rng.random((60, 3))
    y = rng.random(60)
    probes = rng.random((20, 3))
    a = rf_fit(X, y, seed=3, jobs=1)
    b = rf_fit(X, y, seed=3, jobs=4)
    assert np.array_equal(a.predict(probes), b.predict(probes))


def test_tie_breaking_prefers_lowest_feature_index():
    # two identical columns: the split must use column 0
    x = np.asarray([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.asarray([0.0, 0.0, 1.0, 1.0])
    (tree,) = metamodel._grow_trees(x, y, np.arange(4)[None])
    assert tree.feature[0] == 0


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
        got = best_split(X, y)
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


def _bootstraps(seed, n, trees):
    """``trees`` bootstrap samples of n rows, drawn as rf_fit draws its own."""
    return rng_from(seed, "forest").integers(0, n, size=(trees, n))


def _oracle(X, y, rows, split=best_split_per_feature):
    """The node-wise grower's trees, as the forest keeps them: the oracle
    numbers its nodes in the order it appends them, and every split's right
    child must be its left child + 1, so the forest stores no right array.
    Nor does it keep a split node's value."""
    trees = []
    for t in grow_trees_nodewise(X, y, rows, split):
        inner = t["feature"] >= 0
        assert np.array_equal(t["right"], np.where(inner, t["left"] + 1, -1))
        trees.append({**{f: t[f] for f in ("feature", "threshold", "left")}, "value": np.where(inner, 0.0, t["value"])})
    return trees


def _assert_trees_bitwise_equal(trees, expected):
    """``trees`` (forest trees) against node-array dicts, field by field, bytes included."""
    for tree, want in zip(trees, expected, strict=True):
        assert vars(tree).keys() == want.keys()
        for f, arr in want.items():
            got = getattr(tree, f)
            assert got.dtype == arr.dtype and got.shape == arr.shape, f
            assert got.tobytes() == arr.tobytes(), f


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_forest_bitwise_equal_with_oracle_split(case):
    for seed in range(4):
        X, y = _split_case(case, seed)
        rows = _bootstraps(seed, len(y), 8)
        _assert_trees_bitwise_equal(metamodel._grow_trees(X, y, rows), _oracle(X, y, rows))


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_forest_bitwise_equal_to_nodewise_grower(case):
    for seed in range(4):
        X, y = _split_case(case, seed)
        rows = _bootstraps(seed, len(y), 8)
        _assert_trees_bitwise_equal(metamodel._grow_trees(X, y, rows), _oracle(X, y, rows, split=best_split))


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
    rows = _bootstraps(n, n, 6) if bootstrap else np.broadcast_to(np.arange(n), (6, n))
    _assert_trees_bitwise_equal(metamodel._grow_trees(X, y, rows), _oracle(X, y, rows))


def test_forest_bitwise_equal_on_chain_shaped_tree():
    # each split peels the largest target off the rest into a one-row right leaf
    n = 40
    X = np.arange(n, dtype=np.float64)[:, None]
    y = 4.0 ** np.arange(n)
    rows = np.broadcast_to(np.arange(n), (2, n))
    fast = metamodel._grow_trees(X, y, rows)
    _assert_trees_bitwise_equal(fast, _oracle(X, y, rows))
    tree = fast[0]
    assert len(tree.feature) == 2 * n - 1
    right = tree.left[tree.feature >= 0] + 1
    assert np.array_equal(right, np.arange(2, 2 * n - 1, 2))
    assert np.all(tree.feature[right] == -1)
    assert np.array_equal(tree_predict(tree, X), y)


def test_rf_fit_grows_a_tree_on_each_row_of_its_bootstrap_draw():
    rng = np.random.default_rng(14)
    X = rng.random((45, 3))
    y = rng.random(45)
    rows = _bootstraps(7, 45, metamodel.N_TREES)
    model = rf_fit(X, y, seed=7)
    assert len(model.trees) == metamodel.N_TREES == 100
    _assert_trees_bitwise_equal(model.trees, [vars(t) for t in metamodel._grow_trees(X, y, rows)])


def test_forest_grouping_and_jobs_do_not_change_trees(monkeypatch):
    rng = np.random.default_rng(10)
    X = rng.integers(0, 6, (150, 16)).astype(np.float64)
    y = rng.random(150)
    one = rf_fit(X, y, seed=5, jobs=1)
    assert metamodel._FOREST_ELEMENTS // (150 * 16) < metamodel.N_TREES  # more than one tree group
    _assert_trees_bitwise_equal(one.trees, [vars(t) for t in rf_fit(X, y, seed=5, jobs=4).trees])
    _assert_trees_bitwise_equal(one.trees[:10], _oracle(X, y, _bootstraps(5, 150, metamodel.N_TREES)[:10]))
    monkeypatch.setattr(metamodel, "_FOREST_ELEMENTS", 1)  # one tree per group
    _assert_trees_bitwise_equal(one.trees, [vars(t) for t in rf_fit(X, y, seed=5).trees])


def test_forest_predict_matches_per_point_walk():
    rng = np.random.default_rng(11)
    X = rng.random((60, 4))
    model = rf_fit(X, rng.random(60), seed=2)
    probes = np.vstack([rng.random((30, 4)), X[:10]])
    stacked = np.stack([tree_predict(t, probes) for t in model.trees])
    for t, row in zip(model.trees, stacked):
        for x, got in zip(probes, row):
            node = 0
            while t.feature[node] >= 0:
                node = t.left[node] if x[t.feature[node]] <= t.threshold[node] else t.left[node] + 1
            assert got.tobytes() == t.value[node].tobytes()


def test_forest_split_search_stays_within_element_budget(monkeypatch):
    rng = np.random.default_rng(12)
    X = rng.random((256, 16))
    y = rng.random(256)
    sizes = []
    search = metamodel._best_splits

    def recording(Xp, *args):
        sizes.append(Xp.size)
        return search(Xp, *args)

    monkeypatch.setattr(metamodel, "_best_splits", recording)
    tracemalloc.start()
    try:
        rf_fit(X, y, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = metamodel._FOREST_ELEMENTS
    assert 256 * 16 <= budget < metamodel.N_TREES * 256 * 16  # the trees grow in several groups
    assert max(sizes) < 2 * budget
    # a group's rows plus about fifteen split-search temporaries of that size;
    # growing all the trees at once would hold about five times as much
    assert peak < 24 * 8 * budget, peak


def test_rf_rejects_empty_training_set():
    with pytest.raises(ValueError):
        rf_fit(np.empty((0, 2)), np.empty(0), seed=0)
    with pytest.raises(ValueError):
        rf_fit(np.empty((3, 0)), np.zeros(3), seed=0)


# ---------------------------------------------------------------------------
# persistence


def _toy_bundle(seed=0):
    rng = np.random.default_rng(seed)
    md = make_meta(rng.random((60, 4)), y=rng.random(60))
    return fit_meta_model(md, seed=seed), md


def test_save_load_roundtrip_bitwise(tmp_path):
    bundle, md = _toy_bundle()
    path = str(tmp_path / "model.json")
    save_model(bundle, path)
    loaded = load_model(path)
    probes = make_meta(np.random.default_rng(1).random((100, 4)))
    assert np.array_equal(bundle.predict(probes), loaded.predict(probes))


def test_bundle_keeps_only_what_prediction_reads(tmp_path):
    import json

    bundle, _ = _toy_bundle()
    path = str(tmp_path / "model.json")
    save_model(bundle, path)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["version"] == 3
    assert payload["forest"].keys() == {"seed", "trees"}
    assert len(payload["forest"]["trees"]) == metamodel.N_TREES
    for tree in payload["forest"]["trees"]:
        assert tree.keys() == {"feature", "threshold", "left", "value"}
        inner = np.asarray(tree["feature"]) >= 0
        assert np.all(np.asarray(tree["value"])[inner] == 0.0)
        assert np.all(np.asarray(tree["threshold"])[~inner] == 0.0)
    assert load_model(path).forest.n_features == len(payload["columns"])


@pytest.mark.parametrize("target", ("itself", "its parent", "the root"))
def test_load_refuses_a_split_whose_child_is_not_after_it(tmp_path, target):
    """A descent through such a split could revisit a node forever; the bundle
    is refused on load, before prediction could loop."""
    import json

    bundle, _ = _toy_bundle()
    path = str(tmp_path / "model.json")
    save_model(bundle, path)
    with open(path) as fh:
        payload = json.load(fh)
    tree = max(payload["forest"]["trees"], key=lambda t: len(t["feature"]))
    root_left = tree["left"][0]
    assert tree["feature"][root_left] >= 0  # the root's left child splits too
    node = {"itself": root_left, "its parent": 0, "the root": 0}[target]
    tree["left"][0 if target == "the root" else root_left] = node
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="malformed model payload .*children are not after it"):
        load_model(path)


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
    with pytest.raises(ModelFormatError, match="schema"):
        bundle.predict(bad)


def test_fit_meta_model_fills_nans_with_train_means():
    # the forest reads the imputed features themselves: a row with NaNs
    # predicts as the same row filled with the train means
    rng = np.random.default_rng(13)
    X = rng.random((40, 4))
    X[rng.random(X.shape) < 0.2] = np.nan
    bundle = fit_meta_model(make_meta(X, y=rng.random(40)), seed=0)
    assert bundle.imputer.means.tolist() == [X[~np.isnan(X[:, j]), j].mean() for j in range(4)]
    probes = np.vstack([X, rng.random((30, 4))])
    probes[40:][rng.random((30, 4)) < 0.3] = np.nan
    filled = np.where(np.isnan(probes), bundle.imputer.means, probes)
    assert bundle.predict(make_meta(probes)).tobytes() == bundle.forest.predict(filled).tobytes()
