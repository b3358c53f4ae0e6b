import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from adselect import detectors
from adselect.dataset import LabeledDataset
from adselect.detectors import (
    ALGORITHMS,
    SPACES,
    DetectorConfig,
    default_configs,
    fit,
    sample_random_config,
)
from adselect.errors import ConfigError, FitError

from conftest import make_dataset
from oracles import (
    iforest_leaves,
    iforest_mean_path,
    kde_scores_full,
    knn_scores_sorted,
    lof_full_matrix,
    pairwise_sq_dists,
)


def normals(n, dim=2, seed=0, name="train"):
    rng = np.random.default_rng(seed)
    return LabeledDataset(
        features=rng.standard_normal((n, dim)), labels=np.zeros(n, dtype=np.int8), name=name
    )


def config_for(algorithm, **overrides):
    params = {s.name: s.default for s in SPACES[algorithm]}
    contamination = overrides.pop("contamination", 0.1)
    seed = overrides.pop("seed", 0)
    params.update(overrides)
    return DetectorConfig(algorithm=algorithm, params=params, contamination=contamination, seed=seed)


# ---------------------------------------------------------------------------
# configuration space


def test_default_configs_cover_portfolio():
    configs = default_configs()
    assert len(configs) == len(ALGORITHMS) == 7
    assert [c.algorithm for c in configs] == list(ALGORITHMS)
    ids = [c.config_id for c in configs]
    assert len(set(ids)) == len(ids)


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown algorithm"):
        DetectorConfig(algorithm="svm", params={}, contamination=0.1)
    with pytest.raises(ConfigError, match="outside"):
        config_for("knn", k=500)
    with pytest.raises(ConfigError, match="contamination"):
        config_for("knn", contamination=0.4)
    with pytest.raises(ConfigError, match="missing"):
        DetectorConfig(algorithm="knn", params={"k": 3}, contamination=0.1)


@pytest.mark.parametrize(
    "algorithm, params, seed, match",
    [
        ("knn", {"k": True, "aggregation": "largest"}, 0, "outside its space"),
        ("kde", {"bandwidth": True}, 0, "outside its space"),
        ("knn", {"k": 5, "aggregation": "largest"}, 1.5, "seed"),
        ("knn", {"k": 5, "aggregation": "largest"}, "3", "seed"),
        ("knn", {"k": 5, "aggregation": "largest"}, True, "seed"),
    ],
)
def test_config_json_rejects_booleans_and_non_integer_seeds(algorithm, params, seed, match):
    text = json.dumps({"algorithm": algorithm, "params": params, "contamination": 0.1, "seed": seed})
    with pytest.raises(ConfigError, match=match):
        DetectorConfig.from_json(text)


def test_config_json_roundtrip():
    cfg = config_for("kde", bandwidth=0.37, contamination=0.05, seed=9)
    again = DetectorConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_id == cfg.config_id
    # a rank candidate's config carries its own id and reads back as the same config
    assert DetectorConfig.from_json(json.dumps({**json.loads(cfg.to_json()), "config_id": cfg.config_id})) == cfg


@pytest.mark.parametrize(
    "change, match",
    [
        ({"sede": 3}, "unknown detector config keys \\['sede'\\]"),
        ({"config_id": "kde-0123456789"}, "config_id 'kde-0123456789' is not this config's id"),
    ],
    ids=("misspelt-key", "foreign-id"),
)
def test_config_json_rejects_unknown_keys_and_foreign_ids(change, match):
    cfg = config_for("kde", bandwidth=0.37, contamination=0.05, seed=9)
    with pytest.raises(ConfigError, match=match):
        DetectorConfig.from_json(json.dumps({**json.loads(cfg.to_json()), **change}))


def test_sample_random_config_deterministic():
    a = sample_random_config(np.random.default_rng(77))
    b = sample_random_config(np.random.default_rng(77))
    assert a == b
    assert a.config_id == b.config_id


def test_sample_random_config_integer_uniformity():
    # knn k over [1, 50]: each value ~ Binomial(10000, 1/50), 3 sigma band
    n = 10_000
    rng = np.random.default_rng(123)
    ks = [sample_random_config(rng, algorithm="knn").params["k"] for _ in range(n)]
    counts = np.bincount(ks, minlength=51)[1:]
    sigma = np.sqrt(n * (1 / 50) * (49 / 50))
    assert np.all(np.abs(counts - n / 50) <= 3 * sigma + 1e-9), counts


def test_sample_random_config_log_real_median():
    # gaussian ridge is log-uniform on [1e-6, 1e-1]: median ~ geometric mean 3.16e-4
    n = 10_000
    rng = np.random.default_rng(321)
    vals = np.asarray(
        [sample_random_config(rng, algorithm="gaussian").params["ridge"] for _ in range(n)]
    )
    med = np.median(vals)
    geo_mean = 10 ** (-3.5)
    # 3 sigma of the sample median in log10 space: 1.2533 * (5/sqrt(12)) / sqrt(n)
    tol_dex = 3 * 1.2533 * (5 / np.sqrt(12)) / np.sqrt(n)
    assert abs(np.log10(med) - np.log10(geo_mean)) <= tol_dex


def test_sampled_configs_fit_everywhere():
    data = normals(80, dim=3, seed=5)
    for i in range(20):
        cfg = sample_random_config(np.random.default_rng(1000 + i))
        det = fit(cfg, data)
        assert np.isfinite(det.threshold)


# ---------------------------------------------------------------------------
# fit and threshold calibration


def test_knn_threshold_equals_brute_force_quantile():
    data = normals(10, dim=2, seed=1)
    det = fit(config_for("knn", k=1), data)
    X = data.features
    d = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    loo = d.min(axis=1)  # 1-NN leave-self-out distances
    assert det.threshold == pytest.approx(np.quantile(loo, 0.9, method="linear"), abs=1e-12)


@pytest.mark.parametrize("draw", range(3))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_threshold_is_linear_quantile_of_train_scores(algorithm, draw):
    # training scores: leave-self-out for knn and lof, query scores of the fitted rows otherwise
    data = normals(90, dim=3, seed=20 + draw)
    cfg = sample_random_config(np.random.default_rng([draw, ALGORITHMS.index(algorithm)]), algorithm=algorithm)
    det = fit(cfg, data)
    X = detectors.canonical_rows(data.features)
    if algorithm == "knn":
        s = knn_scores_sorted(X, None, cfg.params["k"], cfg.params["aggregation"])
    elif algorithm == "lof":
        s, _ = lof_full_matrix(X, cfg.params["n_neighbors"], X[:1], lrd_cap=detectors._LRD_CAP)
    else:
        s = det.model.query_scores(X)
    want = np.quantile(s, 1.0 - cfg.contamination, method="linear")
    assert np.float64(det.threshold).tobytes() == want.tobytes()


def test_knn_needs_more_rows_than_k():
    one = normals(1, dim=2, seed=2)
    with pytest.raises(FitError, match="knn"):
        fit(config_for("knn", k=1), one)


def test_lof_needs_more_rows_than_neighbors():
    with pytest.raises(FitError, match="lof"):
        fit(config_for("lof", n_neighbors=20), normals(10, seed=3))


def test_gaussian_accepts_origin_of_standard_normal():
    data = normals(300, dim=3, seed=4)
    det = fit(config_for("gaussian"), data)
    assert det.predict_many(np.zeros(3)).tolist() == [0]  # a vector is one row


def test_fit_warns_on_labeled_anomalies():
    ds = make_dataset(50, 5, seed=6)
    with pytest.warns(UserWarning, match="anomalies"):
        fit(config_for("hbos"), ds)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_calibration_bound_on_training_data(algorithm):
    data = normals(157, dim=3, seed=7)
    for contamination in (0.05, 0.1, 0.2):
        det = fit(config_for(algorithm, contamination=contamination), data)
        flagged = det.predict_many(data.features).mean()
        assert flagged <= contamination + 1.0 / data.n + 1e-12


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fit_deterministic(algorithm):
    data = normals(90, dim=2, seed=8)
    probes = np.random.default_rng(9).standard_normal((50, 2)) * 2
    a = fit(config_for(algorithm), data)
    b = fit(config_for(algorithm), data)
    assert a.threshold == b.threshold
    assert np.array_equal(a.scores(probes), b.scores(probes))
    assert np.array_equal(a.predict_many(probes), b.predict_many(probes))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_permutation_invariance(algorithm):
    data = normals(70, dim=2, seed=10)
    perm = np.random.default_rng(11).permutation(data.n)
    shuffled = data.take(perm)
    probes = np.random.default_rng(12).standard_normal((40, 2))
    a = fit(config_for(algorithm, seed=5), data)
    b = fit(config_for(algorithm, seed=5), shuffled)
    assert a.threshold == b.threshold
    assert np.array_equal(a.scores(probes), b.scores(probes))


# ---------------------------------------------------------------------------
# score and predict


def test_knn_score_zero_at_training_point():
    data = normals(20, dim=2, seed=13)
    det = fit(config_for("knn", k=1), data)
    assert det.scores(data.features[4]).tolist() == [0.0]


def test_gaussian_score_minimal_at_mean():
    data = normals(100, dim=3, seed=14)
    det = fit(config_for("gaussian"), data)
    mean = data.features.mean(axis=0)
    probes = np.random.default_rng(15).standard_normal((200, 3)) * 3
    assert det.scores(mean)[0] < det.scores(probes).min()


def test_iforest_scores_drop_toward_dense_center():
    rng = np.random.default_rng(16)
    dense = rng.normal(0.0, 0.3, size=(180, 2))
    sparse = rng.normal(6.0, 1.5, size=(20, 2))
    data = LabeledDataset(
        features=np.concatenate([dense, sparse]),
        labels=np.zeros(200, dtype=np.int8),
        name="two-cluster",
    )
    det = fit(config_for("iforest", seed=3), data)
    # walk from far away toward the dense center: scores should shrink
    path = np.asarray([[8.0, 8.0], [4.0, 4.0], [2.0, 2.0], [0.0, 0.0]])
    s = det.scores(path)
    assert s[0] > s[-1]
    assert s[1] > s[-1]


def test_score_dimension_mismatch():
    det = fit(config_for("hbos"), normals(30, dim=3, seed=17))
    with pytest.raises(ValueError, match="3"):
        det.scores(np.zeros(2))
    with pytest.raises(ValueError, match="3"):
        det.predict_many(np.zeros(2))
    with pytest.raises(ValueError):
        det.scores(np.zeros((4, 5)))


def test_predict_threshold_semantics():
    data = normals(50, dim=2, seed=18)
    det = fit(config_for("kde"), data)
    x = data.features[:1]
    assert det.predict_many(x).tolist() == [int(det.scores(x)[0] > det.threshold)]


def test_predict_infinite_threshold_flags_nothing():
    data = normals(40, dim=2, seed=19)
    det = fit(config_for("knn"), data)
    relaxed = dataclasses.replace(det, threshold=np.inf)
    probes = np.random.default_rng(20).standard_normal((100, 2)) * 10
    assert relaxed.predict_many(probes).sum() == 0


def test_raising_threshold_is_monotone():
    data = normals(60, dim=2, seed=21)
    det = fit(config_for("lof"), data)
    probes = np.random.default_rng(22).standard_normal((100, 2)) * 4
    base = det.predict_many(probes)
    raised = dataclasses.replace(det, threshold=det.threshold * 2 + 1)
    after = raised.predict_many(probes)
    assert np.all(after <= base)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scores_finite_everywhere(algorithm):
    data = normals(64, dim=4, seed=23)
    det = fit(config_for(algorithm), data)
    probes = np.concatenate(
        [
            np.random.default_rng(24).standard_normal((50, 4)) * 8,
            data.features[:10],
            np.full((1, 4), 50.0),
        ]
    )
    s = det.scores(probes)
    assert np.all(np.isfinite(s))


# ---------------------------------------------------------------------------
# flat isolation forest and block budgets


def _forest_case(name):
    """(training rows, n_trees, subsample) for the forest edge cases."""
    if name == "default":
        return normals(300, dim=3, seed=30).features, 100, 256
    if name == "two-rows-one-feature":
        return np.asarray([[0.0], [1.0]]), 50, 64
    if name == "adjacent-floats":
        # uniform(lo, hi) rounds to lo about half the time: the nextafter guard
        return np.asarray([[1.0], [np.nextafter(1.0, 2.0)]]), 50, 64
    if name == "psi-equals-n":
        return normals(90, dim=2, seed=31).features, 60, 512
    if name == "constant-column":
        X = normals(80, dim=3, seed=32).features.copy()
        X[:, 1] = 2.5
        return X, 80, 128
    if name == "all-duplicates":
        return np.tile([[1.5, -2.0]], (40, 1)), 50, 64
    if name == "largest":
        return normals(700, dim=3, seed=33).features, 300, 512
    if name == "signed-zeros":
        # thresholds -0.0 and 0.0, and subnormals one ulp apart, each repeated across trees
        tiny = np.nextafter(0.0, 1.0)
        return np.asarray([[-2 * tiny], [-tiny], [-0.0], [0.0], [tiny], [2 * tiny]]), 50, 64
    if name == "one-feature":
        return normals(200, dim=1, seed=38).features, 100, 256
    # the rank fields of these need more than one 64-bit word
    if name == "six-features":
        return normals(300, dim=6, seed=39).features, 100, 256
    if name == "twenty-features":
        return normals(200, dim=20, seed=40).features, 50, 64
    if name == "largest-five-features":
        return normals(700, dim=5, seed=41).features, 300, 512
    raise KeyError(name)


FULL_SAMPLE_CASES = (
    "two-rows-one-feature", "adjacent-floats", "psi-equals-n", "constant-column", "all-duplicates",
    "signed-zeros",
)
WIDE_CASES = ("six-features", "twenty-features", "largest-five-features")
FOREST_CASES = ("default", *FULL_SAMPLE_CASES, "largest", "one-feature", *WIDE_CASES)
PROBE_KINDS = ("on-thresholds", "special-values")  # besides training rows and random normals


def fit_forest(name, seed=0):
    X, n_trees, subsample = _forest_case(name)
    data = LabeledDataset(features=X, labels=np.zeros(len(X), dtype=np.int8), name=name)
    return fit(config_for("iforest", n_trees=n_trees, subsample=subsample, seed=seed), data), X


def forest_probes(model, X, kind=""):
    """Query rows for a forest fitted on X.

    By default ten training rows and thirty random normals. "on-thresholds":
    at every level of a few trees, a training row's walk reaches a split
    node; the row with that node's feature set to its threshold still
    reaches it (the row's value and the threshold both lie in the interval
    the node's ancestors allow) and lies exactly on it, and one ulp below
    and above. "special-values": +-inf, NaN, -0.0 and 0.0 in each feature.
    """
    if kind == "special-values":
        rows = [np.full(X.shape[1], v) for v in (np.nan, np.inf, -np.inf)]
        for j in range(X.shape[1]):
            for v in (np.inf, -np.inf, np.nan, -0.0, 0.0):
                rows.append(X[0].copy())
                rows[-1][j] = v
        return np.asarray(rows)
    if kind == "on-thresholds":
        feature, threshold, path = model.feature, model.threshold, model.path
        rows = [X[0]]
        for t in range(min(3, model.n_trees)):
            x, node = X[t % len(X)], 0
            while np.isnan(path[t, node]):
                f, thr = feature[t, node], threshold[t, node]
                for v in (thr, np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf)):
                    rows.append(x.copy())
                    rows[-1][f] = v
                node = 2 * node + 2 if x[f] >= thr else 2 * node + 1
        return np.asarray(rows)
    return np.concatenate([X[:10], np.random.default_rng(34).standard_normal((30, X.shape[1])) * 3])


@pytest.mark.parametrize("rows", (None, 1, 8))  # query rows per block: all probes, one, eight
@pytest.mark.parametrize("case", FOREST_CASES + tuple(f"{c}/{kind}" for kind in PROBE_KINDS for c in FOREST_CASES))
def test_iforest_scorer_matches_naive_walk(case, rows, monkeypatch):
    case, _, kind = case.partition("/")
    det, X = fit_forest(case)
    model = det.model
    if rows is not None:
        monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", rows * model.n_trees)
    assert not np.isnan(model.path[:, 2**model.cap - 1 :]).any()
    probes = forest_probes(model, X, kind)
    expected_paths = iforest_mean_path(model.feature, model.threshold, model.path, probes)
    c = max(float(model._avg_path(np.asarray([model.psi], dtype=np.float64))[0]), 1.0)
    assert np.array_equal(det.scores(probes), np.power(2.0, -expected_paths / c))
    assert np.all((det.scores(probes) > 0) & (det.scores(probes) <= 1))


@pytest.mark.parametrize("case", ("default", "constant-column", "signed-zeros", "one-feature", *WIDE_CASES))
def test_iforest_query_on_a_threshold_goes_right(case):
    # one probe per tree, lying exactly on that tree's root threshold
    det, X = fit_forest(case)
    model = det.model
    feature, threshold, path = model.feature, model.threshold, model.path
    probes = np.repeat(X[:1], model.n_trees, axis=0)
    probes[np.arange(model.n_trees), feature[:, 0]] = threshold[:, 0]
    expected_paths = iforest_mean_path(feature, threshold, path, probes)
    c = max(float(model._avg_path(np.asarray([model.psi], dtype=np.float64))[0]), 1.0)
    assert np.array_equal(det.scores(probes), np.power(2.0, -expected_paths / c))


@pytest.mark.parametrize("case", FULL_SAMPLE_CASES)
def test_iforest_leaves_hold_depth_plus_c_of_their_rows(case):
    # with psi = n every training row is in every tree, so the rows reaching
    # a leaf are exactly the rows it was grown from
    det, X = fit_forest(case)
    model = det.model
    assert model.psi == len(X)
    members: dict = {}
    for i, x in enumerate(X):
        for t, leaf in enumerate(iforest_leaves(model.feature, model.threshold, model.path, x)):
            members.setdefault((t, leaf), []).append(i)
    for (t, (node, depth)), rows in members.items():
        assert model.path[t, node] == depth + model._avg_path(np.asarray([len(rows)], dtype=np.float64))[0]
        if depth < model.cap and len(rows) > 1:
            # growth stops early only where no feature varies (constant-feature redraw rule)
            assert np.all(X[rows] == X[rows[0]]), (case, t, node)
    internal = np.isnan(model.path)
    if case == "constant-column":
        assert not np.any(model.feature[internal] == 1)
    if case == "all-duplicates":
        assert not internal.any()  # every root is a leaf


@pytest.mark.parametrize("case", FOREST_CASES)
def test_iforest_packed_keys_rebuild_the_grown_forest(case, monkeypatch):
    # with no room for a field, every forest keeps its float thresholds as grown
    packed, X = fit_forest(case)
    monkeypatch.setattr(detectors._IsolationForest, "_WORD_BITS", 0)
    plain = fit_forest(case)[0]
    assert plain.model._key is None
    assert (packed.model._key is None) == (case in WIDE_CASES)
    for name in ("feature", "threshold", "path"):
        assert getattr(packed.model, name).tobytes() == getattr(plain.model, name).tobytes(), name
    probes = np.concatenate([forest_probes(packed.model, X, kind) for kind in ("", *PROBE_KINDS)])
    assert np.array_equal(packed.scores(probes), plain.scores(probes))


def test_iforest_largest_forest_fits_one_word():
    # 300 trees of psi 512 split at most 300 * 511 nodes, so at d = 3 the
    # fields take at most 3 * (bit_length(153,300) + 1) = 57 bits
    n_trees, psi = (int(p.high) for p in SPACES["iforest"])
    assert 3 * ((n_trees * (psi - 1)).bit_length() + 1) <= detectors._IsolationForest._WORD_BITS
    model = fit_forest("largest")[0].model  # d = 3
    assert (model.n_trees, model.psi) == (n_trees, psi)
    split = np.isnan(model.path)
    counts = np.bincount(model.feature[split], minlength=3)
    assert sum(int(c).bit_length() + 1 for c in counts) <= 64
    assert model._key is not None
    # no key reaches a guard bit, and each rank is at most its feature's count of split nodes
    keys = model._key[model._key != 0]
    assert not np.any(keys & model._guards)
    f = model._feature[model._key != 0]
    assert np.all((keys >> model._shifts[f]) <= counts[f])


def test_iforest_same_seed_same_forest():
    a, _ = fit_forest("default", seed=4)
    b, _ = fit_forest("default", seed=4)
    c, _ = fit_forest("default", seed=5)
    for name in ("feature", "threshold", "path"):
        assert np.array_equal(getattr(a.model, name), getattr(b.model, name), equal_nan=True)
    assert not np.array_equal(a.model.threshold, c.model.threshold)


# sha256 of feature (little-endian int64) and threshold (little-endian float64)
# of fit_forest(case, seed=7). Both come from PCG64 draws and IEEE arithmetic
# only, so they hold on every platform; a change to the order or number of
# draws changes them.
FOREST_DIGESTS = {
    "default": (  # psi < n: rng.choice per tree; 100 trees, two groups
        "1dd02eb6fa4af3569fe56302e85b63df563b222aaa6ee6e649186b08373c3ae6",
        "5a718b8fcc3751f876e277ffaa986345167b2460afc3b86c0748b3e0e1435c6e",
    ),
    "psi-equals-n": (
        "6589f8ba6501089ba827f0ba47973ae6328b71c01c111424b791032dfb9d8839",
        "a8f6af23b98322f344bd1145a0fd37f421105bb070ca830342453f6bba87f1f3",
    ),
    "constant-column": (  # redraws the feature; 80 trees, two groups
        "0559378e3ac104f4438c5f08a3fbb7939657a5f51432149b49f48272d6e13e98",
        "653186202535d68264a4c20ecc8e6f1652b9389bce31dd705142c081626951fd",
    ),
    "all-duplicates": (
        "0a4cdba6a632ec823ca6646927a8ab4bbb46c3527d84a5ea0f3c3cc23a019428",
        "0a4cdba6a632ec823ca6646927a8ab4bbb46c3527d84a5ea0f3c3cc23a019428",
    ),
    "largest": (  # 300 trees, five groups
        "a82a09a5c7221c64a6e9d944ecb30f7df8a565ed0edc85f6b14f2c87475265a1",
        "9ff0837bb5f311cfd2e806f8760cb96683aef40ec603b8fec0e8b58de99b9f7c",
    ),
}


@pytest.mark.parametrize("case", sorted(FOREST_DIGESTS))
def test_iforest_draw_order_is_pinned(case):
    model = fit_forest(case, seed=7)[0].model
    feature = hashlib.sha256(np.ascontiguousarray(model.feature, dtype="<i8").tobytes()).hexdigest()
    threshold = hashlib.sha256(np.ascontiguousarray(model.threshold, dtype="<f8").tobytes()).hexdigest()
    assert (feature, threshold) == FOREST_DIGESTS[case]


@pytest.mark.parametrize("algorithm", ("knn", "lof", "kde", "iforest"))
def test_scores_independent_of_block_budget(algorithm, monkeypatch):
    data = normals(157, dim=5, seed=35)
    probes = np.random.default_rng(36).standard_normal((400, 5)) * 2
    results = []
    for budget in (1, 1000, 1 << 30):  # one row per block, uneven blocks, one block
        monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", budget)
        det = fit(config_for(algorithm, seed=2), data)
        results.append((det.threshold, det.scores(probes)))
    for threshold, scores in results[1:]:
        assert threshold == results[0][0]
        assert np.array_equal(scores, results[0][1])


def _distance_rows(case):
    rng = np.random.default_rng(37)
    if case == "all-equal":
        return np.full((6, 40), 1.5)
    if case == "ties":
        return rng.integers(0, 5, (30, 40)).astype(np.float64)  # many ties at every rank
    d = rng.random((30, 40))
    if case == "inf":
        d[::2, ::3] = np.inf
        d[1] = np.inf
    return d


@pytest.mark.parametrize("case", ("distinct", "ties", "all-equal", "inf"))
@pytest.mark.parametrize("k", (1, 2, 7, 39, 40))
def test_k_nearest_matches_stable_argsort(case, k):
    d = _distance_rows(case)
    want = np.argsort(d, axis=1, kind="stable")[:, :k]
    assert np.array_equal(detectors._k_nearest(d, k), want)


def test_k_nearest_sorts_in_full_only_rows_with_a_tie_at_the_kth_distance(monkeypatch):
    real_argsort = np.argsort
    sorted_rows = []

    def argsort(a, *args, **kwargs):
        sorted_rows.append(1 if np.ndim(a) == 1 else np.shape(a)[0])
        return real_argsort(a, *args, **kwargs)

    d = np.random.default_rng(39).random((30, 40))  # distinct: every k-th distance is unique
    d[7, 20] = np.sort(d[7])[4]  # row 7: its 5th distance recurs
    want = real_argsort(d, axis=1, kind="stable")[:, :5]
    monkeypatch.setattr(np, "argsort", argsort)
    assert np.array_equal(detectors._k_nearest(d, 5), want)
    assert sum(sorted_rows) == 1


def test_k_nearest_orders_ties_by_index():
    d = np.asarray([[2.0, 1.0, 2.0, 1.0, 0.5, 2.0]])
    assert detectors._k_nearest(d, 4).tolist() == [[4, 1, 3, 0]]


@pytest.mark.parametrize("case", ("normal", "integer-grid"))
@pytest.mark.parametrize("aggregation", ("largest", "mean", "median"))
def test_knn_scores_match_sorted_oracle(case, aggregation):
    rng = np.random.default_rng(40)
    X = rng.standard_normal((60, 3))
    if case == "integer-grid":  # many tied distances
        X = rng.integers(0, 3, (60, 3)).astype(np.float64)
    Q = np.vstack([X[:15], rng.integers(-1, 4, (30, 3)).astype(np.float64), rng.standard_normal((30, 3))])
    for k in (1, 2, 59):  # k = n - 1: every other training row is a neighbour
        model = detectors._KnnModel.fit(detectors.TrainingRows(X), {"k": k, "aggregation": aggregation}, seed=0)
        assert model.train_scores(X).tobytes() == knn_scores_sorted(X, None, k, aggregation).tobytes(), k
        assert model.query_scores(Q).tobytes() == knn_scores_sorted(X, Q, k, aggregation).tobytes(), k


@pytest.mark.parametrize("case", ("normal", "duplicates", "integer-grid"))
def test_lof_scores_match_full_matrix_oracle(case):
    rng = np.random.default_rng(38)
    X = rng.standard_normal((90, 3))
    if case == "duplicates":
        X = np.repeat(X[:30], 3, axis=0)
    elif case == "integer-grid":
        X = rng.integers(0, 4, (90, 3)).astype(np.float64)
    Q = np.vstack([X[:20], rng.integers(-1, 5, (40, 3)).astype(np.float64), rng.standard_normal((40, 3))])
    for k in (1, 5, 20, 89):
        model = detectors._LofModel.fit(detectors.TrainingRows(X), {"n_neighbors": k}, seed=0)
        train, query = lof_full_matrix(X, k, Q, lrd_cap=detectors._LRD_CAP)
        assert model.train_scores(X).tobytes() == train.tobytes(), k
        assert model.query_scores(Q).tobytes() == query.tobytes(), k


def test_lof_fit_never_holds_a_full_distance_matrix():
    X = np.random.default_rng(39).standard_normal((4000, 2))
    tracemalloc.start()
    try:
        detectors._LofModel.fit(detectors.TrainingRows(X), {"n_neighbors": 20}, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full = 4000 * 4000 * 8  # one n x n float64 matrix: 128 MB
    assert peak < full / 16, peak


@pytest.mark.parametrize("budget", (1, 1000, 1 << 30))  # one row per block, uneven blocks, one block
@pytest.mark.parametrize("dim", (1, 20))
def test_buffered_distances_match_allocating_oracle(budget, dim, monkeypatch):
    monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", budget)
    rng = np.random.default_rng(42 + dim)
    X = rng.standard_normal((53, dim))
    X = np.vstack([X, X[:7]])  # 60 rows, 7 of them duplicated
    Q = np.vstack([X[:5], rng.standard_normal((97, dim)) * 3])
    n = X.shape[0]
    rows = detectors._block_rows(n)
    out, tmp = np.empty((min(rows, len(Q)), n)), np.empty((min(rows, len(Q)), n))
    cols = np.ascontiguousarray(X.T)
    got = np.vstack(
        [detectors._pairwise_sq_dists(Q[s : s + rows], cols, out, tmp).copy() for s in range(0, len(Q), rows)]
    )
    assert got.tobytes() == pairwise_sq_dists(Q, X).tobytes()
    for k in (1, 2, n - 1):
        for aggregation in ("largest", "mean", "median"):
            knn = detectors._KnnModel.fit(detectors.TrainingRows(X), {"k": k, "aggregation": aggregation}, seed=0)
            assert knn.train_scores(X).tobytes() == knn_scores_sorted(X, None, k, aggregation).tobytes()
            assert knn.query_scores(Q).tobytes() == knn_scores_sorted(X, Q, k, aggregation).tobytes()
        lof = detectors._LofModel.fit(detectors.TrainingRows(X), {"n_neighbors": k}, seed=0)
        train, query = lof_full_matrix(X, k, Q, lrd_cap=detectors._LRD_CAP)
        assert lof.train_scores(X).tobytes() == train.tobytes()
        assert lof.query_scores(Q).tobytes() == query.tobytes()
    for h in (1e-2, 1.0, 1e1):
        kde = detectors._KdeModel.fit(detectors.TrainingRows(X), {"bandwidth": h}, seed=0)
        assert kde.query_scores(Q).tobytes() == kde_scores_full(X, Q, h).tobytes()


# ---------------------------------------------------------------------------
# bound-and-refine decisions: predict_many must equal scores(X) > threshold


_DECISION_N = 40

DECISION_CONFIGS = (
    [("knn", {"k": k, "aggregation": a}) for k in (1, 2, _DECISION_N - 1) for a in ("largest", "mean", "median")]
    + [("kde", {"bandwidth": h}) for h in (1e-2, 1.0, 1e1)]
    + [("lof", {"n_neighbors": k}) for k in (2, 5, _DECISION_N - 1)]
)


def _decision_data(dim, scale):
    """Training rows with duplicates, and queries: training rows, a duplicate,
    uniform points in a ball twice the data's radius, and far points."""
    rng = np.random.default_rng(60 + dim)
    base = rng.standard_normal((_DECISION_N - 8, dim))
    X = np.vstack([base, base[:8]])
    radius = 2.0 * np.linalg.norm(X - X.mean(axis=0), axis=1).max()
    g = rng.standard_normal((300, dim))
    ball = X.mean(axis=0) + g / np.linalg.norm(g, axis=1)[:, None] * radius * rng.random((300, 1)) ** (1.0 / dim)
    far = X.mean(axis=0) + np.outer([10.0, 100.0, 1e4], np.ones(dim))
    Q = np.vstack([X[:10], base[:1], ball, far])
    return X * scale, Q * scale


def _shared(bound, Q):
    """The ``nearest`` argument of a decision on Q: None for a model that bounds
    Q alone, or the shared bound, as a ``BallSample`` hands it to every model."""
    return None if bound == "alone" else (lambda rows: rows.nearest(Q))


def _settled(det, Q, threshold, nearest=None):
    """Rows whose decision came from the bound: their value is not the exact score."""
    bounded, exact = det.scores(Q, above=threshold, nearest=nearest), det.scores(Q)
    return bounded, exact, bounded.view(np.int64) != exact.view(np.int64)


@pytest.mark.parametrize("bound", ("alone", "shared"))  # shared: knn's and KDE's floors from it, LOF's first floor
@pytest.mark.parametrize("scale", (1e-150, 1.0, 1e150))
@pytest.mark.parametrize("dim", (1, 20))
@pytest.mark.parametrize("algorithm,params", DECISION_CONFIGS, ids=lambda v: str(v))
def test_decisions_equal_exact_scores(algorithm, params, dim, scale, bound):
    X, Q = _decision_data(dim, scale)
    train = LabeledDataset(features=X, labels=np.zeros(len(X), dtype=np.int8), name="decide")
    det = fit(DetectorConfig(algorithm=algorithm, params=params, contamination=0.1, seed=0), train)
    exact = det.scores(Q)
    nearest = _shared(bound, Q)
    picks = exact[np.isfinite(exact)][::7]  # thresholds on queries' exact scores, and a float below
    for t in [det.threshold, *picks, *np.nextafter(picks, -np.inf)]:
        moved = dataclasses.replace(det, threshold=float(t))
        assert moved.predict_many(Q, nearest=nearest).tobytes() == (exact > t).astype(np.int8).tobytes(), t
        bounded, _, settled = _settled(moved, Q, float(t), nearest)
        assert np.all(bounded[settled] > t) and np.all(bounded[settled] <= exact[settled]), t


@pytest.mark.parametrize("bound", ("alone", "shared"))
@pytest.mark.parametrize("dim", (1, 20))
def test_decisions_equal_exact_scores_on_identical_training_rows(dim, bound):
    # every training row at one point: the bounds meet the exact scores most closely
    X = np.full((_DECISION_N, dim), 0.75)
    train = LabeledDataset(features=X, labels=np.zeros(_DECISION_N, dtype=np.int8), name="one-point")
    offsets = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 60)])
    Q = 0.75 + np.outer(offsets, np.linspace(1.0, -1.0, dim))
    nearest = _shared(bound, Q)
    for algorithm, params in DECISION_CONFIGS:
        det = fit(DetectorConfig(algorithm=algorithm, params=params, contamination=0.1, seed=0), train)
        exact = det.scores(Q)
        for t in [det.threshold, *exact, *np.nextafter(exact, -np.inf)]:
            moved = dataclasses.replace(det, threshold=float(t))
            got = moved.predict_many(Q, nearest=nearest)
            assert got.tobytes() == (exact > t).astype(np.int8).tobytes(), (algorithm, params, t)


@pytest.mark.parametrize("algorithm,params,least", [
    ("knn", {"k": 10, "aggregation": "largest"}, 0.8),
    ("knn", {"k": 10, "aggregation": "mean"}, 0.8),
    ("knn", {"k": 10, "aggregation": "median"}, 0.8),
    ("kde", {"bandwidth": 0.3}, 0.5),
    ("kde", {"bandwidth": 1.0}, 0.9),  # the whole-row floor: the row minimum alone settled 0.40
    ("lof", {"n_neighbors": 20}, 0.9),  # certified neighbour sets: 0.948, every anomaly
])
def test_decision_bound_settles_clear_anomalies(algorithm, params, least):
    data = normals(600, dim=4, seed=43)
    det = fit(DetectorConfig(algorithm=algorithm, params=params, contamination=0.1, seed=0), data)
    g = np.random.default_rng(44).standard_normal((4000, 4))
    ball = g / np.linalg.norm(g, axis=1)[:, None] * 6.0 * np.random.default_rng(45).random((4000, 1)) ** 0.25
    _, exact, settled = _settled(det, ball, det.threshold)
    assert det.predict_many(ball).tobytes() == (exact > det.threshold).astype(np.int8).tobytes()
    assert settled.mean() >= least, settled.mean()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_predict_decision_agrees_with_predict_many(algorithm):
    data = normals(80, dim=3, seed=46)
    det = fit(config_for(algorithm), data)
    rng = np.random.default_rng(47)
    probes = np.vstack([data.features[:10], rng.standard_normal((20, 3)) * 3, rng.standard_normal((10, 3)) * 20])
    many = det.predict_many(probes)
    _, _, settled = _settled(det, probes, det.threshold)
    if algorithm in ("knn", "kde", "lof"):  # both settled and refined points
        assert settled.any() and not settled.all()
    for x, want in zip(probes, many):
        one = det.predict_many(x[None])[0]
        assert one == int(det.scores(x[None])[0] > det.threshold)
        if algorithm not in ("pca", "gaussian"):  # their BLAS and LAPACK products round by block shape
            assert one == want


def _lof_paths(model, Q, above, monkeypatch):
    """LOF decision scores of Q, and the rows that ``_decide`` sent to the full
    ``_block_scores``, that is, whose neighbour set it could not certify."""
    full = []
    real = model._block_scores

    def block_scores(block, out, tmp):
        full.extend(map(tuple, block))
        return real(block, out, tmp)

    monkeypatch.setattr(model, "_block_scores", block_scores)
    got = model.decision_scores(Q, above)
    monkeypatch.undo()
    full = set(full)
    return got, np.asarray([tuple(q) in full for q in Q])


@pytest.mark.parametrize("case", ("normal", "duplicates", "integer-grid"))
def test_lof_decision_scores_certified_rows_from_their_neighbours_bit_for_bit(case, monkeypatch):
    rng = np.random.default_rng(48)
    X = rng.standard_normal((90, 3))
    if case == "duplicates":
        X = np.repeat(X[:30], 3, axis=0)
    elif case == "integer-grid":
        X = rng.integers(0, 4, (90, 3)).astype(np.float64)
    Q = np.vstack([X[:20], rng.integers(-1, 5, (40, 3)).astype(np.float64), rng.standard_normal((40, 3)) * 2])
    for k in (1, 2, 20, 89):
        model = detectors._LofModel.fit(detectors.TrainingRows(X), {"n_neighbors": k}, seed=0)
        exact = model.query_scores(Q)
        # above = inf settles nothing: every certified row is scored from its k neighbours alone
        got, full = _lof_paths(model, Q, np.inf, monkeypatch)
        assert got.tobytes() == exact.tobytes(), k
        if case == "normal":
            assert not full[40:].any(), k  # distinct real distances: every neighbour set certified
        for t in (model._train_lof.max(), *exact[::9], *np.nextafter(exact[::9], -np.inf)):
            got = model.decision_scores(Q, float(t))
            assert np.array_equal(got > t, exact > t), (k, t)
            assert np.all(got[got != exact] > t) and np.all(got <= exact), (k, t)


def _adjacent_squares(sqrt_equal):
    """Training rows a = (x, 0) and b = (x, y) whose squared distances to the
    origin, as ``_pairwise_sq_dists`` sums them, are adjacent floats, with
    equal rounded square roots or not, as asked."""
    for x in np.random.default_rng(49).uniform(2.2, 2.8, 10000):
        s = x * x
        y = np.sqrt(np.nextafter(s, np.inf) - s)
        if s + y * y == np.nextafter(s, np.inf) and (np.sqrt(s) == np.sqrt(s + y * y)) == sqrt_equal:
            return [x, 0.0], [x, y]
    raise AssertionError("no pair found")


@pytest.mark.parametrize("case", ("one-ulp", "equal-sqrt", "duplicate-rows"))
@pytest.mark.parametrize("k", (2, 3))
def test_lof_decision_refuses_uncertain_kth_neighbours(case, k, monkeypatch):
    """The k-th and (k+1)-th nearest training rows of the origin are a and b:
    squared distances one ulp apart, squared distances apart with equal square
    roots, or one training row twice. No BLAS bound tells them apart, so the
    origin must be scored in full, where the tie goes to the lower index."""
    a, b = ([1.5, 0.5], [1.5, 0.5]) if case == "duplicate-rows" else _adjacent_squares(case == "equal-sqrt")
    near = [[0.05 * (i + 1), 0.0] for i in range(k - 1)]  # the k - 1 nearest
    far = [[3.0, 1.0], [3.5, -1.0], [-2.5, 2.0], [-3.0, -3.0], [5.0, 0.0], [0.0, 6.0], [4.25, 4.0]]
    X = np.asarray([b, *near, a, *far])  # b precedes a
    model = detectors._LofModel.fit(detectors.TrainingRows(X), {"n_neighbors": k}, seed=0)
    Q = np.asarray([[0.0, 0.0], [1e-300, 0.0], [2.75, 0.5], [-10.0, 3.0]])
    exact = model.query_scores(Q)
    got, full = _lof_paths(model, Q, np.inf, monkeypatch)
    assert got.tobytes() == exact.tobytes()
    assert full[0]
    for t in (*exact, *np.nextafter(exact, -np.inf), model._train_lof.max()):
        assert np.array_equal(model.decision_scores(Q, float(t)) > t, exact > t), t


@pytest.mark.parametrize("bound", ("alone", "shared"))
@pytest.mark.parametrize("budget", (1, 1000, 1 << 30))  # one row per block, uneven blocks, one block
@pytest.mark.parametrize("algorithm,params", [("lof", {"n_neighbors": 2}), ("lof", {"n_neighbors": 20}), ("kde", {"bandwidth": 1.0})])
def test_decision_scores_independent_of_block_budget(algorithm, params, budget, bound, monkeypatch):
    monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", budget)
    data = normals(157, dim=5, seed=35)
    det = fit(DetectorConfig(algorithm=algorithm, params=params, contamination=0.1, seed=2), data)
    probes = np.random.default_rng(36).standard_normal((400, 5)) * 2
    exact = det.scores(probes)
    nearest = _shared(bound, probes)
    for t in (det.threshold, *exact[::11], *np.nextafter(exact[::11], -np.inf)):
        moved = dataclasses.replace(det, threshold=float(t))
        assert moved.predict_many(probes, nearest=nearest).tobytes() == (exact > t).astype(np.int8).tobytes(), t
    bounded, _, settled = _settled(det, probes, det.threshold, nearest)
    assert settled.any() and not settled.all()
    assert np.all(bounded[settled] > det.threshold) and np.all(bounded[settled] <= exact[settled])


BOUNDARY_CONFIGS = [
    ("knn", {"k": 3, "aggregation": "mean"}),
    ("kde", {"bandwidth": 0.5}),
    ("kde", {"bandwidth": 2.0}),  # rows open after the row minimum get the whole-row floor
    ("lof", {"n_neighbors": 5}),
]


def _boundary_queries(rows, seed):
    """Alternately a point among the training rows and a clear anomaly."""
    g = np.random.default_rng(seed).standard_normal((rows, 3))
    g[1::2] *= 8.0 / np.linalg.norm(g[1::2], axis=1)[:, None]
    return g


@pytest.mark.parametrize("bound", ("alone", "shared"))
@pytest.mark.parametrize("budget", (None, 8 * 40))  # 1638 and 8 query rows per block
@pytest.mark.parametrize("where", ("none", "one-row", "one-block", "one-block-plus-one", "two-blocks-plus-one"))
@pytest.mark.parametrize("algorithm,params", BOUNDARY_CONFIGS, ids=lambda v: str(v))
def test_decisions_at_sample_and_block_boundaries(algorithm, params, where, budget, bound, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", budget)
    block = detectors._block_rows(40)
    rows = {"none": 0, "one-row": 1, "one-block": block, "one-block-plus-one": block + 1, "two-blocks-plus-one": 2 * block + 1}[where]
    det = fit(DetectorConfig(algorithm=algorithm, params=params, contamination=0.1, seed=0), normals(40, dim=3, seed=71))
    Q = _boundary_queries(rows, seed=72)
    exact = det.scores(Q)
    assert exact.shape == (rows,)
    nearest = _shared(bound, Q)
    for t in (det.threshold, *exact[:: max(1, rows // 5)], -np.inf, np.inf):
        moved = dataclasses.replace(det, threshold=float(t))
        assert moved.predict_many(Q, nearest=nearest).tobytes() == (exact > t).astype(np.int8).tobytes(), t
        bounded, _, settled = _settled(moved, Q, float(t), nearest)
        assert np.all(bounded[settled] > t) and np.all(bounded[settled] <= exact[settled]), t


@pytest.mark.parametrize("bound", ("alone", "shared"))
@pytest.mark.parametrize("budget", (None, 8 * 40))
@pytest.mark.parametrize("algorithm,params", BOUNDARY_CONFIGS, ids=lambda v: str(v))
def test_decisions_when_every_row_or_no_row_settles(algorithm, params, budget, bound, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", budget)
    det = fit(DetectorConfig(algorithm=algorithm, params=params, contamination=0.1, seed=0), normals(40, dim=3, seed=71))
    far = _boundary_queries(2 * detectors._block_rows(40) + 1, seed=73)
    far *= 30.0 / np.linalg.norm(far, axis=1)[:, None]
    nearest = _shared(bound, far)
    bounded, exact, settled = _settled(det, far, det.threshold, nearest)
    assert settled.all() and det.predict_many(far, nearest=nearest).all()
    assert np.all(bounded > det.threshold) and np.all(bounded <= exact)
    # just above every exact score: no floor can clear it, so every row is scored exactly
    top = dataclasses.replace(det, threshold=float(np.nextafter(exact.max(), np.inf)))
    bounded, exact, settled = _settled(top, far, top.threshold, nearest)
    assert not settled.any() and not top.predict_many(far, nearest=nearest).any()


@pytest.mark.parametrize("budget", (None, 8 * 200, 1))  # 327, 8 and 1 query rows per block
def test_lof_decision_certifies_each_neighbour_set_once(budget, monkeypatch):
    """Held-out normal rows, as MC-CV predicts them: most neighbour sets are
    certified but the floor leaves the row open, and such a row is scored
    from the set its one pass of products certified."""
    if budget is not None:
        monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", budget)
    data = normals(240, dim=4, seed=74)
    det = fit(config_for("lof", n_neighbors=20), data.take(np.arange(200)))
    held = data.features[200:]
    exact = det.scores(held)
    passes = []
    products = detectors._SqDistBounds.products
    monkeypatch.setattr(detectors._SqDistBounds, "products", lambda self, *rows: passes.append(1) or products(self, *rows))
    thresholds = (det.threshold, *exact[::5], *np.nextafter(exact[::5], -np.inf))
    for t in thresholds:
        moved = dataclasses.replace(det, threshold=float(t))
        assert moved.predict_many(held).tobytes() == (exact > t).astype(np.int8).tobytes(), t
    assert len(passes) == len(thresholds)
    got, full = _lof_paths(det.model, held, det.threshold, monkeypatch)
    assert np.count_nonzero(~full & (got == exact)) > len(held) // 2  # certified, open, scored from the set


def test_pca_one_row_predict_matches_predict_many_on_rounding_noise():
    # retained_variance 0.99 keeps all 4 components: no direction is discarded, so every score is exactly 0
    det = fit(config_for("pca", retained_variance=0.99), normals(600, dim=4, seed=50))
    probes = np.random.default_rng(51).standard_normal((2000, 4)) * 3
    many = det.predict_many(probes)
    assert det.threshold == 0.0 and not det.scores(probes).any()
    assert [det.predict_many(x[None])[0] for x in probes] == many.tolist()
