import numpy as np
import pytest

from adselect.dataset import (
    LabeledDataset,
    apply_scaler,
    fit_robust_scaler,
    load_csv,
    stratified_split,
    subsample_outliers,
)
from adselect.errors import DataError
from adselect.pipeline import RunConfig, assimilate_split

from conftest import make_dataset


# ---------------------------------------------------------------------------
# oracles


def max_anomalies_oracle(n_normal: int, n_anomaly: int, hi: float) -> int:
    """Enumerate a = 0..n_anomaly; largest a with a/(n_normal + a) <= hi."""
    best = 0
    for a in range(n_anomaly + 1):
        if a / (n_normal + a) <= hi:
            best = a
    return best


def interp_quantile_oracle(values, q):
    """Linear interpolation between order statistics at rank q*(n-1)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def largest_remainder_oracle(count, fractions):
    quotas = [count * f for f in fractions]
    base = [int(np.floor(v)) for v in quotas]
    rem = count - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:rem]:
        base[i] += 1
    return base


# ---------------------------------------------------------------------------
# load_csv


def test_load_csv_roundtrip(tmp_path):
    p = tmp_path / "four.csv"
    p.write_text("a,b,label\n1,2,0\n3,4,0\n5,6,1\n7,8,0\n")
    ds = load_csv(str(p))
    assert ds.n == 4
    assert ds.n_anomalies == 1
    assert np.array_equal(ds.features[2], [5.0, 6.0])
    assert list(ds.labels) == [0, 0, 1, 0]


def test_load_csv_text_cell_cites_location(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,label\n1,oops,0\n")
    with pytest.raises(DataError) as exc:
        load_csv(str(p))
    assert "row 2" in str(exc.value)
    assert "'b'" in str(exc.value)
    assert "oops" in str(exc.value)


def test_load_csv_custom_label_column(tmp_path):
    p = tmp_path / "cls.csv"
    p.write_text("x,class\n0.5,0\n1.5,1\n2.5,0\n")
    ds = load_csv(str(p), label_column="class")
    assert list(ds.labels) == [0, 1, 0]


def test_load_csv_label_outside_01(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,label\n1,2\n")
    with pytest.raises(DataError, match="outside"):
        load_csv(str(p))


def test_load_csv_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/nowhere.csv")


def test_load_csv_optional_labels(tmp_path):
    p = tmp_path / "nolabel.csv"
    p.write_text("x,y\n1,2\n3,4\n")
    ds = load_csv(str(p), labels_required=False)
    assert ds.n == 2
    assert ds.n_anomalies == 0
    with pytest.raises(DataError, match="not found"):
        load_csv(str(p))


def test_labeled_dataset_invariants():
    with pytest.raises(DataError, match="labels"):
        LabeledDataset(features=np.ones((3, 2)), labels=np.asarray([0, 1]), name="x")
    with pytest.raises(DataError, match="0 or 1"):
        LabeledDataset(features=np.ones((2, 2)), labels=np.asarray([0, 2]), name="x")
    with pytest.raises(DataError, match="finite"):
        LabeledDataset(features=np.asarray([[np.inf, 1.0]]), labels=np.asarray([0]), name="x")


# ---------------------------------------------------------------------------
# subsample_outliers


@pytest.mark.parametrize(
    "n_norm,n_anom,expected",
    [
        (70, 30, 7),  # 7/77 ~ 0.0909
        (90, 90, 10),  # 10/100 = 0.10
    ],
)
def test_subsample_matches_enumeration_oracle(n_norm, n_anom, expected):
    assert max_anomalies_oracle(n_norm, n_anom, 0.10) == expected
    ds = make_dataset(n_norm, n_anom, seed=1)
    kept = subsample_outliers(ds, rng=np.random.default_rng(5))
    assert ds.labels[kept].sum() == expected
    assert (ds.labels[kept] == 0).sum() == n_norm


def test_subsample_already_low_keeps_every_row():
    ds = make_dataset(95, 5, seed=2)
    assert subsample_outliers(ds, rng=np.random.default_rng(0)).tolist() == list(range(ds.n))


def test_subsample_logs_below_lo(logged_events):
    ds = make_dataset(8, 4, seed=3)
    kept = subsample_outliers(ds, rng=np.random.default_rng(1))
    assert ds.labels[kept].sum() == 0  # floor(0.10*8/0.90) = 0; 0/8 < 0.05
    assert logged_events() == [{"event": "anomaly_fraction_below_lo", "dataset": "toy", "fraction": 0.0, "lo": 0.05}]


def test_subsample_no_normals_errors():
    ds = LabeledDataset(
        features=np.ones((5, 2)), labels=np.ones(5, dtype=np.int8), name="allanom"
    )
    with pytest.raises(DataError, match="undefined"):
        subsample_outliers(ds, rng=np.random.default_rng(0))


def test_subsample_properties_and_determinism():
    ds = make_dataset(50, 40, seed=4)
    a = subsample_outliers(ds, rng=np.random.default_rng(9))
    b = subsample_outliers(ds, rng=np.random.default_rng(9))
    assert np.array_equal(a, b)
    # rows of the input in their order; no normal row removed, anomaly count not increased
    assert (np.diff(a) > 0).all()
    assert np.array_equal(a[ds.labels[a] == 0], np.flatnonzero(ds.labels == 0))
    assert ds.labels[a].sum() <= 40


# ---------------------------------------------------------------------------
# stratified_split


def test_split_counts_100_rows():
    labels = make_dataset(90, 10, seed=5).labels
    parts = stratified_split(labels, rng=np.random.default_rng(0))
    assert [len(p) for p in parts] == [70, 20, 10]
    assert [int(labels[p].sum()) for p in parts] == [7, 2, 1]


def test_split_deterministic():
    labels = make_dataset(80, 10, seed=6).labels
    a = stratified_split(labels, rng=np.random.default_rng(3))
    b = stratified_split(labels, rng=np.random.default_rng(3))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_split_ten_rows_one_anomaly_matches_rounding_oracle():
    # largest-remainder oracle: 9 normals -> 6/2/1, 1 anomaly -> train
    assert largest_remainder_oracle(9, (0.7, 0.2, 0.1)) == [6, 2, 1]
    assert largest_remainder_oracle(1, (0.7, 0.2, 0.1)) == [1, 0, 0]
    labels = make_dataset(9, 1, seed=7).labels
    parts = stratified_split(labels, rng=np.random.default_rng(2))
    assert [len(p) for p in parts] == [7, 2, 1]
    assert [int(labels[p].sum()) for p in parts] == [1, 0, 0]


def test_split_is_permutation_partition():
    ds = make_dataset(77, 13, seed=8)
    parts = stratified_split(ds.labels, rng=np.random.default_rng(4))
    assert sorted(np.concatenate(parts).tolist()) == list(range(ds.n))


def test_take_of_no_rows_errors():
    # no empty LabeledDataset exists, so no split or scaler ever sees one
    data = LabeledDataset(features=np.ones((1, 1)), labels=np.asarray([0]), name="x")
    with pytest.raises(DataError, match="n>=1"):
        data.take(np.asarray([], dtype=int))


# ---------------------------------------------------------------------------
# assimilate_split


def test_assimilate_split_partitions_the_kept_rows_and_strips_train_anomalies_only():
    ds = make_dataset(90, 20, seed=9)  # 20/110 anomalies: 10 kept, so 100 rows split 70/20/10
    train, test, manifest = assimilate_split(ds, RunConfig(seed=1))
    rows = manifest["origin_indices"]
    assert (train.n, test.n, len(rows["holdout"])) == (63, 20, 10)
    kept = sorted(rows["train"] + rows["test"] + rows["holdout"])
    assert len(set(kept)) == len(kept) and set(np.flatnonzero(ds.labels == 0)) <= set(kept)
    assert train.n_anomalies == 0 and not ds.labels[rows["train"]].any()
    assert test.n_anomalies == ds.labels[rows["test"]].sum() == 2
    assert ds.labels[rows["holdout"]].sum() == 1
    assert np.array_equal(test.labels, ds.labels[rows["test"]])


# ---------------------------------------------------------------------------
# robust scaler


def test_scaler_interpolated_quantiles():
    col = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert interp_quantile_oracle(col, 0.25) == 2.0
    assert interp_quantile_oracle(col, 0.75) == 4.0
    ds = LabeledDataset(
        features=np.asarray(col)[:, None], labels=np.zeros(5, dtype=np.int8), name="c"
    )
    params = fit_robust_scaler(ds)
    assert params.means[0] == 3.0
    assert params.iqrs[0] == 2.0
    scaled = apply_scaler(params, ds)
    assert np.allclose(scaled.features[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_scaler_degenerate_column_centers_only():
    ds = LabeledDataset(
        features=np.asarray([[4.0], [4.0], [4.0]]), labels=np.zeros(3, dtype=np.int8), name="c"
    )
    params = fit_robust_scaler(ds)
    assert params.iqrs[0] == 1.0
    assert np.array_equal(apply_scaler(params, ds).features, np.zeros((3, 1)))


def test_scaler_applies_formula_to_new_values():
    ds = LabeledDataset(
        features=np.asarray([[1.0], [2.0], [3.0], [4.0], [5.0]]),
        labels=np.zeros(5, dtype=np.int8),
        name="train",
    )
    params = fit_robust_scaler(ds)
    probe = LabeledDataset(features=np.asarray([[7.0]]), labels=np.asarray([0]), name="probe")
    assert apply_scaler(params, probe).features[0, 0] == 2.0


def test_scaler_roundtrip_mean_zero():
    rng = np.random.default_rng(11)
    ds = LabeledDataset(
        features=rng.standard_normal((300, 4)) * 5 + 2,
        labels=np.zeros(300, dtype=np.int8),
        name="r",
    )
    scaled = apply_scaler(fit_robust_scaler(ds), ds)
    assert np.all(np.abs(scaled.features.mean(axis=0)) < 1e-9)


def test_assimilate_split_fits_scaler_on_train_only():
    ds = make_dataset(90, 10, seed=12)
    train, test, manifest = assimilate_split(ds, RunConfig())
    rows = manifest["origin_indices"]
    refit = fit_robust_scaler(ds.take(np.asarray(rows["train"]), name="toy/train"))
    assert manifest["scaler"] == refit.to_dict()
    assert manifest["scaler"]["fitted_on"] == "toy/train"
    assert np.array_equal(train.features, apply_scaler(refit, ds.take(np.asarray(rows["train"]))).features)
    assert np.array_equal(test.features, apply_scaler(refit, ds.take(np.asarray(rows["test"]))).features)
