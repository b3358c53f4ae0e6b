import numpy as np
import pytest

from adselect.dataset import (
    LabeledDataset,
    apply_scaler,
    fit_robust_scaler,
    load_csv,
    scale_split,
    strip_anomalies,
    stratified_split,
    subsample_outliers,
)
from adselect.errors import DataError

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
    assert ds.feature_names == ("a", "b")
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
    out = subsample_outliers(ds, rng=np.random.default_rng(5))
    assert out.n_anomalies == expected
    assert out.n - out.n_anomalies == n_norm


def test_subsample_already_low_is_unchanged():
    ds = make_dataset(95, 5, seed=2)
    out = subsample_outliers(ds, rng=np.random.default_rng(0))
    assert out is ds


def test_subsample_warns_below_lo():
    ds = make_dataset(30, 40, seed=3)
    with pytest.warns(UserWarning, match="below lo"):
        out = subsample_outliers(ds, lo=0.12, hi=0.125, rng=np.random.default_rng(1))
    assert out.n_anomalies == 4  # floor(0.125*30/0.875) = 4; 4/34 ~ 0.1176 < 0.12


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
    assert np.array_equal(a.features, b.features)
    # no normal row removed, anomaly count not increased
    assert a.n - a.n_anomalies == 50
    assert a.n_anomalies <= 40
    normal_rows = ds.features[ds.labels == 0]
    kept_normals = a.features[a.labels == 0]
    assert np.array_equal(np.sort(normal_rows, axis=0), np.sort(kept_normals, axis=0))


# ---------------------------------------------------------------------------
# stratified_split


def test_split_counts_100_rows():
    ds = make_dataset(90, 10, seed=5)
    split = stratified_split(ds, rng=np.random.default_rng(0))
    assert (split.train.n, split.test.n, split.holdout.n) == (70, 20, 10)
    assert (split.train.n_anomalies, split.test.n_anomalies, split.holdout.n_anomalies) == (7, 2, 1)


def test_split_deterministic():
    ds = make_dataset(80, 10, seed=6)
    a = stratified_split(ds, rng=np.random.default_rng(3))
    b = stratified_split(ds, rng=np.random.default_rng(3))
    for part in ("train", "test", "holdout"):
        assert np.array_equal(a.origin_indices[part], b.origin_indices[part])


def test_split_ten_rows_one_anomaly_matches_rounding_oracle():
    # largest-remainder oracle: 9 normals -> 6/2/1, 1 anomaly -> train
    assert largest_remainder_oracle(9, (0.7, 0.2, 0.1)) == [6, 2, 1]
    assert largest_remainder_oracle(1, (0.7, 0.2, 0.1)) == [1, 0, 0]
    ds = make_dataset(9, 1, seed=7)
    split = stratified_split(ds, rng=np.random.default_rng(2))
    assert (split.train.n, split.test.n, split.holdout.n) == (7, 2, 1)
    anomaly_counts = [split.train.n_anomalies, split.test.n_anomalies, split.holdout.n_anomalies]
    assert sum(anomaly_counts) == 1
    assert anomaly_counts == [1, 0, 0]


def test_split_is_permutation_partition():
    ds = make_dataset(77, 13, seed=8)
    split = stratified_split(ds, rng=np.random.default_rng(4))
    all_idx = np.concatenate([split.origin_indices[p] for p in ("train", "test", "holdout")])
    assert sorted(all_idx.tolist()) == list(range(ds.n))


def test_take_of_no_rows_errors():
    # no empty LabeledDataset exists, so no split or scaler ever sees one
    data = LabeledDataset(features=np.ones((1, 1)), labels=np.asarray([0]), name="x")
    with pytest.raises(DataError, match="n>=1"):
        data.take(np.asarray([], dtype=int))


# ---------------------------------------------------------------------------
# strip_anomalies


def test_strip_removes_train_anomalies_only():
    ds = make_dataset(90, 10, seed=9)
    split = stratified_split(ds, rng=np.random.default_rng(1))
    stripped = strip_anomalies(split)
    assert stripped.train.n == 63
    assert stripped.train.n_anomalies == 0
    assert stripped.test.n_anomalies == split.test.n_anomalies == 2
    assert stripped.holdout.n == split.holdout.n


def test_strip_idempotent():
    ds = make_dataset(50, 0, seed=10)
    split = stratified_split(ds, rng=np.random.default_rng(1))
    assert strip_anomalies(split) is split


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


def test_scale_split_fits_on_train_only():
    ds = make_dataset(90, 10, seed=12)
    split = strip_anomalies(stratified_split(ds, rng=np.random.default_rng(0)))
    scaled = scale_split(split)
    assert scaled.scaler is not None
    assert scaled.scaler.fitted_on == split.train.name
    refit = fit_robust_scaler(split.train)
    assert np.array_equal(refit.means, scaled.scaler.means)
