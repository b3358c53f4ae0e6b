import numpy as np
import pytest

from adselect.ranking import (
    METRICS,
    ConfusionCounts,
    Ranking,
    confusion_counts,
    evaluate_methods,
    aggregate_reports,
    kendall_tau_b,
    lc_score,
    mcc,
    ndcg,
    random_baseline_metrics,
    rank_by,
    ranking_metrics,
    regret_at_k,
    scaled_mcc,
)

from oracles import kendall_tau_b_bruteforce


# ---------------------------------------------------------------------------
# MCC


def test_mcc_perfect_classifier():
    assert mcc(ConfusionCounts(tp=5, fp=0, fn=0, tn=5)) == 1.0
    assert scaled_mcc(1.0) == 1.0


def test_mcc_direct_formula_case():
    # (2*6 - 1*1) / sqrt(3*3*7*7) = 11/21
    value = mcc(ConfusionCounts(tp=2, fp=1, fn=1, tn=6))
    assert value == pytest.approx(11 / 21, abs=1e-15)
    assert scaled_mcc(value) == pytest.approx((11 / 21 + 1) / 2, abs=1e-15)


def test_mcc_degenerate_denominator_is_zero():
    # everything predicted normal: tp = fp = 0
    c = confusion_counts(np.zeros(10), np.asarray([0] * 8 + [1] * 2))
    assert c.tp == 0 and c.fp == 0
    assert mcc(c) == 0.0
    assert scaled_mcc(0.0) == 0.5


def test_mcc_symmetry_under_class_swap():
    rng = np.random.default_rng(0)
    for _ in range(50):
        tp, fp, fn, tn = rng.integers(0, 6, size=4)
        a = mcc(ConfusionCounts(int(tp), int(fp), int(fn), int(tn)))
        b = mcc(ConfusionCounts(int(tn), int(fn), int(fp), int(tp)))
        assert a == pytest.approx(b, abs=1e-15)


def test_confusion_counts_sum():
    pred = np.asarray([1, 0, 1, 1, 0])
    truth = np.asarray([1, 0, 0, 1, 1])
    c = confusion_counts(pred, truth)
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 1)
    assert c.tp + c.fp + c.fn + c.tn == 5


# ---------------------------------------------------------------------------
# linear combination


def test_lc_score_boundaries():
    assert lc_score(0.0, 0.0) == 1.0
    assert lc_score(1.0, 1.0) == 0.0
    assert lc_score(0.2, 0.1) == pytest.approx(0.85, abs=1e-15)


def test_lc_score_rejects_out_of_range():
    with pytest.raises(ValueError):
        lc_score(1.2, 0.0)
    with pytest.raises(ValueError):
        lc_score(0.0, -0.1)


def test_lc_ranking_equals_negative_sum_ranking():
    rng = np.random.default_rng(1)
    hv = {f"c{i}": float(v) for i, v in enumerate(rng.random(20))}
    fpr = {f"c{i}": float(v) for i, v in enumerate(rng.random(20))}
    by_lc = rank_by({c: lc_score(hv[c], fpr[c]) for c in hv}, "L")
    by_sum = rank_by({c: -(hv[c] + fpr[c]) for c in hv}, "L")
    assert by_lc.order == by_sum.order


def test_lc_argmax_invariant_under_common_shift():
    rng = np.random.default_rng(2)
    hv = {f"c{i}": float(v) * 0.5 for i, v in enumerate(rng.random(15))}
    fpr = {f"c{i}": float(v) * 0.5 for i, v in enumerate(rng.random(15))}
    base = rank_by({c: lc_score(hv[c], fpr[c]) for c in hv}, "L")
    shift = 0.25
    shifted = rank_by({c: lc_score(hv[c] + shift, fpr[c] + shift) for c in hv}, "L")
    assert base.order == shifted.order


# ---------------------------------------------------------------------------
# rankings


def test_rank_by_sorts_descending():
    r = rank_by({"a": 0.9, "b": 0.1, "c": 0.5}, "L")
    assert r.order == ("a", "c", "b")


def test_rank_by_breaks_ties_by_config_id():
    r = rank_by({"z": 0.5, "a": 0.5, "m": 0.5}, "L")
    assert r.order == ("a", "m", "z")


def test_ranking_invariants():
    with pytest.raises(ValueError, match="unique"):
        Ranking(entries=(("a", 1.0), ("a", 0.5)), method="L")
    with pytest.raises(ValueError, match="non-increasing"):
        Ranking(entries=(("a", 0.5), ("b", 1.0)), method="L")


# ---------------------------------------------------------------------------
# regret@k


def test_regret_zero_when_best_ranked_first():
    r = rank_by({"a": 0.9, "b": 0.5}, "L")
    assert regret_at_k(r, {"a": 0.8, "b": 0.2}, 1) == 0.0


def test_regret_enumerated_case():
    true = {"c1": 0.9, "c2": 0.8, "c3": 0.7}
    r = rank_by({"c1": 0.1, "c2": 0.2, "c3": 0.3}, "L")  # reversed order
    assert regret_at_k(r, true, 1) == pytest.approx(0.2, abs=1e-15)
    assert regret_at_k(r, true, 2) == pytest.approx(0.1, abs=1e-15)
    assert regret_at_k(r, true, 3) == 0.0


def test_regret_full_coverage_is_zero():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        true = {f"c{i}": float(v) for i, v in enumerate(rng.random(n))}
        pred = {f"c{i}": float(v) for i, v in enumerate(rng.random(n))}
        r = rank_by(pred, "L")
        assert regret_at_k(r, true, n) == 0.0


def test_regret_monotone_in_k():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        true = {f"c{i}": float(v) for i, v in enumerate(rng.random(n))}
        r = rank_by({f"c{i}": float(v) for i, v in enumerate(rng.random(n))}, "L")
        values = [regret_at_k(r, true, k) for k in range(1, n + 1)]
        assert all(values[i] >= values[i + 1] for i in range(n - 1))
        assert all(0 <= v <= max(true.values()) - min(true.values()) + 1e-15 for v in values)


def test_regret_k_out_of_range():
    r = rank_by({"a": 1.0}, "L")
    with pytest.raises(ValueError):
        regret_at_k(r, {"a": 1.0}, 0)
    with pytest.raises(ValueError):
        regret_at_k(r, {"a": 1.0}, 2)


# ---------------------------------------------------------------------------
# Kendall tau-b


def test_tau_identical_and_reversed():
    assert kendall_tau_b([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert kendall_tau_b([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0


def test_tau_spec_case():
    assert kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6, abs=1e-15)


def test_tau_matches_bruteforce_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        if len(set(x)) == 1 or len(set(y)) == 1:
            continue
        assert kendall_tau_b(x, y) == pytest.approx(kendall_tau_b_bruteforce(x, y), abs=1e-12)


def test_tau_degenerate_returns_zero(logged_events):
    assert kendall_tau_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    assert logged_events() == []  # its callers, which know the dataset, log it


def test_tau_antisymmetric_without_ties():
    rng = np.random.default_rng(6)
    x = rng.permutation(8).astype(float)
    y = rng.permutation(8).astype(float)
    assert kendall_tau_b(x, y) == pytest.approx(-kendall_tau_b(x, -y), abs=1e-12)


def test_tau_length_mismatch():
    with pytest.raises(ValueError):
        kendall_tau_b([1, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# NDCG


def test_ndcg_ideal_order_is_one():
    rel = {"a": 0.9, "b": 0.5, "c": 0.1}
    assert ndcg(("a", "b", "c"), rel) == 1.0


def test_ndcg_all_equal_relevance_is_one():
    rel = {"a": 0.4, "b": 0.4, "c": 0.4}
    assert ndcg(("c", "a", "b"), rel) == 1.0


def test_ndcg_all_zero_relevance_is_one():
    assert ndcg(("a", "b"), {"a": 0.0, "b": 0.0}) == 1.0


def test_ndcg_hand_case():
    # predicted order with relevances (0.5, 1.0)
    expected = (0.5 + 1.0 / np.log2(3)) / (1.0 + 0.5 / np.log2(3))
    got = ndcg(("a", "b"), {"a": 0.5, "b": 1.0})
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.8597, abs=5e-5)


def test_ndcg_bounded():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        ids = [f"c{i}" for i in range(n)]
        rel = {c: float(v) for c, v in zip(ids, rng.random(n))}
        order = tuple(np.asarray(ids)[rng.permutation(n)])
        v = ndcg(order, rel)
        assert 0.0 <= v <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# baselines and reports


def test_random_baseline_two_candidates_expectation():
    # optimal ranked first with p=1/2: E[regret@1] = (a - b)/2
    true = {"a": 0.9, "b": 0.6}
    result = random_baseline_metrics(true, np.random.default_rng(8))
    exact = (0.9 - 0.6) / 2
    sigma = 0.3 * 0.5 / np.sqrt(50)
    assert abs(result["regret1"] - exact) <= 3 * sigma


def test_evaluate_methods_cherry_pick_flag(logged_events):
    rng = np.random.default_rng(9)
    ids = [f"c{i}" for i in range(10)]
    hv = {c: float(v) for c, v in zip(ids, rng.random(10))}
    fpr = {c: float(v) for c, v in zip(ids, rng.random(10))}
    # constant true scores: every tau_b against them is degenerate (logged once)
    low_true = {c: 0.55 for c in ids}
    report = evaluate_methods(hv, fpr, {c: 0.5 for c in ids}, low_true, "low", rng)
    assert logged_events() == [{"event": "tau_b_undefined", "dataset": "low", "methods": ["R", "FPR", "HV", "L", "M"]}]
    assert not report.cherry_pick_eligible
    assert all(v is None for v in report.metrics["Mc"].values())

    high_true = {c: float(0.7 + 0.02 * i) for i, c in enumerate(ids)}
    pred = {c: float(0.4 + 0.03 * i) for i, c in enumerate(ids)}
    report2 = evaluate_methods(hv, fpr, pred, high_true, "high", rng)
    assert report2.cherry_pick_eligible
    assert report2.metrics["Mc"] == report2.metrics["M"]
    assert len(logged_events()) == 1
    evaluate_methods(hv, fpr, {c: 0.5 for c in ids}, high_true, "flat", rng)  # tied predictions only
    assert logged_events()[1:] == [{"event": "tau_b_undefined", "dataset": "flat", "methods": ["M", "Mc"]}]


def test_aggregate_reports_mc_over_eligible_only():
    rng = np.random.default_rng(10)
    ids = [f"c{i}" for i in range(6)]
    hv = {c: float(v) for c, v in zip(ids, rng.random(6))}
    fpr = {c: float(v) for c, v in zip(ids, rng.random(6))}
    pred = {c: float(v) for c, v in zip(ids, rng.random(6))}
    high = {c: float(0.75 + 0.03 * i) for i, c in enumerate(ids)}
    low = {c: float(0.1 + 0.03 * i) for i, c in enumerate(ids)}
    eligible = evaluate_methods(hv, fpr, pred, high, "e", rng)
    ineligible = evaluate_methods(hv, fpr, pred, low, "i", rng)
    agg = aggregate_reports([eligible, ineligible])
    for metric in METRICS:
        m_vals = [r.metrics["M"][metric] for r in (eligible, ineligible)]
        assert agg["mean"]["M"][metric] == pytest.approx(float(np.mean(m_vals)))
        assert agg["mean"]["Mc"][metric] == eligible.metrics["Mc"][metric]


def test_ranking_metrics_bundle():
    true = {"a": 0.9, "b": 0.7, "c": 0.5}
    r = rank_by({"a": 3.0, "b": 2.0, "c": 1.0}, "L")
    m = ranking_metrics(r, true)
    assert m["regret1"] == 0.0
    assert m["ndcg"] == 1.0
    assert m["tau_b"] == 1.0


def _toy_meta_dataset(dataset_id, seed):
    from adselect.features import MetaDataset, meta_columns

    rng = np.random.default_rng(seed)
    cols = meta_columns()
    n = 8
    return MetaDataset(
        columns=cols,
        X=rng.random((n, len(cols))),
        y=rng.random(n),
        dataset_ids=[dataset_id] * n,
        config_ids=[f"{dataset_id}-c{i}" for i in range(n)],
    )


def test_leave_one_out_structure_and_determinism():
    from adselect.ranking import leave_one_out_evaluate

    metas = [_toy_meta_dataset(f"d{i}", seed=i) for i in range(3)]
    reports, aggregates = leave_one_out_evaluate(metas, master_seed=5)
    assert [r.dataset_id for r in reports] == ["d0", "d1", "d2"]
    assert set(aggregates) == {"mean", "median"}
    again, _ = leave_one_out_evaluate(metas, master_seed=5)
    for a, b in zip(reports, again):
        assert a.metrics == b.metrics


def test_leave_one_out_needs_two_datasets():
    from adselect.ranking import leave_one_out_evaluate

    with pytest.raises(ValueError, match="at least 2"):
        leave_one_out_evaluate([_toy_meta_dataset("only", 0)], master_seed=0)
