"""Detector rankings and the metrics that score them against true performance.

Methods: R (random baseline), FPR (1 - fpr), HV (1 - hypervolume),
L (linear combination of both features), M (meta-model prediction), and
Mc (M restricted to cherry-picked datasets). Metrics: regret@k, Kendall
tau-b, NDCG, plus the Matthews correlation coefficient utilities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .util import rng_from, seed_from

METHODS = ("R", "FPR", "HV", "L", "M", "Mc")
METRICS = ("regret1", "regret5", "ndcg", "tau_b")
RANDOM_BASELINE_DRAWS = 50


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")


def confusion_counts(predicted: np.ndarray, actual: np.ndarray) -> ConfusionCounts:
    """Tally a binary confusion matrix; 1 is the anomaly (positive) class."""
    predicted = np.asarray(predicted).astype(bool)
    actual = np.asarray(actual).astype(bool)
    if predicted.shape != actual.shape:
        raise ValueError("predicted and actual must have equal length")
    return ConfusionCounts(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
        tn=int(np.sum(~predicted & ~actual)),
    )


def mcc(c: ConfusionCounts) -> float:
    """Matthews correlation coefficient; 0 when any denominator factor is 0."""
    tp, fp, fn, tn = float(c.tp), float(c.fp), float(c.fn), float(c.tn)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / np.sqrt(denom)


def scaled_mcc(m: float) -> float:
    """Affine map of MCC from [-1, 1] onto [0, 1]."""
    return (m + 1.0) / 2.0


def lc_score(hv: float, fpr: float) -> float:
    """Linear combination score 1 - (hv + fpr)/2; both inputs in [0, 1]."""
    if not (0.0 <= hv <= 1.0 and 0.0 <= fpr <= 1.0):
        raise ValueError(f"hv and fpr must lie in [0, 1], got ({hv}, {fpr})")
    return 1.0 - (hv + fpr) / 2.0


@dataclass(frozen=True)
class Ranking:
    """Candidates in descending score order; ties broken by ascending config_id."""

    entries: tuple[tuple[str, float], ...]
    method: str

    def __post_init__(self) -> None:
        ids = [cid for cid, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("config_ids in a ranking must be unique")
        scores = [s for _, s in self.entries]
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            raise ValueError("ranking scores must be non-increasing")

    @property
    def order(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.entries)


def rank_by(scores: Mapping[str, float], method: str) -> Ranking:
    """Sort candidates by descending score, ascending config_id on ties."""
    if not scores:
        raise ValueError("cannot rank an empty candidate set")
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return Ranking(entries=tuple((k, float(v)) for k, v in ordered), method=method)


def regret_at_k(ranking: Ranking, true_scores: Mapping[str, float], k: int) -> float:
    """Best true score overall minus best true score among the top-k ranked."""
    n = len(ranking.entries)
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    best = max(true_scores[cid] for cid in ranking.order)
    best_topk = max(true_scores[cid] for cid in ranking.order[:k])
    return best - best_topk


def kendall_tau_b(predicted: Sequence[float], true: Sequence[float]) -> float:
    """Kendall rank correlation, b-variant (tie-corrected).

    tau_b = (n_c - n_d) / sqrt((n0 - n1) (n0 - n2)) with n0 = n(n-1)/2 and
    n1/n2 the tied-pair counts of each list (pairs tied in both lists count
    in both). Returns 0 with a warning when one list is entirely tied.
    """
    x = np.asarray(predicted, dtype=np.float64)
    y = np.asarray(true, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("predicted and true must be equal-length vectors")
    n = len(x)
    if n < 2:
        raise ValueError("tau_b requires at least 2 items")
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    prod = dx[iu] * dy[iu]
    n_c = int(np.sum(prod > 0))
    n_d = int(np.sum(prod < 0))
    n0 = n * (n - 1) // 2
    n1 = int(np.sum(dx[iu] == 0))
    n2 = int(np.sum(dy[iu] == 0))
    denom = (n0 - n1) * (n0 - n2)
    if denom <= 0:
        warnings.warn("tau_b undefined (one list entirely tied); returning 0", stacklevel=2)
        return 0.0
    return (n_c - n_d) / np.sqrt(denom)


def ndcg(ranking_order: Sequence[str], relevance: Mapping[str, float]) -> float:
    """Normalized discounted cumulative gain over the full ranking.

    Relevances must be nonnegative; all-zero relevance yields 1.0 by
    convention (any order is ideal).
    """
    rels = np.asarray([relevance[cid] for cid in ranking_order], dtype=np.float64)
    if np.any(rels < 0):
        raise ValueError("relevances must be nonnegative")
    discounts = 1.0 / np.log2(np.arange(2, len(rels) + 2))
    dcg = float(np.sum(rels * discounts))
    ideal = np.sort(rels)[::-1]
    idcg = float(np.sum(ideal * discounts))
    if idcg == 0.0:
        return 1.0
    return dcg / idcg


def ranking_metrics(ranking: Ranking, true_scores: Mapping[str, float]) -> dict[str, float]:
    """regret@1, regret@5 (clamped to n), NDCG, and tau_b for one ranking."""
    n = len(ranking.entries)
    pred = [s for _, s in ranking.entries]
    true = [true_scores[cid] for cid in ranking.order]
    return {
        "regret1": regret_at_k(ranking, true_scores, 1),
        "regret5": regret_at_k(ranking, true_scores, min(5, n)),
        "ndcg": ndcg(ranking.order, true_scores),
        "tau_b": kendall_tau_b(pred, true),
    }


def random_baseline_metrics(
    true_scores: Mapping[str, float],
    rng: np.random.Generator,
    draws: int = RANDOM_BASELINE_DRAWS,
) -> dict[str, float]:
    """Mean of each ranking metric over `draws` random permutations.

    The same permutations serve every metric.
    """
    ids = sorted(true_scores)
    n = len(ids)
    totals = {m: 0.0 for m in METRICS}
    for _ in range(draws):
        perm = rng.permutation(n)
        # descending positional scores realize the permutation as a ranking
        scores = {ids[j]: float(n - rank) for rank, j in enumerate(perm)}
        r = rank_by(scores, "R")
        for m, v in ranking_metrics(r, true_scores).items():
            totals[m] += v
    return {m: v / draws for m, v in totals.items()}


@dataclass
class RankingReport:
    """Per-dataset ranking quality for every method, plus the MCC summary."""

    dataset_id: str
    mcc_max: float
    mcc_mean: float
    mcc_min: float
    metrics: dict[str, dict[str, float | None]]  # method -> metric -> value (None for Mc gaps)
    cherry_pick_eligible: bool = False
    rankings: dict[str, Ranking] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "scaled_mcc": {"max": self.mcc_max, "mean": self.mcc_mean, "min": self.mcc_min},
            "cherry_pick_eligible": self.cherry_pick_eligible,
            "metrics": self.metrics,
            "rankings": {
                method: [[cid, score] for cid, score in r.entries]
                for method, r in self.rankings.items()
            },
        }


def evaluate_methods(
    detector_hv: Mapping[str, float],
    detector_fpr: Mapping[str, float],
    predicted_mcc: Mapping[str, float] | None,
    true_scaled_mcc: Mapping[str, float],
    dataset_id: str,
    rng: np.random.Generator,
    cherry_threshold: float = 0.6,
) -> RankingReport:
    """Score the R/FPR/HV/L/M(/Mc) rankings of one candidate set."""
    true_vals = list(true_scaled_mcc.values())
    eligible = bool(np.mean(true_vals) >= cherry_threshold)
    rankings = {
        "FPR": rank_by({c: 1.0 - detector_fpr[c] for c in true_scaled_mcc}, "FPR"),
        "HV": rank_by({c: 1.0 - detector_hv[c] for c in true_scaled_mcc}, "HV"),
        "L": rank_by(
            {c: lc_score(detector_hv[c], detector_fpr[c]) for c in true_scaled_mcc}, "L"
        ),
    }
    metrics: dict[str, dict[str, float | None]] = {
        "R": dict(random_baseline_metrics(true_scaled_mcc, rng)),
    }
    for method, r in rankings.items():
        metrics[method] = dict(ranking_metrics(r, true_scaled_mcc))
    if predicted_mcc is not None:
        rankings["M"] = rank_by(dict(predicted_mcc), "M")
        m_metrics = ranking_metrics(rankings["M"], true_scaled_mcc)
        metrics["M"] = dict(m_metrics)
        metrics["Mc"] = dict(m_metrics) if eligible else {m: None for m in METRICS}
        if eligible:
            rankings["Mc"] = Ranking(entries=rankings["M"].entries, method="Mc")
    return RankingReport(
        dataset_id=dataset_id,
        mcc_max=float(np.max(true_vals)),
        mcc_mean=float(np.mean(true_vals)),
        mcc_min=float(np.min(true_vals)),
        metrics=metrics,
        cherry_pick_eligible=eligible,
        rankings=rankings,
    )


def aggregate_reports(reports: Sequence[RankingReport]) -> dict[str, dict[str, dict[str, float | None]]]:
    """Column-wise mean and median rows over per-dataset reports.

    Mc aggregates only over cherry-picked datasets; a method/metric with no
    values at all aggregates to None.
    """
    out: dict[str, dict[str, dict[str, float | None]]] = {"mean": {}, "median": {}}
    methods = sorted({m for r in reports for m in r.metrics}, key=METHODS.index)
    for method in methods:
        out["mean"][method] = {}
        out["median"][method] = {}
        for metric in METRICS:
            vals = [
                r.metrics[method][metric]
                for r in reports
                if method in r.metrics and r.metrics[method].get(metric) is not None
            ]
            out["mean"][method][metric] = float(np.mean(vals)) if vals else None
            out["median"][method][metric] = float(np.median(vals)) if vals else None
    return out


def leave_one_out_evaluate(
    meta_datasets: Sequence,
    master_seed: int = 0,
    cherry_threshold: float = 0.6,
    n_trees: int = 100,
    jobs: int = 1,
) -> tuple[list[RankingReport], dict]:
    """Hold out each base dataset's meta-instances, train on the rest, rank.

    Per held-out dataset: empty landmark columns are dropped from both sides,
    the imputer and forest are fitted on the merged remainder, and the
    held-out detectors are ranked by predicted MCC (M), by the linear
    combination of their features (L), and by the three baselines.
    """
    from .features import MetaDataset
    from .metamodel import drop_empty_landmarks, fit_meta_model

    if len(meta_datasets) < 2:
        raise ValueError("leave-one-out evaluation needs at least 2 meta-datasets")
    reports = []
    for held_idx, held in enumerate(meta_datasets):
        rest = [md for i, md in enumerate(meta_datasets) if i != held_idx]
        meta_train = MetaDataset.concat(rest)
        meta_train, meta_test = drop_empty_landmarks(meta_train, held)
        dataset_id = held.dataset_ids[0]
        model = fit_meta_model(
            meta_train, seed=seed_from(master_seed, dataset_id, "forest"), n_trees=n_trees, jobs=jobs
        )
        predicted = model.predict(meta_test)

        hv_col = meta_test.columns.index("detector_hv")
        fpr_col = meta_test.columns.index("detector_fpr")
        cids = meta_test.config_ids
        report = evaluate_methods(
            detector_hv={c: float(meta_test.X[i, hv_col]) for i, c in enumerate(cids)},
            detector_fpr={c: float(meta_test.X[i, fpr_col]) for i, c in enumerate(cids)},
            predicted_mcc={c: float(predicted[i]) for i, c in enumerate(cids)},
            true_scaled_mcc={c: float(meta_test.y[i]) for i, c in enumerate(cids)},
            dataset_id=dataset_id,
            rng=rng_from(master_seed, dataset_id, "random-baseline"),
            cherry_threshold=cherry_threshold,
        )
        reports.append(report)
    return reports, aggregate_reports(reports)
