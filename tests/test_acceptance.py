"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live; the
heavy pipeline criteria share session-scoped fixtures.
"""

import hashlib
import math
import os
import time
import warnings

import numpy as np
import pytest

from adselect.cli import EXIT_OK, main
from adselect.corpus import toy_corpus
from adselect.hypervolume import BallSample, EnclosingBall, estimate_hypervolume, fit_enclosing_ball, sample_uniform_in_ball
from adselect.metamodel import fit_meta_model, load_model, rf_fit, save_model
from adselect.pipeline import RunConfig, assimilate_dataset
from adselect.ranking import ConfusionCounts, kendall_tau_b, mcc, ndcg, rank_by, regret_at_k, leave_one_out_evaluate
from adselect.features import MetaDataset

from oracles import BallDetector, kendall_tau_b_bruteforce, spearman_rho, welzl_min_circle


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


DIRECTIONAL_DATASETS = ["twin_blobs", "halo", "ridge", "crescent", "triplet"]
DIRECTIONAL_SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture(scope="session")
def directional_runs(tmp_path_factory):
    """Assimilate 5 bundled datasets for 5 master seeds and evaluate LOO."""
    base = tmp_path_factory.mktemp("directional")
    data = toy_corpus(seed=0, names=DIRECTIONAL_DATASETS)
    runs = {}
    for seed in DIRECTIONAL_SEEDS:
        cfg = RunConfig(
            seed=seed,
            hv_samples=12_000,
            n_random_detectors=20,
            out_dir=str(base / f"seed{seed}"),
            jobs=2,
        )
        metas = [assimilate_dataset(d, cfg) for d in data]
        reports, aggregates = leave_one_out_evaluate(metas, master_seed=seed)
        runs[seed] = {"metas": metas, "reports": reports, "aggregates": aggregates}
    return runs


# ---------------------------------------------------------------------------
# criterion: uniform ball sampling


def test_uniform_ball_sampling():
    n = 200_000
    details = []
    ok = True
    for d in (1, 2, 4, 8):
        ball = EnclosingBall(center=np.zeros(d), radius=1.0, epsilon=1e-3)
        t0 = time.perf_counter()
        pts = sample_uniform_in_ball(ball, n, seed=100 + d)
        frac = float(np.mean(np.linalg.norm(pts, axis=1) <= 0.5))
        elapsed = time.perf_counter() - t0
        p = 2.0 ** (-d)
        tol = 3.0 * math.sqrt(p * (1.0 - p) / n)
        ok = ok and abs(frac - p) <= tol and elapsed < 10.0
        details.append(f"d={d}: frac={frac:.5f} target={p:.5f} tol={tol:.5f} t={elapsed:.2f}s")
    _report("uniform-ball-sampling", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion: enclosing ball vs exact Welzl


def test_enclosing_ball_accuracy():
    worst = 0.0
    ok = True
    for i in range(50):
        pts = np.random.default_rng(i).standard_normal((100, 2))
        ball = fit_enclosing_ball(pts, epsilon=1e-3)
        _, r_exact = welzl_min_circle(pts, seed=i)
        rel = ball.radius / r_exact - 1.0
        worst = max(worst, rel)
        contained = bool(ball.contains(pts, slack=0.0).all())
        ok = ok and rel <= 1e-3 * (1 + 1e-6) and rel >= -1e-9 and contained
    _report("enclosing-ball", ok, f"50 sets, worst relative excess {worst:.2e} (tolerance 1e-3), containment exact")


# ---------------------------------------------------------------------------
# criterion: hypervolume oracle


def test_hypervolume_nested_ball_oracle():
    n = 200_000
    ball = EnclosingBall(center=np.zeros(2), radius=2.0, epsilon=1e-3)
    ok = True
    details = []
    for rho in (0.25, 0.5, 0.75):
        det = BallDetector(np.zeros(2), rho * ball.radius)
        est = estimate_hypervolume(det, BallSample(ball, int(rho * 1000)), n)
        p = rho**2
        tol = 3.0 * math.sqrt(p * (1.0 - p) / n)
        ok = ok and abs(est.fraction - p) <= tol
        details.append(f"rho={rho}: est={est.fraction:.5f} target={p:.5f} tol={tol:.5f}")
    _report("hypervolume-oracle", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion: metric oracles


def test_metric_oracles():
    rng = np.random.default_rng(2024)
    # Kendall tau-b vs exhaustive pair counting, 1000 instances with ties
    tau_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            tau_ok = tau_ok and kendall_tau_b(x, y) == kendall_tau_b_bruteforce(x, y)

    # MCC vs direct formula on every confusion matrix with counts <= 5
    mcc_ok = True
    for tp in range(6):
        for fp in range(6):
            for fn in range(6):
                for tn in range(6):
                    got = mcc(ConfusionCounts(tp, fp, fn, tn))
                    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
                    want = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
                    mcc_ok = mcc_ok and got == want

    # regret@k monotonicity and regret@n = 0 on 1000 random instances
    regret_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        true = {f"c{i}": float(v) for i, v in enumerate(rng.random(n))}
        ranking = rank_by({f"c{i}": float(v) for i, v in enumerate(rng.random(n))}, "L")
        vals = [regret_at_k(ranking, true, k) for k in range(1, n + 1)]
        regret_ok = regret_ok and vals[-1] == 0.0
        regret_ok = regret_ok and all(vals[i] >= vals[i + 1] for i in range(n - 1))

    # NDCG hand case
    hand = ndcg(("a", "b"), {"a": 0.5, "b": 1.0})
    expected = (0.5 + 1.0 / math.log2(3)) / (1.0 + 0.5 / math.log2(3))
    ndcg_ok = abs(hand - expected) <= 1e-12 and abs(hand - 0.8597184) <= 1e-6

    ok = tau_ok and mcc_ok and regret_ok and ndcg_ok
    _report(
        "metric-oracles",
        ok,
        f"tau exact={tau_ok}, mcc enumeration exact={mcc_ok}, regret properties={regret_ok}, "
        f"ndcg hand case {hand:.7f} (expected {expected:.7f})={ndcg_ok}",
    )


# ---------------------------------------------------------------------------
# criterion: forest sanity


def test_forest_sanity(tmp_path):
    rng = np.random.default_rng(777)
    Xtr = rng.random((200, 3))
    Xte = rng.random((120, 3))
    model = rf_fit(Xtr, Xtr[:, 0], seed=0, n_trees=100)
    pred = model.predict(Xte)
    r2 = 1.0 - np.sum((Xte[:, 0] - pred) ** 2) / np.sum((Xte[:, 0] - Xte[:, 0].mean()) ** 2)

    const_model = rf_fit(Xtr, np.full(200, 0.7), seed=1, n_trees=100)
    const_ok = bool(np.all(const_model.predict(Xte) == 0.7))

    md = MetaDataset(
        columns=["a", "b", "c"],
        X=Xtr,
        y=Xtr[:, 0],
        dataset_ids=["d"] * 200,
        config_ids=[f"c{i}" for i in range(200)],
    )
    bundle = fit_meta_model(md, seed=2, n_trees=50)
    path = str(tmp_path / "model.json")
    save_model(bundle, path)
    loaded = load_model(path)
    probe = MetaDataset(
        columns=["a", "b", "c"],
        X=Xte,
        y=Xte[:, 0],
        dataset_ids=["d"] * 120,
        config_ids=[f"q{i}" for i in range(120)],
    )
    roundtrip_ok = bool(np.array_equal(bundle.predict(probe), loaded.predict(probe)))

    ok = r2 >= 0.9 and const_ok and roundtrip_ok
    _report(
        "forest-sanity",
        ok,
        f"held-out R2={r2:.4f} (>=0.9), constant-target exact={const_ok}, round-trip bitwise={roundtrip_ok}",
    )


# ---------------------------------------------------------------------------
# criterion: pipeline determinism


def _tree_digest(root: str) -> dict[str, str]:
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for fn in filenames:
            full = os.path.join(dirpath, fn)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    data_dir = tmp_path / "data"
    rc = main(["make-corpus", "--out", str(data_dir), "--seed", "0", "--names", "twin_blobs", "halo", "crescent"])
    assert rc == EXIT_OK
    datasets = sorted(str(data_dir / f) for f in os.listdir(data_dir))

    def run(out: str, jobs: int) -> dict[str, str]:
        args = [
            "assimilate", "--datasets", *datasets,
            "--out", out, "--seed", "17", "--jobs", str(jobs),
            "--hv-samples", "50000", "--n-detectors", "10",
        ]
        assert main(args) == EXIT_OK
        assert main(["evaluate", "--out", out, "--seed", "17", "--jobs", str(jobs)]) == EXIT_OK
        return _tree_digest(out)

    first = run(str(tmp_path / "run_a"), jobs=1)
    second = run(str(tmp_path / "run_b"), jobs=1)
    third = run(str(tmp_path / "run_c"), jobs=4)
    elapsed = time.perf_counter() - t0

    rerun_ok = first == second
    jobs_ok = first == third
    time_ok = elapsed < 15 * 60
    ok = rerun_ok and jobs_ok and time_ok and len(first) > 0
    _report(
        "pipeline-determinism",
        ok,
        f"{len(first)} files; rerun identical={rerun_ok}, jobs 1 vs 4 identical={jobs_ok}, "
        f"runtime {elapsed:.0f}s (<900s)={time_ok}",
    )


# ---------------------------------------------------------------------------
# criterion: directional reproduction of the aggregate comparisons


def test_directional_reproduction(directional_runs):
    rows = {m: {"regret5": [], "tau_b": []} for m in ("R", "L", "M")}
    for seed in DIRECTIONAL_SEEDS:
        for report in directional_runs[seed]["reports"]:
            for m in rows:
                rows[m]["regret5"].append(report.metrics[m]["regret5"])
                rows[m]["tau_b"].append(report.metrics[m]["tau_b"])
    l_r5 = float(np.mean(rows["L"]["regret5"]))
    r_r5 = float(np.mean(rows["R"]["regret5"]))
    l_tau = float(np.mean(rows["L"]["tau_b"]))
    r_tau = float(np.mean(rows["R"]["tau_b"]))
    m_tau = float(np.mean(rows["M"]["tau_b"]))

    regret_ok = l_r5 <= r_r5
    tau_ok = l_tau > r_tau + 0.05
    meta_ok = m_tau >= r_tau - 0.05
    ok = regret_ok and tau_ok and meta_ok
    _report(
        "directional-reproduction",
        ok,
        f"mean regret@5 L={l_r5:.4f} <= R={r_r5:.4f}: {regret_ok}; "
        f"mean tau_b L={l_tau:.4f} > R+0.05={r_tau + 0.05:.4f}: {tau_ok}; "
        f"mean tau_b M={m_tau:.4f} >= R-0.05={r_tau - 0.05:.4f}: {meta_ok} "
        f"(5 datasets x 5 seeds, 20 random detectors)",
    )


# ---------------------------------------------------------------------------
# criterion: hypervolume-FPR conflict


def test_conflict_property(directional_runs):
    metas = directional_runs[0]["metas"]
    negatives = 0
    details = []
    for md in metas:
        hv_col = md.columns.index("detector_hv")
        fpr_col = md.columns.index("detector_fpr")
        rho = spearman_rho(md.X[:, hv_col], md.X[:, fpr_col])
        negatives += int(rho < 0)
        details.append(f"{md.dataset_ids[0]}={rho:+.3f}")
    ok = negatives >= 4
    _report(
        "conflict-property",
        ok,
        f"spearman(hv, fpr) negative on {negatives}/5 datasets: {', '.join(details)}",
    )
