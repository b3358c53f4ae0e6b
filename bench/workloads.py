"""Benchmark workloads: generated inputs, CLI command sequences, output checks.

Every workload is a pure function of its workload seed. Paths are relative
to the repetition's own directory, so output bytes never depend on where a
repetition runs. See README.md in this directory for why each was chosen.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

N_TREES = 100  # forest size the CLI always uses (metamodel.fit_meta_model default)

# JSON log events that mark one failed featurization attempt (the config is
# replaced or the landmark left absent) and those that mark a skipped unit.
ATTEMPT_FAILURES = (
    "detector_replaced", "detector_timeout", "landmark_failed", "landmark_timeout",
    "candidate_replaced",
)
SKIPS = ("instance_skipped", "candidate_skipped", "landmark_failed", "landmark_timeout")
REPLACEMENTS = ("detector_replaced", "detector_timeout", "candidate_replaced")
OTHER_FAILURES = ("dataset_failed", "dataset_unreadable", "assimilate_partial")


@dataclass(frozen=True)
class Outcome:
    """What a repetition's outputs say about the work that was done."""

    problems: list[str]  # failed correctness checks
    featurized: int  # detector configs featurized with HV and FPR
    trees: int  # forest trees grown
    outputs: list[str]  # files whose bytes form the output digest


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def _in_unit(cell: str) -> bool:
    return cell != "" and 0.0 <= float(cell) <= 1.0


def _tree_files(root: str) -> list[str]:
    return sorted(
        os.path.join(d, f) for d, _, files in os.walk(root) for f in files
    )


def _check_table(path: str, n_datasets: int, problems: list[str]) -> None:
    if not os.path.exists(path):
        problems.append(f"{path} missing")
        return
    names = [row[0] for row in _read_csv(path)[1:]]
    if len(names) != n_datasets + 2 or names[-2:] != ["mean", "median"]:
        problems.append(f"{path}: rows {names}, expected {n_datasets} datasets + mean, median")


def _check_predictions(path: str, rows: int, problems: list[str]) -> None:
    """One finite prediction per instance from the reloaded model."""
    if not os.path.exists(path):
        problems.append(f"{path} missing")
        return
    preds = _read_csv(path)[1:]
    if len(preds) != rows or not all(math.isfinite(float(p[2])) for p in preds):
        problems.append(f"{path}: expected {rows} finite predictions")


class AssimilateCorpus:
    """make-corpus (set-up), then the README quickstart on the corpus.

    assimilate, LOO evaluate, train-meta on every meta.csv and predict one
    of them with the saved model. Fit-heavy: every featurized config costs
    1 + mc_cv_repetitions fits but scores only hv_samples ball points;
    isolation-forest fitting dominates.
    """

    name = "assimilate-corpus"
    names = ("halo", "ridge", "twin_blobs")
    n_detectors = 3
    hv_samples = 4000
    mc_cv_repetitions = 4
    jobs = 1
    # The program seed picks every random config's detector family; holding
    # it fixed keeps the family mix (and so the cost) equal across workload
    # seeds, which only change the data.
    program_seed = 0

    def setup(self, seed: int) -> list[list[str]]:
        return [["make-corpus", "--out", "data", "--seed", str(seed), "--names", *self.names]]

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        common = ["--seed", str(self.program_seed), "--jobs", str(self.jobs), "--log-file", "events.jsonl"]
        return [
            ("assimilate", ["assimilate", "--datasets", *[f"data/{n}.csv" for n in self.names],
                            "--out", "out", "--hv-samples", str(self.hv_samples),
                            "--n-detectors", str(self.n_detectors),
                            "--mc-cv-repetitions", str(self.mc_cv_repetitions), *common]),
            ("evaluate", ["evaluate", "--out", "out", *common]),
            ("train_meta", ["train-meta", "--meta-dataset", *self._metas(),
                            "--model-out", "out/model.json", *common]),
            ("predict", ["predict", "--model", "out/model.json", "--instances", self._metas()[0],
                         "--predictions-out", "out/predictions.csv", *common]),
        ]

    def _metas(self) -> list[str]:
        return [f"out/{n}/meta.csv" for n in self.names]

    def check(self) -> Outcome:
        problems: list[str] = []
        featurized = 0
        for n in self.names:
            path = f"out/{n}/meta.csv"
            if not os.path.exists(path):
                problems.append(f"{path} missing")
                continue
            header, *rows = _read_csv(path)
            if len(rows) != self.n_detectors:
                problems.append(f"{path}: {len(rows)} rows, expected {self.n_detectors}")
            cols = [header.index("detector_hv"), header.index("detector_fpr")]
            if not all(_in_unit(r[c]) for r in rows for c in cols):
                problems.append(f"{path}: detector HV/FPR outside [0, 1]")
            featurized += len(rows)
            landmarks = _read_csv(f"out/{n}/landmarks.csv")[1]
            present = [c for c in landmarks if c != ""]
            if not all(_in_unit(c) for c in present):
                problems.append(f"out/{n}/landmarks.csv: landmark HV/FPR outside [0, 1]")
            featurized += len(present) // 2
        _check_table("out/evaluation/table.csv", len(self.names), problems)
        _check_predictions("out/predictions.csv", self.n_detectors, problems)
        return Outcome(problems, featurized, (len(self.names) + 1) * N_TREES, _tree_files("out"))


class RankHv:
    """rank --method linear on a generated normal-only dataset.

    Score-heavy: few fits per candidate, many hypervolume ball points scored
    against a training set several times larger than the corpus datasets,
    on two workers.
    """

    name = "rank-hv"
    rows = 600
    dims = 4
    n_candidates = 8
    hv_samples = 40000
    mc_cv_repetitions = 3
    jobs = 2
    program_seed = 0  # fixed for the same reason as AssimilateCorpus

    def setup(self, seed: int) -> list[list[str]]:
        rng = np.random.default_rng([seed, 1])
        k = 3
        centers = rng.normal(0.0, 4.0, size=(k, self.dims))
        which = rng.integers(0, k, size=self.rows)
        mixing = rng.normal(0.0, 1.0, size=(k, self.dims, self.dims)) / math.sqrt(self.dims)
        X = centers[which] + np.einsum("nij,nj->ni", mixing[which], rng.normal(size=(self.rows, self.dims)))
        with open("field.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow([f"x{j}" for j in range(self.dims)])
            w.writerows([[repr(float(v)) for v in row] for row in X])
        with open("run.json", "w", encoding="utf-8") as fh:
            json.dump({"mc_cv_repetitions": self.mc_cv_repetitions}, fh)
        return []

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        return [
            ("rank", ["rank", "--dataset", "field.csv", "--method", "linear",
                      "--n-candidates", str(self.n_candidates), "--hv-samples", str(self.hv_samples),
                      "--config", "run.json", "--seed", str(self.program_seed),
                      "--jobs", str(self.jobs), "--log-file", "events.jsonl"]),
        ]

    def check(self) -> Outcome:
        problems: list[str] = []
        try:
            with open("rank.stdout", encoding="utf-8") as fh:
                cands = json.load(fh)["candidates"]
        except (OSError, ValueError, KeyError) as exc:
            return Outcome([f"rank output unreadable: {exc}"], 0, 0, [])
        scores = [c["score"] for c in cands]
        if len(cands) != self.n_candidates:
            problems.append(f"rank: {len(cands)} candidates, expected {self.n_candidates}")
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append("rank: scores are not non-increasing")
        if [c["rank"] for c in cands] != list(range(1, len(cands) + 1)):
            problems.append("rank: ranks are not 1..n")
        return Outcome(problems, len(cands), 0, ["rank.stdout"])


class MetaLoo:
    """LOO evaluate, train-meta and predict on generated meta-datasets.

    Metamodel-only: no detector is fitted, so forest split search and tree
    traversal dominate.
    """

    name = "meta-loo"
    n_datasets = 4
    rows = 8
    jobs = 1
    hv_samples = 0
    mc_cv_repetitions = 0

    def setup(self, seed: int) -> list[list[str]]:
        from adselect.features import meta_columns

        cols = meta_columns()
        n_lm = len(cols) - 2
        rng = np.random.default_rng([seed, 2])
        for i in range(self.n_datasets + 1):
            name = f"meta{i}" if i < self.n_datasets else "query"
            landmarks = rng.random(n_lm)
            if i % 2 == 1:  # one absent landmark pair (hv, fpr of one family)
                pair = 2 * int(rng.integers(0, n_lm // 2))
                landmarks[pair : pair + 2] = np.nan
            hv = rng.random(self.rows)
            fpr = rng.random(self.rows)
            target = np.clip(1.0 - (hv + fpr) / 2.0 + rng.normal(0.0, 0.1, self.rows), 0.0, 1.0)
            with open(f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["dataset_id", "config_id", *cols, "target_scaled_mcc"])
                for r in range(self.rows):
                    cells = ["" if np.isnan(v) else repr(float(v)) for v in landmarks]
                    w.writerow([name, f"cfg-{i}-{r}", *cells, repr(float(hv[r])),
                                repr(float(fpr[r])), repr(float(target[r]))])
        return []

    def _metas(self) -> list[str]:
        return [f"meta{i}.csv" for i in range(self.n_datasets)]

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        common = ["--seed", str(seed), "--jobs", str(self.jobs), "--log-file", "events.jsonl"]
        return [
            ("evaluate", ["evaluate", "--meta-datasets", *self._metas(), "--out", "out", *common]),
            ("train_meta", ["train-meta", "--meta-dataset", *self._metas(),
                            "--model-out", "model.json", *common]),
            ("predict", ["predict", "--model", "model.json", "--instances", "query.csv",
                         "--predictions-out", "predictions.csv", *common]),
        ]

    def check(self) -> Outcome:
        problems: list[str] = []
        _check_table("out/evaluation/table.csv", self.n_datasets, problems)
        _check_predictions("predictions.csv", self.rows, problems)
        outputs = _tree_files("out") + ["model.json", "predictions.csv"]
        return Outcome(problems, 0, (self.n_datasets + 1) * N_TREES, outputs)


WORKLOADS = {w.name: w for w in (AssimilateCorpus(), RankHv(), MetaLoo())}
