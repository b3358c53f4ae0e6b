"""End-to-end orchestration: assimilation, evaluation, and ranking runs.

Every artifact written here is a pure function of (input data, RunConfig,
master seed): worker counts only change scheduling, never bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import numbers
import os
import typing
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from . import ranking
from .detectors import PORTFOLIO_VERSION, DetectorConfig
from .errors import ConfigError, DataError, FitError, ModelFormatError
from .features import (
    DatasetSamples,
    DetectorFeatures,
    MetaDataset,
    MetaInstance,
    assemble_meta_dataset,
    build_detector_instance,
    build_landmarks,
    featurize,
    meta_columns,
    random_draw,
)
from .metamodel import MetaModel, load_model
from .util import csv_text, dump_json, log_event, pmap, read_json, read_text, rng_from, write_text


def _has_type(value, kind) -> bool:
    """value is of the annotated type kind: a bool is no number, a float may be an int."""
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        return (
            isinstance(value, tuple) and (args[-1] is Ellipsis or len(value) == len(args))
            and all(_has_type(v, args[0]) for v in value)
        )
    if isinstance(value, bool):
        return False
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))


@dataclass(frozen=True)
class RunConfig:
    """All pipeline knobs, with the protocol's defaults."""

    datasets: tuple[str, ...] = ()
    label_column: str = "label"
    seed: int = 0
    split_fractions: tuple[float, float, float] = (0.70, 0.20, 0.10)
    outlier_lo: float = 0.05
    outlier_hi: float = 0.10
    hv_samples: int = 200_000
    mc_cv_test_fraction: float = 0.3
    mc_cv_repetitions: int = 10
    n_random_detectors: int = 50
    landmark_budget_s: float = 300.0
    detector_budget_s: float = 300.0
    retries: int = 10
    cherry_threshold: float = 0.6
    out_dir: str = "out"
    jobs: int = 1

    def __post_init__(self) -> None:
        kinds = typing.get_type_hints(RunConfig)
        for name, annotation in RunConfig.__annotations__.items():
            if not _has_type(getattr(self, name), kinds[name]):
                raise ConfigError(f"{name} must be of type {annotation}, got {getattr(self, name)!r}")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9 or any(f <= 0 for f in self.split_fractions):
            raise ConfigError(f"split fractions must be positive and sum to 1: {self.split_fractions}")
        if not (0 < self.outlier_lo <= self.outlier_hi < 1):
            raise ConfigError(f"invalid outlier band ({self.outlier_lo}, {self.outlier_hi})")
        for name in ("hv_samples", "mc_cv_repetitions", "n_random_detectors", "jobs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not (0 < self.mc_cv_test_fraction < 1):
            raise ConfigError("mc_cv_test_fraction must be in (0, 1)")
        if self.retries < 0:
            raise ConfigError("retries must be nonnegative")

    @classmethod
    def load(cls, path: str | None = None, **overrides) -> "RunConfig":
        """The config in the JSON file at ``path`` (defaults if None), under the overrides that are not None."""
        raw = {} if path is None else read_json(path, ConfigError, "config")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        values = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
        for name in ("datasets", "split_fractions"):
            if isinstance(values.get(name), list):  # a JSON array
                values[name] = tuple(values[name])
        try:
            return cls(**values)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def fingerprint(self) -> str:
        relevant = (
            self.label_column, self.seed, self.split_fractions, self.outlier_lo, self.outlier_hi,
            self.hv_samples, self.mc_cv_test_fraction, self.mc_cv_repetitions,
            self.n_random_detectors, self.retries, self.landmark_budget_s, self.detector_budget_s,
            PORTFOLIO_VERSION,
        )
        return hashlib.sha256(repr(relevant).encode()).hexdigest()[:16]


def _budgets(cfg: RunConfig) -> dict:
    """The featurization budgets, as both manifests record them."""
    return {
        "landmark_timeout_s": cfg.landmark_budget_s, "detector_timeout_s": cfg.detector_budget_s, "retries": cfg.retries,
    }


def _data_fingerprint(data: ds.LabeledDataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.features).tobytes())
    h.update(np.ascontiguousarray(data.labels).tobytes())
    return h.hexdigest()[:16]


def assimilate_split(data: ds.LabeledDataset, cfg: RunConfig) -> ds.SemiSupervisedSplit:
    """Sub-sample outliers, stratified split, strip train anomalies, scale."""
    sub = ds.subsample_outliers(data, cfg.outlier_lo, cfg.outlier_hi, rng=rng_from(cfg.seed, data.name, "subsample"))
    split = ds.stratified_split(sub, cfg.split_fractions, rng=rng_from(cfg.seed, data.name, "split"))
    return ds.scale_split(ds.strip_anomalies(split))


def _samples(train: ds.LabeledDataset, dataset_id: str, cfg: RunConfig) -> DatasetSamples:
    """The dataset's shared HV points and MC-CV splits under the run's settings."""
    return DatasetSamples(train, dataset_id, cfg.seed, cfg.hv_samples, cfg.mc_cv_test_fraction, cfg.mc_cv_repetitions)


def normal_only_samples(data: ds.LabeledDataset, cfg: RunConfig) -> DatasetSamples:
    """The samples of `data` taken as normal-only, as rank and hv-estimate see it.

    Every row is kept and scaled robustly on all rows; labeled anomalies are
    ignored with a warning.
    """
    if data.n_anomalies > 0:
        log_event("labeled_anomalies_ignored", dataset=data.name, count=data.n_anomalies)
    normal_only = ds.LabeledDataset(data.features, np.zeros(data.n, dtype=np.int8), data.name, data.feature_names)
    return _samples(ds.apply_scaler(ds.fit_robust_scaler(normal_only), normal_only), data.name, cfg)


def assimilate_dataset(data: ds.LabeledDataset, cfg: RunConfig) -> MetaDataset:
    """Produce (or reuse) one base dataset's meta-dataset and its artifacts.

    Output files under <out_dir>/<dataset>/: split_manifest.json,
    landmarks.csv, detectors.csv, meta.csv, manifest.json. A rerun whose
    manifest fingerprints match simply reloads meta.csv; a manifest or
    meta.csv that cannot be read is logged as ``manifest_unreadable`` and
    counts as a miss. On a miss the old manifest is removed before any file
    is rewritten, and the new one is written last, so a manifest only ever
    vouches for files of its own run.
    """
    out = os.path.join(cfg.out_dir, data.name)
    manifest_path = os.path.join(out, "manifest.json")
    meta_path = os.path.join(out, "meta.csv")
    fingerprint = {"input": _data_fingerprint(data), "config": cfg.fingerprint()}
    if os.path.exists(manifest_path) and os.path.exists(meta_path):
        try:
            previous = read_json(manifest_path, DataError, "manifest")
            if isinstance(previous, dict) and previous.get("fingerprint") == fingerprint:
                meta = MetaDataset.from_csv(meta_path)
                log_event("assimilate_skipped", dataset=data.name, reason="manifest hit")
                return meta
        except DataError as exc:
            log_event("manifest_unreadable", dataset=data.name, reason=str(exc))
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest_path)

    split = assimilate_split(data, cfg)
    samples = _samples(split.train, data.name, cfg)
    landmarks = build_landmarks(samples, cfg.landmark_budget_s, jobs=cfg.jobs)

    def one(i: int):
        return build_detector_instance(samples, split.test, i, cfg.retries, cfg.detector_budget_s)

    instances = [r for r in pmap(one, list(range(cfg.n_random_detectors)), cfg.jobs) if r is not None]
    if not instances:
        raise DataError(f"{data.name}: every detector instance was skipped")
    meta = assemble_meta_dataset(landmarks, instances)

    dump_json(ds.split_manifest(split, data.name, cfg.seed), os.path.join(out, "split_manifest.json"))
    write_text(os.path.join(out, "landmarks.csv"), csv_text([meta_columns()[:-2], landmarks.as_row()]))
    header = ["config_id", "detector_hv", "detector_fpr", "target_scaled_mcc"]
    rows = [[i.detector.config_id, i.detector.hypervolume, i.detector.fpr, i.target_scaled_mcc] for i in instances]
    write_text(os.path.join(out, "detectors.csv"), csv_text([header, *rows]))
    meta.to_csv(meta_path)
    dump_json(
        {
            "dataset": data.name,
            "fingerprint": fingerprint,
            "seed": cfg.seed,
            "portfolio_version": PORTFOLIO_VERSION,
            "budgets": _budgets(cfg),
            "hv_samples": cfg.hv_samples,
            "n_random_detectors": cfg.n_random_detectors,
            "files": ["split_manifest.json", "landmarks.csv", "detectors.csv", "meta.csv"],
        },
        manifest_path,
    )
    return meta


def assimilate_all(datasets: list[ds.LabeledDataset], cfg: RunConfig) -> list[MetaDataset]:
    metas = []
    failures = []
    for data in datasets:
        try:
            metas.append(assimilate_dataset(data, cfg))
        except (DataError, FitError) as exc:
            log_event("dataset_failed", dataset=data.name, reason=str(exc))
            failures.append(data.name)
    if failures and not metas:
        raise DataError(f"all datasets failed: {failures}")
    if failures:
        log_event("assimilate_partial", failed=failures)
    dump_json(
        {
            "datasets": sorted(m.dataset_ids[0] for m in metas),
            "failed": sorted(failures),
            "portfolio_version": PORTFOLIO_VERSION,
            "seed": cfg.seed,
            "hv_samples": cfg.hv_samples,
            "n_random_detectors": cfg.n_random_detectors,
            "mc_cv": {"test_fraction": cfg.mc_cv_test_fraction, "repetitions": cfg.mc_cv_repetitions},
            "budgets": _budgets(cfg),
        },
        os.path.join(cfg.out_dir, "assimilation_manifest.json"),
    )
    return metas


# ---------------------------------------------------------------------------
# evaluation


_TABLE_METRIC_LABELS = {"regret1": "regret@1", "regret5": "regret@5", "ndcg": "ndcg", "tau_b": "tau_b"}


def write_evaluation_files(
    reports: list[ranking.RankingReport], aggregates: dict, out_dir: str
) -> dict[str, str]:
    paths = {}
    for report in reports:
        p = os.path.join(out_dir, f"report_{report.dataset_id}.json")
        dump_json(report.to_dict(), p)
        paths[report.dataset_id] = p

    pairs = [(metric, method) for metric in ranking.METRICS for method in ranking.METHODS]

    def cells(metrics: dict) -> list:  # None where a method has no value
        return [metrics.get(method, {}).get(metric) for metric, method in pairs]

    rows = [["dataset", "mcc_max", "mcc_mean", "mcc_min", *(f"{_TABLE_METRIC_LABELS[m]}_{k}" for m, k in pairs)]]
    rows += [[r.dataset_id, r.mcc_max, r.mcc_mean, r.mcc_min, *cells(r.metrics)] for r in reports]
    rows += [[name, None, None, None, *cells(aggregates[name])] for name in ("mean", "median")]
    paths["table"] = os.path.join(out_dir, "table.csv")
    write_text(paths["table"], csv_text(rows))
    dump_json(aggregates, os.path.join(out_dir, "aggregates.json"))
    paths["aggregates"] = os.path.join(out_dir, "aggregates.json")
    return paths


def evaluate_meta_datasets(metas: list[MetaDataset], cfg: RunConfig) -> tuple[list, dict]:
    if len(metas) < 2:
        raise DataError(f"evaluation needs at least 2 meta-datasets, got {len(metas)}")
    ordered = sorted(metas, key=lambda m: m.dataset_ids[0])
    reports, aggregates = ranking.leave_one_out_evaluate(
        ordered,
        master_seed=cfg.seed,
        cherry_threshold=cfg.cherry_threshold,
        jobs=cfg.jobs,
    )
    return reports, aggregates


# ---------------------------------------------------------------------------
# ranking new datasets


@dataclass(frozen=True)
class RecommendationResult:
    """Candidate detectors in recommendation order with their scores."""

    entries: tuple[tuple[DetectorConfig, float], ...]
    method: str
    provenance: str
    absent_landmarks: tuple[str, ...] = ()  # algorithms whose landmark failed (method "meta")

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "provenance": self.provenance,
            "candidates": [
                {
                    "rank": i + 1,
                    "config": {
                        "algorithm": c.algorithm,
                        "params": c.params,
                        "contamination": c.contamination,
                        "seed": c.seed,
                        "config_id": c.config_id,
                    },
                    "score": float(s),
                }
                for i, (c, s) in enumerate(self.entries)
            ],
        }


def rank_candidates(
    data: ds.LabeledDataset,
    cfg: RunConfig,
    method: str,
    n_candidates: int,
    model_path: str | None = None,
) -> RecommendationResult:
    """Sample candidate configs, compute their features, and rank them.

    `data` is treated as normal-only (see ``normal_only_samples``): every
    row, labeled anomalies too, is a training row. A candidate that fails to
    fit or takes over `cfg.detector_budget_s` is replaced, up to
    `cfg.retries` times. method "linear" needs no model file; "meta" loads
    one.
    """
    if method not in ("linear", "meta"):
        raise ConfigError(f"unknown ranking method {method!r}; use linear or meta")
    if n_candidates < 1:
        raise ConfigError(f"n_candidates must be at least 1, got {n_candidates}")
    model: MetaModel | None = None
    provenance = "linear"
    if method == "meta":
        if not model_path:
            raise ConfigError("method=meta requires --model")
        model = load_model(model_path)
        # the text decoded as UTF-8 with line ends kept, so it encodes back to the file's bytes
        provenance = hashlib.sha256(read_text(model_path, ModelFormatError, "model").encode("utf-8")).hexdigest()

    samples = normal_only_samples(data, cfg)

    def candidate(index: int) -> tuple[DetectorConfig, DetectorFeatures] | None:
        draw = random_draw(cfg.seed, data.name, index, "candidate")
        got = featurize("candidate", draw, samples, cfg.retries, cfg.detector_budget_s, index=index)
        # keep the features only: the fitted models of all candidates are never held at once
        return None if got is None else (got[0], got[2])

    feats = [r for r in pmap(candidate, list(range(n_candidates)), cfg.jobs) if r is not None]
    if not feats:
        raise DataError("no candidate detector could be fitted")

    absent: tuple[str, ...] = ()
    if method == "linear":
        scored = [(config, ranking.lc_score(f.hypervolume, f.fpr)) for config, f in feats]
    else:
        landmarks = build_landmarks(samples, cfg.landmark_budget_s, jobs=cfg.jobs)
        absent = tuple(alg for alg, entry in landmarks.entries.items() if entry is None)
        # a candidate's target is unknown; 0 stands in, and predict reads X only
        predictions = model.predict(assemble_meta_dataset(landmarks, [MetaInstance(f, 0.0) for _, f in feats]))
        scored = [(config, float(p)) for (config, _), p in zip(feats, predictions)]

    scored.sort(key=lambda cs: (-cs[1], cs[0].config_id))
    return RecommendationResult(
        entries=tuple(scored), method=method, provenance=provenance, absent_landmarks=absent
    )
