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
from dataclasses import asdict, dataclass

import numpy as np

from . import dataset as ds
from . import ranking
from .detectors import PORTFOLIO_VERSION, DetectorConfig
from .errors import ConfigError, DataError, FitError
from .features import (
    DatasetSamples,
    DetectorFeatures,
    MetaDataset,
    build_detector_instance,
    build_landmarks,
    featurize,
    random_draw,
)
from .metamodel import MetaModel, load_model
from .util import (
    csv_text, dump_json, json_text, log_event, pmap, read_json, read_text, rng_from, sha256_text, write_text,
)


def _has_type(value, kind) -> bool:
    """value is of the annotated type kind: a bool is no number, a float may be an int."""
    if typing.get_origin(kind) is tuple:
        return isinstance(value, tuple) and all(_has_type(v, typing.get_args(kind)[0]) for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))


@dataclass(frozen=True)
class RunConfig:
    """All pipeline knobs, with the protocol's defaults.

    The values the protocol fixes are constants, not knobs: the anomaly band
    ``dataset.OUTLIER_LO``/``OUTLIER_HI``, the split ``dataset.SPLIT_FRACTIONS``
    and the MC-CV holdout ``features.MC_CV_TEST_FRACTION``.
    """

    datasets: tuple[str, ...] = ()
    label_column: str = "label"
    seed: int = 0
    hv_samples: int = 200_000
    mc_cv_repetitions: int = 10
    n_random_detectors: int = 50
    landmark_budget_s: float = 300.0
    detector_budget_s: float = 300.0
    retries: int = 10
    cherry_threshold: float = ranking.CHERRY_THRESHOLD
    out_dir: str = "out"
    jobs: int = 1

    def __post_init__(self) -> None:
        kinds = typing.get_type_hints(RunConfig)
        for name, annotation in RunConfig.__annotations__.items():
            if not _has_type(getattr(self, name), kinds[name]):
                raise ConfigError(f"{name} must be of type {annotation}, got {getattr(self, name)!r}")
        for name in ("hv_samples", "mc_cv_repetitions", "n_random_detectors", "jobs", "landmark_budget_s",
                     "detector_budget_s"):
            if not getattr(self, name) > 0:  # a NaN budget is refused too
                raise ConfigError(f"{name} must be positive")
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
        if isinstance(values.get("datasets"), list):  # a JSON array
            values["datasets"] = tuple(values["datasets"])
        try:
            return cls(**values)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def protocol(self) -> dict:
        """The feature protocol, JSON-native: every setting that decides a
        run's features and targets, and the detector portfolio. Both manifests
        record it, and a resume compares it whole."""
        kept = {k: v for k, v in asdict(self).items() if k not in RUN_ONLY}
        return {**kept, "portfolio_version": PORTFOLIO_VERSION}


# the settings that change no feature or target: where and how fast a run goes, and evaluation's threshold
RUN_ONLY = frozenset({"datasets", "out_dir", "jobs", "cherry_threshold"})


def _data_fingerprint(data: ds.LabeledDataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.features).tobytes())
    h.update(np.ascontiguousarray(data.labels).tobytes())
    return h.hexdigest()[:16]


# the files a dataset's manifest vouches for
_ARTIFACTS = ("split_manifest.json", "landmarks.csv", "detectors.csv", "meta.csv")


def _vouched_texts(out: str, files: object) -> dict[str, str]:
    """The text of each of a dataset's _ARTIFACTS, each read once; DataError
    unless each hashes to the sha256 the manifest's ``files`` records."""
    texts = {}
    for name in _ARTIFACTS:
        path = os.path.join(out, name)
        texts[name] = read_text(path, DataError, "resumed artifact")
        if not isinstance(files, dict) or files.get(name) != sha256_text(texts[name]):
            raise DataError(f"{path}: its sha256 is not the one the manifest records")
    return texts


def assimilate_split(data: ds.LabeledDataset, cfg: RunConfig) -> tuple[ds.LabeledDataset, ds.LabeledDataset, dict]:
    """The scaled train and test partitions of `data`, and its split manifest.

    Anomalies are sub-sampled, the kept rows split stratified, the train
    anomalies dropped, and both partitions scaled by the robust scaler fitted
    on train. The manifest records the scaler and, per partition (holdout
    too, which is not taken), the rows of `data` it holds.
    """
    kept = ds.subsample_outliers(data, rng=rng_from(cfg.seed, data.name, "subsample"))
    split = ds.stratified_split(data.labels[kept], rng=rng_from(cfg.seed, data.name, "split"))
    train, test, holdout = (kept[p] for p in split)
    train = train[data.labels[train] == 0]
    train_rows, test_rows = data.take(train, name=f"{data.name}/train"), data.take(test, name=f"{data.name}/test")
    scaler = ds.fit_robust_scaler(train_rows)
    manifest = {
        "dataset": data.name,
        "seed": cfg.seed,
        "origin_indices": {"train": train.tolist(), "test": test.tolist(), "holdout": holdout.tolist()},
        "scaler": scaler.to_dict(),
    }
    return ds.apply_scaler(scaler, train_rows), ds.apply_scaler(scaler, test_rows), manifest


def normal_only_samples(data: ds.LabeledDataset, cfg: RunConfig) -> DatasetSamples:
    """The samples of `data` taken as normal-only, as rank and hv-estimate see it.

    Every row is kept and scaled robustly on all rows; labeled anomalies are
    ignored with a logged event.
    """
    if data.n_anomalies > 0:
        log_event("labeled_anomalies_ignored", dataset=data.name, count=data.n_anomalies)
    normal_only = ds.LabeledDataset(data.features, np.zeros(data.n, dtype=np.int8), data.name)
    return DatasetSamples(ds.apply_scaler(ds.fit_robust_scaler(normal_only), normal_only), data.name, cfg)


def assimilate_dataset(data: ds.LabeledDataset, cfg: RunConfig) -> MetaDataset:
    """Produce (or reuse) one base dataset's meta-dataset and its artifacts.

    Output files under <out_dir>/<dataset>/: split_manifest.json,
    landmarks.csv, detectors.csv, meta.csv, manifest.json. A rerun whose
    manifest records the same input digest and ``cfg.protocol()``, and whose
    files still have the sha256 it records, simply reloads meta.csv; any
    other manifest is a miss. A manifest that cannot be read, or a file that
    is missing, has another sha256 or (meta.csv) does not read, is logged as
    ``manifest_unreadable`` and counts as a miss. On a miss the old manifest
    is removed before any file is rewritten, and the new one is written
    last, so a manifest only ever vouches for files of its own run.
    """
    out = os.path.join(cfg.out_dir, data.name)
    manifest_path = os.path.join(out, "manifest.json")
    digest, protocol = _data_fingerprint(data), cfg.protocol()
    if os.path.exists(manifest_path):
        try:
            previous = read_json(manifest_path, DataError, "manifest")
            if isinstance(previous, dict) and previous.get("input") == digest and previous.get("protocol") == protocol:
                texts = _vouched_texts(out, previous.get("files"))
                meta = MetaDataset.from_csv(os.path.join(out, "meta.csv"), texts["meta.csv"])
                log_event("assimilate_skipped", dataset=data.name, reason="manifest hit")
                return meta
        except DataError as exc:
            log_event("manifest_unreadable", dataset=data.name, reason=str(exc))
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest_path)

    train, test, split_manifest = assimilate_split(data, cfg)
    samples = DatasetSamples(train, data.name, cfg)
    landmarks = build_landmarks(samples)
    indices = list(range(cfg.n_random_detectors))
    instances = pmap(lambda i: build_detector_instance(samples, test, i), indices, cfg.jobs)
    instances = [r for r in instances if r is not None]
    if not instances:
        raise DataError(f"{data.name}: every detector instance was skipped")
    meta = MetaDataset.of(data.name, landmarks, instances)
    texts = dict(zip(_ARTIFACTS, (
        json_text(split_manifest),
        meta.landmarks_csv_text(),
        meta.detectors_csv_text(),
        meta.csv_text(),
    )))
    for name, text in texts.items():
        write_text(os.path.join(out, name), text)
    files = {name: sha256_text(text) for name, text in texts.items()}
    dump_json({"dataset": data.name, "input": digest, "protocol": protocol, "files": files}, manifest_path)
    return meta


def assimilate_all(datasets: list[ds.LabeledDataset], cfg: RunConfig) -> list[MetaDataset]:
    """Assimilate each dataset; ConfigError, before any is processed, if two
    share a name, since both would write <out_dir>/<name>/."""
    names = [data.name for data in datasets]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"more than one dataset named {repeated}: each dataset writes {cfg.out_dir}/<name>/")
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
        {"datasets": sorted(m.dataset_ids[0] for m in metas), "failed": sorted(failures), "protocol": cfg.protocol()},
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
                {"rank": i + 1, "config": {**asdict(c), "config_id": c.config_id}, "score": float(s)}
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
        provenance = model.sha256

    samples = normal_only_samples(data, cfg)

    def candidate(index: int) -> tuple[DetectorConfig, DetectorFeatures] | None:
        draw = random_draw(cfg.seed, data.name, index, "candidate")
        got = featurize("candidate", draw, samples, index=index)
        # keep the features only: the fitted models of all candidates are never held at once
        return None if got is None else (got[0], got[2])

    feats = [r for r in pmap(candidate, list(range(n_candidates)), cfg.jobs) if r is not None]
    if not feats:
        raise DataError("no candidate detector could be fitted")

    absent: tuple[str, ...] = ()
    if method == "linear":
        scored = [(config, ranking.lc_score(f.hypervolume, f.fpr)) for config, f in feats]
    else:
        # a candidate's target is unknown; 0 stands in, and predict reads X only
        meta = MetaDataset.of(data.name, build_landmarks(samples), [(f, 0.0) for _, f in feats])
        absent = meta.absent_landmarks()
        predictions = model.predict(meta)
        scored = [(config, float(p)) for (config, _), p in zip(feats, predictions)]

    scored.sort(key=lambda cs: (-cs[1], cs[0].config_id))
    return RecommendationResult(
        entries=tuple(scored), method=method, provenance=provenance, absent_landmarks=absent
    )
