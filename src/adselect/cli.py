"""Command-line interface.

Subcommands: list-detectors, make-corpus, assimilate, train-meta, predict,
rank, evaluate, hv-estimate. Global flags (--config, --seed, --jobs, --out)
may appear after the subcommand name. A flag whose dest is a RunConfig field
overrides that key of the --config file.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 partial
failure (some datasets failed, instances or rank candidates were skipped, or
a landmark detector failed or ran out of time in assimilate or rank --method
meta).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import corpus, dataset, detectors, pipeline
from .errors import ConfigError, DataError, FitError, ModelFormatError
from .features import MetaDataset
from .hypervolume import estimate_hypervolume
from .metamodel import fit_meta_model, load_model, save_model
from .pipeline import RunConfig
from .util import csv_text, log_event, logger, read_text, write_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PARTIAL = 4


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run-config file; flags override its values")
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    p.add_argument("--jobs", type=int, default=None, help="worker pool size (default 1)")
    p.add_argument("--out", dest="out_dir", default=None, help="output directory (default ./out)")
    p.add_argument("--log-file", default=None, help="write JSON event log here instead of stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adselect",
        description="Rank semi-supervised anomaly detectors via hypervolume and FPR features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-detectors", help="print the detector portfolio and its spaces")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _common_flags(p)

    p = sub.add_parser("make-corpus", help="write the bundled toy datasets as CSV files")
    p.add_argument("--names", nargs="*", default=None, help="subset of bundled dataset names")
    _common_flags(p)

    p = sub.add_parser("assimilate", help="build meta-datasets from labeled base datasets")
    p.add_argument("--datasets", nargs="*", default=None, help="base dataset CSV paths")
    p.add_argument("--label-column", default=None)
    p.add_argument("--hv-samples", type=int, default=None)
    p.add_argument("--n-detectors", dest="n_random_detectors", type=int, default=None, help="random detectors per dataset")
    p.add_argument("--mc-cv-repetitions", type=int, default=None)
    p.add_argument(
        "--landmark-budget", dest="landmark_budget_s", type=float, default=None, help="seconds per landmark detector"
    )
    p.add_argument(
        "--detector-budget", dest="detector_budget_s", type=float, default=None, help="seconds per random detector"
    )
    _common_flags(p)

    p = sub.add_parser("train-meta", help="train and persist the meta-model")
    p.add_argument("--meta-dataset", nargs="+", required=True, help="meta-dataset CSV file(s)")
    p.add_argument("--model-out", required=True)
    _common_flags(p)

    p = sub.add_parser("predict", help="predict scaled MCC for meta-instances")
    p.add_argument("--model", required=True)
    p.add_argument("--instances", required=True, help="meta-dataset CSV of instances")
    p.add_argument("--predictions-out", default=None, help="CSV output path (default stdout)")
    _common_flags(p)

    p = sub.add_parser("rank", help="rank random detector configs for a normal-only dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", choices=("linear", "meta"), default="linear")
    p.add_argument("--model", default=None, help="meta-model file (required for method=meta)")
    p.add_argument("--n-candidates", type=int, default=50)
    p.add_argument("--label-column", default=None)
    p.add_argument("--hv-samples", type=int, default=None)
    _common_flags(p)

    p = sub.add_parser("evaluate", help="leave-one-out evaluation over assimilated meta-datasets")
    p.add_argument("--meta-datasets", nargs="*", default=None, help="meta CSV files (default: <out>/*/meta.csv)")
    p.add_argument("--cherry-threshold", type=float, default=None)
    _common_flags(p)

    p = sub.add_parser("hv-estimate", help="estimate one detector's hypervolume on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--detector-config", required=True, help="JSON string or path to a JSON file")
    p.add_argument("--samples", dest="hv_samples", type=int, default=None)
    p.add_argument("--label-column", default=None)
    _common_flags(p)

    return parser


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    """The --config file under every flag whose dest is a RunConfig field; a
    flag left out (None) or given no values (an empty --datasets) keeps the
    file's value."""
    fields = RunConfig.__dataclass_fields__
    return RunConfig.load(args.config or None, **{k: v for k, v in vars(args).items() if k in fields and v != []})


def _setup_logging(args: argparse.Namespace) -> None:
    handler: logging.Handler
    if getattr(args, "log_file", None):
        handler = logging.FileHandler(args.log_file, encoding="utf-8")
    else:
        handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    for dropped in logger.handlers:
        dropped.close()  # a FileHandler's file would otherwise stay open
    logger.handlers.clear()
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)


def cmd_list_detectors(args: argparse.Namespace) -> int:
    _load_run_config(args)  # checked like every command's, though nothing here reads it
    info = detectors.describe_portfolio()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return EXIT_OK
    for entry in info:
        print(entry["algorithm"])
        for p in entry["params"]:
            if p["kind"] == "categorical":
                domain = "{" + ", ".join(str(c) for c in p["choices"]) + "}"
            else:
                domain = f"[{p['low']}, {p['high']}] ({p['kind']})"
            print(f"  {p['name']:20s} {domain:34s} default={p['default']}")
    return EXIT_OK


def cmd_make_corpus(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    paths = corpus.write_corpus_csvs(cfg.out_dir, seed=cfg.seed, names=args.names)
    for p in paths:
        print(p)
    return EXIT_OK


def _lacks_landmark(meta: MetaDataset) -> bool:
    """True if a landmark is absent: its columns hold NaN."""
    cols = [j for j, name in enumerate(meta.columns) if name.startswith("landmark_")]
    return bool(np.isnan(meta.X[:, cols]).any())


def cmd_assimilate(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    if not cfg.datasets:
        raise ConfigError("assimilate needs dataset paths (--datasets or config file)")
    loaded = []
    failures = 0
    for path in cfg.datasets:
        try:
            loaded.append(dataset.load_csv(path, cfg.label_column))
        except DataError as exc:
            log_event("dataset_unreadable", path=path, reason=str(exc))
            failures += 1
    if not loaded:
        raise DataError("no readable datasets")
    metas = pipeline.assimilate_all(loaded, cfg)
    for meta in metas:
        print(os.path.join(cfg.out_dir, meta.dataset_ids[0], "meta.csv"))
    skipped = any(meta.n < cfg.n_random_detectors for meta in metas)
    if failures or len(metas) < len(loaded) or skipped or any(map(_lacks_landmark, metas)):
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_train_meta(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    metas = [MetaDataset.from_csv(p) for p in args.meta_dataset]
    merged = MetaDataset.concat(metas)
    model = fit_meta_model(merged, seed=cfg.seed, jobs=cfg.jobs)
    save_model(model, args.model_out)
    print(args.model_out)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    _load_run_config(args)  # checked like every command's, though nothing here reads it
    model = load_model(args.model)
    instances = MetaDataset.from_csv(args.instances)
    preds = model.predict(instances)
    text = csv_text(
        [["dataset_id", "config_id", "predicted_scaled_mcc"], *zip(instances.dataset_ids, instances.config_ids, preds)]
    )
    if args.predictions_out:
        write_text(args.predictions_out, text)
        print(args.predictions_out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    """Rank random candidates; one that takes over `detector_budget_s` (in --config) is replaced."""
    cfg = _load_run_config(args)
    data = dataset.load_csv(args.dataset, cfg.label_column, labels_required=False)
    result = pipeline.rank_candidates(
        data, cfg, method=args.method, n_candidates=args.n_candidates, model_path=args.model
    )
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    if len(result.entries) < args.n_candidates or result.absent_landmarks:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    if args.meta_datasets:
        paths = list(args.meta_datasets)
    else:
        root = cfg.out_dir
        if not os.path.isdir(root):
            raise DataError(f"no assimilated output directory {root!r}")
        paths = sorted(
            os.path.join(root, d, "meta.csv")
            for d in os.listdir(root)
            if os.path.exists(os.path.join(root, d, "meta.csv"))
        )
    metas = [MetaDataset.from_csv(p) for p in paths]
    reports, aggregates = pipeline.evaluate_meta_datasets(metas, cfg)
    eval_dir = os.path.join(cfg.out_dir, "evaluation")
    written = pipeline.write_evaluation_files(reports, aggregates, eval_dir)
    print(written["table"])
    return EXIT_OK


def cmd_hv_estimate(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    config_text = args.detector_config
    if os.path.exists(config_text):
        config_text = read_text(config_text, ConfigError, "detector config")
    config = detectors.DetectorConfig.from_json(config_text)

    data = dataset.load_csv(args.dataset, cfg.label_column, labels_required=False)
    # the rows and hypervolume points rank scores
    samples = pipeline.normal_only_samples(data, cfg)
    est = estimate_hypervolume(detectors.fit(config, samples.train), samples.ball, cfg.hv_samples, jobs=cfg.jobs)
    ball = samples.ball.ball
    print(
        json.dumps(
            {
                "fraction": est.fraction,
                "std_error": est.std_error,
                "n_samples": est.n_samples,
                "ball": {"center": [float(c) for c in ball.center], "radius": ball.radius},
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


_COMMANDS = {
    "list-detectors": cmd_list_detectors,
    "make-corpus": cmd_make_corpus,
    "assimilate": cmd_assimilate,
    "train-meta": cmd_train_meta,
    "predict": cmd_predict,
    "rank": cmd_rank,
    "evaluate": cmd_evaluate,
    "hv-estimate": cmd_hv_estimate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FitError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
