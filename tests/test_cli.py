import argparse
import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np
import pytest

from adselect import cli, dataset, detectors, features, pipeline, util
from adselect.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PARTIAL, build_parser, main
from adselect.corpus import write_corpus_csvs
from adselect.errors import FitError
from adselect.hypervolume import estimate_hypervolume


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "data"
    write_corpus_csvs(str(d), seed=5, names=["twin_blobs", "halo"])
    return d


def fast_flags(tmp_path, out="run"):
    return [
        "--out", str(tmp_path / out),
        "--seed", "11",
        "--hv-samples", "2000",
        "--n-detectors", "3",
        "--mc-cv-repetitions", "3",
    ]


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_list_detectors(capsys):
    assert main(["list-detectors"]) == EXIT_OK
    out = capsys.readouterr().out
    for alg in ("knn", "lof", "iforest", "hbos", "pca", "gaussian", "kde"):
        assert alg in out


def test_list_detectors_json(capsys):
    assert main(["list-detectors", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 7


def test_make_corpus(tmp_path, capsys):
    assert main(["make-corpus", "--out", str(tmp_path / "c"), "--seed", "3"]) == EXIT_OK
    files = sorted(os.listdir(tmp_path / "c"))
    assert len(files) == 6
    assert all(f.endswith(".csv") for f in files)


def test_assimilate_writes_expected_artifacts(tmp_path, corpus_dir, capsys):
    rc = main(
        ["assimilate", "--datasets", str(corpus_dir / "twin_blobs.csv"), str(corpus_dir / "halo.csv")]
        + fast_flags(tmp_path)
    )
    assert rc == EXIT_OK
    for name in ("twin_blobs", "halo"):
        base = tmp_path / "run" / name
        for f in ("split_manifest.json", "landmarks.csv", "detectors.csv", "meta.csv", "manifest.json"):
            assert (base / f).exists()
        with open(base / "meta.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1 + 3  # header + one row per random detector


def test_assimilate_rerun_hits_manifest(tmp_path, corpus_dir):
    args = ["assimilate", "--datasets", str(corpus_dir / "twin_blobs.csv")] + fast_flags(tmp_path)
    assert main(args) == EXIT_OK
    meta = tmp_path / "run" / "twin_blobs" / "meta.csv"
    first = read(meta)
    log = tmp_path / "events.log"
    assert main(args + ["--log-file", str(log)]) == EXIT_OK
    assert read(meta) == first
    events = log_events(log)
    assert any(e["event"] == "assimilate_skipped" for e in events)


def test_assimilate_stopped_before_its_manifest_is_redone(tmp_path, corpus_dir, monkeypatch):
    """A run stopped between the meta.csv and manifest.json writes leaves no
    manifest that vouches for its meta.csv, so a rerun of the earlier
    config recomputes."""
    args = ["assimilate", "--datasets", str(corpus_dir / "halo.csv")] + fast_flags(tmp_path)
    meta = tmp_path / "run" / "halo" / "meta.csv"
    assert main(args + ["--n-detectors", "2"]) == EXIT_OK

    class Killed(Exception):
        pass

    real_dump = pipeline.dump_json

    def dump_json(obj, path):
        if os.path.basename(path) == "manifest.json":
            raise Killed(path)
        real_dump(obj, path)

    monkeypatch.setattr(pipeline, "dump_json", dump_json)
    with pytest.raises(Killed):
        main(args + ["--n-detectors", "3"])
    assert len(read(meta).splitlines()) == 1 + 3
    monkeypatch.setattr(pipeline, "dump_json", real_dump)
    log = tmp_path / "events.log"
    assert main(args + ["--n-detectors", "2", "--log-file", str(log)]) == EXIT_OK
    assert len(read(meta).splitlines()) == 1 + 2
    assert not any(e["event"] == "assimilate_skipped" for e in log_events(log))


def test_portfolio_version_change_invalidates_resume(tmp_path, corpus_dir, monkeypatch):
    args = ["assimilate", "--datasets", str(corpus_dir / "twin_blobs.csv")] + fast_flags(tmp_path)
    assert main(args) == EXIT_OK
    cfg = pipeline.RunConfig(seed=11)
    current = cfg.fingerprint()
    monkeypatch.setattr(pipeline, "PORTFOLIO_VERSION", "native-7/1")
    assert cfg.fingerprint() != current
    log = tmp_path / "events.log"
    assert main(args + ["--log-file", str(log)]) == EXIT_OK
    events = log_events(log)
    assert not any(e["event"] == "assimilate_skipped" for e in events)


def test_retries_and_budgets_change_invalidates_resume(tmp_path, corpus_dir, monkeypatch):
    base = pipeline.RunConfig(seed=11)
    for change in ({"retries": 5}, {"landmark_budget_s": 1.5}, {"detector_budget_s": 1.5}):
        assert dataclasses.replace(base, **change).fingerprint() != base.fingerprint(), change
    real = features._detector_features
    default_ids = {c.config_id for c in detectors.default_configs()}
    injected = []

    def fail_first_random_detector(config, *args, **kwargs):
        if not injected and config.config_id not in default_ids:
            injected.append(config.config_id)
            raise FitError("injected failure")
        return real(config, *args, **kwargs)

    monkeypatch.setattr(features, "_detector_features", fail_first_random_detector)
    args = ["assimilate", "--datasets", str(corpus_dir / "halo.csv")] + fast_flags(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"retries": 0}))
    assert main(args + ["--config", str(cfg)]) == EXIT_PARTIAL
    # more retries replace the failed config: the rerun must redo the dataset, not reuse it
    cfg.write_text(json.dumps({"retries": 1}))
    log = tmp_path / "events.log"
    assert main(args + ["--config", str(cfg), "--log-file", str(log)]) == EXIT_OK
    events = log_events(log)
    assert not any(e["event"] == "assimilate_skipped" for e in events)
    with open(tmp_path / "run" / "halo" / "meta.csv") as fh:
        assert len(fh.read().strip().splitlines()) == 1 + 3


def test_assimilate_with_skipped_instance_is_partial(tmp_path, corpus_dir, monkeypatch):
    real = features._detector_features
    default_ids = {c.config_id for c in detectors.default_configs()}
    injected = []

    def fail_first_random_detector(config, *args, **kwargs):
        if not injected and config.config_id not in default_ids:
            injected.append(config.config_id)
            raise FitError("injected failure")
        return real(config, *args, **kwargs)

    monkeypatch.setattr(features, "_detector_features", fail_first_random_detector)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"retries": 0}))
    rc = main(
        ["assimilate", "--config", str(cfg), "--datasets", str(corpus_dir / "halo.csv")]
        + fast_flags(tmp_path)
    )
    assert injected
    assert rc == EXIT_PARTIAL
    with open(tmp_path / "run" / "halo" / "meta.csv") as fh:
        assert len(fh.read().strip().splitlines()) == 1 + 2  # one of 3 instances skipped


def test_assimilate_requires_datasets(tmp_path):
    assert main(["assimilate", "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_assimilate_missing_file_is_data_error(tmp_path):
    rc = main(["assimilate", "--datasets", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x")])
    assert rc == EXIT_DATA


def test_make_corpus_unknown_name_is_config_error(tmp_path, capsys):
    assert main(["make-corpus", "--names", "nope", "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "c").exists()


NOT_UTF8_JSON = b'{"algorithm": "caf\xe9"}'  # "\xe9" alone is no UTF-8 sequence
ASSIMILATE = ["assimilate", "--datasets", "{halo}", "--config", "{bad}"]
RANK_META = ["rank", "--dataset", "{halo}", "--method", "meta", "--model", "{bad}"]
# case: (bytes of the file, None for no file; the command that reads it; its exit code)
UNREADABLE_INPUTS = {
    "config-missing": (None, ASSIMILATE, EXIT_CONFIG),
    "config-not-json": (b"{", ASSIMILATE, EXIT_CONFIG),
    "config-not-utf8": (NOT_UTF8_JSON, ASSIMILATE, EXIT_CONFIG),
    "detector-config-not-utf8": (NOT_UTF8_JSON, ["hv-estimate", "--dataset", "{halo}", "--detector-config", "{bad}"],
                                 EXIT_CONFIG),
    "dataset-not-utf8": (b"x,y\n1,caf\xe9\n", ["rank", "--dataset", "{bad}"], EXIT_DATA),
    "model-not-utf8": (NOT_UTF8_JSON, RANK_META, EXIT_CONFIG),
    "model-not-object": (b"[]", RANK_META, EXIT_CONFIG),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_file_exit_code(tmp_path, corpus_dir, capsys, case):
    """Each kind of input file that cannot be read ends in its kind's exit
    code and a one-line message naming the file, not a traceback."""
    content, argv, expected = UNREADABLE_INPUTS[case]
    bad = tmp_path / "bad.input"
    if content is not None:
        bad.write_bytes(content)
    argv = [arg.format(halo=corpus_dir / "halo.csv", bad=bad) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "run")]) == expected
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad.input" in err


@pytest.mark.parametrize("damage", ("manifest-not-json", "manifest-not-object", "meta-cut-mid-row"))
def test_damaged_resume_state_is_recomputed(tmp_path, corpus_dir, damage):
    """A manifest that is not a JSON object, or a meta.csv that no longer
    reads under a matching manifest, counts as a manifest miss: the rerun
    recomputes the dataset and writes what a fresh run writes."""
    args = ["assimilate", "--datasets", str(corpus_dir / "halo.csv")] + fast_flags(tmp_path)
    assert main(args) == EXIT_OK
    meta = tmp_path / "run" / "halo" / "meta.csv"
    manifest = meta.with_name("manifest.json")
    fresh, fresh_manifest = read(meta), read(manifest)
    if damage == "meta-cut-mid-row":
        meta.write_bytes(fresh[: fresh.rindex(b",")])
    else:
        manifest.write_text("{" if damage == "manifest-not-json" else "[]")
    log = tmp_path / "events.log"
    assert main(args + ["--log-file", str(log)]) == EXIT_OK
    assert read(meta) == fresh and read(manifest) == fresh_manifest
    events = [e["event"] for e in log_events(log)]
    assert "assimilate_skipped" not in events
    assert ("manifest_unreadable" in events) == (damage != "manifest-not-object")


def test_log_file_of_an_earlier_call_is_closed(tmp_path):
    """Each main call replaces the previous call's log handler and closes its file."""
    assert main(["list-detectors", "--log-file", str(tmp_path / "first.log")]) == EXIT_OK
    [first] = util.logger.handlers
    stream = first.stream
    assert main(["list-detectors", "--log-file", str(tmp_path / "second.log")]) == EXIT_OK
    assert stream.closed
    assert util.logger.handlers != [first]


def write_meta_csv(path, bad_row=None, columns=None):
    """Six synthetic meta-instances in the assimilate output format, then ``bad_row`` if given."""
    cols = features.meta_columns() if columns is None else columns
    rng = np.random.default_rng(0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["dataset_id", "config_id", *cols, "target_scaled_mcc"])
        for r in range(6):
            w.writerow([path.stem, f"cfg-{r}", *(repr(float(v)) for v in rng.random(len(cols) + 1))])
        if bad_row is not None:
            w.writerow([path.stem, "cfg-bad", *bad_row(len(cols) + 1)])


def write_latin1_meta_csv(path):
    write_meta_csv(path)
    path.write_bytes(path.read_bytes().replace(b"cfg-0", b"cfg-\xe9"))


# each writes a bad meta CSV at its path, or none ("missing")
META_PROBLEMS = {
    "missing": lambda path: None,
    "non-numeric": lambda path: write_meta_csv(path, lambda cells: ["0.5"] * (cells - 1) + ["high"]),
    "short-row": lambda path: write_meta_csv(path, lambda cells: ["0.5"] * (cells - 1)),
    "target-inf": lambda path: write_meta_csv(path, lambda cells: ["0.5"] * (cells - 1) + ["inf"]),
    "target-empty": lambda path: write_meta_csv(path, lambda cells: ["0.5"] * (cells - 1) + [""]),
    "feature-above-one": lambda path: write_meta_csv(path, lambda cells: ["1.5"] + ["0.5"] * (cells - 1)),
    "feature-nan": lambda path: write_meta_csv(path, lambda cells: ["nan"] + ["0.5"] * (cells - 1)),
    # the model's and the other file's columns are meta_columns(); this file lacks one landmark pair
    "other-columns": lambda path: write_meta_csv(path, columns=features.meta_columns()[2:]),
    "not-utf8": write_latin1_meta_csv,
}


@pytest.mark.parametrize("problem", sorted(META_PROBLEMS))
@pytest.mark.parametrize("command", ("evaluate", "train-meta", "predict"))
def test_unreadable_meta_dataset_is_data_error(tmp_path, capsys, command, problem):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_meta_csv(good)
    META_PROBLEMS[problem](bad)
    model = tmp_path / "model.json"
    assert main(["train-meta", "--meta-dataset", str(good), "--model-out", str(model)]) == EXIT_OK
    args = {
        "evaluate": ["evaluate", "--meta-datasets", str(good), str(bad), "--out", str(tmp_path / "run")],
        "train-meta": ["train-meta", "--meta-dataset", str(bad), "--model-out", str(tmp_path / "other.json")],
        "predict": ["predict", "--model", str(model), "--instances", str(bad)],
    }[command]
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "bad.csv" in err


def refused_model_line(tmp_path, corpus_dir, capsys, command, edit):
    """The last stderr line of ``command`` run with a trained bundle whose JSON
    payload ``edit`` changed; the command must exit 2 without a traceback."""
    meta, model = tmp_path / "meta.csv", tmp_path / "model.json"
    write_meta_csv(meta)
    assert main(["train-meta", "--meta-dataset", str(meta), "--model-out", str(model)]) == EXIT_OK
    model.write_text(json.dumps(edit(json.loads(model.read_text()))))
    args = {
        "predict": ["predict", "--model", str(model), "--instances", str(meta)],
        "rank": ["rank", "--dataset", str(corpus_dir / "halo.csv"), "--method", "meta", "--model", str(model),
                 "--n-candidates", "2", "--hv-samples", "1000", "--out", str(tmp_path / "r")],
    }[command]
    capsys.readouterr()
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.splitlines()[-1]


@pytest.mark.parametrize("command", ("predict", "rank"))
def test_model_of_other_columns_is_model_error(tmp_path, corpus_dir, capsys, command):
    """A model whose columns are not the instances' ends in exit 2 and a
    one-line model error, not a traceback."""
    line = refused_model_line(tmp_path, corpus_dir, capsys, command, lambda p: {**p, "columns": p["columns"][2:]})
    assert line.startswith("model error: instance schema")


def as_version_1(payload):
    """A version-1 bundle: min-max scaler bounds and no portfolio version."""
    old = {k: v for k, v in payload.items() if k != "portfolio_version"}
    n = len(payload["columns"])
    return {**old, "version": 1, "scaler_mins": [0.0] * n, "scaler_maxs": [1.0] * n}


@pytest.mark.parametrize("command", ("predict", "rank"))
def test_version_1_bundle_is_model_error(tmp_path, corpus_dir, capsys, command):
    line = refused_model_line(tmp_path, corpus_dir, capsys, command, as_version_1)
    assert line.startswith("model error:") and "model version 1, expected 2; rerun train-meta" in line


@pytest.mark.parametrize("command", ("predict", "rank"))
def test_bundle_of_another_portfolio_is_model_error(tmp_path, corpus_dir, capsys, command):
    """A bundle trained on another detector portfolio's features is refused,
    not used to score features this build computes."""
    line = refused_model_line(
        tmp_path, corpus_dir, capsys, command, lambda p: {**p, "portfolio_version": "native-7/1"}
    )
    assert line.startswith("model error:") and "detector portfolio 'native-7/1'" in line


@pytest.mark.parametrize("flags", (["--config", "{missing}"], ["--jobs", "0"]))
@pytest.mark.parametrize("command", ("list-detectors", "predict", "train-meta"))
def test_every_command_checks_its_run_config(tmp_path, capsys, command, flags):
    meta, model = tmp_path / "meta.csv", tmp_path / "model.json"
    write_meta_csv(meta)
    assert main(["train-meta", "--meta-dataset", str(meta), "--model-out", str(model)]) == EXIT_OK
    args = {
        "list-detectors": ["list-detectors"],
        "predict": ["predict", "--model", str(model), "--instances", str(meta)],
        "train-meta": ["train-meta", "--meta-dataset", str(meta), "--model-out", str(tmp_path / "other.json")],
    }[command]
    capsys.readouterr()
    assert main(args + [f.format(missing=tmp_path / "missing.json") for f in flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_evaluate_needs_two_meta_datasets(tmp_path, corpus_dir):
    assert (
        main(["assimilate", "--datasets", str(corpus_dir / "halo.csv")] + fast_flags(tmp_path))
        == EXIT_OK
    )
    assert main(["evaluate", "--out", str(tmp_path / "run"), "--seed", "11"]) == EXIT_DATA
    meta = str(tmp_path / "run" / "halo" / "meta.csv")
    assert main(["evaluate", "--meta-datasets", meta, "--out", str(tmp_path / "run"), "--seed", "11"]) == EXIT_DATA


def test_full_evaluate_flow(tmp_path, corpus_dir, capsys):
    rc = main(
        ["assimilate", "--datasets", str(corpus_dir / "twin_blobs.csv"), str(corpus_dir / "halo.csv")]
        + fast_flags(tmp_path)
    )
    assert rc == EXIT_OK
    assert main(["evaluate", "--out", str(tmp_path / "run"), "--seed", "11"]) == EXIT_OK
    table = tmp_path / "run" / "evaluation" / "table.csv"
    assert table.exists()
    lines = table.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["dataset", "mcc_max", "mcc_mean", "mcc_min"]
    for metric in ("regret@1", "regret@5", "ndcg", "tau_b"):
        for method in ("R", "FPR", "HV", "L", "M", "Mc"):
            assert f"{metric}_{method}" in header
    assert [ln.split(",")[0] for ln in lines[1:]] == ["halo", "twin_blobs", "mean", "median"]
    assert (tmp_path / "run" / "evaluation" / "report_halo.json").exists()


def test_train_meta_and_predict(tmp_path, corpus_dir, capsys):
    main(
        ["assimilate", "--datasets", str(corpus_dir / "twin_blobs.csv"), str(corpus_dir / "halo.csv")]
        + fast_flags(tmp_path)
    )
    model = tmp_path / "model.json"
    rc = main(
        [
            "train-meta",
            "--meta-dataset", str(tmp_path / "run" / "twin_blobs" / "meta.csv"),
            str(tmp_path / "run" / "halo" / "meta.csv"),
            "--model-out", str(model),
            "--seed", "2",
        ]
    )
    assert rc == EXIT_OK and model.exists()
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--instances", str(tmp_path / "run" / "halo" / "meta.csv")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "dataset_id,config_id,predicted_scaled_mcc"
    assert len(out) == 4
    preds = [float(r.split(",")[2]) for r in out[1:]]
    assert all(0.0 <= p <= 1.0 for p in preds)


def test_rank_linear_needs_no_model(tmp_path, corpus_dir, capsys):
    rc = main(
        [
            "rank",
            "--dataset", str(corpus_dir / "halo.csv"),
            "--method", "linear",
            "--n-candidates", "4",
            "--seed", "5",
            "--hv-samples", "2000",
            "--out", str(tmp_path / "r"),
        ]
    )
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "linear"
    assert payload["provenance"] == "linear"
    assert len(payload["candidates"]) == 4
    scores = [c["score"] for c in payload["candidates"]]
    assert scores == sorted(scores, reverse=True)


def test_rank_exits_partial_when_a_candidate_is_skipped(tmp_path, corpus_dir, capsys, monkeypatch):
    real_fit = detectors.fit
    failing = []

    def fit(config, data, *args, **kwargs):  # every fit of the first family drawn fails
        if not failing:
            failing.append(config.algorithm)
        if config.algorithm == failing[0]:
            raise FitError(f"{config.algorithm} unavailable")
        return real_fit(config, data, *args, **kwargs)

    monkeypatch.setattr(detectors, "fit", fit)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"retries": 0}))
    args = ["rank", "--config", str(cfg), "--dataset", str(corpus_dir / "halo.csv"), "--n-candidates", "4"]
    rc = main(args + ["--seed", "5", "--hv-samples", "1000", "--out", str(tmp_path / "r")])
    payload = json.loads(capsys.readouterr().out)
    assert 0 < len(payload["candidates"]) < 4
    assert rc == EXIT_PARTIAL


def test_rank_replaces_a_candidate_over_its_detector_budget(tmp_path, corpus_dir, capsys, monkeypatch):
    slow = features.random_draw(5, "halo", 0, "candidate")(0)
    real = detectors._FITTERS[slow.algorithm]
    slept = []

    def sleepy(X, params, seed):  # the family's first fit, candidate 0's, sleeps past the budget
        if not slept:
            slept.append(seed)
            time.sleep(2.5)
        return real(X, params, seed)

    monkeypatch.setitem(detectors._FITTERS, slow.algorithm, sleepy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"retries": 0, "detector_budget_s": 1.0, "mc_cv_repetitions": 3}))
    log = tmp_path / "events.jsonl"
    args = ["rank", "--config", str(cfg), "--dataset", str(corpus_dir / "halo.csv"), "--n-candidates", "4"]
    rc = main(args + ["--seed", "5", "--hv-samples", "1000", "--out", str(tmp_path / "r"), "--log-file", str(log)])
    assert len(json.loads(capsys.readouterr().out)["candidates"]) == 3
    events = [e for e in log_events(log) if e["event"].startswith("candidate_")]
    assert [{k: e[k] for k in ("event", "index", "attempt", "config", "budget_s")} for e in events[:1]] == [
        {"event": "candidate_timeout", "index": 0, "attempt": 0, "config": slow.config_id, "budget_s": 1.0}
    ]
    assert events[1:] == [{"event": "candidate_skipped", "dataset": "halo", "index": 0, "retries": 0}]
    assert rc == EXIT_PARTIAL


@pytest.mark.parametrize("count", ("0", "-3"))
def test_rank_rejects_fewer_than_one_candidate(tmp_path, corpus_dir, count):
    rc = main(["rank", "--dataset", str(corpus_dir / "halo.csv"), "--n-candidates", count, "--out", str(tmp_path / "r")])
    assert rc == EXIT_CONFIG


def test_rank_meta_requires_model(tmp_path, corpus_dir):
    rc = main(
        ["rank", "--dataset", str(corpus_dir / "halo.csv"), "--method", "meta", "--out", str(tmp_path / "r")]
    )
    assert rc == EXIT_CONFIG


def test_rank_meta_with_model(tmp_path, corpus_dir, capsys):
    main(
        ["assimilate", "--datasets", str(corpus_dir / "twin_blobs.csv"), str(corpus_dir / "halo.csv")]
        + fast_flags(tmp_path)
    )
    model = tmp_path / "model.json"
    main(
        [
            "train-meta",
            "--meta-dataset", str(tmp_path / "run" / "twin_blobs" / "meta.csv"),
            str(tmp_path / "run" / "halo" / "meta.csv"),
            "--model-out", str(model),
        ]
    )
    capsys.readouterr()
    rc = main(
        [
            "rank",
            "--dataset", str(corpus_dir / "halo.csv"),
            "--method", "meta",
            "--model", str(model),
            "--n-candidates", "3",
            "--seed", "5",
            "--hv-samples", "1500",
            "--out", str(tmp_path / "r"),
        ]
    )
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "meta"
    assert len(payload["provenance"]) == 64  # sha256 of the model file


def fail_family(monkeypatch, algorithm):
    """Make every fit of one detector family raise FitError."""

    def fitter(X, params, seed):
        raise FitError(f"{algorithm} unavailable")

    monkeypatch.setitem(detectors._FITTERS, algorithm, fitter)


def log_events(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_assimilate_exits_partial_when_a_landmark_fails(tmp_path, corpus_dir, monkeypatch):
    fail_family(monkeypatch, "hbos")
    log = tmp_path / "events.jsonl"
    rc = main(
        ["assimilate", "--datasets", str(corpus_dir / "halo.csv"), "--log-file", str(log)]
        + fast_flags(tmp_path)
    )
    failed = [e["algorithm"] for e in log_events(log) if e["event"] == "landmark_failed"]
    assert failed == ["hbos"]
    with open(tmp_path / "run" / "halo" / "meta.csv") as fh:
        assert len(fh.read().strip().splitlines()) == 1 + 3  # no instance skipped: the landmark alone
    assert rc == EXIT_PARTIAL


def test_rank_meta_exits_partial_when_a_landmark_fails(tmp_path, corpus_dir, capsys, monkeypatch):
    main(
        ["assimilate", "--datasets", str(corpus_dir / "twin_blobs.csv"), str(corpus_dir / "halo.csv")]
        + fast_flags(tmp_path)
    )
    model = tmp_path / "model.json"
    main(
        [
            "train-meta",
            "--meta-dataset", str(tmp_path / "run" / "twin_blobs" / "meta.csv"),
            str(tmp_path / "run" / "halo" / "meta.csv"),
            "--model-out", str(model),
        ]
    )
    fail_family(monkeypatch, "hbos")
    capsys.readouterr()
    args = ["rank", "--dataset", str(corpus_dir / "halo.csv"), "--n-candidates", "3", "--seed", "5"]
    args += ["--hv-samples", "1000", "--out", str(tmp_path / "r")]
    log = tmp_path / "events.jsonl"
    rc = main(args + ["--method", "meta", "--model", str(model), "--log-file", str(log)])
    assert len(json.loads(capsys.readouterr().out)["candidates"]) == 3  # no candidate skipped
    assert [e["algorithm"] for e in log_events(log) if e["event"] == "landmark_failed"] == ["hbos"]
    assert rc == EXIT_PARTIAL
    assert main(args + ["--method", "linear"]) == EXIT_OK  # the linear score uses no landmark


def test_rank_deterministic_given_seed(tmp_path, corpus_dir, capsys):
    args = [
        "rank",
        "--dataset", str(corpus_dir / "twin_blobs.csv"),
        "--method", "linear",
        "--n-candidates", "3",
        "--seed", "9",
        "--hv-samples", "1000",
        "--out", str(tmp_path / "r"),
    ]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_hv_estimate_json_contract(tmp_path, corpus_dir, capsys):
    det = tmp_path / "det.json"
    det.write_text(
        json.dumps(
            {"algorithm": "knn", "params": {"k": 5, "aggregation": "largest"}, "contamination": 0.1, "seed": 0}
        )
    )
    rc = main(
        [
            "hv-estimate",
            "--dataset", str(corpus_dir / "halo.csv"),
            "--detector-config", str(det),
            "--samples", "5000",
            "--seed", "1",
            "--out", str(tmp_path / "h"),
        ]
    )
    assert rc == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"fraction", "std_error", "n_samples", "ball"}
    assert payload["n_samples"] == 5000
    assert 0.0 <= payload["fraction"] <= 1.0
    assert set(payload["ball"]) == {"center", "radius"}


def test_hv_estimate_draws_no_mc_cv_split(tmp_path, corpus_dir, monkeypatch, capsys):
    """hv-estimate never reads the MC-CV splits, so it draws none; rank does."""
    drawn = []
    real_rng = features.rng_from
    monkeypatch.setattr(features, "rng_from", lambda *parts: drawn.append(parts) or real_rng(*parts))
    config = json.dumps({"algorithm": "hbos", "params": {"n_bins": 10}, "contamination": 0.1, "seed": 0})
    common = ["--dataset", str(corpus_dir / "halo.csv"), "--seed", "2", "--out", str(tmp_path / "h")]
    assert main(["hv-estimate", "--detector-config", config, "--samples", "1000"] + common) == EXIT_OK
    assert not [parts for parts in drawn if "mccv" in parts]
    assert main(["rank", "--n-candidates", "1", "--hv-samples", "1000"] + common) == EXIT_OK
    assert [parts[-1] for parts in drawn if "mccv" in parts] == list(range(10))


def test_hv_estimate_inline_config(tmp_path, corpus_dir, capsys):
    inline = json.dumps(
        {"algorithm": "hbos", "params": {"n_bins": 10}, "contamination": 0.1, "seed": 0}
    )
    rc = main(
        [
            "hv-estimate",
            "--dataset", str(corpus_dir / "halo.csv"),
            "--detector-config", inline,
            "--samples", "2000",
            "--out", str(tmp_path / "h"),
        ]
    )
    assert rc == EXIT_OK


def test_bad_config_file_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"unknown_key": 1}))
    assert main(["assimilate", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_random_detectors", 2.5),
        ("hv_samples", 500.5),
        ("mc_cv_repetitions", 2.5),
        ("mc_cv_repetitions", True),
        ("retries", 1.5),
        ("landmark_budget_s", "10"),
        ("label_column", 5),
        ("jobs", 1.5),
        ("seed", 1.5),
        ("split_fractions", [0.5, 0.5]),
        ("split_fractions", 0.7),
        ("datasets", "halo.csv"),
    ],
)
def test_wrongly_typed_config_value_is_config_error(tmp_path, corpus_dir, key, value):
    cfg = tmp_path / "cfg.json"
    base = {"datasets": [str(corpus_dir / "halo.csv")], "hv_samples": 1000, "n_random_detectors": 2, "mc_cv_repetitions": 2}
    cfg.write_text(json.dumps({**base, key: value}))
    assert main(["assimilate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_CONFIG


@pytest.mark.parametrize("labeled", (False, True))
def test_hv_estimate_scores_the_points_rank_scores(tmp_path, capsys, monkeypatch, labeled):
    """hv-estimate's fraction is the HV of the config on the samples rank
    featurizes its candidates on; a labeled CSV's every row is taken as normal."""
    rng = np.random.default_rng(3)
    path = tmp_path / "field.csv"
    X = rng.standard_normal((150, 3))
    if labeled:
        labels = (np.arange(150) % 10 == 0).astype(int)
        X[labels == 1] += 6.0
        np.savetxt(path, np.column_stack([X, labels]), delimiter=",", header="a,b,c,label", comments="")
    else:
        np.savetxt(path, X, delimiter=",", header="a,b,c", comments="")
    config = detectors.DetectorConfig.from_json(
        json.dumps({"algorithm": "knn", "params": {"k": 5, "aggregation": "largest"}, "contamination": 0.1, "seed": 0})
    )
    log = tmp_path / "events.jsonl"
    argv = ["hv-estimate", "--dataset", str(path), "--detector-config", config.to_json(), "--samples", "3000", "--seed", "4"]
    assert main(argv + ["--out", str(tmp_path / "h"), "--log-file", str(log)]) == EXIT_OK
    fraction = json.loads(capsys.readouterr().out)["fraction"]
    ignored = [e for e in log_events(log) if e["event"] == "labeled_anomalies_ignored"]
    assert ignored == ([{"event": "labeled_anomalies_ignored", "dataset": "field", "count": 15}] if labeled else [])

    seen = []
    real_samples = pipeline._samples
    monkeypatch.setattr(pipeline, "_samples", lambda *args: seen.append(real_samples(*args)) or seen[-1])
    data = dataset.load_csv(str(path), "label", labels_required=False)
    cfg = pipeline.RunConfig(seed=4, hv_samples=3000, mc_cv_repetitions=2)
    pipeline.rank_candidates(data, cfg, "linear", n_candidates=1)
    [samples] = seen
    assert samples.train.n == 150
    assert fraction == estimate_hypervolume(detectors.fit(config, samples.train), samples.ball, 3000).fraction


def test_rank_candidate_config_runs_in_hv_estimate(tmp_path, corpus_dir, capsys):
    """A config as rank prints it, config_id included, passes to hv-estimate;
    a misspelt key or another config's id is a config error."""
    halo = str(corpus_dir / "halo.csv")
    common = ["--dataset", halo, "--out", str(tmp_path / "r")]
    assert main(["rank", *common, "--n-candidates", "1", "--hv-samples", "1000"]) == EXIT_OK
    config = json.loads(capsys.readouterr().out)["candidates"][0]["config"]
    for change, expected in (({}, EXIT_OK), ({"sede": 3}, EXIT_CONFIG), ({"config_id": "knn-0"}, EXIT_CONFIG)):
        argv = ["hv-estimate", *common, "--samples", "500", "--detector-config", json.dumps({**config, **change})]
        assert main(argv) == expected, change
    assert "config_id 'knn-0' is not this config's id" in capsys.readouterr().err


def test_config_file_with_overrides(tmp_path, corpus_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "datasets": [str(corpus_dir / "halo.csv")],
                "hv_samples": 1500,
                "n_random_detectors": 2,
                "mc_cv_repetitions": 2,
                "seed": 4,
            }
        )
    )
    rc = main(["assimilate", "--config", str(cfg), "--out", str(tmp_path / "cfgrun")])
    assert rc == EXIT_OK
    assert (tmp_path / "cfgrun" / "halo" / "meta.csv").exists()


def test_every_run_config_flag_overrides_its_config_key(tmp_path):
    """Each flag of each command whose dest is a RunConfig field overrides
    that key of a --config file, and leaves it be when not given; an empty
    --datasets keeps the file's list."""
    fields = pipeline.RunConfig.__dataclass_fields__
    # per field type: the file's value and the flag's text, both valid for every field of the type
    values = {int: (3, "7"), float: (0.25, "0.5"), str: ("from-file", "from-flag"), tuple: (["a.csv"], "b.csv")}
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    checked = set()
    for command, sub in commands.items():
        required = [arg for a in sub._actions if a.required for arg in (a.option_strings[0], "x")]
        for action in sub._actions:
            if action.dest not in fields:
                continue
            kind = type(fields[action.dest].default)
            file_value, text = values[kind]
            cfg = tmp_path / f"{command}-{action.dest}.json"
            cfg.write_text(json.dumps({action.dest: file_value}))

            def loaded(*flag):
                args = parser.parse_args([command, *required, "--config", str(cfg), *flag])
                return getattr(cli._load_run_config(args), action.dest)

            flag = action.option_strings[0]
            if kind is tuple:
                assert loaded(flag, text) == (text,) and loaded(flag) == loaded() == tuple(file_value), command
            else:
                assert loaded(flag, text) == kind(text) and loaded() == file_value, (command, flag)
            checked.add(action.dest)
    assert checked == {
        "datasets", "label_column", "seed", "hv_samples", "mc_cv_repetitions", "n_random_detectors",
        "landmark_budget_s", "detector_budget_s", "cherry_threshold", "out_dir", "jobs",
    }


def test_every_output_file_is_written_by_write_text(tmp_path, monkeypatch, capsys):
    """Each file a command creates, except the --log-file, goes through
    util.write_text, so each is written to a temporary file and renamed."""
    written = []
    real_write = util.write_text

    def recording(path, text):
        written.append(str(path))
        real_write(path, text)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("adselect") and getattr(module, "write_text", None) is real_write:
            monkeypatch.setattr(module, "write_text", recording)
    run = tmp_path / "run"
    data, out, model = run / "data", run / "out", run / "model.json"
    log = run / "events.log"
    run.mkdir()
    metas = [str(out / name / "meta.csv") for name in ("halo", "twin_blobs")]
    small = ["--hv-samples", "1000", "--mc-cv-repetitions", "2"]
    hbos = json.dumps({"algorithm": "hbos", "params": {"n_bins": 10}, "contamination": 0.1, "seed": 0})
    commands = [
        ["make-corpus", "--out", str(data), "--names", "halo", "twin_blobs"],
        ["assimilate", "--datasets", str(data / "halo.csv"), str(data / "twin_blobs.csv"), "--out", str(out),
         "--n-detectors", "2", *small],
        ["evaluate", "--out", str(out)],
        ["train-meta", "--meta-dataset", *metas, "--model-out", str(model)],
        ["predict", "--model", str(model), "--instances", metas[0], "--predictions-out", str(run / "preds.csv")],
        ["predict", "--model", str(model), "--instances", metas[1]],
        ["rank", "--dataset", str(data / "halo.csv"), "--method", "meta", "--model", str(model),
         "--n-candidates", "2", "--hv-samples", "1000", "--out", str(out)],
        ["hv-estimate", "--dataset", str(data / "halo.csv"), "--samples", "1000", "--out", str(out),
         "--detector-config", hbos],
    ]
    for argv in commands:
        assert main(argv + ["--seed", "2", "--log-file", str(log)]) in (EXIT_OK, EXIT_PARTIAL), argv[0]
    created = {os.path.join(d, f) for d, _, files in os.walk(run) for f in files} - {str(log)}
    # 2 corpus CSVs, 5 files per dataset, the assimilation manifest, 2 reports, table, aggregates, model, predictions
    assert len(created) == 2 + 2 * 5 + 1 + 2 + 2 + 1 + 1
    assert created <= set(written)
