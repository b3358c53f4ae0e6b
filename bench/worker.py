"""One repetition of one workload, in a fresh process.

Usage: python3 bench/worker.py '<json spec>'

The spec names the workload, workload seed, repetition directory, source
directory and whether to trace. The worker imports adselect and generates
the inputs (set-up), runs the workload's CLI commands in-process through
``adselect.cli.main`` between two runs of a machine-speed probe, checks
the outputs and writes ``result.json`` into the repetition directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402


def _probe_times(jobs: int) -> list[float]:
    """Seconds for `jobs` threads to each run a fixed mix of work, 3 times.

    The mix is an interpreter loop plus small numpy products and sorts, run
    on as many threads as the program's own pool. The machine's speed
    drifts with load from outside it; timing this probe next to each
    repetition lets end-to-end times be scaled to a reference speed. It
    uses no adselect code, so no change to the program moves it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2000, 4)), rng.normal(size=(300, 4))

    def work(_: int) -> None:
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(7):
            np.argsort(a @ b.T, axis=1)

    times = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for _ in range(3):
            t0 = time.perf_counter()
            list(pool.map(work, range(jobs)))
            times.append(time.perf_counter() - t0)
    return times


def _run_cli(main, argv: list[str], stdout_path: str) -> int:
    """One CLI command with its stdout captured to a file; log handlers closed after."""
    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        finally:
            log = logging.getLogger("adselect")
            for h in list(log.handlers):
                h.close()
                log.removeHandler(h)
    return code


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.encode("utf-8") + b"\0")
        with open(p, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _events(path: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("{"):
                    name = json.loads(line).get("event", "?")
                    counts[name] = counts.get(name, 0) + 1
    return counts


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    os.chdir(spec["rep_dir"])

    import adselect
    import adselect.cli

    if not os.path.realpath(adselect.__file__).startswith(src + os.sep):
        print(f"adselect imported from {adselect.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import ATTEMPT_FAILURES, OTHER_FAILURES, REPLACEMENTS, SKIPS, WORKLOADS

    wl = WORKLOADS[spec["workload"]]
    seed = int(spec["seed"])
    problems: list[str] = []
    setup_cmds = wl.setup(seed)
    for i, argv in enumerate(setup_cmds):
        if _run_cli(adselect.cli.main, argv, f"setup{i}.stdout") != 0:
            problems.append(f"set-up command {argv[0]} failed")
    setup_s = time.perf_counter() - T_START
    probe = _probe_times(wl.jobs)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(wl.name)
        for target in tracer.install():
            print(f"trace: target not found: {target}", file=sys.stderr)

    stages: dict[str, float] = {}
    codes: dict[str, int] = {}
    for stage, argv in wl.commands(seed):
        t0 = time.perf_counter()
        if tracer is None:
            code = _run_cli(adselect.cli.main, argv, f"{stage}.stdout")
        else:
            with tracer.span(f"cli.{stage}"):
                code = _run_cli(adselect.cli.main, argv, f"{stage}.stdout")
        stages[stage] = time.perf_counter() - t0
        codes[stage] = code
        if code != 0:
            problems.append(f"{argv[0]} exited with code {code}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe += _probe_times(wl.jobs)

    events = _events("events.jsonl")
    if events.get("assimilate_skipped"):
        problems.append("assimilate reused a cached result (manifest hit)")
    outcome = wl.check()
    problems.extend(outcome.problems)
    attempt_failures = sum(events.get(e, 0) for e in ATTEMPT_FAILURES)
    attempts = outcome.featurized + attempt_failures
    attempted = len(codes) + attempts
    failed = (
        sum(1 for c in codes.values() if c != 0)
        + attempt_failures
        + sum(events.get(e, 0) for e in OTHER_FAILURES)
        + len(outcome.problems)
    )

    result = {
        "setup_s": setup_s,
        "probe_s": statistics.median(probe),
        "wall_s": sum(stages.values()),
        "stages": stages,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "featurized": outcome.featurized,
        "trees": outcome.trees,
        "features": {
            "attempts": attempts,
            "replaced": sum(events.get(e, 0) for e in REPLACEMENTS),
            "skipped": sum(events.get(e, 0) for e in SKIPS),
            "useful_ratio": outcome.featurized / attempts if attempts else 1.0,
        },
        "digest": _digest(outcome.outputs) if not outcome.problems else "",
    }
    if tracer is not None:
        from tracer import layer_metrics

        layers = layer_metrics(tracer.spans)
        result["layers"] = layers
        result["spans"] = [vars(s) for s in tracer.spans]
        result["selfcheck"] = _self_check(
            wl, layers, tracer.spans, outcome.featurized, attempt_failures, outcome.trees
        )

    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _self_check(wl, layers: dict, spans: list, featurized: int, failed_attempts: int, trees: int) -> list[str]:
    """Trace counts against what the workload's outputs imply.

    Fits = featurized x (1 + MC-CV repetitions) + failed attempts, HV samples
    = hv_samples x featurized, trees as grown by the commands. A failed
    attempt fits 1 to 1 + repetitions times, so with failures the fit count
    only has to fall in that range.
    """
    from tracer import FAMILIES, SpanIndex

    ix = SpanIndex(spans)
    problems = []
    fits = sum(layers[f"detectors.fits.{f}"] for f in FAMILIES)
    public_fits = len(ix.named("detectors.fit"))
    if public_fits != fits:
        problems.append(f"{fits} family fits but {public_fits} traced detectors.fit calls")
    per = 1 + wl.mc_cv_repetitions
    lo = featurized * per + failed_attempts
    hi = featurized * per + failed_attempts * max(per, 1)
    if not lo <= fits <= hi:
        problems.append(f"fits {fits}, expected {lo}" + (f"..{hi}" if hi != lo else ""))
    samples = layers["hypervolume.samples"]
    want = wl.hv_samples * featurized
    if samples < want or (failed_attempts == 0 and samples != want):
        problems.append(f"HV samples {samples}, expected {want}")
    hv_points = sum(
        s.attrs.get("points", 0) for s in ix.named("detectors.TrainedDetector.scores")
        if ix.has_ancestor(s, lambda p: p.name == "hypervolume.estimate_hypervolume")
    )
    if hv_points != samples:
        problems.append(f"{hv_points} points scored inside HV estimates, {samples} samples requested")
    if layers["metamodel.trees"] != trees:
        problems.append(f"trees {layers['metamodel.trees']}, expected {trees}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
