"""adselect benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload assimilate-corpus --seed 1 --seconds 55 --trace 0

Each repetition is a fresh worker process (bench/worker.py) that sets up
its inputs from the seed, runs the workload's CLI commands and checks the
outputs. Repetitions start while they are expected to end within
--seconds; every metric is the median over repetitions. All repetitions
of one run must produce byte-identical outputs.

End-to-end times and rates are given at a reference machine speed: each
repetition also times a fixed probe loop before and after its commands,
and a run's median times are scaled by PROBE_REF_S / its median probe
time. The 2-vCPU VM this was tuned on drifts by up to ±25% between minutes
under outside load; the probe follows that drift. The raw median wall
time and the probe time are printed as well.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 untraced and traced repetitions alternate: the traced ones
give the per-layer metrics, the untraced ones the command timings and the
difference between the two the tracing overhead. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3  # repetitions of a --trace 0 run
MIN_TRACED = 2  # repetitions of each kind in a --trace 1 run
DEADLINE_S = 160.0  # start no repetition that could end after this
BLAS_THREADS = 1
PROBE_REF_S = 0.1  # probe seconds that define the reference machine speed


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _environment(root: str, jobs: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": jobs,
        "blas_threads": BLAS_THREADS,
    }


def _run_worker(spec: dict, env: dict, timeout: float) -> dict:
    os.makedirs(spec["rep_dir"])
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    result_path = os.path.join(spec["rep_dir"], "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _end_to_end(reps: list[dict], speed: float) -> dict[str, float]:
    """Medians over repetitions; times are multiplied and rates divided by speed."""
    stage = lambda r, k: r["stages"].get(k, 0.0)  # noqa: E731
    m: dict[str, float] = {
        "setup_s": speed * _median([r["setup_s"] for r in reps]),
        "wall_s": speed * _median([r["wall_s"] for r in reps]),
        "raw_wall_s": _median([r["wall_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }
    for k in ("assimilate", "evaluate", "train_meta", "rank"):
        m[f"{k}_s"] = speed * _median([stage(r, k) for r in reps])
    featurize = [stage(r, "assimilate") + stage(r, "rank") for r in reps]
    model = [stage(r, "evaluate") + stage(r, "train_meta") for r in reps]
    m["detectors_per_s"] = _median(
        [r["featurized"] / t if t > 0 else 0.0 for r, t in zip(reps, featurize)]
    ) / speed
    m["trees_per_s"] = _median([r["trees"] / t if t > 0 else 0.0 for r, t in zip(reps, model)]) / speed
    attempted = sum(r["attempted"] for r in reps)
    m["failed_frac"] = sum(r["failed"] for r in reps) / attempted if attempted else 0.0
    return m


def _per_layer(untraced: list[dict], traced: list[dict], speed: float) -> dict[str, float]:
    m = _end_to_end(untraced, speed)
    for key in traced[0]["layers"]:
        m[key] = _median([r["layers"][key] for r in traced])
    for key in traced[0]["features"]:
        m[f"features.{key}"] = _median([r["features"][key] for r in traced])
    overhead = speed * _median([r["wall_s"] for r in traced]) - m["wall_s"]
    m["trace.overhead_s"] = overhead
    m["trace.overhead_frac"] = overhead / m["wall_s"]
    return m


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "adselect", "__init__.py")):
        return _fail(f"no adselect sources under {src}; run from the repository root")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if wl.jobs > len(os.sched_getaffinity(0)):
        return _fail(f"{args.workload} needs {wl.jobs} CPUs")
    # One BLAS thread per worker keeps jobs x BLAS pool within nproc on any
    # machine; the program parallelises through --jobs, and its matrices are
    # too small for a BLAS pool to pay for its spinning.
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    info = _environment(root, wl.jobs)
    print("environment: " + json.dumps(info, sort_keys=True))

    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    t_begin = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        # compile the package once so no repetition pays for bytecode
        subprocess.run([sys.executable, "-c", "import adselect.cli"], env=env, check=True, timeout=60)
        durations: list[float] = []
        while True:
            elapsed = time.perf_counter() - t_begin
            if args.trace:
                done = min(len(untraced), len(traced)) >= MIN_TRACED
                do_trace = len(traced) < len(untraced)
            else:
                done = len(untraced) >= MIN_REPS
                do_trace = False
            # start no repetition expected to end after --seconds
            expected_end = elapsed + (_median(durations) if durations else 0.0)
            if expected_end + max(durations, default=0.0) > DEADLINE_S:
                if not done:
                    return _fail(f"repetitions too slow to finish within {DEADLINE_S:.0f} s")
                break
            if done and expected_end > args.seconds:
                break
            n = len(untraced) + len(traced)
            rep = {
                "workload": args.workload, "seed": args.seed, "src": src, "trace": do_trace,
                "rep_dir": os.path.join(work, f"rep{n}"),
            }
            t0 = time.perf_counter()
            result = _run_worker(rep, env, timeout=max(1.0, DEADLINE_S + 15 - elapsed))
            durations.append(time.perf_counter() - t0)
            (traced if do_trace else untraced).append(result)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        return _fail(f"repetition failed: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    if traced:
        trace_path = os.path.join(os.path.dirname(work), f"trace-{args.workload}-{args.seed}.jsonl")
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as fh:
            for i, r in enumerate(traced):
                for span in r.pop("spans"):
                    fh.write(json.dumps({"rep": i, **span}) + "\n")
        print(f"spans written to {os.path.relpath(trace_path, root)}")

    reps = untraced + traced
    problems = sorted({p for r in reps for p in r["problems"]})
    problems += sorted({p for r in traced for p in r["selfcheck"]})
    digests = sorted({r["digest"] for r in reps})
    if len(digests) != 1:
        problems.append(f"outputs differ between repetitions: {len(digests)} distinct digests")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced repetitions; output sha256 {digests[0] if len(digests) == 1 else digests}")
    for p_ in problems:
        print(f"CHECK FAILED: {p_}")
    if args.trace:
        print("trace self-check: " + ("ok" if not any(r["selfcheck"] for r in traced) else "FAILED"))

    probe_s = _median([r["probe_s"] for r in reps])
    speed = PROBE_REF_S / probe_s
    print(f"probe {probe_s:.6g} s (median of {len(reps)}); times scaled by {speed:.6g}")
    values = _per_layer(untraced, traced, speed) if args.trace else _end_to_end(untraced, speed)
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            problems.append(f"metric {name} not measured")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    units["raw_wall_s"] = "s (unscaled)"
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
