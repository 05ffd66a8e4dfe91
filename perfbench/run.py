"""The repository benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload identity-cold --seed 20240801 --seconds 30 --trace 0

Runs repetitions of the workload, each in a fresh worker process so every
cache starts empty, one after another for ``--seconds`` seconds (at least
one).  Every job's result is checked against ``reference.json``.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` untraced, the
per-layer ones with ``--trace 1``.  The lines before it print every metric
with its unit, the failures and the run's metadata; ``perfbench/out/`` gets
the full result, the fingerprints and (traced) the spans.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 11
# the numpy work is small per call; one BLAS thread keeps runs steady
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0
# worker.calibrate() takes this long on a host of speed 1: about its median
# between jobs on a 2-core x86-64 VM with Python 3.11 and numpy 2.4
REFERENCE_CALIBRATION_S = 0.018

sys.path.insert(0, HERE)
import judge  # noqa: E402
from tracer import median_metrics, metric_units  # noqa: E402


class WorkerFailed(RuntimeError):
    pass


def spawn(args, deadline: float) -> tuple:
    """Run one worker to completion; (spawn time, its JSON)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args} passed the run's time limit")
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the worker
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args} exited with {proc.returncode}")
    return start, json.loads(stdout.strip().splitlines()[-1])


def setup_sample(common: list, deadline: float) -> dict:
    """A worker that only sets up; ``ready`` becomes its set-up seconds."""
    spawned, out = spawn(common + ["--setup-only", "--tag", "setup"], deadline)
    out["ready"] -= spawned
    return out


def speed(calibration_s: list) -> float:
    """The host's speed while the calibrations ran: 1 at the reference speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibration_s)


END_TO_END_UNITS = {
    "setup_s": "s",
    "raw_setup_s": "s",
    "members_per_s": "1/s",
    "raw_members_per_s": "1/s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "host.speed": "ratio",
}
TRACE_UNITS = {"trace.members_per_s": "1/s", "trace.overhead": "ratio"}


def raw_members_per_s(reps: list) -> float:
    """Member evaluations per second of job time, over all the repetitions."""
    records = [r for rep in reps for r in rep["records"]]
    return sum(r["members"] for r in records) / sum(r["seconds"] for r in records)


def members_per_s(reps: list) -> float:
    """``raw_members_per_s`` with each job's seconds scaled to a host of speed
    1 by the calibrations run just before and just after the job."""
    members, seconds = 0, 0.0
    for rep in reps:
        cal = rep["calibration_s"]
        for i, r in enumerate(rep["records"]):
            members += r["members"]
            seconds += r["seconds"] * speed(cal[i:i + 2])
    return members / seconds


def summarize(reps: list, traced: list, setups: list, verdicts: list) -> dict:
    """Metric name -> (value, unit) from the workers' outputs and verdicts.

    ``setups`` holds ``(seconds, calibration_s)`` of every untraced worker.
    ``setup_s`` and ``members_per_s`` are scaled to a host of speed 1 (see
    ``speed``), ``raw_setup_s`` and ``raw_members_per_s`` are as measured,
    and ``host.speed`` is the speed over all of the run's calibrations.  Job
    latencies are per job id, each the mean over the run's untraced
    repetitions of that same job.
    """
    by_job: dict = {}
    for rep in reps:
        for r in rep["records"]:
            by_job.setdefault(r["id"], []).append(r["seconds"])
    seconds = [statistics.fmean(v) for v in by_job.values()]
    metrics = {
        # each worker's set-up scaled by the first calibrations after it
        "setup_s": statistics.median(t * speed(cal[:3]) for t, cal in setups),
        "raw_setup_s": statistics.median(t for t, _ in setups),
        "failed_frac": sum(v["failed"] for v in verdicts) / sum(v["attempted"] for v in verdicts),
        "members_per_s": members_per_s(reps),
        "raw_members_per_s": raw_members_per_s(reps),
        "job_p50_s": statistics.median(seconds),
        "peak_rss_mb": statistics.median(rep["maxrss_kb"] for rep in reps) / 1024.0,
        "host.speed": speed([c for _, cal in setups for c in cal]),
    }
    out = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    if traced:
        units = metric_units()
        per_layer = median_metrics([rep["per_layer"] for rep in traced])
        out.update({k: (v, units[k]) for k, v in per_layer.items()})
        rate = members_per_s(traced)
        out["trace.members_per_s"] = (rate, "1/s")
        out["trace.overhead"] = (metrics["members_per_s"] / rate, "ratio")
    return out


def metadata(workload: str, jobs_per_rep: int, reps: list) -> dict:
    src_lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = got.stdout.strip() or commit
        except OSError:
            pass
    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "python": reps[0]["python"],
        "numpy": reps[0]["numpy"],
        "openblas_threads": int(BLAS_THREADS),
        "commit": commit,
        "jobs_per_repetition": jobs_per_rep,
        "repetitions": len(reps),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, default=reference["seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rispaces", "__init__.py")):
        print(f"no rispaces sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + RUN_LIMIT_S

    # repetitions: untraced, or alternating untraced/traced pairs with --trace 1;
    # untraced, half the extra set-up samples come before them and half after,
    # so that the samples span the run as the repetitions do
    reps, traced, setups = [], [], []

    def sample_setup():
        out = setup_sample(common, deadline)
        setups.append((out["ready"], out["calibration_s"]))

    try:
        while not args.trace and len(setups) < SETUP_SAMPLES // 2:
            sample_setup()
        start = time.monotonic()
        while True:
            for with_trace in ((False, True) if args.trace else (False,)):
                extra = ["--tag", f"r{len(reps) + len(traced)}"]
                if with_trace:
                    extra += ["--trace", "--spans", os.path.join(OUT, f"spans-{stem}.json")]
                spawned, out = spawn(common + extra, deadline)
                (traced if with_trace else reps).append(out)
                if not with_trace:
                    setups.append((out["ready"] - spawned, out["calibration_s"]))
            # start another round while it would end within half a round of
            # the time asked for
            elapsed = time.monotonic() - start
            per_round = elapsed / len(reps)
            if elapsed + per_round / 2 > args.seconds or time.monotonic() + 2 * per_round > deadline:
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            sample_setup()
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    expected = reference["workloads"].get(args.workload, {})
    same_seed = args.seed == reference["seed"]
    verdicts = [judge.judge(rep["records"], expected, same_seed) for rep in reps + traced]
    with open(os.path.join(OUT, f"fingerprints-{stem}.json"), "w") as fh:
        json.dump(judge.fingerprints(reps[0]["records"]), fh, indent=1, sort_keys=True)

    metrics = summarize(reps, traced, setups, verdicts)
    jobs = sum(len(rep["records"]) for rep in reps)
    meta = metadata(args.workload, len(reps[0]["records"]), reps)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(reps)} untraced"
          f"{f' + {len(traced)} traced' if args.trace else ''} repetitions,"
          f" {jobs} timed jobs")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    for f in verdicts[0]["failures"]:
        print(f"failed job {f['job']!r} ({'known' if f['known'] else 'unexpected'}): {f['reason']}")
    print("meta " + json.dumps(meta, sort_keys=True))

    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"BENCHMARK.json names metrics this run does not make: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": all(v["correct"] for v in verdicts),
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    with open(os.path.join(OUT, f"result-{stem}-trace{args.trace}.json"), "w") as fh:
        json.dump({"result": result, "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "failures": [f for v in verdicts for f in v["failures"]], "meta": meta},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
