"""One repetition of a workload in a fresh process, so every cache starts empty.

    python3 perfbench/worker.py --workload NAME --seed N --tag T [--trace] [--setup-only]

Imports ``rispaces`` from the ``src/`` next to this directory, realizes the
workload's families at both resolutions, runs the jobs and prints one JSON
object: ``ready`` (the monotonic clock when set-up ended), ``calibration_s``
(the seconds of ``calibrate``, run before each job and after the last, or three
times after set-up with ``--setup-only``), the job records, the peak RSS and,
when traced, the per-layer metrics.  The parent measures set-up
as the time from spawning this process to ``ready``; ``time.monotonic`` reads
one clock shared by every process on the machine.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import rispaces  # noqa: E402

if os.path.dirname(os.path.abspath(rispaces.__file__)) != os.path.join(SRC, "rispaces"):
    raise ImportError(f"imported rispaces from {rispaces.__file__}, not from {SRC}")

import workloads  # noqa: E402
from rispaces.config import Resolution  # noqa: E402
from tracer import SETUP, Tracer  # noqa: E402


def calibrate() -> float:
    """Seconds taken by a fixed piece of work outside rispaces.

    The host's speed drifts by tens of percent within minutes.  Timed next to
    the jobs, this work slows down with them, so the run can scale its times
    to a reference speed; see ``run.REFERENCE_CALIBRATION_S``.  It mixes what
    the jobs spend their time on: interpreted loops, numpy calls on small
    arrays, and 8 MiB of fresh pages, faulted in and then streamed through
    (past the 4 MiB L2).  The pages are mapped here and unmapped before
    returning, so they do not stay in the worker's heap.
    """
    start = time.perf_counter()
    total = sum(j * 0.5 for j in range(40000))
    a = np.linspace(0.001, 1.0, 20000)
    for i in range(10):
        total += float(np.sum(np.log1p(a * i) * np.exp(-a)))
    with mmap.mmap(-1, 8 << 20) as pages:
        big = np.frombuffer(pages, dtype=np.float64)
        big.fill(1.0)
        for _ in range(12):
            np.multiply(big, 1.0001, out=big)
        total += float(big[-1])
        del big
    return time.perf_counter() - start


def repetition(
    workload: str,
    seed: int,
    tag: str,
    trace: bool = False,
    setup_only: bool = False,
    res: Resolution = Resolution(),
    spans: str = None,
) -> dict:
    """Set up and run one repetition in this process; the worker's JSON."""
    tracer = Tracer().install() if trace else None
    try:
        plan = workloads.build_plan(workload, seed, tag, res)
        if tracer is not None:
            tracer.job = SETUP
        plan.setup()
        if tracer is not None:
            tracer.job = None
        out = {"ready": time.monotonic()}
        if setup_only:
            out["calibration_s"] = [calibrate() for _ in range(3)]
            return out
        calibration = []
        records = workloads.run_jobs(plan.jobs, tracer, lambda: calibration.append(calibrate()))
        calibration.append(calibrate())
        out.update(
            calibration_s=calibration,
            records=records,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            python=platform.python_version(),
            numpy=np.__version__,
        )
        if tracer is not None:
            job_seconds = sum(r["seconds"] for r in records)
            out["per_layer"] = tracer.metrics(job_seconds, res.doubled().panels)
            if spans:
                tracer.dump(spans)
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tag", default="r0")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this file")
    args = ap.parse_args(argv)
    out = repetition(args.workload, args.seed, args.tag, args.trace, args.setup_only, spans=args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
