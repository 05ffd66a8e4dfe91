"""Fast self-test of the benchmark on tiny families.

    python3 -m pytest perfbench

Runs repetitions in this process at a tiny resolution, so the numbers are not
the benchmark's; what is checked is the plumbing: metric names and units,
failure counting, cache-reuse measurement and the bare-checkout exit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import judge  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from rispaces import equivharness, kfunctional  # noqa: E402
from rispaces.config import Resolution  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)
with open(os.path.join(HERE, "reference.json")) as fh:
    SEED = json.load(fh)["seed"]
TINY = Resolution(panels=24, sup_count=128, k_nodes=12)
UNTRACED = (equivharness.run_identity_experiment, equivharness.k_curve, kfunctional.k_curve)


def tiny(workload, tag, trace=False):
    return worker.repetition(workload, SEED, f"test-{tag}", trace=trace, res=TINY)


@pytest.fixture(scope="module")
def traced():
    return {w["name"]: tiny(w["name"], "traced", trace=True) for w in DECLARED["workloads"]}


def test_every_metric_is_emitted_with_its_unit(traced):
    units = dict(tracer.metric_units(), **run.END_TO_END_UNITS, **run.TRACE_UNITS)
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert units.get(metric["name"]) == metric["unit"], metric
    for workload, rep in traced.items():
        plain = tiny(workload, "plain")
        verdict = judge.judge(plain["records"], {}, same_seed=True)
        metrics = run.summarize([plain], [rep], [(0.1, plain["calibration_s"])], [verdict])
        assert set(metrics) == set(units), workload
        for name, (value, unit) in metrics.items():
            assert unit == units[name] and value == value, (workload, name)


def test_oracle_lines_repeat_only_on_the_sweep(traced):
    ratio = {w: rep["per_layer"]["kfunctional.oracle_lines.repeat_ratio"] for w, rep in traced.items()}
    assert ratio["identity-cold"] == 0.0
    assert ratio["theta-sweep"] > 0.0
    assert traced["explicit-k"]["per_layer"]["kfunctional.k_explicit.calls"] > 0


def test_setup_time_stays_out_of_job_figures(traced):
    for workload, rep in traced.items():
        layer = rep["per_layer"]
        assert layer["rearrangement.realize.s"] > 0.0, workload
        # self times partition the traced job time, set-up spans excluded
        assert sum(layer[f"{n}.self_s"] for n in tracer.LAYERS) <= layer["trace.job_s"], workload


def test_tracer_restores_every_binding(traced):
    assert (equivharness.run_identity_experiment, equivharness.k_curve, kfunctional.k_curve) == UNTRACED


def failed_jobs(verdict):
    return {f["job"] for f in verdict["failures"]}


def test_tampered_fingerprint_is_a_failure():
    # at this resolution some jobs fail their drift gate; tamper with one that passes
    records = tiny("identity-cold", "tamper")["records"]
    reference = judge.fingerprints(records)
    clean = judge.judge(records, reference, same_seed=True)
    job = next(r["id"] for r in records if r["id"] not in failed_jobs(clean))
    reference[job] = dict(reference[job], max_ratio=reference[job]["max_ratio"] * (1 + 1e-6))
    tampered = judge.judge(records, reference, same_seed=True)
    assert failed_jobs(tampered) == failed_jobs(clean) | {job}
    assert not tampered["correct"]
    # on another seed whole-job scalars are not compared, per-member ratios are
    assert failed_jobs(judge.judge(records, reference, same_seed=False)) == failed_jobs(clean)
    member = next(m for m in reference[job]["ratios"] if not judge.seeded_member(m))
    reference[job] = dict(reference[job], ratios=dict(reference[job]["ratios"], **{member: 2.0}))
    assert job in failed_jobs(judge.judge(records, reference, same_seed=False))


def test_injected_exception_is_counted_not_fatal(monkeypatch):
    original = equivharness.run_identity_experiment

    def flaky(theorem_id, *args, **kwargs):
        if theorem_id == "T3.1":
            raise ZeroDivisionError("injected")
        return original(theorem_id, *args, **kwargs)

    monkeypatch.setattr(equivharness, "run_identity_experiment", flaky)
    records = tiny("identity-cold", "inject")["records"]
    assert [r["id"] for r in records] == [j[0] for j in workloads.IDENTITY_JOBS]
    assert [r["id"] for r in records if "error" in r] == ["T3.1"]
    reference = judge.fingerprints(records)
    verdict = judge.judge(records, {}, same_seed=True)
    assert "T3.1" in failed_jobs(verdict) and not verdict["correct"]
    # a failure the reference records as that same exception is a known one
    verdict = judge.judge(records, reference, same_seed=True)
    assert [f["known"] for f in verdict["failures"] if f["job"] == "T3.1"] == [True]


def test_explicit_k_couples_are_summarized():
    records = tiny("explicit-k", "couples")["records"]
    summaries = judge.couple_summaries(records)
    assert sorted(summaries) == sorted(f"{label} bracket" for label, _, _ in workloads.COUPLES)
    assert all(s["bracket"] >= 1.0 and s["drift"] >= 0.0 for s in summaries.values())


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explicit-k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
