"""Fingerprint comparison and job judging.

Pure Python: the orchestrator imports this without importing ``rispaces``,
so every repetition's package state lives only in its own worker process.

A fingerprint maps a job id to a dict.  Identity jobs carry ``max_ratio``,
``min_ratio``, ``median_ratio``, ``members``, ``drift``, ``pass`` and the
per-member ``ratios``; an ``explicit-k`` job carries the per-member ``ratios``
of its one member, and each couple adds a ``<couple> bracket`` entry with
``bracket``, ``drift`` and ``pass``.  A job that raised has ``error`` instead.

Values keyed by a seed-independent member (every member but the ``rand_*``
ones) are compared on every seed; whole-job scalars, which mix in the seeded
random members, only on the reference seed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

RATIO_KEYS = ("max_ratio", "min_ratio", "median_ratio", "bracket")
RATIO_REL_TOL = 1e-9
# drift is a difference of nearly equal numbers: a 1e-10 relative change of a
# ratio moves it by ~1e-5 relative, so it is compared by absolute difference
DRIFT_ABS_TOL = 1e-8
# the package's own gates (config.DEFAULT_CEILING and EquivReport.finalize)
BRACKET_CEILING = 64.0
DRIFT_GATE = 0.05


def seeded_member(name: str) -> bool:
    return name.startswith("rand_")


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(fp: dict, ref: dict, same_seed: bool) -> List[str]:
    """Mismatches between one job's fingerprint and its reference entry."""
    problems = []
    if same_seed:
        for key in RATIO_KEYS:
            if key in ref and not _rel_diff(fp.get(key, math.nan), ref[key]) <= RATIO_REL_TOL:
                problems.append(f"{key} {fp.get(key)!r} != reference {ref[key]!r}")
        if "drift" in ref and not abs(fp.get("drift", math.nan) - ref["drift"]) <= DRIFT_ABS_TOL:
            problems.append(f"drift {fp.get('drift')!r} != reference {ref['drift']!r}")
        for key in ("members", "pass"):
            if key in ref and fp.get(key) != ref[key]:
                problems.append(f"{key} {fp.get(key)!r} != reference {ref[key]!r}")
    ratios = fp.get("ratios", {})
    for name, want in ref.get("ratios", {}).items():
        if seeded_member(name) and not same_seed:
            continue
        got = ratios.get(name, math.nan)
        if not _rel_diff(got, want) <= RATIO_REL_TOL:
            problems.append(f"ratio of {name} {got!r} != reference {want!r}")
    return problems


def gate_problems(fp: dict) -> List[str]:
    """The program's own verdict: finite values, bracket and drift gates."""
    problems = []
    for key in RATIO_KEYS + ("drift",):
        if key in fp and not (isinstance(fp[key], (int, float)) and math.isfinite(fp[key])):
            problems.append(f"non-finite {key} {fp[key]!r}")
    for name, value in fp.get("ratios", {}).items():
        if not math.isfinite(value):
            problems.append(f"non-finite ratio of {name}")
    if "pass" in fp and not fp["pass"]:
        problems.append("bracket or drift gate failed")
    return problems


def couple_summaries(records: List[dict]) -> Dict[str, dict]:
    """AC4-style bracket and drift per couple from explicit-k job records.

    A job record carries ``group`` (the couple) and ``level`` (``base`` or
    ``doubled``); its fingerprint holds its member's oracle/explicit bracket.
    """
    worst: Dict[str, Dict[str, float]] = {}
    for rec in records:
        if "group" not in rec:
            continue
        levels = worst.setdefault(rec["group"], {"base": 0.0, "doubled": 0.0})
        for value in rec.get("fingerprint", {}).get("ratios", {}).values():
            levels[rec["level"]] = max(levels[rec["level"]], value)
    out = {}
    for group, levels in worst.items():
        base, fine = levels["base"], levels["doubled"]
        drift = abs(fine - base) / base if base > 0 else math.nan
        ok = 0.0 < base <= BRACKET_CEILING and drift < DRIFT_GATE
        out[f"{group} bracket"] = {"bracket": base, "drift": drift, "pass": bool(ok)}
    return out


def judge(records: List[dict], reference: Optional[dict], same_seed: bool) -> dict:
    """Mark failed jobs and decide whether every failure is a known one.

    A job fails if it raised, returned a non-finite value, failed its gate or
    differs from the reference.  ``correct`` stays true only while every failed
    job is one the reference records as raising that same exception type.
    """
    reference = reference or {}
    summaries = couple_summaries(records)
    failures = []
    for rec in records:
        ref = reference.get(rec["id"], {})
        if "error" in rec:
            known = ref.get("error") == rec["error"]
            failures.append({"job": rec["id"], "reason": f"raised {rec['error']}: {rec['message']}",
                             "known": known})
            continue
        problems = gate_problems(rec["fingerprint"])
        if "group" in rec:
            summary_id = f"{rec['group']} bracket"
            problems += gate_problems(summaries[summary_id])
            problems += compare(summaries[summary_id], reference.get(summary_id, {}), same_seed)
        if "error" not in ref:
            problems += compare(rec["fingerprint"], ref, same_seed)
        if problems:
            failures.append({"job": rec["id"], "reason": "; ".join(problems), "known": False})
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "correct": all(f["known"] for f in failures),
    }


def fingerprints(records: List[dict]) -> Dict[str, dict]:
    """Job id -> fingerprint (or raised exception type), plus couple summaries."""
    out = {}
    for rec in records:
        out[rec["id"]] = {"error": rec["error"]} if "error" in rec else rec["fingerprint"]
    out.update(couple_summaries(records))
    return out
