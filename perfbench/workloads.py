"""The three workloads: their families, their jobs, and one repetition's loop.

Every job goes through public ``rispaces`` functions only, looked up on their
module at call time so that a traced run's wrappers see the call.  A
repetition runs its jobs in a closed loop with one client: each job starts
when the previous one has finished, as in an experiment script.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from rispaces import equivharness, kfunctional
from rispaces.config import Resolution
from rispaces.equivharness import FunctionFamily, model_in_space, standard_family
from rispaces.kfunctional import (
    GrandGrand,
    GrandLq,
    GrandSmallSameP,
    LpLq,
    SmallSmall,
    couple_spaces,
)
from rispaces.logcalc import UGrid

# One member of each kind: constant, indicator, power-log, random.  The
# power-log t^0 (1 - Log t)^1 is unbounded, so it has a distinct value on every
# panel (the full cut count of the oracle lines), and it lies in every space
# the nine experiments require.  ``rand_00`` is the one member the seed moves.
SUBSET = ("const", "char_0.125", "plog_g0_d-1", "rand_00")

# The acceptance-suite parameters (tests/test_acceptance.py) where a criterion
# exists; T3.1, T3.4 and T1.3 take the parameters of their siblings.  The third
# entry is the family's q.
IDENTITY_JOBS: Sequence[Tuple[str, dict, float]] = (
    ("T1.1", dict(p=2, q=4, alpha=1.0), 4.0),
    ("T3.1", dict(p=2, q=4, alpha=1.0), 4.0),
    ("T1.2", dict(p=2, q=4, theta=0.5, r=2, alpha=1.0), 4.0),
    ("T3.4", dict(p=2, q=4, theta=0.5, r=2, alpha=1.0), 4.0),
    ("T5.1", dict(p=2, q=4, theta=1.0 / 3.0, r=2), 4.0),
    ("P4.1", dict(p=2, alpha=1.0), math.inf),
    ("P4.2", dict(p=2, q=4, alpha=1.0), 4.0),
    ("T1.3", dict(p=2, theta=0.75, r=2), 2.0),
    ("T6.2", dict(p=2, theta=0.75, r=2), 2.0),
)
SWEEP_IDS = ("T6.2", "T1.3")
SWEEP_THETAS = (0.25, 0.5, 0.75)
SWEEP_RS = (1, 2, 4)
COUPLES = (
    ("lp-lq", LpLq(2, 4), 4.0),
    ("grand-lq", GrandLq(2, 4, 1.0), 4.0),
    ("grand-grand", GrandGrand(2, 4, 1.0), 4.0),
    ("small-small", SmallSmall(2, 4), 4.0),
    ("grand-small", GrandSmallSameP(2), 2.0),
)


@dataclass
class Job:
    """``run`` is timed; ``prepare`` (untimed, untraced) feeds it its input."""

    id: str
    run: Callable[[object], Tuple[int, dict]]
    prepare: Callable[[], object] = lambda: None
    group: Optional[str] = None
    level: Optional[str] = None


@dataclass
class Plan:
    workload: str
    res: Resolution
    families: List[FunctionFamily]
    jobs: List[Job]

    def setup(self) -> None:
        """Realize every family at both resolutions."""
        for family in self.families:
            family.realize(self.res)
            family.realize(self.res.doubled())


def family(q: float, seed: int, name: str) -> FunctionFamily:
    """``standard_family(q, seed)`` under its own name, cut to ``SUBSET``.

    Equal families share one realization and so one set of cached oracle
    lines; the name is what keeps two jobs' families apart.
    """
    members = standard_family(q=q, seed=seed).members
    return FunctionFamily(name, tuple(m for m in members if m[0] in SUBSET))


def _identity_run(tid: str, params: dict, fam: FunctionFamily, res: Resolution):
    def run(_):
        rep = equivharness.run_identity_experiment(tid, params, fam, res)
        outside = sum(1 for s in rep.skipped if s["reason"] == "outside a required space")
        fingerprint = {
            "max_ratio": rep.max_ratio,
            "min_ratio": rep.min_ratio,
            "median_ratio": rep.median_ratio,
            "members": len(rep.members),
            "drift": rep.drift,
            "pass": rep.passed,
            "ratios": {m["id"]: m["ratio"] for m in rep.members},
        }
        # both the base and the doubled pass judge every in-space member
        return 2 * (len(fam.members) - outside), fingerprint

    return run


def _explicit_job(label, couple, fam: FunctionFamily, name: str, res: Resolution, level: str) -> Job:
    grid = UGrid(res.u_max, res.k_nodes)

    def prepare():
        f = dict(fam.realize(res))[name]
        return f, kfunctional.k_curve(f, couple, grid, "oracle", res)

    def run(prepared):
        f, oracle = prepared
        explicit = kfunctional.k_curve(f, couple, grid, "explicit", res)
        o, e = oracle.k_values, explicit.k_values
        mask = (o > 0) & (e > 0)
        bracket = float(np.max(np.maximum(o[mask] / e[mask], e[mask] / o[mask]))) if np.any(mask) else 0.0
        return 1, {"ratios": {name: bracket}}

    return Job(f"{label} {name} {level}", run, prepare, group=label, level=level)


def build_plan(
    workload: str,
    seed: int,
    tag: str,
    res: Resolution = Resolution(),
) -> Plan:
    """Families and jobs of one repetition.  ``tag`` makes family names unique
    within a process."""
    if workload == "identity-cold":
        families, jobs = [], []
        for tid, params, q in IDENTITY_JOBS:
            fam = family(q, seed, f"{workload}/{tid}/{tag}")
            families.append(fam)
            jobs.append(Job(tid, _identity_run(tid, params, fam, res)))
        return Plan(workload, res, families, jobs)
    if workload == "theta-sweep":
        fam = family(2.0, seed, f"{workload}/{tag}")
        jobs = [
            Job(f"{tid} theta={theta:g} r={r:g}",
                _identity_run(tid, dict(p=2, theta=theta, r=r), fam, res))
            for tid in SWEEP_IDS for theta in SWEEP_THETAS for r in SWEEP_RS
        ]
        return Plan(workload, res, [fam], jobs)
    if workload == "explicit-k":
        fams = {q: family(q, seed, f"{workload}/q{q:g}/{tag}") for q in (2.0, 4.0)}
        jobs = []
        for label, couple, q in COUPLES:
            x0, _ = couple_spaces(couple)
            for level, r in (("base", res), ("doubled", res.doubled())):
                for name, model in fams[q].members:
                    if model_in_space(model, x0):
                        jobs.append(_explicit_job(label, couple, fams[q], name, r, level))
        return Plan(workload, res, list(fams.values()), jobs)
    raise ValueError(f"unknown workload {workload!r}")


def run_jobs(jobs: List[Job], tracer=None, between: Callable[[], None] = lambda: None) -> List[dict]:
    """Run jobs one after another; an exception fails its job, not the loop.
    ``between`` runs, untimed, before each job."""
    records = []
    for job in jobs:
        between()
        rec = {"id": job.id}
        if job.group is not None:
            rec.update(group=job.group, level=job.level)
        try:
            prepared = job.prepare()
        except Exception as exc:  # the job fails; the loop goes on
            rec.update(seconds=0.0, members=0, error=type(exc).__name__, message=str(exc))
            records.append(rec)
            continue
        if tracer is not None:
            tracer.job = job.id
        start = time.perf_counter()
        try:
            members, fingerprint = job.run(prepared)
        except Exception as exc:  # the job fails; the loop goes on
            rec.update(members=0, error=type(exc).__name__, message=str(exc))
        else:
            rec.update(members=members, fingerprint=fingerprint)
        finally:
            rec["seconds"] = time.perf_counter() - start
            if tracer is not None:
                tracer.job = None
        records.append(rec)
    return records
