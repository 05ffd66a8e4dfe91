"""Spans and counters around the public functions of each ``rispaces`` layer.

The wrappers live here, in the benchmark, and are installed only for a traced
run.  Modules import functions by name (``from .logcalc import
weight_integral``), so a wrapper replaces every binding of the original
function in every ``rispaces`` module, not only the attribute on the defining
module; methods are wrapped on their class.  ``uninstall`` restores them all.

Spans are kept in memory as ``(name, start, end, parent, job, panels)``, where
``panels`` is the panel count of a ``Resolution`` argument (or ``None``).
Counts are taken at the same boundaries.  Nothing is recorded while ``job``
is ``None``, which is how untimed work (the oracle partner curves of
``explicit-k``) stays out of the per-layer figures.  While ``job`` is
``SETUP`` spans are kept but nothing is counted, and of those spans only
``rearrangement.realize.s`` is reported; every other figure is job time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

SETUP = "setup"
LAYERS = ("rearrangement", "logcalc", "norms", "kfunctional", "interpolation", "equivharness")

# Functions given a span (and a call count).  Some are never reported on their
# own; they are wrapped so that their time counts as their own layer's.
SPANNED = [
    ("rearrangement", "discretize_model"),
    ("logcalc", "weight_integral"),
    ("logcalc", "log_weight_integral"),
    ("logcalc", "weight_prefix_many"),
    ("logcalc", "tail_block_integral"),
    ("logcalc", "log_quad"),
    ("logcalc", "log_quad_multi"),
    ("logcalc", "sup_on_interval"),
    ("logcalc", "invert_monotone"),
    ("logcalc", "MonotoneMap.inverse"),
    ("norms", "lebesgue_norm"),
    ("norms", "lorentz_zygmund_norm"),
    ("norms", "grand_norm"),
    ("norms", "small_norm"),
    ("norms", "ggamma_norm"),
    ("norms", "norms_over_cuts"),
    ("kfunctional", "oracle_lines"),
    ("kfunctional", "k_oracle"),
    ("kfunctional", "k_explicit"),
    ("kfunctional", "k_curve"),
    ("kfunctional", "split_point"),
    ("interpolation", "interp_norm"),
    ("interpolation", "identify_target"),
    ("interpolation", "z_norm"),
    ("equivharness", "run_identity_experiment"),
]
# hot leaves: a span per call would cost more than the call, so only count
COUNTED = [
    ("rearrangement", "prefix_power_at"),
    ("logcalc", "LogWeight.u_form"),
]
# discretize_model is the work of FunctionFamily.realize; its metrics keep that name
ALIASES = {"rearrangement.discretize_model": "rearrangement.realize"}

# Per-layer metrics of the timed jobs.  ``.s`` is time in the outermost call
# of a function, ``.self_s`` that time minus the wrapped child spans, and
# ``.share`` and ``.self_share`` those times over the traced time of the jobs.
# ``rearrangement.realize.s`` alone is set-up time: realizing runs there.
TIMED = [
    "logcalc.weight_integral",
    "logcalc.log_quad",
    "logcalc.log_quad_multi",
    "logcalc.sup_on_interval",
    "logcalc.MonotoneMap.inverse",
    "norms.norms_over_cuts",
    "norms.grand_norm",
    "norms.small_norm",
    "norms.lorentz_zygmund_norm",
    "norms.ggamma_norm",
    "kfunctional.oracle_lines",
    "kfunctional.k_explicit",
    "kfunctional.split_point",
    "interpolation.interp_norm",
    "interpolation.z_norm",
]
SELF_TIMED = [
    "kfunctional.k_explicit",
    "interpolation.identify_target",
    "equivharness.run_identity_experiment",
]
CALLED = [
    "rearrangement.prefix_power_at",
    "logcalc.weight_integral",
    "logcalc.log_quad",
    "logcalc.sup_on_interval",
    "logcalc.MonotoneMap.inverse",
    "kfunctional.oracle_lines",
    "kfunctional.k_explicit",
    "interpolation.interp_norm",
]


def metric_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"rearrangement.realize.s": "s"}
    for n in TIMED:
        units.update({f"{n}.s": "s", f"{n}.share": "ratio"})
    for n in SELF_TIMED + list(LAYERS):
        units.update({f"{n}.self_s": "s", f"{n}.self_share": "ratio"})
    units.update({f"{n}.calls": "count" for n in CALLED})
    units.update({
        "logcalc.u_form.nodes": "count",
        "norms.norms_over_cuts.cuts": "count",
        "kfunctional.oracle_lines.repeat_ratio": "ratio",
        "equivharness.doubled_pass_share": "ratio",
        "trace.job_s": "s",
        "trace.spans": "count",
    })
    return units


def _resolution_panels(args, kwargs, resolution_type) -> Optional[int]:
    for value in args:
        if isinstance(value, resolution_type):
            return value.panels
    for value in kwargs.values():
        if isinstance(value, resolution_type):
            return value.panels
    return None


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.outer: List[bool] = []
        self.self_time: List[float] = []
        self.counts: Counter = Counter()
        self.job: Optional[str] = None
        self.seen_lines: set = set()
        self._stack: List[list] = []  # [span index, child seconds]
        self._active: Counter = Counter()
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        from rispaces.config import Resolution

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rispaces" or name.startswith("rispaces."))]
        for kind, targets in (("span", SPANNED), ("count", COUNTED)):
            for module, attr in targets:
                owner = sys.modules[f"rispaces.{module}"]
                name = ALIASES.get(f"{module}.{attr}", f"{module}.{attr}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    wrapper = self._wrap(kind, name, original, Resolution)
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, wrapper)
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(kind, name, original, Resolution)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, kind, name, fn, resolution_type):
        tracer = self
        if kind == "count":
            nodes_key = "logcalc.u_form.nodes" if name == "logcalc.LogWeight.u_form" else None
            calls_key = name + ".calls"

            def counted(*args, **kwargs):
                if tracer.job not in (None, SETUP):
                    tracer.counts[calls_key] += 1
                    if nodes_key is not None:
                        tracer.counts[nodes_key] += np.size(args[1] if len(args) > 1 else kwargs["u"])
                return fn(*args, **kwargs)

            return counted

        is_lines = name == "kfunctional.oracle_lines"
        is_cuts = name == "norms.norms_over_cuts"

        def spanned(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            counting = tracer.job != SETUP
            if counting and is_lines:
                key = (args[0], args[1], args[2] if len(args) > 2 else kwargs.get("res"))
                if key in tracer.seen_lines:
                    tracer.counts["kfunctional.oracle_lines.repeats"] += 1
                tracer.seen_lines.add(key)
            if counting and is_cuts:
                tracer.counts["norms.norms_over_cuts.cuts"] += np.size(
                    args[2] if len(args) > 2 else kwargs["cuts"])
            panels = _resolution_panels(args, kwargs, resolution_type)
            return tracer._run_span(name, panels, fn, args, kwargs)

        return spanned

    def _run_span(self, name, panels, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.outer.append(self._active[name] == 0)
        self.self_time.append(0.0)
        self._active[name] += 1
        frame = [index, 0.0]
        self._stack.append(frame)
        job = self.job
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1
            duration = end - start
            self.self_time[index] = duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index] = (name, start, end, parent, job, panels)

    # -- results ------------------------------------------------------------

    def metrics(self, job_seconds: float, doubled_panels: int) -> Dict[str, float]:
        """Per-layer metrics over the recorded spans.

        ``job_seconds`` is the traced time of the timed jobs, the base of the
        ``share`` metrics; ``doubled_panels`` identifies spans whose resolution
        argument is the doubled one.
        """
        outer_s: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        realize_s = 0.0
        passes = {True: 0.0, False: 0.0}
        for i, (name, start, end, _parent, job, panels) in enumerate(self.spans):
            if job == SETUP:
                if self.outer[i] and name == "rearrangement.realize":
                    realize_s += end - start
                continue
            calls[name] += 1
            self_s[name] += self.self_time[i]
            self_s[name.split(".")[0]] += self.self_time[i]  # the layer's
            if self.outer[i]:
                outer_s[name] += end - start
                if panels is not None and name in ("kfunctional.k_curve", "interpolation.identify_target"):
                    passes[panels == doubled_panels] += end - start
        out: Dict[str, float] = {"rearrangement.realize.s": realize_s}
        for n in TIMED:
            out[f"{n}.s"] = outer_s[n]
            out[f"{n}.share"] = outer_s[n] / job_seconds
        for n in SELF_TIMED + list(LAYERS):
            out[f"{n}.self_s"] = self_s[n]
            out[f"{n}.self_share"] = self_s[n] / job_seconds
        for n in CALLED:
            out[f"{n}.calls"] = float(self.counts[n + ".calls"] + calls[n])
        out["logcalc.u_form.nodes"] = float(self.counts["logcalc.u_form.nodes"])
        out["norms.norms_over_cuts.cuts"] = float(self.counts["norms.norms_over_cuts.cuts"])
        lines = calls["kfunctional.oracle_lines"]
        out["kfunctional.oracle_lines.repeat_ratio"] = (
            self.counts["kfunctional.oracle_lines.repeats"] / lines if lines else 0.0)
        total = passes[True] + passes[False]
        out["equivharness.doubled_pass_share"] = passes[True] / total if total else 0.0
        out["trace.job_s"] = job_seconds
        out["trace.spans"] = float(len(self.spans))
        return out

    def dump(self, path: str) -> None:
        """Write the spans and counts as JSON."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start", "end", "parent", "job", "panels", "self_s"],
            "names": names,
            "spans": [[code[s[0]], s[1], s[2], s[3], s[4], s[5], self.self_time[i]]
                      for i, s in enumerate(self.spans)],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over traced repetitions."""
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
