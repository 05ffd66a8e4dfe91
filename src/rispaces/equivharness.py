"""Ratio experiments: every two-sided equivalence becomes a bounded bracket.

An experiment evaluates both sides of an identity or inequality over a family
of test functions, records per-member ratios, and passes when the bracket is
finite, below a configured ceiling, and stable (< 5% drift) under doubling of
all grid resolutions.  One-sided inequalities that come with explicit
constants are asserted outright instead of bracketed.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT, DEFAULT_CEILING, Resolution
from .errors import BadExponent, NotMonotone
from .interpolation import (
    ZSpace,
    check_hypotheses,
    doubling_blocks,
    doubling_time,
    identify_target,
    target_space,
    theorem_couple,
)
from .kfunctional import couple_spaces, k_curve
from .logcalc import (
    LogWeight,
    UGrid,
    log_weight_integral,
    sup_on_grid,
    weight_integral,
)
from .norms import (
    Grand,
    GammaDouble,
    Lebesgue,
    LorentzZygmund,
    Small,
    SpaceSpec,
    grand_norm,
    prefix_log_integral,
    space_norm,
    tail_log_integral,
)
from .rearrangement import (
    Char,
    ExplicitSteps,
    FunctionModel,
    PowerLog,
    StepFunction,
    StepRearrangement,
    discretize_model,
    evaluate_many,
    prefix_power_at,
    product_integral,
    tail_power_at,
)

__all__ = [
    "FunctionFamily",
    "EquivReport",
    "standard_family",
    "random_steps",
    "run_identity_experiment",
    "hardy_check",
    "HARDY_PARAMS",
    "sup_smoothing_check",
    "discretization_check",
    "prop32_check",
    "lemma31_33_check",
    "associate_lower_bound",
    "model_in_space",
    "ZSpace",
]

DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class FunctionFamily:
    """Named list of function models; ``realize`` discretizes them at a
    resolution's depth and panel count."""

    name: str
    members: Tuple[Tuple[str, FunctionModel], ...]

    def realize(self, res: Resolution) -> List[Tuple[str, StepRearrangement]]:
        """Discretized members, memoized per (panels, u_max)."""
        return _realize(self, res.panels, res.u_max)


@functools.lru_cache(maxsize=None)
def _realize(family: FunctionFamily, panels: int, u_max: float):
    """The one list of a family's members on one grid, kept for the process:
    unbounded, as a run may realize every family it uses at two resolutions."""
    return [(name, discretize_model(m, u_max, panels)) for name, m in family.members]


def random_steps(rng: np.random.Generator, nonincreasing: bool = True) -> ExplicitSteps:
    n = int(rng.integers(3, 12))
    inner = np.sort(rng.uniform(0.02, 0.98, n - 1))
    breaks = np.concatenate([[0.0], inner, [1.0]])
    values = rng.uniform(0.0, 3.0, n)
    if nonincreasing:
        values = np.sort(values)[::-1]
    return ExplicitSteps(tuple(breaks), tuple(values))


def standard_family(
    q: float = 4.0, seed: int = DEFAULT_SEED, name: str = "standard"
) -> FunctionFamily:
    """The default test family: a constant, three indicators, power-log
    profiles keyed to the larger exponent q, and ten seeded random steps."""
    members: List[Tuple[str, FunctionModel]] = [("const", PowerLog(0.0, 0.0))]
    for a in (0.5, 1.0 / 8.0, 1.0 / 128.0):
        members.append((f"char_{a:g}", Char(a)))
    gammas = [0.0]
    if not math.isinf(q):
        qp = q / (q - 1.0)
        gammas += [1.0 / (2.0 * qp), 1.0 / q - 1e-3]
    else:
        gammas += [0.5]
    gammas = sorted(set(g for g in gammas if 0.0 <= g < 1.0))
    for g in gammas:
        for d in (-1.0, 0.0, 1.0, 2.0):
            if g == 0.0 and d == 0.0:
                continue  # duplicate of const
            members.append((f"plog_g{g:g}_d{d:g}", PowerLog(g, d)))
    rng = np.random.default_rng(seed)
    for i in range(10):
        members.append((f"rand_{i:02d}", random_steps(rng)))
    return FunctionFamily(name, tuple(members))


# ---------------------------------------------------------------------------
# finiteness of power-log profiles in each space (analytic, used to pre-check
# family members against the spaces an experiment touches)
# ---------------------------------------------------------------------------


def model_in_space(model: FunctionModel, spec) -> bool:
    if not isinstance(model, PowerLog):
        return True  # indicators, explicit steps and samples are bounded
    g, d = model.gamma, model.delta
    if isinstance(spec, Lebesgue):
        if math.isinf(spec.p):
            return g == 0.0 and d >= 0.0
        return g < 1.0 / spec.p or (g == 1.0 / spec.p and d * spec.p > 1.0)
    if isinstance(spec, LorentzZygmund):
        ip = 1.0 / spec.p
        if g < ip:
            return True
        if g > ip:
            return False
        if math.isinf(spec.q):
            return spec.alpha <= d
        return (spec.alpha - d) * spec.q < -1.0
    if isinstance(spec, Grand):
        ip = 1.0 / spec.p
        return g < ip or (g == ip and d >= (1.0 - spec.alpha) / spec.p)
    if isinstance(spec, Small):
        ip = 1.0 / spec.p
        return g < ip or (g == ip and d > spec.alpha * (1.0 - ip) + ip)
    if isinstance(spec, ZSpace):
        ip = 1.0 / spec.p
        return g < ip or (g == ip and d > spec.theta)
    if isinstance(spec, GammaDouble):
        # only the log-damped inner weight appears in-scope
        ip = 1.0 / spec.p
        return g < ip or (g == ip and d > max(0.0, -spec.w1.b / spec.m + ip))
    return True


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class EquivReport:
    experiment: str
    params: dict
    members: List[dict] = field(default_factory=list)
    skipped: List[dict] = field(default_factory=list)
    max_ratio: float = math.nan
    min_ratio: float = math.nan
    median_ratio: float = math.nan
    drift: float = math.nan
    passed: bool = False
    ceiling: float = DEFAULT_CEILING
    seed: int = DEFAULT_SEED

    def finalize(self, drift: float = math.nan, require_two_sided: bool = True) -> "EquivReport":
        ratios = [m["ratio"] for m in self.members]
        if ratios:
            self.max_ratio = max(ratios)
            self.min_ratio = min(ratios)
            self.median_ratio = statistics.median(ratios)
        self.drift = drift
        ok = bool(ratios) and all(math.isfinite(x) and x > 0.0 for x in ratios)
        if ok:
            ok = self.max_ratio <= self.ceiling
            if require_two_sided:
                ok = ok and self.min_ratio >= 1.0 / self.ceiling
        if math.isfinite(drift):
            ok = ok and drift < 0.05
        self.passed = ok
        return self

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "params": self.params,
            "members": self.members,
            "skipped": self.skipped,
            "max_ratio": self.max_ratio,
            "min_ratio": self.min_ratio,
            "median_ratio": self.median_ratio,
            "drift": self.drift,
            "pass": self.passed,
            "ceiling": self.ceiling,
            "seed": self.seed,
        }
        return json.dumps(_finite_or_null(payload), sort_keys=True, allow_nan=False, indent=2)


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, so that the JSON is
    strict: an undefined ratio or drift is written as null, not NaN."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _judge(report: EquivReport, rows: Iterable[Tuple[str, Optional[float], Optional[float]]]):
    """Add (id, lhs, rhs) rows, in order, to the report's members, or to its
    skips when a side is 0 or not finite.  Sides of None mark a member outside
    a required space, which was not evaluated."""
    for name, lhs, rhs in rows:
        if lhs is None:
            report.skipped.append({"id": name, "reason": "outside a required space"})
            continue
        lhs, rhs = float(lhs), float(rhs)
        if lhs == 0.0 or rhs == 0.0:
            report.skipped.append({"id": name, "reason": "degenerate member skipped"})
        elif not (math.isfinite(lhs) and math.isfinite(rhs)):
            report.skipped.append({"id": name, "reason": "non-finite side"})
        else:
            report.members.append({"id": name, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs})
    return report


def _judge_with_drift(report: EquivReport, rows_at, res: Resolution, two_sided: bool = True):
    """Judge rows_at(res) into the report and rows_at(res.doubled()) aside; the
    drift is the relative change of the largest ratio (two-sided: of the
    largest ratio or inverse ratio) under the doubling."""

    def worst(judged: EquivReport) -> float:
        ratios = [m["ratio"] for m in judged.members]
        return max([0.0] + ratios + ([1.0 / x for x in ratios] if two_sided else []))

    base = worst(_judge(report, rows_at(res)))
    fine = worst(_judge(EquivReport("", {}), rows_at(res.doubled())))
    drift = abs(fine - base) / base if base > 0 else math.nan
    return report.finalize(drift, require_two_sided=two_sided)


# ---------------------------------------------------------------------------
# identity experiments
# ---------------------------------------------------------------------------


def run_identity_experiment(
    theorem_id: str,
    params: dict,
    family: Optional[FunctionFamily] = None,
    res: Resolution = DEFAULT,
    ceiling: float = DEFAULT_CEILING,
    seed: int = DEFAULT_SEED,
) -> EquivReport:
    """Both sides of one identity over a family, plus refinement drift."""
    args = {name: params.get(name) for name in ("p", "q", "theta", "r", "alpha")}
    check_hypotheses(theorem_id, **args)
    if family is None:
        family = standard_family(q=args["q"] if args["q"] is not None else args["p"], seed=seed)
    couple = theorem_couple(theorem_id, args["p"], args["q"], args["alpha"])
    required = (couple_spaces(couple)[0], target_space(theorem_id, **args))

    def rows_at(resolution: Resolution):
        grid = UGrid(resolution.u_max, resolution.k_nodes)
        realized = dict(family.realize(resolution))
        for name, model in family.members:
            if not all(model_in_space(model, s) for s in required):
                yield name, None, None
                continue
            curve = k_curve(realized[name], couple, grid, "oracle", resolution)
            sides = identify_target(theorem_id, realized[name], **args, res=resolution, curve=curve)
            yield (name, *sides)

    report = EquivReport(theorem_id, dict(params), ceiling=ceiling, seed=seed)
    return _judge_with_drift(report, rows_at, res)


# ---------------------------------------------------------------------------
# weighted Hardy inequalities
# ---------------------------------------------------------------------------

# Each display's exponents.
HARDY_PARAMS = {
    "thm2.1-first": ("lam", "b", "beta"),
    "thm2.1-second": ("lam", "b", "beta"),
    "thm2.2-first": ("a", "alpha"),
    "thm2.2-second": ("a", "alpha"),
}


def _hardy_sides(which: str, exponents: dict, f: StepFunction, res: Resolution):
    """Both sides of one display: the lhs is a prefix or tail power integral
    ∫_0^1 w(t) (∫_0^t f or ∫_t^1 f)^s dt, the rhs ∫_0^1 f^s w_rhs, each to the
    power root."""
    prefix = which.endswith("first")
    if which.startswith("thm2.1"):
        lam = exponents["lam"]
        b = exponents["b"]
        beta = exponents.get("beta", 0.0)
        if not lam > 0.0 or not b >= 1.0:
            raise BadExponent("need lam > 0 and b >= 1")
        if math.isinf(b):
            return _hardy_sup_sides(which, lam, beta, f, res)
        # [t^{∓lam} (1-Log t)^beta · inner]^b dt/t against [t^{1∓lam} (1-Log t)^beta f]^b dt/t
        signed = -lam if prefix else lam
        s, root = b, 1.0
        w = LogWeight(signed * b - 1.0, beta * b)
        w_rhs = LogWeight((1.0 + signed) * b - 1.0, beta * b)
    else:
        a = exponents["a"]
        alpha = exponents["alpha"]
        if not a >= 1.0 or alpha + 1.0 / a == 0.0:
            raise BadExponent("need a >= 1 and alpha + 1/a != 0")
        if prefix and not alpha + 1.0 / a > 0.0:
            raise BadExponent("prefix branch needs alpha + 1/a > 0")
        if not prefix and not alpha + 1.0 / a < 0.0:
            raise BadExponent("tail branch needs alpha + 1/a < 0")
        s, root = a, 1.0 / a
        w = LogWeight(-1.0, alpha * a)
        w_rhs = LogWeight(a - 1.0, (1.0 + alpha) * a)
    if prefix:
        lhs = prefix_log_integral(f, 1.0, s, w, 1.0)
    else:
        lhs = tail_log_integral(f, 1.0, s, w)
    rhs = log_weight_integral(f, s, w_rhs, 0.0, 1.0)
    return lhs**root, rhs**root


def _hardy_sup_sides(which: str, lam: float, beta: float, f: StepFunction, res: Resolution):
    """The b = inf form: integrals replaced by suprema on both sides, searched
    on the resolution's supremum grid."""
    grid = UGrid(res.u_max, res.sup_count)
    prefixy = which.endswith("first")
    s = -lam if prefixy else lam

    def lhs_obj(t):
        t = np.asarray(t, dtype=float)
        inner = prefix_power_at(f, 1.0, t) if prefixy else tail_power_at(f, 1.0, t)
        return t**s * (1.0 - np.log(t)) ** beta * inner

    def rhs_obj(t):
        t = np.asarray(t, dtype=float)
        return t ** (s + 1.0) * (1.0 - np.log(t)) ** beta * evaluate_many(f, t)

    lhs, _ = sup_on_grid(lhs_obj, grid, f.breaks[1:])
    rhs, _ = sup_on_grid(rhs_obj, grid, f.breaks[1:])
    return lhs, rhs


def hardy_check(
    which: str,
    exponents: dict,
    family: FunctionFamily,
    res: Resolution = DEFAULT,
    ceiling: float = DEFAULT_CEILING,
    seed: int = DEFAULT_SEED,
) -> EquivReport:
    """LHS/RHS of one weighted Hardy display per member; family-uniform bracket."""
    if which not in HARDY_PARAMS:
        raise BadExponent(f"unknown display {which!r}; pick one of {tuple(HARDY_PARAMS)}")

    def rows_at(resolution: Resolution):
        realized = family.realize(resolution)
        return [(name, *_hardy_sides(which, exponents, f, resolution)) for name, f in realized]

    report = EquivReport(f"hardy:{which}", dict(exponents), ceiling=ceiling, seed=seed)
    return _judge_with_drift(report, rows_at, res, two_sided=False)


# ---------------------------------------------------------------------------
# sup-smoothing equivalences
# ---------------------------------------------------------------------------


def sup_smoothing_check(
    kd: StepFunction,
    exponents: dict,
    which: str = "prop3.1",
    ceiling: float = DEFAULT_CEILING,
) -> EquivReport:
    """Both sides of a sup-smoothing display for a nonincreasing step K_d.

    The inner windowed sup of (1-Log s)^{-e} K_d(s) is exact on step data: the
    log factor increases in s, so each panel peaks at its right endpoint and a
    suffix maximum gives the sup as another step function.
    """
    if np.any(np.diff(kd.values) > 0):
        raise NotMonotone("K_d must be nonincreasing")
    if which == "prop3.1":
        theta, r, alpha, q = (
            exponents["theta"],
            exponents["r"],
            exponents["alpha"],
            exponents["q"],
        )
        if not (0.0 < theta < 1.0 and alpha > 0.0 and r >= 1.0 and q > 0.0):
            raise BadExponent("need 0 < theta < 1, alpha > 0, r >= 1, q > 0")
        e = alpha / q
        w_sup = LogWeight((1.0 - theta) * r - 1.0, alpha * (1.0 - theta) * r / q)
        w_dir = LogWeight((1.0 - theta) * r - 1.0, -alpha * theta * r / q)
    elif which == "prop5.1":
        nu, beta, q, r = exponents["nu"], exponents["beta"], exponents["q"], exponents["r"]
        if not (nu > 0.0 and r >= 1.0 and q > 0.0):
            raise BadExponent("need nu > 0, r >= 1, q > 0")
        e = 1.0 / q
        w_sup = LogWeight(nu * r - 1.0, beta * r)
        w_dir = LogWeight(nu * r - 1.0, (beta - 1.0 / q) * r)
    else:
        raise BadExponent(f"unknown display {which!r}")
    peaks = (1.0 - np.log(kd.breaks[1:])) ** (-e) * kd.values
    sup_vals = np.maximum.accumulate(peaks[::-1])[::-1]
    m_step = StepFunction(kd.breaks, sup_vals)
    i_sup = log_weight_integral(m_step, exponents["r"], w_sup, 0.0, 1.0)
    i_dir = log_weight_integral(kd, exponents["r"], w_dir, 0.0, 1.0)
    i_sup, i_dir = float(i_sup), float(i_dir)
    report = EquivReport(f"sup_smoothing:{which}", dict(exponents), ceiling=ceiling)
    if i_sup > 0.0 and i_dir > 0.0:
        report.members.append({"id": "kd", "lhs": i_sup, "rhs": i_dir, "ratio": i_sup / i_dir})
    else:
        report.skipped.append({"id": "kd", "reason": "degenerate member skipped"})
    report = report.finalize(require_two_sided=False)
    # the smoothed side dominates pointwise: assert the one-sided direction
    report.passed = report.passed and (i_sup >= i_dir * (1.0 - 1e-9))
    report.params["i_sup_ge_i_dir"] = bool(i_sup >= i_dir * (1.0 - 1e-9))
    return report


# ---------------------------------------------------------------------------
# block discretization of log-weighted integrals
# ---------------------------------------------------------------------------


def discretization_check(
    h: StepFunction, lam: float, q: float, ceiling: float = 32.0
) -> EquivReport:
    """Sum-vs-sum and sum-vs-integral brackets on the grid t_k = 2^{1-2^k}.

    Covers both block-sum displays (prefix sums against per-block sums with
    2^{±lam k q} weights), the panel bracket 2^k vs (1 - Log s), the weighted
    panel integrals against 2^{k lam}, and the sum-integral comparison in each
    sign regime of lam (including lam = 0).
    """
    if q <= 0.0:
        raise BadExponent("need q > 0")
    lam_abs = abs(lam) if lam != 0.0 else 1.0
    blocks = doubling_blocks(h, 1.0)
    n = blocks.size
    k = np.arange(n)
    prefix = np.cumsum(blocks[::-1])[::-1]  # ∫_0^{t_k} h
    tail_k = np.cumsum(blocks)  # ∫_{t_{k+1}}^1 h (blocks 0..k; the top node is 1)
    d1_lhs = float(np.sum(prefix**q * 2.0 ** (lam_abs * k * q)))
    d1_rhs = float(np.sum((2.0 ** (lam_abs * k) * blocks) ** q))
    d2_lhs = float(np.sum(tail_k**q * 2.0 ** (-lam_abs * k * q)))
    d2_rhs = float(np.sum((2.0 ** (-lam_abs * k) * blocks) ** q))
    report = EquivReport(
        "discretization", {"lam": lam, "q": q}, ceiling=ceiling
    )
    pairs = [("blocks-prefix", d1_lhs, d1_rhs), ("blocks-tail", d2_lhs, d2_rhs)]
    # panel bracket: (1 - Log s)/2^k over s in [t_{k+1}, t_k], k small enough to matter
    ln2 = math.log(2.0)
    ks = np.arange(0, 8)
    lo_ratio = (1.0 + (2.0**ks - 1.0) * ln2) / 2.0**ks
    hi_ratio = (1.0 + (2.0 ** (ks + 1) - 1.0) * ln2) / 2.0**ks
    report.params["panel_bracket"] = [float(lo_ratio.min()), float(hi_ratio.max())]
    wint = [
        weight_integral(LogWeight(-1.0, lam_abs - 1.0), doubling_time(kk + 1), doubling_time(kk))
        / 2.0 ** (kk * lam_abs)
        for kk in range(0, 8)
    ]
    report.params["panel_integral_bracket"] = [float(min(wint)), float(max(wint))]
    # sum vs integral, by the sign of lam
    total = float(prefix_power_at(h, 1.0, 1.0))
    if lam > 0.0:
        integral = prefix_log_integral(h, 1.0, q, LogWeight(-1.0, lam * q - 1.0), 1.0)
        pairs.append(("sum-vs-integral", d1_lhs, integral))
        report.params["equivalence_expected"] = bool(total <= 2.0 * prefix_power_at(h, 1.0, 0.5))
    elif lam < 0.0:
        integral = tail_log_integral(h, 1.0, q, LogWeight(-1.0, lam * q - 1.0))
        pairs.append(("sum-vs-integral", d2_lhs, integral))
    else:
        sum0 = float(np.sum(prefix**q))
        integral = prefix_log_integral(h, 1.0, q, LogWeight(-1.0, -1.0), 1.0)
        pairs.append(("sum-vs-integral", sum0, integral))
    return _judge(report, pairs).finalize()


# ---------------------------------------------------------------------------
# explicit-constant inequality and windowed-sup lemmas
# ---------------------------------------------------------------------------


def prop32_check(
    f: StepRearrangement,
    p: float,
    r: float,
    eps: float,
    x_grid: Optional[Sequence[float]] = None,
) -> EquivReport:
    """sup_{t<x} t^{(1-eps)/p} f(t) against its prefix-integral bound with the
    explicit constant 2 (Log 2)^{1/r'}; asserted, not bracketed."""
    if not (0.0 < eps < 1.0 and r > 1.0 and p >= 1.0):
        raise BadExponent("need eps in (0,1), r > 1, p >= 1")
    if x_grid is None:
        x_grid = np.exp(1.0 - np.linspace(1.0, 14.0, 27))[::-1]
    e = (1.0 - eps) / p
    c = r * (1.0 - eps) / p
    const = 2.0 * math.log(2.0) ** (1.0 - 1.0 / r)
    report = EquivReport("prop3.2", {"p": p, "r": r, "eps": eps}, ceiling=1.0)
    violations = 0
    for x in x_grid:
        x = float(x)
        ends = np.minimum(f.breaks[1:], x)
        lhs = float(np.max(np.where(f.breaks[:-1] < x, ends**e * f.values, 0.0)))
        lo = np.minimum(f.breaks[:-1], x)
        rhs_int = float(np.sum(f.values**r * (ends**c - lo**c) / c))
        rhs = const * rhs_int ** (1.0 / r)
        if lhs == 0.0 and rhs == 0.0:
            report.skipped.append({"id": f"x={x:g}", "reason": "degenerate member skipped"})
            continue
        ratio = lhs / rhs if rhs > 0 else math.inf
        report.members.append({"id": f"x={x:g}", "lhs": lhs, "rhs": rhs, "ratio": ratio})
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    report.params["violations"] = violations
    report = report.finalize(require_two_sided=False)
    report.passed = bool(report.members) and violations == 0
    return report


def lemma31_33_check(
    f: StepRearrangement,
    p: float,
    q: float,
    alpha: float,
    res: Resolution = DEFAULT,
    ceiling: float = DEFAULT_CEILING,
) -> EquivReport:
    """Windowed-sup domination ratios: prefix means against grand-type sups."""
    if not (1.0 < p < q and alpha > 0.0):
        raise BadExponent("need 1 < p < q and alpha > 0")
    grid = UGrid(res.u_max, res.sup_count)
    sigma = p / (p - 1.0)

    def g31(t):
        t = np.asarray(t, dtype=float)
        return t**-1.0 * (1.0 - np.log(t)) ** (-alpha / p) * prefix_power_at(
            f, 1.0, t**sigma
        )

    lhs31, _ = sup_on_grid(g31, grid, f.breaks[1:])
    rhs31 = grand_norm(f, p, alpha, res)

    def g33(t):
        t = np.asarray(t, dtype=float)
        return t ** (1.0 / q - 1.0 / p) * (1.0 - np.log(t)) ** (-alpha / q) * (
            prefix_power_at(f, p, t) ** (1.0 / p)
        )

    lhs33, _ = sup_on_grid(g33, grid, f.breaks[1:])
    rhs33 = grand_norm(f, q, alpha, res)
    report = EquivReport("lemma3.1+3.3", {"p": p, "q": q, "alpha": alpha}, ceiling=ceiling)
    pairs = [("windowed-l1-mean", lhs31, rhs31), ("prefix-p-mean", lhs33, rhs33)]
    return _judge(report, pairs).finalize(require_two_sided=False)


def associate_lower_bound(
    f: StepRearrangement,
    spec: SpaceSpec,
    family: FunctionFamily,
    res: Resolution = DEFAULT,
) -> float:
    """max over g of ∫ f g / norm(g): a lower bound for the associate norm."""
    best = 0.0
    for _, g in family.realize(res):
        denom = space_norm(g, spec, res)
        if denom <= 0.0 or not math.isfinite(denom):
            continue
        best = max(best, product_integral(f, g) / denom)
    return best
