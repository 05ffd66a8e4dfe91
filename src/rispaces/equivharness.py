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
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .config import DEFAULT, DEFAULT_CEILING, Resolution
from .errors import NotMonotone, failure_context
from .interpolation import (
    ALPHA,
    HYPOTHESES,
    IDENTITIES,
    P,
    P_FROM_1,
    Q,
    R,
    R_ABOVE_1,
    THEOREM_IDS,
    THETA,
    Param,
    ZSpace,
    check_params,
    doubling_blocks,
    doubling_time,
    identify_target,
)
from .kfunctional import couple_spaces, k_curve
from .logcalc import LogWeight, UGrid, log_weight_integral, sup_on_grid, weight_integral
from .norms import (
    Grand,
    GammaDouble,
    Lebesgue,
    LorentzZygmund,
    Small,
    grand_norm,
    prefix_log_integral,
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
    tail_power_at,
)

__all__ = [
    "FunctionFamily",
    "EquivReport",
    "standard_family",
    "default_family",
    "random_steps",
    "identity_rows",
    "run_identity_experiment",
    "hardy_check",
    "HARDY_PARAMS",
    "CATALOGUE",
    "EXPERIMENTS",
    "run_experiment",
    "sup_smoothing_check",
    "discretization_check",
    "prop32_check",
    "lemma31_33_check",
    "LEMMA_PARAMS",
    "run_lemma_experiment",
    "model_in_space",
    "k_curve",
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


def standard_family(q: float = 4.0, seed: int = DEFAULT_SEED) -> FunctionFamily:
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
    return FunctionFamily("standard", tuple(members))


def default_family(params: dict, seed: int = DEFAULT_SEED) -> FunctionFamily:
    """The family an identity runs over by default: the standard family keyed
    to q, or to p when the identity takes no q."""
    return standard_family(params.get("q") or params.get("p") or 4.0, seed)


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
        return spec.holds_power_log(g, d)
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
        payload = asdict(self)
        payload["pass"] = payload.pop("passed")
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


def identity_rows(theorem_id: str, params: dict, family: FunctionFamily, res: Resolution):
    """(member, lhs, rhs) of one identity for each member of a family, evaluated
    as the row is read, after the hypotheses are checked on the call; a member
    outside the couple's first space or the target space has None sides."""
    args = check_params(HYPOTHESES, theorem_id, params)
    identity = IDENTITIES[theorem_id]
    required = (couple_spaces(identity.couple(**args))[0], identity.target(**args))
    realized = dict(family.realize(res))

    def sides(name, model):
        if not all(model_in_space(model, s) for s in required):
            return None, None
        return identify_target(theorem_id, realized[name], **args, res=res)

    return ((name, *sides(name, model)) for name, model in family.members)


def run_identity_experiment(
    theorem_id: str,
    params: dict,
    family: Optional[FunctionFamily] = None,
    res: Resolution = DEFAULT,
    ceiling: float = DEFAULT_CEILING,
    seed: int = DEFAULT_SEED,
) -> EquivReport:
    """Both sides of one identity over a family (by default
    default_family(params, seed)), plus refinement drift; a member's failure
    names the identity, member, resolution and side."""
    if family is None:
        family = default_family(params, seed)

    def rows_at(resolution: Resolution):
        rows = identity_rows(theorem_id, params, family, resolution)
        for name, _ in family.members:
            with failure_context(f"{theorem_id} member {name} at {resolution}"):
                yield next(rows)

    report = EquivReport(theorem_id, dict(params), ceiling=ceiling, seed=seed)
    return _judge_with_drift(report, rows_at, res)


# ---------------------------------------------------------------------------
# weighted Hardy inequalities
# ---------------------------------------------------------------------------

# Each display's exponents: b = inf is thm 2.1's sup form, and thm 2.2's branch
# puts alpha on its side of -1/a.
_LAM = Param("lam", lambda x: 0.0 < x["lam"] < math.inf, "0 < lam < inf")
_B = Param("b", lambda x: x["b"] >= 1.0, "b >= 1")
_BETA = Param("beta", lambda x: math.isfinite(x["beta"]), "a finite beta", 0.0)
_A = Param("a", lambda x: 1.0 <= x["a"] < math.inf, "1 <= a < inf")
_PREFIX = Param("alpha", lambda x: -1.0 / x["a"] < x["alpha"] < math.inf, "-1/a < alpha < inf (prefix branch)")
_TAIL = Param("alpha", lambda x: -math.inf < x["alpha"] < -1.0 / x["a"], "-inf < alpha < -1/a (tail branch)")
HARDY_PARAMS = {
    "thm2.1-first": (_LAM, _B, _BETA),
    "thm2.1-second": (_LAM, _B, _BETA),
    "thm2.2-first": (_A, _PREFIX),
    "thm2.2-second": (_A, _TAIL),
}


def _hardy_sides(which: str, exponents: dict, f: StepFunction, res: Resolution):
    """Both sides of one display: the lhs is a prefix or tail power integral
    ∫_0^1 w(t) (∫_0^t f or ∫_t^1 f)^s dt, the rhs ∫_0^1 f^s w_rhs, each to the
    power root.  The exponents are checked, beta filled in."""
    prefix = which.endswith("first")
    if which.startswith("thm2.1"):
        lam, b, beta = exponents["lam"], exponents["b"], exponents["beta"]
        if math.isinf(b):
            return _hardy_sup_sides(which, lam, beta, f, res)
        # [t^{∓lam} (1-Log t)^beta · inner]^b dt/t against [t^{1∓lam} (1-Log t)^beta f]^b dt/t
        signed = -lam if prefix else lam
        s, root = b, 1.0
        w = LogWeight(signed * b - 1.0, beta * b)
        w_rhs = LogWeight((1.0 + signed) * b - 1.0, beta * b)
    else:
        a, alpha = exponents["a"], exponents["alpha"]
        s, root = a, 1.0 / a
        w = LogWeight(-1.0, alpha * a)
        w_rhs = LogWeight(a - 1.0, (1.0 + alpha) * a)
    lhs = prefix_log_integral(f, 1.0, s, w, 1.0) if prefix else tail_log_integral(f, 1.0, s, w)
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
    """LHS/RHS of one weighted Hardy display per member; family-uniform bracket.
    The report records the exponents as given."""
    checked = check_params(CATALOGUE, f"hardy:{which}", exponents)

    def rows_at(resolution: Resolution):
        for name, f in family.realize(resolution):
            with failure_context(f"hardy:{which} member {name} at {resolution}"):
                sides = _hardy_sides(which, checked, f, resolution)
            yield (name, *sides)

    report = EquivReport(f"hardy:{which}", dict(exponents), ceiling=ceiling, seed=seed)
    return _judge_with_drift(report, rows_at, res, two_sided=False)


# ---------------------------------------------------------------------------
# sup-smoothing equivalences
# ---------------------------------------------------------------------------

# The exponents of each one-function check behind the K-functionals (props 3.1,
# 3.2 and 5.1, lemmas 3.1 and 3.3), under the name of the report it writes;
# prop 5.1's beta has Hardy's range but no default.
_EPS = Param("eps", lambda x: 0.0 < x["eps"] < 1.0, "0 < eps < 1")
_NU = Param("nu", lambda x: 0.0 < x["nu"] < math.inf, "0 < nu < inf")
_Q_POSITIVE = Param("q", lambda x: x["q"] > 0.0, "q > 0")
LEMMA_PARAMS = {
    "prop3.2": (P_FROM_1, R_ABOVE_1, _EPS),
    "lemma3.1+3.3": (P, Q, ALPHA),
    "sup_smoothing:prop3.1": (THETA, R, ALPHA, _Q_POSITIVE),
    "sup_smoothing:prop5.1": (_NU, replace(_BETA, default=None), _Q_POSITIVE, R),
}


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
    check_params(CATALOGUE, f"sup_smoothing:{which}", exponents)
    if np.any(np.diff(kd.values) > 0):
        raise NotMonotone("K_d must be nonincreasing")
    if which == "prop3.1":
        theta, r, alpha, q = (exponents[k] for k in ("theta", "r", "alpha", "q"))
        e = alpha / q
        w_sup = LogWeight((1.0 - theta) * r - 1.0, alpha * (1.0 - theta) * r / q)
        w_dir = LogWeight((1.0 - theta) * r - 1.0, -alpha * theta * r / q)
    else:
        nu, beta, q, r = exponents["nu"], exponents["beta"], exponents["q"], exponents["r"]
        e = 1.0 / q
        w_sup = LogWeight(nu * r - 1.0, beta * r)
        w_dir = LogWeight(nu * r - 1.0, (beta - 1.0 / q) * r)
    peaks = (1.0 - np.log(kd.breaks[1:])) ** (-e) * kd.values
    sup_vals = np.maximum.accumulate(peaks[::-1])[::-1]
    m_step = StepFunction(kd.breaks, sup_vals)
    i_sup = float(log_weight_integral(m_step, r, w_sup, 0.0, 1.0))
    i_dir = float(log_weight_integral(kd, r, w_dir, 0.0, 1.0))
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
    check_params(CATALOGUE, "discretization", {"lambda": lam, "q": q})
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
    report = EquivReport("discretization", {"lam": lam, "q": q}, ceiling=ceiling)
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
# the experiment catalogue
# ---------------------------------------------------------------------------

# Each named experiment's parameters, in the order `rispaces list-experiments` prints them.
CATALOGUE = {
    **HYPOTHESES,
    **{f"hardy:{which}": params for which, params in HARDY_PARAMS.items()},
    "discretization": (Param("lambda", lambda x: math.isfinite(x["lambda"]), "a finite lambda", 1.0),
                       Param("q", lambda x: 0.0 < x["q"] < math.inf, "0 < q < inf", 1.0)),
    **LEMMA_PARAMS,
}
EXPERIMENTS = {name: tuple(d.name for d in params) for name, params in CATALOGUE.items()}


def run_experiment(
    name: str, params: dict, res: Resolution = DEFAULT, seed: int = DEFAULT_SEED, ceiling=None
) -> EquivReport:
    """One named experiment: an identity, a Hardy display or a lemma check over the seeded
    standard family, or the discretization check over 20 seeded random step functions (the first
    one's params and skips, every one's members); a ceiling of None keeps the experiment's own."""
    checked = check_params(CATALOGUE, name, params)
    given = {} if ceiling is None else {"ceiling": ceiling}
    if name in THEOREM_IDS:
        return run_identity_experiment(name, params, res=res, seed=seed, **given)
    if name.startswith("hardy:"):
        family = standard_family(seed=seed)
        return hardy_check(name.split(":", 1)[1], params, family, res, seed=seed, **given)
    if name in LEMMA_PARAMS:
        return run_lemma_experiment(name, params, standard_family(seed=seed), res, seed=seed, **given)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(20):
        m = random_steps(rng, nonincreasing=False)
        h = StepFunction(np.asarray(m.breaks), np.asarray(m.values))
        reports.append(discretization_check(h, checked["lambda"], checked["q"], **given))
    report = reports[0]
    report.members = [member for r in reports for member in r.members]
    report.seed = seed
    return report.finalize()


# ---------------------------------------------------------------------------
# explicit-constant inequality and windowed-sup lemmas
# ---------------------------------------------------------------------------


def prop32_check(f: StepRearrangement, p: float, r: float, eps: float) -> EquivReport:
    """sup_{t<x} t^{(1-eps)/p} f(t) against its prefix-integral bound
    (∫_0^x f^r s^{c-1} ds)^{1/r}, c = r(1-eps)/p, with the explicit constant
    2 (Log 2)^{1/r'}, at 27 log-spaced x; asserted, not bracketed."""
    exponents = {"p": p, "r": r, "eps": eps}
    check_params(CATALOGUE, "prop3.2", exponents)
    e = (1.0 - eps) / p
    c = r * (1.0 - eps) / p
    const = 2.0 * math.log(2.0) ** (1.0 - 1.0 / r)
    report = EquivReport("prop3.2", exponents, ceiling=1.0)
    violations = 0
    for x in np.exp(1.0 - np.linspace(1.0, 14.0, 27))[::-1].tolist():  # e^{-13} up to 1
        ends = np.minimum(f.breaks[1:], x)
        lhs = float(np.max(np.where(f.breaks[:-1] < x, ends**e * f.values, 0.0)))
        rhs = const * log_weight_integral(f, r, LogWeight(c - 1.0, 0.0), 0.0, x) ** (1.0 / r)
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
    exponents = {"p": p, "q": q, "alpha": alpha}
    check_params(CATALOGUE, "lemma3.1+3.3", exponents)
    grid = UGrid(res.u_max, res.sup_count)
    sigma = p / (p - 1.0)

    def g31(t):
        t = np.asarray(t, dtype=float)
        return t**-1.0 * (1.0 - np.log(t)) ** (-alpha / p) * prefix_power_at(f, 1.0, t**sigma)

    lhs31, _ = sup_on_grid(g31, grid, f.breaks[1:])
    rhs31 = grand_norm(f, p, alpha, res)

    def g33(t):
        t = np.asarray(t, dtype=float)
        return t ** (1.0 / q - 1.0 / p) * (1.0 - np.log(t)) ** (-alpha / q) * (
            prefix_power_at(f, p, t) ** (1.0 / p)
        )

    lhs33, _ = sup_on_grid(g33, grid, f.breaks[1:])
    rhs33 = grand_norm(f, q, alpha, res)
    report = EquivReport("lemma3.1+3.3", exponents, ceiling=ceiling)
    pairs = [("windowed-l1-mean", lhs31, rhs31), ("prefix-p-mean", lhs33, rhs33)]
    return _judge(report, pairs).finalize(require_two_sided=False)


def _lemma_report(name: str, f: StepRearrangement, exponents: dict, res: Resolution, ceiling: float):
    if name == "prop3.2":
        return prop32_check(f, exponents["p"], exponents["r"], exponents["eps"])
    if name == "lemma3.1+3.3":
        return lemma31_33_check(f, exponents["p"], exponents["q"], exponents["alpha"], res, ceiling)
    return sup_smoothing_check(f, exponents, name.split(":", 1)[1], ceiling)


def run_lemma_experiment(
    name: str,
    exponents: dict,
    family: FunctionFamily,
    res: Resolution = DEFAULT,
    ceiling: float = DEFAULT_CEILING,
    seed: int = DEFAULT_SEED,
) -> EquivReport:
    """One lemma check over a family: every member's rows (named member/row)
    judged one-sided, with the drift under doubling.  The experiment also fails
    where a member's own verdict fails at either resolution (prop 3.2's
    violations, sup smoothing's i_sup >= i_dir), and lists those members in
    params["failed_members"]."""
    check_params(CATALOGUE, name, exponents)
    failed: List[str] = []

    def rows_at(resolution: Resolution):
        for member, f in family.realize(resolution):
            with failure_context(f"{name} member {member} at {resolution}"):
                rep = _lemma_report(name, f, exponents, resolution, ceiling)
            if rep.members and not rep.passed and member not in failed:
                failed.append(member)
            yield from ((f"{member}/{m['id']}", m["lhs"], m["rhs"]) for m in rep.members)
            # a row the check skipped has a zero side, so it is skipped again
            yield from ((f"{member}/{m['id']}", 0.0, 0.0) for m in rep.skipped)

    report = EquivReport(name, dict(exponents), ceiling=ceiling, seed=seed)
    report = _judge_with_drift(report, rows_at, res, two_sided=False)
    report.params["failed_members"] = failed
    report.passed = report.passed and not failed
    return report
