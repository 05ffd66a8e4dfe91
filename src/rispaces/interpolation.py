"""Interpolation-space norms from K-curves, and the identified target norms.

The interpolation norm weighs a K-curve by t^{-theta}(1 - Log t)^alpha in
L^r(dt/t).  Between curve nodes K is log-log interpolated, which makes every
segment a pure power and the whole integral a sum of closed-ish kernel terms;
below the first node K is extended linearly (K(t) ∝ t), which is the boundary
behavior forced by the finiteness of the second component norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .config import DEFAULT, Resolution
from .errors import BadExponent, Divergent, HypothesisViolation, failure_context
from .kfunctional import (
    CoupleSpec,
    General,
    GrandGrand,
    GrandLq,
    GrandSmallSameP,
    KCurve,
    LpLq,
    SmallSmall,
    k_curve,
)
from .logcalc import LogWeight, UGrid, linear_power_integrals, power_log_integrals, weight_integral
from .norms import (
    GammaDouble,
    Grand,
    LorentzZygmund,
    Small,
    ggamma_norm,
    prefix_log_integral,
    space_norm,
    tail_log_integral,
)
from .rearrangement import StepFunction, StepRearrangement, prefix_power_at

__all__ = [
    "InterpParams",
    "interp_norm",
    "identify_target",
    "Param",
    "check_params",
    "P",
    "P_FROM_1",
    "Q",
    "THETA",
    "R",
    "R_ABOVE_1",
    "ALPHA",
    "Identity",
    "IDENTITIES",
    "HYPOTHESES",
    "z_norm",
    "z_norm_alt",
    "doubling_time",
    "doubling_blocks",
    "THEOREM_IDS",
    "ZSpace",
]


@dataclass(frozen=True)
class InterpParams:
    theta: float
    r: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise BadExponent("theta must lie in [0, 1]")
        if not self.r >= 1.0:
            raise BadExponent("r must be >= 1")
        if not math.isfinite(self.alpha):
            raise BadExponent("alpha must be finite")


# ---------------------------------------------------------------------------
# the interpolation norm of a sampled curve
# ---------------------------------------------------------------------------


def interp_norm(curve: KCurve, params: InterpParams) -> float:
    """(∫_0^1 [t^{-theta}(1-Log t)^alpha K(t)]^r dt/t)^{1/r}, sup form for r = inf.

    Every piece is scaled by e^{-r·M}, M the largest log of the objective
    t^{-theta}(1-Log t)^alpha K(t) at the nodes, inside the exponent of its
    one exp, and the sum is scaled back in logs, so a large r overflows
    nothing.  Raises Divergent when the weighted integral is infinite (the
    function lies outside the interpolation space).
    """
    theta, r, alpha = params.theta, params.r, params.alpha
    t = curve.t_nodes
    k = curve.k_values
    if np.all(k == 0.0):
        return 0.0
    slope0 = k[0] / t[0]
    up = k > 0.0
    # where K > 0 at both ends, K is the power K(t_i)(t/t_i)^{m_i} on the segment
    i = np.flatnonzero(up[:-1] & up[1:])
    m = np.log(k[i + 1] / k[i]) / np.log(t[i + 1] / t[i])
    u = 1.0 - np.log(t)
    if math.isinf(r):
        if slope0 > 0.0 and theta == 1.0 and alpha > 0.0:
            raise Divergent("sup form diverges toward 0")
        # the objective t^{-theta}(1-Log t)^alpha K(t) at the nodes, and on each
        # power piece K = c·t^m (also c = slope0, m = 1 below the first node)
        # where its log-derivative in u vanishes, at u* = alpha/(m - theta)
        m = np.concatenate([[1.0], m])
        scale = np.concatenate([[slope0], k[i] * t[i] ** -m[1:]])
        ua, ub = np.concatenate([u[:1], u[i + 1]]), np.concatenate([[np.inf], u[i]])
        with np.errstate(divide="ignore", invalid="ignore"):
            us = alpha / (m - theta)
        inside = (ua < us) & (us < ub)  # a nan u* is never inside
        c, us = m[inside] - theta, us[inside]
        stationary = scale[inside] * np.exp((1.0 - us) * c) * us**alpha
        return float(max(np.max(k * t**-theta * u**alpha), np.max(stationary, initial=0.0)))
    lk = np.log(k[up])
    shift = r * float(np.max(lk - theta * np.log(t[up]) + alpha * np.log(u[up])))
    w = LogWeight(-theta * r - 1.0, alpha * r)
    total = 0.0
    # analytic tail below the first node
    if slope0 > 0.0:
        head = LogWeight((1.0 - theta) * r - 1.0, alpha * r)
        total += weight_integral(head, 0.0, float(t[0]), shift - r * math.log(slope0))
        if math.isinf(total):
            raise Divergent("interpolation integral diverges at 0")
    # K = 0 at one end only: K is linear in t from its root there
    j = np.flatnonzero(up[:-1] != up[1:])
    near, far = np.where(up[j], t[j + 1], t[j]), np.where(up[j], t[j], t[j + 1])
    rise = np.abs(k[j + 1] - k[j]) / (t[j + 1] - t[j])
    total += float(np.sum(linear_power_integrals(w, r, near, far, 0.0, rise, shift)))
    # K = K(t_i)(t/t_i)^m on the rest: a weight t^{(m - theta)r - 1}(1-Log t)^{alpha r}
    lead = r * (np.log(k[i]) - m * np.log(t[i]))
    total += float(np.sum(power_log_integrals((m - theta) * r - 1.0, alpha * r, t[i], t[i + 1], shift - lead)))
    if not math.isfinite(total):
        raise Divergent("interpolation integral diverges")
    return math.exp((math.log(total) + shift) / r)


# ---------------------------------------------------------------------------
# experiment parameters and identified target norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One catalogue parameter, declared once: its name, its range as a test of
    the call's values by name (defaults filled in) and as the statement an
    error quotes, and its default (None: the parameter is required)."""

    name: str
    test: Callable[[dict], bool]
    statement: str
    default: Optional[float] = None


def check_params(catalogue: dict, name: str, params: dict) -> dict:
    """The named experiment's parameters in catalogue order, its defaults filled
    in.  Raise HypothesisViolation for a name the catalogue (name -> Params)
    lacks, a parameter its entry does not declare, and the first declared one
    that is missing or fails its range: the one check of every experiment."""
    if name not in catalogue:
        raise HypothesisViolation(f"unknown experiment {name!r}; see list-experiments")
    declared = catalogue[name]
    names = ", ".join(d.name for d in declared)
    x = {d.name: params.get(d.name, d.default) for d in declared}
    unknown = [key for key in params if key not in x]
    if unknown:
        raise HypothesisViolation(f"{name} takes no parameter {unknown[0]!r}; it takes {names}")
    missing = [key for key, value in x.items() if value is None]
    if missing:
        raise HypothesisViolation(f"{name} needs parameter {missing[0]!r}; it takes {names}")
    for d in declared:
        if not d.test(x):
            raise HypothesisViolation(f"{name} needs {d.statement}, got {d.name} = {x[d.name]!r}")
    return x


# The identities' parameters, each range declared once (T3.1 admits p = 1, T3.4
# needs r > 1); the lemma checks of equivharness share them.
P = Param("p", lambda x: 1.0 < x["p"] < math.inf, "1 < p < inf")
P_FROM_1 = Param("p", lambda x: 1.0 <= x["p"] < math.inf, "1 <= p < inf")
Q = Param("q", lambda x: x["p"] < x["q"] < math.inf, "p < q < inf")
THETA = Param("theta", lambda x: 0.0 < x["theta"] < 1.0, "0 < theta < 1")
R = Param("r", lambda x: 1.0 <= x["r"] < math.inf, "1 <= r < inf")
R_ABOVE_1 = Param("r", lambda x: 1.0 < x["r"] < math.inf, "1 < r < inf")
ALPHA = Param("alpha", lambda x: 0.0 < x["alpha"] < math.inf, "0 < alpha < inf")


@dataclass(frozen=True)
class ZSpace:
    """The same-exponent couple's (theta, r) interpolation space, T6.2's
    target, normed by z_norm."""

    p: float
    theta: float
    r: float

    def holds_power_log(self, gamma: float, delta: float) -> bool:
        ip = 1.0 / self.p
        return gamma < ip or (gamma == ip and delta > self.theta)


def _t13_space(p, theta, r):
    """T1.3's target GΓ(p, r, t^{-1}(1 - Log t)^{theta r - 1}, (1 - Log t)^{-1})."""
    return GammaDouble(p, r, LogWeight(-1.0, theta * r - 1.0), LogWeight(0.0, -1.0))


@dataclass(frozen=True)
class Identity:
    """One identity, declared once: its parameters and, each a function of the
    checked parameters by name, the couple whose oracle K-curve gives the left
    side, that side's InterpParams, and the right side's space."""

    params: Tuple[Param, ...]
    couple: Callable[..., CoupleSpec]
    side: Callable[..., InterpParams]
    target: Callable[..., object]


def _lz_target(p, q, theta, r, alpha=None):
    """LZ(p_theta, r, alpha/p_theta), and without alpha LZ(p_theta, r, alpha_theta), where
    1/p_theta = (1 - theta)/p + theta/q and alpha_theta = 1 - theta - 1/p_theta."""
    inv_p_theta = (1.0 - theta) / p + theta / q
    p_theta = 1.0 / inv_p_theta
    return LorentzZygmund(p_theta, r, 1.0 - theta - inv_p_theta if alpha is None else alpha / p_theta)


# The left sides: the log-damped sup (T1.1, T3.1), the (theta, r) norm, and
# the log-weighted L^1(dt/t) norm (P4.1, P4.2).
_SUP_SIDE = lambda q, alpha, **_: InterpParams(1.0, math.inf, -alpha / q)  # noqa: E731
_THETA_R_SIDE = lambda theta, r, **_: InterpParams(theta, r, 0.0)  # noqa: E731
_L1_SIDE = lambda p, alpha, **_: InterpParams(0.0, 1.0, -alpha / p + alpha - 1.0)  # noqa: E731
_GRAND_TARGET = lambda q, alpha, **_: Grand(q, alpha)  # noqa: E731
_SMALL_TARGET = lambda p, alpha, **_: Small(p, alpha)  # noqa: E731

# The nine identities, in catalogue order.
IDENTITIES = {
    "T1.1": Identity((P, Q, ALPHA), lambda p, q, alpha: GrandLq(p, q, alpha), _SUP_SIDE, _GRAND_TARGET),
    "T3.1": Identity((P_FROM_1, Q, ALPHA), lambda p, q, **_: LpLq(p, q), _SUP_SIDE, _GRAND_TARGET),
    "T1.2": Identity((P, Q, THETA, R, ALPHA), lambda p, q, alpha, **_: GrandGrand(p, q, alpha), _THETA_R_SIDE,
                     lambda alpha, **x: _lz_target(**x, alpha=-alpha)),
    "T3.4": Identity((P, Q, THETA, R_ABOVE_1, ALPHA),
                     lambda p, q, alpha, **_: SmallSmall(p, q) if alpha == 1.0
                     else General(Small(p, alpha), Small(q, alpha)), _THETA_R_SIDE, _lz_target),
    "T5.1": Identity((P, Q, THETA, R), lambda p, q, **_: SmallSmall(p, q), _THETA_R_SIDE, _lz_target),
    "P4.1": Identity((P, ALPHA), lambda p, **_: LpLq(p, math.inf), _L1_SIDE, _SMALL_TARGET),
    "P4.2": Identity((P, Q, ALPHA), lambda p, q, **_: LpLq(p, q), _L1_SIDE, _SMALL_TARGET),
    "T1.3": Identity((P, THETA, R), lambda p, **_: GrandSmallSameP(p), _THETA_R_SIDE, _t13_space),
    "T6.2": Identity((P, THETA, R), lambda p, **_: GrandSmallSameP(p), _THETA_R_SIDE, ZSpace),
}
HYPOTHESES = {name: identity.params for name, identity in IDENTITIES.items()}
THEOREM_IDS = tuple(IDENTITIES)


def identify_target(
    theorem_id: str,
    f: StepRearrangement,
    p: float = None,
    q: float = None,
    theta: float = None,
    r: float = None,
    alpha: float = None,
    res: Resolution = DEFAULT,
) -> Tuple[float, float]:
    """(interpolation norm from the oracle K-curve, identified target norm); a
    failure names its side.  The left side is memoized on the function: the
    identities that share a couple and parameters (T1.3 and T6.2) share it."""
    given = dict(p=p, q=q, theta=theta, r=r, alpha=alpha)
    args = check_params(HYPOTHESES, theorem_id, {key: v for key, v in given.items() if v is not None})
    identity = IDENTITIES[theorem_id]
    couple, params = identity.couple(**args), identity.side(**args)

    def left_side():
        return interp_norm(k_curve(f, couple, UGrid(res.u_max, res.k_nodes), "oracle", res), params)

    with failure_context("oracle K-curve"):
        lhs = f.memo(("lhs", couple, params, res), left_side)
    space = identity.target(**args)
    with failure_context("target norm"):
        if isinstance(space, ZSpace):
            return lhs, z_norm(f, space.p, space.theta, space.r)
        return lhs, space_norm(f, space, res)


# ---------------------------------------------------------------------------
# equivalent norms of the same-exponent interpolation scale
# ---------------------------------------------------------------------------


def doubling_time(k: int) -> float:
    """t_k = 2^{1 - 2^k}: the doubly-exponential grid of the critical case."""
    if k < 0:
        raise BadExponent("index must be a natural number")
    return float(2.0 ** (1.0 - 2.0 ** float(k)))


def doubling_blocks(f: StepFunction, p: float) -> np.ndarray:
    """∫_{t_{k+1}}^{t_k} f^p for k = 0, 1, ... until t_{k+1} underflows to 0
    (11 blocks), exact on step data."""
    ts = [1.0]
    while ts[-1] > 0.0:
        ts.append(doubling_time(len(ts)))
    pref = prefix_power_at(f, p, np.array(ts))
    return pref[:-1] - pref[1:]


def z_norm(f: StepRearrangement, p: float, theta: float, r: float) -> float:
    """Equivalent norm of the same-exponent couple's (theta, r) space.

    Three regimes split on theta vs 1/p: a tail form, a prefix form, and the
    doubly-exponential block sum at theta = 1/p (exact on step data).
    """
    check_params(HYPOTHESES, "T6.2", dict(p=p, theta=theta, r=r))
    bt = theta - 1.0 / p - 1.0 / r
    ip = 1.0 / p
    if theta == ip:
        total = 0.0
        for block in doubling_blocks(f, p).tolist():  # in order, one at a time
            total += block ** (r / p)
        return total ** (1.0 / r)
    w = LogWeight(-1.0, bt * r)
    if theta < ip:
        return tail_log_integral(f, p, r / p, w) ** (1.0 / r)
    return prefix_log_integral(f, p, r / p, w, 1.0) ** (1.0 / r)


def z_norm_alt(f: StepRearrangement, p: float, theta: float, r: float) -> float:
    """The discretization-derived twin of z_norm, T1.3's target norm: the inner
    prefix integrals of f^p against (1 - Log t)^{-1} under an outer
    (1 - Log t)^{theta r - 1} dt/t."""
    check_params(HYPOTHESES, "T1.3", dict(p=p, theta=theta, r=r))
    return ggamma_norm(f, _t13_space(p, theta, r))
