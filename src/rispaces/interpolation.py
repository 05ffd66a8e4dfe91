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
from typing import Optional, Tuple

import numpy as np

from .config import DEFAULT, Resolution
from .errors import BadExponent, Divergent, HypothesisViolation
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
    "DerivedExponents",
    "derived_exponents",
    "interp_norm",
    "identify_target",
    "check_hypotheses",
    "target_space",
    "theorem_couple",
    "z_norm",
    "z_norm_alt",
    "doubling_time",
    "doubling_blocks",
    "THEOREM_IDS",
    "THEOREM_PARAMS",
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


@dataclass(frozen=True)
class DerivedExponents:
    p_theta: float
    sigma: float
    alpha_theta: float
    lam: float
    lam1: float
    a: float
    beta_theta: float


def derived_exponents(p: float, q: float, theta: float, r: float) -> DerivedExponents:
    """The exponent bookkeeping shared by all identities."""
    inv_p_theta = (1.0 - theta) / p + (theta / q if not math.isinf(q) else 0.0)
    lam = theta * (1.0 / p - (1.0 / q if not math.isinf(q) else 0.0))
    lam1 = (1.0 - theta) * (1.0 / p - (1.0 / q if not math.isinf(q) else 0.0))
    p_theta = 1.0 / inv_p_theta
    return DerivedExponents(
        p_theta=p_theta,
        sigma=p * q / (q - p) if not math.isinf(q) else p,
        alpha_theta=1.0 - theta - inv_p_theta,
        lam=lam,
        lam1=lam1,
        a=lam - theta,
        beta_theta=theta - 1.0 / p - 1.0 / r,
    )


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
# identified target norms
# ---------------------------------------------------------------------------

# Each identity's parameters, in catalogue order.
THEOREM_PARAMS = {
    "T1.1": ("p", "q", "alpha"),
    "T3.1": ("p", "q", "alpha"),
    "T1.2": ("p", "q", "theta", "r", "alpha"),
    "T3.4": ("p", "q", "theta", "r", "alpha"),
    "T5.1": ("p", "q", "theta", "r"),
    "P4.1": ("p", "alpha"),
    "P4.2": ("p", "q", "alpha"),
    "T1.3": ("p", "theta", "r"),
    "T6.2": ("p", "theta", "r"),
}
THEOREM_IDS = tuple(THEOREM_PARAMS)


@dataclass(frozen=True)
class ZSpace:
    """The same-exponent couple's (theta, r) interpolation space, normed by
    z_norm (T6.2) or z_norm_alt (T1.3)."""

    p: float
    theta: float
    r: float


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisViolation(msg)


def theorem_couple(theorem_id: str, p=None, q=None, alpha=None) -> CoupleSpec:
    if theorem_id == "T1.1":
        return GrandLq(p, q, alpha)
    if theorem_id == "T3.1":
        return LpLq(p, q)
    if theorem_id == "T1.2":
        return GrandGrand(p, q, alpha)
    if theorem_id == "T3.4":
        if alpha == 1.0:
            return SmallSmall(p, q)
        return General(Small(p, alpha), Small(q, alpha))
    if theorem_id == "T5.1":
        return SmallSmall(p, q)
    if theorem_id == "P4.1":
        return LpLq(p, math.inf)
    if theorem_id == "P4.2":
        return LpLq(p, q)
    if theorem_id in ("T1.3", "T6.2"):
        return GrandSmallSameP(p)
    raise HypothesisViolation(f"unknown experiment id {theorem_id!r}")


def _interp_params(theorem_id, p, q, theta, r, alpha) -> InterpParams:
    if theorem_id in ("T1.1", "T3.1"):
        return InterpParams(1.0, math.inf, -alpha / q)
    if theorem_id in ("T1.2", "T3.4", "T5.1", "T1.3", "T6.2"):
        return InterpParams(theta, r, 0.0)
    if theorem_id in ("P4.1", "P4.2"):
        return InterpParams(0.0, 1.0, -alpha / p + alpha - 1.0)
    raise HypothesisViolation(f"unknown experiment id {theorem_id!r}")


def check_hypotheses(theorem_id, p=None, q=None, theta=None, r=None, alpha=None) -> None:
    """Raise HypothesisViolation unless the identity's parameters are all given
    and lie in its range."""
    if theorem_id not in THEOREM_PARAMS:
        raise HypothesisViolation(f"unknown experiment id {theorem_id!r}")
    names = THEOREM_PARAMS[theorem_id]
    given = dict(p=p, q=q, theta=theta, r=r, alpha=alpha)
    _need(all(given[n] is not None for n in names), "need " + ", ".join(names))
    if theorem_id == "T3.1":
        _need(1.0 <= p < q < math.inf, "need 1 <= p < q < inf")
    elif "q" in names:
        _need(1.0 < p < q < math.inf, "need 1 < p < q < inf")
    else:
        _need(1.0 < p < math.inf, "need 1 < p < inf")
    if "theta" in names:
        _need(0.0 < theta < 1.0, "need 0 < theta < 1")
        _need(1.0 <= r < math.inf, "need 1 <= r < inf")
    if "alpha" in names:
        _need(alpha > 0.0, "need alpha > 0")
    if theorem_id == "T3.4":
        _need(r > 1.0, "need r > 1")


def target_space(theorem_id, p=None, q=None, theta=None, r=None, alpha=None):
    """The space whose norm is the identity's right side."""
    if theorem_id in ("T1.1", "T3.1"):
        return Grand(q, alpha)
    if theorem_id in ("P4.1", "P4.2"):
        return Small(p, alpha)
    if theorem_id in ("T1.3", "T6.2"):
        return ZSpace(p, theta, r)
    if theorem_id in ("T1.2", "T3.4", "T5.1"):
        d = derived_exponents(p, q, theta, r)
        if theorem_id == "T1.2":
            return LorentzZygmund(d.p_theta, r, -alpha / d.p_theta)
        if theorem_id == "T3.4":
            return LorentzZygmund(d.p_theta, r, alpha / d.p_theta)
        return LorentzZygmund(d.p_theta, r, d.alpha_theta)
    raise HypothesisViolation(f"unknown experiment id {theorem_id!r}")


def identify_target(
    theorem_id: str,
    f: StepRearrangement,
    p: float = None,
    q: float = None,
    theta: float = None,
    r: float = None,
    alpha: float = None,
    res: Resolution = DEFAULT,
    curve: Optional[KCurve] = None,
) -> Tuple[float, float]:
    """(interpolation norm from the oracle K-curve, identified target norm)."""
    check_hypotheses(theorem_id, p, q, theta, r, alpha)
    couple = theorem_couple(theorem_id, p, q, alpha)
    if curve is None:
        curve = k_curve(f, couple, UGrid(res.u_max, res.k_nodes), "oracle", res)
    lhs = interp_norm(curve, _interp_params(theorem_id, p, q, theta, r, alpha))
    space = target_space(theorem_id, p, q, theta, r, alpha)
    if isinstance(space, ZSpace):
        norm = z_norm if theorem_id == "T6.2" else z_norm_alt
        return lhs, norm(f, space.p, space.theta, space.r, res)
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


def z_norm(
    f: StepRearrangement, p: float, theta: float, r: float, res: Resolution = DEFAULT
) -> float:
    """Equivalent norm of the same-exponent couple's (theta, r) space.

    Three regimes split on theta vs 1/p: a tail form, a prefix form, and the
    doubly-exponential block sum at theta = 1/p (exact on step data).
    """
    if not (1.0 < p < math.inf and 0.0 < theta < 1.0 and 1.0 <= r < math.inf):
        raise BadExponent("need 1 < p < inf, 0 < theta < 1, 1 <= r < inf")
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


def z_norm_alt(
    f: StepRearrangement, p: float, theta: float, r: float, res: Resolution = DEFAULT
) -> float:
    """The discretization-derived twin of z_norm, T1.3's target norm: the inner
    prefix integrals of f^p against (1 - Log t)^{-1} under an outer
    (1 - Log t)^{theta r - 1} dt/t."""
    if not (1.0 < p < math.inf and 0.0 < theta < 1.0 and 1.0 <= r < math.inf):
        raise BadExponent("need 1 < p < inf, 0 < theta < 1, 1 <= r < inf")
    space = GammaDouble(p, r, LogWeight(-1.0, theta * r - 1.0), LogWeight(0.0, -1.0))
    return ggamma_norm(f, space, res)
