"""Norms of the five space families, evaluated on decreasing rearrangements.

Space descriptors are small frozen dataclasses; every norm is a pure function
of a ``StepRearrangement``.  Inner prefix/tail power integrals are exact on
step data; outer weighted integrals and suprema run on the log scale through
:mod:`rispaces.logcalc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .config import DEFAULT, Resolution
from .errors import BadExponent, ConditionC2Failed
from .logcalc import (
    LogWeight,
    UGrid,
    golden_refine,
    log_quad,
    log_quad_multi,
    log_weight_integral,
    sup_on_grid,
    tail_block_integral,
    weight_integral,
    weight_prefix_many,
)
from .rearrangement import (
    StepRearrangement,
    capped_part,
    evaluate_many,
    excess_part,
    prefix_power_at,
    tail_power_at,
)

__all__ = [
    "Lebesgue",
    "LorentzZygmund",
    "Grand",
    "Small",
    "GammaDouble",
    "SpaceSpec",
    "space_norm",
    "lebesgue_norm",
    "lorentz_zygmund_norm",
    "grand_norm",
    "small_norm",
    "ggamma_norm",
    "norms_over_cuts",
    "prefix_log_integral",
    "tail_log_integral",
    "w2_prefix_at",
    "fundamental_function",
    "fundamental_equivalent_weight",
    "ggamma_lower_bound_check",
]


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise BadExponent(msg)


@dataclass(frozen=True)
class Lebesgue:
    p: float

    def __post_init__(self):
        _check(self.p >= 1.0, "Lebesgue exponent must be >= 1")


@dataclass(frozen=True)
class LorentzZygmund:
    p: float
    q: float
    alpha: float

    def __post_init__(self):
        _check(1.0 < self.p < math.inf, "first exponent must lie in (1, inf)")
        _check(self.q >= 1.0, "second exponent must be >= 1")
        _check(math.isfinite(self.alpha), "log exponent must be finite")


@dataclass(frozen=True)
class Grand:
    p: float
    alpha: float

    def __post_init__(self):
        _check(1.0 < self.p < math.inf, "grand exponent must lie in (1, inf)")
        _check(self.alpha > 0.0, "grand log parameter must be positive")


@dataclass(frozen=True)
class Small:
    """Small space carrying its own exponent p (no conjugation happens here)."""

    p: float
    alpha: float

    def __post_init__(self):
        _check(1.0 < self.p < math.inf, "small exponent must lie in (1, inf)")
        _check(self.alpha > 0.0, "small log parameter must be positive")


@dataclass(frozen=True)
class GammaDouble:
    """Doubly weighted space: outer L^{m/p}(w1) of the inner w2-prefix integrals.

    Construction records the doubling constant of w2 and verifies that
    t -> ∫_0^t w2 lies in L^{m/p}(0,1; w1); divergence raises ConditionC2Failed.
    """

    p: float
    m: float
    w1: LogWeight
    w2: LogWeight

    def __post_init__(self):
        _check(1.0 <= self.p < math.inf, "inner exponent must lie in [1, inf)")
        _check(self.m >= 1.0, "outer exponent must be >= 1")
        object.__setattr__(self, "k12", self.w2.doubling_constant())
        self._validate_weights()

    def _validate_weights(self):
        p, m = self.p, self.m
        a2, b2 = self.w2.a, self.w2.b
        # embedding of L^p(w2) into L^1 (Hoelder against w2^{-p'/p})
        if p > 1.0:
            pp = p / (p - 1.0)
            ok = a2 * pp / p < 1.0 or (a2 * pp / p == 1.0 and b2 * pp / p > 1.0)
        else:
            ok = a2 < 0.0 or (a2 == 0.0 and b2 >= 0.0)
        if not ok:
            raise ConditionC2Failed("inner weight does not embed L^p(w2) into L^1")
        # leading behavior of W2(t) = ∫_0^t w2 near zero
        if a2 > -1.0:
            e_t, e_b = a2 + 1.0, b2
        elif a2 == -1.0 and b2 < -1.0:
            e_t, e_b = 0.0, b2 + 1.0
        else:
            raise ConditionC2Failed("∫_0^t w2 diverges")
        a1, b1 = self.w1.a, self.w1.b
        if math.isinf(m):
            power = a1 + e_t / p
            logexp = b1 + e_b / p
            ok = power > 0.0 or (power == 0.0 and logexp <= 0.0)
        else:
            power = a1 + e_t * m / p
            logexp = b1 + e_b * m / p
            ok = power > -1.0 or (power == -1.0 and logexp < -1.0)
        if not ok:
            raise ConditionC2Failed("∫_0^t w2 is not in the outer weighted space")


SpaceSpec = Union[Lebesgue, LorentzZygmund, Grand, Small, GammaDouble]


# ---------------------------------------------------------------------------
# the norms
# ---------------------------------------------------------------------------


def lebesgue_norm(f: StepRearrangement, p: float) -> float:
    """(∫_0^1 f^p)^{1/p}, or the essential sup for p = inf; exact on steps."""
    _check(p >= 1.0, "Lebesgue exponent must be >= 1")
    if math.isinf(p):
        return float(f.values[0])
    return float(prefix_power_at(f, p, 1.0)) ** (1.0 / p)


def lorentz_zygmund_norm(
    f: StepRearrangement,
    p: float,
    q: float,
    alpha: float,
    res: Resolution = DEFAULT,
) -> float:
    """(∫_0^1 [t^{1/p-1/q}(1-Log t)^alpha f(t)]^q dt)^{1/q}; sup form for q = inf.

    Accepts p = 1 (the degenerate log-weighted L^1 case) even though the space
    descriptor keeps p strictly above 1.
    """
    _check(1.0 <= p < math.inf and q >= 1.0 and math.isfinite(alpha), "bad exponents")
    if math.isinf(q):
        w = LogWeight(1.0 / p, alpha)

        def g(t):
            return w(t) * evaluate_many(f, np.asarray(t, dtype=float))

        # the weight peaks at u = alpha * p; probe it alongside the panel ends
        extras = list(f.breaks[1:])
        if alpha > 0.0 and alpha * p > 1.0:
            extras.append(float(np.exp(1.0 - alpha * p)))
        val, _ = sup_on_grid(g, UGrid(res.u_max, res.sup_count), extras)
        return val
    w = LogWeight(q / p - 1.0, alpha * q)
    return log_weight_integral(f, q, w, 0.0, 1.0, res.rel_tol) ** (1.0 / q)


def grand_norm(
    f: StepRearrangement, p: float, alpha: float, res: Resolution = DEFAULT
) -> float:
    """sup_t (1-Log t)^{-alpha/p} (∫_t^1 f^p)^{1/p}, exact tails on step data."""
    return float(norms_over_cuts(f, Grand(p, alpha), np.zeros(1), "excess", res)[0])


def small_norm(
    f: StepRearrangement, p: float, alpha: float, res: Resolution = DEFAULT
) -> float:
    """∫_0^1 (1-Log t)^{-alpha/p + alpha - 1} (∫_0^t f^p)^{1/p} dt/t.

    The exponent p is the space's own exponent; pairing it with a grand space
    of exponent r requires passing p = r' explicitly.
    """
    return float(norms_over_cuts(f, Small(p, alpha), np.zeros(1), "excess", res)[0])


def w2_prefix_at(f: StepRearrangement, spec: GammaDouble, ts: np.ndarray) -> np.ndarray:
    """∫_0^t f^p w2 at many points, exact panel structure."""
    cache = f._cache
    key = ("w2prefix", spec.p, spec.w2)
    if key not in cache:
        w2_at_breaks = weight_prefix_many(spec.w2, f.breaks)
        vp = f.values**spec.p
        pref = np.concatenate([[0.0], np.cumsum(vp * np.diff(w2_at_breaks))])
        cache[key] = (pref, vp, w2_at_breaks)
    pref, vp, w2_at_breaks = cache[key]
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    idx = np.clip(np.searchsorted(f.breaks, ts, side="left"), 1, f.n)
    part = weight_prefix_many(spec.w2, ts) - w2_at_breaks[idx - 1]
    return pref[idx - 1] + vp[idx - 1] * np.maximum(part, 0.0)


def ggamma_norm(f: StepRearrangement, spec: GammaDouble, res: Resolution = DEFAULT) -> float:
    """[∫_0^1 w1(t) (∫_0^t f^p w2)^{m/p} dt]^{1/m}; sup form for m = inf."""
    p, m = spec.p, spec.m

    def g(t):
        return w2_prefix_at(f, spec, t) ** (1.0 / p)

    if math.isinf(m):
        def obj(t):
            t = np.asarray(t, dtype=float)
            return spec.w1(t) * g(t)

        val, _ = sup_on_grid(obj, UGrid(res.u_max, res.sup_count), f.breaks[1:])
        return val

    def gm(t):
        return w2_prefix_at(f, spec, t) ** (m / p)

    return log_quad(gm, spec.w1, 0.0, 1.0, res.rel_tol, breaks=f.breaks[1:-1]) ** (1.0 / m)


def space_norm(f: StepRearrangement, spec: SpaceSpec, res: Resolution = DEFAULT) -> float:
    if isinstance(spec, Lebesgue):
        return lebesgue_norm(f, spec.p)
    if isinstance(spec, LorentzZygmund):
        return lorentz_zygmund_norm(f, spec.p, spec.q, spec.alpha, res)
    if isinstance(spec, Grand):
        return grand_norm(f, spec.p, spec.alpha, res)
    if isinstance(spec, Small):
        return small_norm(f, spec.p, spec.alpha, res)
    if isinstance(spec, GammaDouble):
        return ggamma_norm(f, spec, res)
    raise TypeError(f"unknown space spec {spec!r}")


# ---------------------------------------------------------------------------
# batched norms over a family of truncation cuts
#
# K-functional oracles minimize norm0((f-c)_+) + t·norm1(min(f,c)) over many
# cuts c at once; the prefix integrals of every cut share the panel grid, so
# all three norm families evaluate as matrix passes.
# ---------------------------------------------------------------------------


def _cut_panel_powers(f: StepRearrangement, p: float, cuts: np.ndarray, kind: str):
    """(VP, PREF): panel values^p and cumulative prefix integrals, per cut."""
    v = f.values[:, None]
    c = cuts[None, :]
    vals = np.maximum(v - c, 0.0) if kind == "excess" else np.minimum(v, c)
    vp = vals**p
    pref = np.vstack([np.zeros(cuts.size), np.cumsum(vp * f.widths[:, None], axis=0)])
    return vp, pref


def _prefix_multi(f: StepRearrangement, vp, pref, ts: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(f.breaks, ts, side="left"), 1, f.n)
    return pref[idx - 1, :] + vp[idx - 1, :] * (ts - f.breaks[idx - 1])[:, None]


def _prefix_log_integrals(
    f: StepRearrangement, vp, pref, s: float, b: float, hs: np.ndarray, rel_tol: float
) -> np.ndarray:
    """∫_0^h (1-Log t)^b P(t)^s dt/t for each h of the increasing array hs and
    each column of panel powers vp: a (len(hs), columns) array, with P(t) the
    exact prefix integral of that column (cumulative column of pref).

    Below the first break P is exactly vp[0]·t, so that stretch is the pure
    kernel t^{s-1}(1-Log t)^b, taken by one cumulative sweep; above it the
    multi-column log_quads between consecutive h accumulate.
    """
    x1 = f.min_positive_break()
    heads = np.minimum(hs, x1)
    kernel = np.zeros(hs.size)
    kernel[heads > 0.0] = weight_prefix_many(LogWeight(s - 1.0, b), heads[heads > 0.0], rel_tol)
    out = vp[0, :] ** s * kernel[:, None]
    above = hs > x1
    if above.any():

        def g(ts):
            return _prefix_multi(f, vp, pref, np.asarray(ts, dtype=float)) ** s

        edges = np.concatenate([[x1], hs[above]])
        w = LogWeight(-1.0, b)
        pieces = [
            log_quad_multi(g, w, lo, hi, rel_tol, f.breaks[1:-1])
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        out[above] += np.cumsum(pieces, axis=0)
    return out


def prefix_log_integral(
    f: StepRearrangement, p: float, s: float, b: float, h, rel_tol: float
) -> Union[float, np.ndarray]:
    """∫_0^h (1-Log t)^b (∫_0^t f^p)^s dt/t at a scalar h (a float) or at each h
    of an increasing array: the one-column _prefix_log_integrals."""
    pref, vp = f.prefix_power(p)
    hs = np.asarray(h, dtype=float)
    out = _prefix_log_integrals(
        f, vp[:, None], pref[:, None], s, b, np.atleast_1d(hs), rel_tol
    )[:, 0]
    return float(out[0]) if hs.ndim == 0 else out


def tail_log_integral(f: StepRearrangement, p: float, s: float, d: float, rel_tol: float) -> float:
    """∫_0^1 (1-Log t)^d (∫_t^1 f^p)^s dt/t.

    Below the first break the tail is exactly total - v1^p·t, which
    ``tail_block_integral`` closes even where the weight alone decays only
    polynomially in u; the rest is one log_quad.
    """
    total = float(prefix_power_at(f, p, 1.0))
    x1 = f.min_positive_break()
    head = tail_block_integral(d, total, float(f.values[0]) ** p, s, x1, rel_tol)

    def g(t):
        return tail_power_at(f, p, np.asarray(t, dtype=float)) ** s

    return head + log_quad(g, LogWeight(-1.0, d), x1, 1.0, rel_tol, f.breaks[1:-1])


def norms_over_cuts(
    f: StepRearrangement,
    spec: SpaceSpec,
    cuts: np.ndarray,
    kind: str,
    res: Resolution = DEFAULT,
) -> np.ndarray:
    """Norms of (f - c)_+ (kind='excess') or min(f, c) (kind='capped'), all cuts."""
    if isinstance(spec, Lebesgue):
        if math.isinf(spec.p):
            v = f.values[0]
            return np.maximum(v - cuts, 0.0) if kind == "excess" else np.minimum(v, cuts)
        vp, pref = _cut_panel_powers(f, spec.p, cuts, kind)
        return pref[-1, :] ** (1.0 / spec.p)
    if isinstance(spec, Grand):
        e, ip = -spec.alpha / spec.p, 1.0 / spec.p
        vp, pref = _cut_panel_powers(f, spec.p, cuts, kind)
        ts = np.unique(np.concatenate([UGrid(res.u_max, res.sup_count).t_nodes(), f.breaks[1:]]))
        tails = np.maximum(pref[-1, :][None, :] - _prefix_multi(f, vp, pref, ts), 0.0)
        obj = (1.0 - np.log(ts))[:, None] ** e * tails**ip
        i = np.argmax(obj, axis=0)
        cols = np.arange(cuts.size)

        def h(t, j):
            k = np.clip(np.searchsorted(f.breaks, t, side="left"), 1, f.n)
            tail = pref[-1, j] - (pref[k - 1, j] + vp[k - 1, j] * (t - f.breaks[k - 1]))
            return (1.0 - np.log(t)) ** e * np.maximum(tail, 0.0) ** ip

        out, _ = golden_refine(
            h, ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, ts.size - 1)], obj[i, cols], ts[i]
        )
        return out
    if isinstance(spec, Small):
        p, alpha = spec.p, spec.alpha
        vp, pref = _cut_panel_powers(f, p, cuts, kind)
        b = alpha - alpha / p - 1.0
        return _prefix_log_integrals(f, vp, pref, 1.0 / p, b, np.ones(1), res.rel_tol)[0]
    # no batched path: fall back to one norm per cut
    make = excess_part if kind == "excess" else capped_part
    return np.array([space_norm(make(f, float(c)), spec, res) for c in cuts])


# ---------------------------------------------------------------------------
# fundamental functions
# ---------------------------------------------------------------------------


def fundamental_equivalent_weight(spec: SpaceSpec) -> LogWeight:
    """Closed-form equivalent of t -> norm of χ_{(0,t)} as a log weight."""
    if isinstance(spec, Lebesgue):
        return LogWeight(0.0 if math.isinf(spec.p) else 1.0 / spec.p, 0.0)
    if isinstance(spec, Grand):
        return LogWeight(1.0 / spec.p, -spec.alpha / spec.p)
    if isinstance(spec, Small):
        # the stable closed form carries the conjugate exponent on the log factor
        return LogWeight(1.0 / spec.p, spec.alpha * (1.0 - 1.0 / spec.p))
    if isinstance(spec, LorentzZygmund):
        return LogWeight(1.0 / spec.p, spec.alpha)
    raise BadExponent("no closed-form fundamental equivalent for this space")


def fundamental_function(
    spec: SpaceSpec, t: float, res: Resolution = DEFAULT
) -> Tuple[float, float]:
    """(exact norm of χ_{(0,t)}, closed-form equivalent) at measure t."""
    if not (0.0 < t < 1.0):
        raise BadExponent("measure must lie in (0, 1)")
    chi = StepRearrangement(np.array([0.0, t, 1.0]), np.array([1.0, 0.0]))
    exact = space_norm(chi, spec, res)
    equivalent = float(fundamental_equivalent_weight(spec)(t))
    return exact, equivalent


# ---------------------------------------------------------------------------
# the one-sided inequality with explicit constant
# ---------------------------------------------------------------------------


def ggamma_lower_bound_check(
    f: StepRearrangement, spec: GammaDouble, measE: float, res: Resolution = DEFAULT
) -> Tuple[float, float]:
    """Two sides of the norm lower bound over the set (0, measE): lhs >= rhs."""
    if not (0.0 < measE <= 1.0):
        raise BadExponent("set measure must lie in (0, 1]")
    p, m = spec.p, spec.m
    rho = ggamma_norm(f, spec, res)
    w2_mass = weight_integral(spec.w2, 0.0, measE)
    unit = StepRearrangement(np.array([0.0, 1.0]), np.array([1.0]))

    def w2_pref(t):
        return w2_prefix_at(unit, spec, np.atleast_1d(np.asarray(t, dtype=float)))

    if math.isinf(m):
        def obj(t):
            return spec.w1(np.asarray(t)) * w2_pref(t) ** (1.0 / p)

        denom, _ = sup_on_grid(obj, UGrid(res.u_max, res.sup_count), [measE])
    else:
        def gm(t):
            return w2_pref(t) ** (m / p)

        denom = log_quad(gm, spec.w1, 0.0, measE, res.rel_tol) ** (1.0 / m)
    lhs = rho * w2_mass ** (1.0 / p) / denom if denom > 0 else math.inf
    rhs_sq = w2_prefix_at(f, spec, np.array([measE]))[0]
    return lhs, float(rhs_sq ** (1.0 / p))
