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
    adaptive_quad,
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
    StepFunction,
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

    def make():
        w2_at_breaks = weight_prefix_many(spec.w2, f.breaks)
        vp = f.values**spec.p
        return np.concatenate([[0.0], np.cumsum(vp * np.diff(w2_at_breaks))]), vp, w2_at_breaks

    pref, vp, w2_at_breaks = f.memo(("w2prefix", spec.p, spec.w2), make)
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
# cuts c at once.  Each truncation keeps most of f's panel structure: with v
# the nonincreasing panel values, (f - c)_+ vanishes past the first
# J = #{v > c} panels, and min(f, c) is the constant c on the first
# K = #{v >= c} panels and f after them.  So the prefix integral P_c of a
# cut's p-th power is linear below one break and constant from another
# (_cut_reach), and the Small and Grand branches evaluate a cut at points only
# where it is neither, in blocks of at most about _CELLS (point, cut) values.
# ---------------------------------------------------------------------------

_CELLS = 1 << 20


def _cut_panel_powers(f: StepRearrangement, p: float, cuts: np.ndarray, kind: str):
    """(VP, PREF): panel values^p and cumulative prefix integrals, per cut."""
    v = f.values[:, None]
    c = cuts[None, :]
    vp = np.maximum(v - c, 0.0) if kind == "excess" else np.minimum(v, c)
    vp **= p
    pref = np.empty((f.n + 1, cuts.size))
    pref[0] = 0.0
    np.cumsum(vp * f.widths[:, None], axis=0, out=pref[1:])
    return vp, pref


def _cut_reach(f: StepRearrangement, cuts: np.ndarray, kind: str):
    """Panel counts (H, Z) per cut: P_c(t) = VP[0]·t on (0, x_H], H >= 1, and
    P_c is constant on [x_Z, 1].  H and the excess's Z are nonincreasing in
    the cut; the capped Z is #{v > 0} for every positive cut.  Z counts the
    suffix maxima of the values, so the excess of any step function (the
    prefix integrals take c = 0) stops at its last value above c."""
    reach = -np.maximum.accumulate(f.values[::-1])[::-1]
    if kind == "excess":
        return np.ones(cuts.size, dtype=int), np.searchsorted(reach, -cuts, side="left")
    positive = int(np.searchsorted(reach, 0.0, side="left"))
    linear = np.maximum(np.searchsorted(-f.values, -cuts, side="right"), 1)
    return linear, np.where(cuts > 0.0, positive, 0)


def _prefix_log_integrals(
    f: StepRearrangement,
    p: float,
    s: float,
    w: LogWeight,
    cuts: np.ndarray,
    kind: str,
    hs: np.ndarray,
    rel_tol: float,
) -> np.ndarray:
    """∫_0^h w(t) P_c(t)^s dt for each h of the increasing array hs and each
    cut: a (len(hs), len(cuts)) array, with P_c the exact prefix integral of
    the p-th power of the cut's truncation (kind as in norms_over_cuts).

    The pieces run between edges: the hs and every block-th panel break from
    x_1 on.  Below the last edge under x_H, P_c^s w is VP[0]^s·t^s w(t), a
    pure weight that one weight_prefix_many sweep gives for every cut; past the
    first edge over x_Z the constant P_c^s integrates in closed form.  Each
    piece in between is one log_quad_multi call over just the cuts that need
    it.  Once a piece starts past x_H, a capped cut's P_c there is its prefix
    at the piece's first break plus the one column ∫ f^p from that break: a
    broadcast, not a gather.
    """
    x, n = f.breaks, f.n
    vp, pref = _cut_panel_powers(f, p, cuts, kind)
    linear, flat = _cut_reach(f, cuts, kind)
    # in this order the cuts a piece needs come first: Z falls along it for
    # the excess (whose H is 1), H rises for the capped (whose Z is shared,
    # but for c = 0, which is zero and comes last)
    order = np.argsort(cuts if kind == "excess" else -cuts, kind="stable")
    vp, pref, linear, flat = vp[:, order], pref[:, order], linear[order], flat[order]
    x1 = f.min_positive_break()
    block = max(1, _CELLS // (15 * cuts.size))  # 15 quadrature nodes per panel
    edges = np.unique(np.concatenate([x[1::block], [1.0], hs]))
    edges = edges[(edges >= x1) & (edges <= max(float(hs[-1]), x1))]
    first = np.searchsorted(edges, x[linear], side="right") - 1
    last = np.maximum(np.searchsorted(edges, x[flat], side="left"), first)
    last = np.minimum(last, edges.size - 1)

    heads = np.minimum(hs[:, None], edges[first][None, :])
    kernel = np.zeros(heads.shape)
    kernel[heads > 0.0] = weight_prefix_many(LogWeight(w.a + s, w.b), heads[heads > 0.0])

    closed = [weight_integral(w, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    piece = np.arange(edges.size - 1)[:, None]
    parts = np.where(piece >= last, pref[-1] ** s * np.reshape(closed, (-1, 1)), 0.0)
    _, vpf = f.prefix_power(p)
    for k in range(edges.size - 1):
        m = int(np.count_nonzero((first <= k) & (k < last)))
        if m == 0:
            continue
        lo, hi = edges[k], edges[k + 1]
        i0 = int(np.searchsorted(x, lo, side="right")) - 1
        mb = int(np.count_nonzero(linear[:m] <= i0)) if kind == "capped" else 0
        i1 = min(int(np.searchsorted(x, hi, side="left")), n)
        local = np.concatenate([[0.0], np.cumsum(vpf[i0:i1] * f.widths[i0:i1])])

        def g(t, m=m, mb=mb, i0=i0, i1=i1, local=local):
            # panel (x_j, x_{j+1}] of each point, kept inside the piece's panels
            j = np.clip(np.searchsorted(x, t, side="left") - 1, i0, i1 - 1)
            dt = t - x[j]
            out = np.empty((t.size, m))
            if mb:
                np.add(pref[i0, :mb], (local[j - i0] + vpf[j] * dt)[:, None], out=out[:, :mb])
            if m > mb:
                np.multiply(vp[j, mb:m], dt[:, None], out=out[:, mb:])
                out[:, mb:] += pref[j, mb:m]
            out **= s
            return out

        parts[k, :m] = log_quad_multi(g, w, lo, hi, rel_tol, x[1:-1])
    done = np.cumsum(np.vstack([np.zeros(cuts.size), parts]), axis=0)
    below = np.maximum(np.searchsorted(edges, hs, side="right") - 1, 0)
    out = np.empty(heads.shape)
    out[:, order] = vp[0] ** s * kernel + done[below]
    return out


def prefix_log_integral(
    f: StepFunction, p: float, s: float, w: LogWeight, h, rel_tol: float
) -> Union[float, np.ndarray]:
    """∫_0^h w(t) (∫_0^t f^p)^s dt at a scalar h (a float) or at each h of an
    increasing array: the one-cut (c = 0) _prefix_log_integrals."""
    hs = np.asarray(h, dtype=float)
    out = _prefix_log_integrals(
        f, p, s, w, np.zeros(1), "excess", np.atleast_1d(hs), rel_tol
    )[:, 0]
    return float(out[0]) if hs.ndim == 0 else out


def tail_log_integral(f: StepFunction, p: float, s: float, w: LogWeight, rel_tol: float) -> float:
    """∫_0^1 w(t) (∫_t^1 f^p)^s dt.

    Below the first break the tail is exactly total - v1^p·t, which
    ``tail_block_integral`` closes even where the weight alone decays only
    polynomially in u; the rest is one log_quad.  On the last positive panel,
    ending at x_m, the tail is exactly v_m^p (x_m - t), so for s < 1 the
    integrand vanishes like the root (x_m - t)^s; from where t is half of x_m
    (or from the panel's start) that stretch is integrated after the
    substitution y = (x_m - t)^s, which makes it smooth.
    """
    total = float(prefix_power_at(f, p, 1.0))
    x1 = f.min_positive_break()

    def g(t):
        return tail_power_at(f, p, np.asarray(t, dtype=float)) ** s

    m = int(np.max(np.flatnonzero(f.values > 0.0), initial=-1)) + 1  # x_m ends the support
    rooted = s < 1.0 and m > 0
    x_m = float(f.breaks[m])
    t_root = max(float(f.breaks[m - 1]), 0.5 * x_m) if rooted else 1.0
    out = tail_block_integral(w, total, float(f.values[0]) ** p, s, min(x1, t_root), rel_tol)
    if t_root > x1:
        out += log_quad(g, w, x1, t_root, rel_tol, f.breaks[1:-1])
    if rooted:
        scale = float(f.values[m - 1]) ** (p * s) / s

        def fy(y):
            t = x_m - y ** (1.0 / s)
            # w(t) as t^{a+1} (1-Log t)^b / t: exactly the dt/t form when a = -1
            return scale * y ** (1.0 / s) * (1.0 - np.log(t)) ** w.b * t ** (w.a + 1.0) / t

        out += float(adaptive_quad(fy, np.linspace(0.0, (x_m - t_root) ** s, 9), rel_tol)[0])
    return out


def _grand_over_cuts(
    f: StepRearrangement, p: float, alpha: float, cuts: np.ndarray, kind: str, res: Resolution
) -> np.ndarray:
    """sup_t (1-Log t)^{-alpha/p} (∫_t^1 g_c^p)^{1/p} for each cut's truncation
    g_c: a scan of the sup grid and the breaks, then one golden_refine pass.

    The excess objective is 0 from x_Z on and the capped one is f's own from
    x_H on, so a cut is scanned only in the row blocks that start below that
    break; past them the capped cut takes f's objective's suffix maximum.
    """
    e, ip = -alpha / p, 1.0 / p
    x, n = f.breaks, f.n
    vp, pref = _cut_panel_powers(f, p, cuts, kind)
    linear, flat = _cut_reach(f, cuts, kind)
    ts = np.unique(np.concatenate([UGrid(res.u_max, res.sup_count).t_nodes(), x[1:]]))
    lw = (1.0 - np.log(ts)) ** e
    rows = max(1, _CELLS // cuts.size)
    # ascending cuts: the row counts fall, so a block's cuts come first
    order = np.argsort(cuts, kind="stable")
    vs, ps = vp[:, order], pref[:, order]
    stop = np.searchsorted(ts, x[flat if kind == "excess" else linear][order], side="left")
    stop = np.minimum(-(-stop // rows) * rows, ts.size)
    best = np.zeros(cuts.size)
    at = np.zeros(cuts.size, dtype=int)
    for r0 in range(0, ts.size, rows):
        m = int(np.count_nonzero(stop > r0))
        if m == 0:
            break
        t = ts[r0 : r0 + rows]
        j = np.clip(np.searchsorted(x, t, side="left"), 1, n) - 1
        obj = vs[j, :m]
        obj *= (t - x[j])[:, None]
        obj += ps[j, :m]
        np.subtract(ps[-1, :m], obj, out=obj)
        np.maximum(obj, 0.0, out=obj)
        obj **= ip
        obj *= lw[r0 : r0 + rows, None]
        i = np.argmax(obj, axis=0)
        top = obj[i, np.arange(m)]
        up = np.flatnonzero(top > best[:m])
        best[up], at[up] = top[up], r0 + i[up]
    if kind == "capped":
        pf, vpf = f.prefix_power(p)
        j = np.clip(np.searchsorted(x, ts, side="left"), 1, n) - 1
        own = lw * np.maximum(pf[-1] - (pf[j] + vpf[j] * (ts - x[j])), 0.0) ** ip
        records = np.flatnonzero(own == np.maximum.accumulate(own[::-1])[::-1])
        rest = np.flatnonzero(stop < ts.size)
        k = records[np.searchsorted(records, stop[rest])]
        win = own[k] > best[rest]
        best[rest[win]], at[rest[win]] = own[k[win]], k[win]
    back = np.argsort(order)
    i, best = at[back], best[back]

    def h(t, c):
        k = np.clip(np.searchsorted(x, t, side="left"), 1, n)
        tail = pref[-1, c] - (pref[k - 1, c] + vp[k - 1, c] * (t - x[k - 1]))
        return (1.0 - np.log(t)) ** e * np.maximum(tail, 0.0) ** ip

    out, _ = golden_refine(
        h, ts[np.maximum(i - 1, 0)], ts[np.minimum(i + 1, ts.size - 1)], best, ts[i]
    )
    return out


def norms_over_cuts(
    f: StepRearrangement,
    spec: SpaceSpec,
    cuts: np.ndarray,
    kind: str,
    res: Resolution = DEFAULT,
) -> np.ndarray:
    """Norms of (f - c)_+ (kind='excess') or min(f, c) (kind='capped'), all cuts."""
    cuts = np.asarray(cuts, dtype=float)
    if cuts.size == 0:
        return np.zeros(0)
    if isinstance(spec, Lebesgue):
        if math.isinf(spec.p):
            v = f.values[0]
            return np.maximum(v - cuts, 0.0) if kind == "excess" else np.minimum(v, cuts)
        vp, pref = _cut_panel_powers(f, spec.p, cuts, kind)
        return pref[-1, :] ** (1.0 / spec.p)
    if isinstance(spec, Grand):
        return _grand_over_cuts(f, spec.p, spec.alpha, cuts, kind, res)
    if isinstance(spec, Small):
        p, alpha = spec.p, spec.alpha
        w = LogWeight(-1.0, alpha - alpha / p - 1.0)
        return _prefix_log_integrals(f, p, 1.0 / p, w, cuts, kind, np.ones(1), res.rel_tol)[0]
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
        def obj(t):  # the sup over (0, measE], as the integral below runs over it
            t = np.asarray(t)
            return np.where(t <= measE, spec.w1(t) * w2_pref(t) ** (1.0 / p), 0.0)

        denom, _ = sup_on_grid(obj, UGrid(res.u_max, res.sup_count), [measE])
    else:
        def gm(t):
            return w2_pref(t) ** (m / p)

        denom = log_quad(gm, spec.w1, 0.0, measE, res.rel_tol) ** (1.0 / m)
    lhs = rho * w2_mass ** (1.0 / p) / denom if denom > 0 else math.inf
    rhs_sq = w2_prefix_at(f, spec, np.array([measE]))[0]
    return lhs, float(rhs_sq ** (1.0 / p))
