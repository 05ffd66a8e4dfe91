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
    linear_power_integrals,
    log_quad,
    log_weight_integral,
    power_log_integrals,
    sup_on_grid,
    sup_on_interval,
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
    head_restriction,
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
        # leading behavior of W2(t) = ∫_0^t w2 near zero: t^e_t (1 - Log t)^e_b
        if a2 > -1.0:
            e_t, e_b = a2 + 1.0, b2
        elif a2 == -1.0 and b2 < -1.0:
            e_t, e_b = 0.0, b2 + 1.0
        else:
            raise ConditionC2Failed("∫_0^t w2 diverges")
        object.__setattr__(self, "growth", (e_t, e_b))
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
    return float(norms_over_cuts(f, Lebesgue(p), np.zeros(1), "excess")[0])


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
    return log_weight_integral(f, q, w, 0.0, 1.0) ** (1.0 / q)


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

        # on the first panel obj ~ t^a (1-Log t)^b, which peaks near u = b/a,
        # maybe far below the grid: probe there and at half and twice that
        e_t, e_b = spec.growth
        a, b = spec.w1.a + e_t / p, spec.w1.b + e_b / p
        u = b / a * np.array([0.5, 1.0, 2.0]) if a > 0.0 and b > 0.0 else np.zeros(0)
        extras = np.concatenate([f.breaks[1:], np.exp(1.0 - np.minimum(u, 700.0))])
        val, _ = sup_on_grid(obj, UGrid(res.u_max, res.sup_count), extras)
        return val

    def gm(t):
        return w2_prefix_at(f, spec, t) ** (m / p)

    return log_quad(gm, spec.w1, 0.0, 1.0, f.breaks[1:-1], _w2_sigma(spec, m / p)) ** (1.0 / m)


def _w2_sigma(spec: GammaDouble, s: float):
    """σ for L^s, L = ∫_0^t g^p w2 with g nonincreasing: on a panel
    L = A + v^p W2(t), A >= v^p W2 at its start, so t L'/L <= t w2/W2."""

    def sigma(t):
        w2t = weight_prefix_many(spec.w2, t)
        return s * np.divide(t * spec.w2(t), w2t, out=np.zeros_like(w2t), where=w2t > 0.0)

    return sigma


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
# The tail kind cuts by position: f·χ_(c,1] has P_c = 0 up to c, P - P(c) after.
# ---------------------------------------------------------------------------

_CELLS = 1 << 20


def _cut_panel_powers(f: StepRearrangement, p: float, cuts: np.ndarray, kind: str):
    """(VP, PREF): panel values^p and cumulative prefix integrals, per cut.

    A tail cut keeps f's values on the panels that reach past c; its PREF at
    x_i is ∫_c^{x_i} f^p, summed from c on, so it keeps its digits however
    small it is next to the mass before c, and however close c lies to a
    break.  At the start x_k of c's own panel it is -∫_{x_k}^c f^p, and 0
    before."""
    if kind == "tail":
        x, (_, vpf, _) = f.breaks, f.prefix_power(p)
        k = np.searchsorted(x, cuts, side="right") - 1  # x_k <= c < x_{k+1}, or k = n at 1
        i = np.arange(f.n)[:, None]
        vp = np.where(i >= k, vpf[:, None], 0.0)
        k, col = np.minimum(k, f.n - 1), np.arange(cuts.size)
        mass = np.where(i > k, vp * f.widths[:, None], 0.0)
        mass[k, col] = vpf[k] * (x[k + 1] - cuts)
        pref = np.zeros((f.n + 1, cuts.size))
        np.cumsum(mass, axis=0, out=pref[1:])
        pref[k, col] = -vpf[k] * (cuts - x[k])
        return vp, pref
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
    the cut; the capped Z is #{v > 0} for every positive cut, and so is the
    tail's for every cut below x_Z (past it the truncation is zero).  Z counts
    the suffix maxima of the values, so the excess of any step function (the
    prefix integrals take c = 0) stops at its last value above c."""
    reach = -np.maximum.accumulate(f.values[::-1])[::-1]
    if kind == "excess":
        return np.ones(cuts.size, dtype=int), np.searchsorted(reach, -cuts, side="left")
    positive = int(np.searchsorted(reach, 0.0, side="left"))
    if kind == "tail":
        return np.ones(cuts.size, dtype=int), np.where(cuts < f.breaks[positive], positive, 0)
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
) -> np.ndarray:
    """∫_0^h w(t) P_c(t)^s dt for each h of the increasing array hs and each
    cut: a (len(hs), len(cuts)) array, with P_c the exact prefix integral of
    the p-th power of the cut's truncation (kind as in norms_over_cuts).

    The breaks and the hs cut (0, max hs] into stretches on which every P_c
    is linear.  Below x_H, P_c^s w is VP[0]^s·t^s w(t), a pure weight that
    one weight_prefix_many sweep gives for every cut; past x_Z the constant
    P_c^s integrates in closed form.  Each (stretch, cut) in between is one
    linear_power_integrals stretch from its lower end, where P_c is smallest,
    in blocks of about _CELLS / 64, listed stretch by stretch so that the cuts
    over one stretch share its nodes.  A cut whose P_c is zero up to rho > 0
    (a tail cut, or a step function with a zero head) has no linear head: its
    stretches start at rho, the root of P_c.
    """
    x = f.breaks
    vp, pref = _cut_panel_powers(f, p, cuts, kind)
    linear, flat = _cut_reach(f, cuts, kind)
    kr = np.argmax(vp > 0.0, axis=0)  # each cut's first positive panel
    rho = np.maximum(x[kr], cuts if kind == "tail" else 0.0)
    rooted = (rho > 0.0) & (flat > 0)
    start = np.where(rooted, rho, x[linear])
    ends = np.unique(np.concatenate([x[x < hs[-1]], hs]))
    q0 = np.searchsorted(ends, start, side="right") - 1  # stretch holding each start
    q1 = np.minimum(np.searchsorted(ends, x[flat], side="left"), ends.size - 1)
    live = np.flatnonzero(q1 > q0)
    busy = np.zeros(ends.size, dtype=int)  # how many cuts need each stretch
    np.add.at(busy, q0[live], 1)
    np.add.at(busy, q1[live], -1)
    chunk = (np.cumsum(np.cumsum(busy)) - 1) // (_CELLS // 64)
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(chunk)) + 1, [ends.size - 1]])
    sums = np.zeros(hs.size * cuts.size)
    for qa, qb in zip(bounds[:-1], bounds[1:]):
        sel = live[(q0[live] < qb) & (q1[live] > qa)]
        first = np.maximum(q0[sel], qa)
        count = np.minimum(q1[sel], qb) - first
        col = np.repeat(sel, count)
        q = np.repeat(first - np.cumsum(count) + count, count) + np.arange(col.size)
        by_stretch = np.argsort(q, kind="stable")
        q, col = q[by_stretch], col[by_stretch]
        j = np.searchsorted(x, ends[q], side="right") - 1  # panel of each stretch
        lo = np.maximum(ends[q], start[col])
        slope = vp[j, col]
        at_lo = np.where(rooted[col] & (lo == start[col]), 0.0, pref[j, col] + slope * (lo - x[j]))
        vals = linear_power_integrals(w, s, lo, ends[q + 1], at_lo, slope)
        below = np.searchsorted(hs, ends[q + 1])  # the first h at or past the stretch
        sums += np.bincount(below * cuts.size + col, vals, sums.size)
    out = np.cumsum(sums.reshape(hs.size, cuts.size), axis=0)
    xz = np.broadcast_to(x[flat], out.shape)
    past = (hs[:, None] > xz) & (xz > 0.0)
    top = np.broadcast_to(pref[-1] ** s, out.shape)[past]
    out[past] += top * power_log_integrals(w.a, w.b, xz[past], np.broadcast_to(hs[:, None], out.shape)[past])
    heads = np.minimum(hs[:, None], x[linear][None, :])
    linear_head = (heads > 0.0) & ~rooted
    lead = np.broadcast_to(vp[0] ** s, out.shape)[linear_head]
    out[linear_head] += lead * weight_prefix_many(LogWeight(w.a + s, w.b), heads[linear_head])
    return out


def prefix_log_integral(f: StepFunction, p: float, s: float, w: LogWeight, h) -> Union[float, np.ndarray]:
    """∫_0^h w(t) (∫_0^t f^p)^s dt at a scalar h (a float) or at each h of an
    increasing array: the one-cut (c = 0) _prefix_log_integrals."""
    hs = np.asarray(h, dtype=float)
    out = _prefix_log_integrals(f, p, s, w, np.zeros(1), "excess", np.atleast_1d(hs))[:, 0]
    return float(out[0]) if hs.ndim == 0 else out


def tail_log_integral(f: StepFunction, p: float, s: float, w: LogWeight) -> float:
    """∫_0^1 w(t) (∫_t^1 f^p)^s dt: the tail T is linear on each panel and
    smallest at its upper end, where each panel's linear_power_integrals
    stretch starts (T vanishes at the end of the support); below the first
    break ``tail_block_integral`` closes it even where the weight alone
    decays only polynomially in u."""
    _, vp, suf = f.prefix_power(p)
    m = int(np.max(np.flatnonzero(f.values > 0.0), initial=-1)) + 1  # x_m ends the support
    if m == 0:
        return 0.0
    x = f.breaks
    out = tail_block_integral(w, float(suf[1]), float(vp[0]), s, float(x[1]))
    return out + float(np.sum(linear_power_integrals(w, s, x[2 : m + 1], x[1:m], suf[2 : m + 1], vp[1:m])))


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
        pf, vpf, _ = f.prefix_power(p)
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


def _grand_over_windows(
    f: StepRearrangement, p: float, alpha: float, cuts: np.ndarray, kind: str, res: Resolution
) -> np.ndarray:
    """The Grand norm of f·χ_(0,c] (kind='head') or of f·χ_(c,1] (kind='tail')
    at each cut c: the sup over the window of (1-Log s)^{-alpha/p} times the p-th
    root of the truncation's tail from s, P(c) - P(s) for a head and the suffix
    sum ∫_s^1 f^p for a tail.  Each window is scanned down to u_max + 6 by
    sup_on_interval."""
    e, ip = -alpha / p, 1.0 / p
    if kind == "tail":
        k, lo, hi = np.arange(cuts.size), cuts, np.ones(cuts.size)

        def g(s, j):
            return (1.0 - np.log(s)) ** e * tail_power_at(f, p, s) ** ip

    else:
        k = np.flatnonzero(cuts >= 1e-300)
        lo, hi = np.zeros(k.size), cuts[k]
        top = prefix_power_at(f, p, hi)

        def g(s, j):
            return (1.0 - np.log(s)) ** e * np.maximum(top[j] - prefix_power_at(f, p, s), 0.0) ** ip

    out = np.zeros(cuts.size)
    if k.size:
        out[k], _ = sup_on_interval(g, lo, hi, res.sup_count, f.breaks[1:], u_cap=res.u_max + 6.0)
    return out


def norms_over_cuts(
    f: StepRearrangement,
    spec: SpaceSpec,
    cuts: np.ndarray,
    kind: str,
    res: Resolution = DEFAULT,
) -> np.ndarray:
    """Norms of the truncations of f at each cut c: by value, (f - c)_+
    (kind='excess') or min(f, c) (kind='capped'); by position, f·χ_(0,c]
    (kind='head') or f·χ_(c,1] in place, not rearranged (kind='tail').

    Tails are evaluated for Lebesgue (finite p), Grand and Small spaces only."""
    cuts = np.asarray(cuts, dtype=float)
    if cuts.size == 0:
        return np.zeros(0)
    position = kind in ("head", "tail")
    if isinstance(spec, Lebesgue) and position and not math.isinf(spec.p):
        at = prefix_power_at if kind == "head" else tail_power_at
        return at(f, spec.p, cuts) ** (1.0 / spec.p)
    if isinstance(spec, Grand) and position:
        return _grand_over_windows(f, spec.p, spec.alpha, cuts, kind, res)
    if kind == "tail" and not isinstance(spec, Small):
        raise TypeError(f"tail cuts are not evaluated for {spec!r}")
    if isinstance(spec, Lebesgue) and kind != "head":
        if math.isinf(spec.p):
            v = f.values[0]
            return np.maximum(v - cuts, 0.0) if kind == "excess" else np.minimum(v, cuts)
        vp, pref = _cut_panel_powers(f, spec.p, cuts, kind)
        return pref[-1, :] ** (1.0 / spec.p)
    if isinstance(spec, Grand):
        return _grand_over_cuts(f, spec.p, spec.alpha, cuts, kind, res)
    if isinstance(spec, Small) and kind != "head":
        p, alpha = spec.p, spec.alpha
        w = LogWeight(-1.0, alpha - alpha / p - 1.0)
        return _prefix_log_integrals(f, p, 1.0 / p, w, cuts, kind, np.ones(1))[0]
    # no batched path: fall back to one norm per cut
    make = {"excess": excess_part, "capped": capped_part, "head": head_restriction}[kind]
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

        denom = log_quad(gm, spec.w1, 0.0, measE, (), _w2_sigma(spec, m / p)) ** (1.0 / m)
    lhs = rho * w2_mass ** (1.0 / p) / denom if denom > 0 else math.inf
    rhs_sq = w2_prefix_at(f, spec, np.array([measE]))[0]
    return lhs, float(rhs_sq ** (1.0 / p))
