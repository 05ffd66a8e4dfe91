"""Norms of the five space families, evaluated on decreasing rearrangements.

Space descriptors are small frozen dataclasses, each answering
holds_power_log(gamma, delta): whether t^{-gamma}(1 - Log t)^{-delta} has a
finite norm in it.  Every norm is a pure function of a ``StepRearrangement``.
Inner prefix/tail power integrals are exact on step data; outer weighted
integrals and suprema run on the log scale through :mod:`rispaces.logcalc`.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .config import DEFAULT, Resolution
from .errors import BadExponent, ConditionC2Failed, Divergent
from .logcalc import (
    LogWeight,
    UGrid,
    far_root_integrals,
    linear_power_integrals,
    log_quad,
    log_quad_multi,
    power_log_integrals,
    sup_on_grid,
    sup_on_interval,
    sups_on_grid,
    tail_block_integral,
    weight_integral,
    weight_prefix_many,
)
from .rearrangement import (
    StepFunction,
    StepRearrangement,
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

    def holds_power_log(self, gamma: float, delta: float) -> bool:
        if math.isinf(self.p):
            return gamma == 0.0 and delta >= 0.0
        return gamma < 1.0 / self.p or (gamma == 1.0 / self.p and delta * self.p > 1.0)


@dataclass(frozen=True)
class LorentzZygmund:
    p: float
    q: float
    alpha: float

    def __post_init__(self):
        _check(1.0 <= self.p < math.inf, "first exponent must lie in [1, inf)")
        _check(self.q >= 1.0, "second exponent must be >= 1")
        _check(math.isfinite(self.alpha), "log exponent must be finite")

    def holds_power_log(self, gamma: float, delta: float) -> bool:
        ip = 1.0 / self.p
        if gamma != ip:
            return gamma < ip
        if math.isinf(self.q):
            return self.alpha <= delta
        return (self.alpha - delta) * self.q < -1.0


@dataclass(frozen=True)
class Grand:
    p: float
    alpha: float

    def __post_init__(self):
        _check(1.0 < self.p < math.inf, "grand exponent must lie in (1, inf)")
        _check(self.alpha > 0.0, "grand log parameter must be positive")

    def holds_power_log(self, gamma: float, delta: float) -> bool:
        ip = 1.0 / self.p
        return gamma < ip or (gamma == ip and delta >= (1.0 - self.alpha) / self.p)


@dataclass(frozen=True)
class Small:
    """Small space carrying its own exponent p (no conjugation happens here)."""

    p: float
    alpha: float

    def __post_init__(self):
        _check(1.0 < self.p < math.inf, "small exponent must lie in (1, inf)")
        _check(self.alpha > 0.0, "small log parameter must be positive")

    def holds_power_log(self, gamma: float, delta: float) -> bool:
        ip = 1.0 / self.p
        return gamma < ip or (gamma == ip and delta > self.alpha * (1.0 - ip) + ip)


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
        p = self.p
        a2, b2 = self.w2.a, self.w2.b
        # embedding of L^p(w2) into L^1 (Hoelder against w2^{-p'/p})
        if p > 1.0:
            pp = p / (p - 1.0)
            ok = a2 * pp / p < 1.0 or (a2 * pp / p == 1.0 and b2 * pp / p > 1.0)
        else:
            ok = a2 < 0.0 or (a2 == 0.0 and b2 >= 0.0)
        if not ok:
            raise ConditionC2Failed("inner weight does not embed L^p(w2) into L^1")
        growth = _prefix_growth(a2, b2)
        if growth is None:
            raise ConditionC2Failed("∫_0^t w2 diverges")
        object.__setattr__(self, "growth", growth)
        if not self._outer_holds(*growth):
            raise ConditionC2Failed("∫_0^t w2 is not in the outer weighted space")

    def _outer_holds(self, e_t: float, e_b: float) -> bool:
        """Whether an inner prefix that behaves like t^e_t (1 - Log t)^e_b near 0
        lies in the outer L^{m/p}(w1)."""
        a1, b1 = self.w1.a, self.w1.b
        if math.isinf(self.m):
            power = a1 + e_t / self.p
            logexp = b1 + e_b / self.p
            return power > 0.0 or (power == 0.0 and logexp <= 0.0)
        power = a1 + e_t * self.m / self.p
        logexp = b1 + e_b * self.m / self.p
        return power > -1.0 or (power == -1.0 and logexp < -1.0)

    def holds_power_log(self, gamma: float, delta: float) -> bool:
        """Whether t^{-gamma}(1 - Log t)^{-delta} has a finite norm: its inner
        prefix ∫_0^t f^p w2 converges and lies in the outer space."""
        growth = _prefix_growth(self.w2.a - gamma * self.p, self.w2.b - delta * self.p)
        return growth is not None and self._outer_holds(*growth)


def _prefix_growth(a: float, b: float):
    """(e_t, e_b) with ∫_0^t s^a (1 - Log s)^b ds ~ t^e_t (1 - Log t)^e_b near
    0, or None where that integral diverges."""
    if a > -1.0:
        return a + 1.0, b
    if a == -1.0 and b < -1.0:
        return 0.0, b + 1.0
    return None


SpaceSpec = Union[Lebesgue, LorentzZygmund, Grand, Small, GammaDouble]


# ---------------------------------------------------------------------------
# the norms
# ---------------------------------------------------------------------------


def lebesgue_norm(f: StepRearrangement, p: float) -> float:
    """(∫_0^1 f^p)^{1/p}, or the essential sup for p = inf; exact on steps."""
    return float(norms_over_cuts(f, Lebesgue(p), np.zeros(1), "excess")[0])


def lorentz_zygmund_norm(f: StepRearrangement, p: float, q: float, alpha: float) -> float:
    """(∫_0^1 [t^{1/p-1/q}(1-Log t)^alpha f(t)]^q dt)^{1/q}; sup form for q = inf.
    With p = 1 it is the log-weighted L^1 case."""
    return float(norms_over_cuts(f, LorentzZygmund(p, q, alpha), np.zeros(1), "excess")[0])


def grand_norm(f: StepRearrangement, p: float, alpha: float, res: Resolution = DEFAULT) -> float:
    """sup_t (1-Log t)^{-alpha/p} (∫_t^1 f^p)^{1/p}, exact tails on step data."""
    return float(norms_over_cuts(f, Grand(p, alpha), np.zeros(1), "excess", res)[0])


def small_norm(f: StepRearrangement, p: float, alpha: float) -> float:
    """∫_0^1 (1-Log t)^{-alpha/p + alpha - 1} (∫_0^t f^p)^{1/p} dt/t.

    The exponent p is the space's own exponent; pairing it with a grand space
    of exponent r requires passing p = r' explicitly.
    """
    return float(norms_over_cuts(f, Small(p, alpha), np.zeros(1), "excess")[0])


def ggamma_norm(f: StepRearrangement, spec: GammaDouble, res: Resolution = DEFAULT) -> float:
    """[∫_0^1 w1(t) (∫_0^t f^p w2)^{m/p} dt]^{1/m}; sup form for m = inf."""
    return float(norms_over_cuts(f, spec, np.zeros(1), "excess", res)[0])


def _w2_sigma(spec: GammaDouble, s: float):
    """σ(u) = s·(e + max(-d, 0)/u), (e, d) = spec.growth, bounds s·t L'/L at
    t = e^{1-u} for L = ∫_0^t g^p w2, g nonincreasing.

    On a panel L = A + v^p W2(t), A >= 0 (in the w2 table too, whose
    A = pref_i - v_i^p·w2b_i drops ∫_0^{x_1} w2), so t L'/L <= t w2/W2.  For
    a2 > -1, ρ(x) = d log w2 / d log x = a2 - b2/u(x) is at most ρ̄ on x <= t:
    ρ(t) if b2 <= 0, a2 if b2 > 0; so W2(t) >= t w2(t)/(1 + ρ̄), and
    t w2/W2 <= a2 + 1 + max(-b2, 0)/u.  For a2 = -1, b2 < -1,
    W2 = u^{b2+1}/(-(b2+1)), so t w2/W2 = -(b2+1)/u exactly."""
    e, d = spec.growth
    return lambda u: s * (e + max(-d, 0.0) / u)


def _log_only_head(spec: GammaDouble, gm, x: float):
    """∫_0^x w1·gm for a1 = a2 = -1, where gm(t) = c·W2(t)^{m/p} on (0, x]:
    there W2 = u^{b2+1}/(-(b2+1)), u = 1 - Log t, so the integrand in u is
    C·u^E, E = b1 + (b2 + 1)·m/p, and the integral its value at U = u(x)
    times U/(-1 - E).  Divergent for E >= -1."""
    e = spec.w1.b + (spec.w2.b + 1.0) * spec.m / spec.p
    if e >= -1.0:
        raise Divergent(f"u^{e!r} is not integrable toward t = 0 for {spec!r}")
    u = 1.0 - math.log(x)
    return gm(np.array([x]))[0] * u ** (spec.w1.b + 1.0) / (-1.0 - e)


def space_norm(f: StepRearrangement, spec: SpaceSpec, res: Resolution = DEFAULT) -> float:
    return float(norms_over_cuts(f, spec, np.zeros(1), "excess", res)[0])


# ---------------------------------------------------------------------------
# batched norms over a family of truncation cuts
#
# norms_over_cuts evaluates, for many cuts at once, (family: kinds)
#   Lebesgue: excess, capped, head; tail for finite p (exact step sums)
#   LorentzZygmund: excess, capped, head ((cut, panel) value matrix)
#   Grand: excess, capped (one bounded sups_on_grid scan); head, tail (window scans)
#   Small: excess, capped, tail (prefix log integrals); head
#   GammaDouble: excess, capped, head (one w2-prefix table for every cut)
# Each truncation by value keeps most of f's panel structure: with v the
# nonincreasing panel values, (f - c)_+ vanishes past the first
# J = #{v > c} panels, and min(f, c) is the constant c on the first
# K = #{v >= c} panels and f after them.  So the prefix integral P_c of a
# cut's p-th power is linear below one break and constant from another
# (_cut_reach), and the Small branch evaluates a cut at points only where it
# is neither; the Grand scan skips a run of points for a cut whose bound there
# is 0 or below its best.  The Lorentz-Zygmund branch holds about _CELLS
# (panel, cut) values at a time, and Grand one (break, cut) table of P_c
# (_cut_prefix); the panel values VP are formed only at the cells read
# (_cut_values).  The Small branch holds (node, cut) values
# in blocks of about _CELLS / 32 (stretch, cut) cells, each stretch's nodes
# laid once for all the cuts live on it, beside the same P_c table.
# The tail kind cuts by position: f·χ_(c,1] has P_c = 0 up to c, P - P(c) after.
# ---------------------------------------------------------------------------

_CELLS = 1 << 20
_MAPPED = 1 << 20  # bytes from which a (panel, cut) table is a mapping of its own
_ROW_SUMS = 512  # columns from which _column_prefix adds row by row


def _table(shape) -> np.ndarray:
    """An uninitialised float table; one of _MAPPED bytes or more is a mapping
    of its own, freed at once.  On malloc's heap a freed table stays resident
    under any small block allocated above it, and where those land depends on
    the heap's layout: theta-sweep's peak RSS read 69, 74 or 77 MB for one
    commit checked out at paths of different lengths."""
    size = 8 * math.prod(shape)
    if size < _MAPPED or not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.empty(shape)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, size, flags=flags), dtype=float).reshape(shape)


def _cut_values(f: StepRearrangement, p: float, cuts, kind: str, rows, out=None) -> np.ndarray:
    """VP at the panels rows for the cuts, the two broadcast against each
    other: the p-th power of each cut's truncation on the panel (into out)."""
    out = np.empty(np.broadcast_shapes(np.shape(rows), np.shape(cuts))) if out is None else out
    if kind == "excess":
        np.maximum(np.subtract(f.values[rows], cuts, out=out), 0.0, out=out)
        out **= p
        return out
    vp = f.prefix_power(p)[1]
    if kind == "tail":  # f's own values from c's panel k on, x_k <= c < x_{k+1} (k = n at 1)
        out.fill(0.0)
        np.copyto(out, vp[rows], where=rows >= np.searchsorted(f.breaks, cuts, side="right") - 1)
    else:  # capped, min(v, c)^p: the same ** on c where v >= c, on v elsewhere
        np.copyto(out, vp[rows])
        np.copyto(out, np.asarray(cuts) ** p, where=f.values[rows] >= cuts)
    return out


def _column_prefix(a: np.ndarray) -> np.ndarray:
    """Sum a (row, column) table down its columns in place, as np.cumsum(axis=0)
    does, bit for bit.  cumsum strides down one column at a time; adding row to
    row is faster from _ROW_SUMS columns on: at 1,200 rows, 3.0 against 7.4 ms
    at 1,201 columns, 2.4 against 0.7 at 128 (2-core x86-64 VM; they cross
    between 448 and 544 columns)."""
    if a.shape[1] < _ROW_SUMS:
        return np.cumsum(a, axis=0, out=a)
    for i in range(1, a.shape[0]):
        np.add(a[i - 1], a[i], out=a[i])
    return a


def _cut_prefix(f: StepRearrangement, p: float, cuts: np.ndarray, kind: str) -> np.ndarray:
    """PREF: each cut's prefix integrals ∫_0^{x_i} g_c^p at f's breaks, an
    (n + 1, cuts) table summed in place from the panels' VP·width.

    A tail cut keeps f's values on the panels that reach past c; its PREF at
    x_i is ∫_c^{x_i} f^p, summed from c on, so it keeps its digits however
    small it is next to the mass before c, and however close c lies to a
    break.  At the start x_k of c's own panel it is -∫_{x_k}^c f^p, and 0
    before."""
    pref = _table((f.n + 1, cuts.size))
    pref[0] = 0.0
    mass = _cut_values(f, p, cuts, kind, np.arange(f.n)[:, None], out=pref[1:])
    np.multiply(mass, f.widths[:, None], out=mass)
    if kind == "tail":
        x, (_, vpf, _) = f.breaks, f.prefix_power(p)
        k = np.minimum(np.searchsorted(x, cuts, side="right") - 1, f.n - 1)
        col = np.arange(cuts.size)
        np.copyto(mass, 0.0, where=np.arange(f.n)[:, None] <= k)
        mass[k, col] = vpf[k] * (x[k + 1] - cuts)
    _column_prefix(mass)
    if kind == "tail":
        pref[k, col] = -vpf[k] * (cuts - x[k])
    return pref


def _first_positive(f: StepRearrangement, p: float, cuts: np.ndarray, kind: str) -> np.ndarray:
    """argmax(VP > 0, axis=0) without a VP table: each cut's first panel
    where its truncation is positive, 0 where there is none."""
    if kind == "tail":  # f's own from the cut's panel k on: f's first positive panel from k
        pos = np.append(np.flatnonzero(f.prefix_power(p)[1] > 0.0), 0)
        return pos[np.searchsorted(pos[:-1], np.searchsorted(f.breaks, cuts, side="right") - 1)]
    first = np.zeros(cuts.size, dtype=int)
    late = np.flatnonzero(_cut_values(f, p, cuts, kind, 0) <= 0.0)  # a zero head, a cut at f's top
    first[late] = np.argmax(_cut_values(f, p, cuts[late], kind, np.arange(f.n)[:, None]) > 0.0, axis=0)
    return first


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
    P_c^s integrates in closed form.  In between, each (stretch, cut) pair
    integrates from the stretch's lower end, where P_c is smallest.  A cut
    whose P_c is zero up to rho > 0 (a tail cut, or a step function with a
    zero head) has no linear head: its first stretch starts at rho, the root
    of P_c, and is one linear_power_integrals stretch.  The other pairs go in
    blocks of stretches, each block about _CELLS / 32 (stretch, cut) cells
    over the range of cuts live on it (the staircase, not the rectangle):
    far_root_integrals lays each stretch's nodes once for all those cuts,
    with P_c at the stretch's start from its row of PREF and its VP; only the
    pairs whose root lies closer than their stretch's length go to
    linear_power_integrals.
    """
    x = f.breaks
    pref = _cut_prefix(f, p, cuts, kind)
    linear, flat = _cut_reach(f, cuts, kind)
    kr = _first_positive(f, p, cuts, kind)
    rho = np.maximum(x[kr], cuts if kind == "tail" else 0.0)
    rooted = (rho > 0.0) & (flat > 0)
    start = np.where(rooted, rho, x[linear])
    ends = np.unique(np.concatenate([x[x < hs[-1]], hs]))
    q0 = np.searchsorted(ends, start, side="right") - 1  # stretch holding each start
    q1 = np.minimum(np.searchsorted(ends, x[flat], side="left"), ends.size - 1)
    panel = np.searchsorted(x, ends[:-1], side="right") - 1
    below = np.searchsorted(hs, ends[1:])  # the first h at or past each stretch
    sums = np.zeros((hs.size, cuts.size))
    r = np.flatnonzero(rooted & (q1 > q0))
    if r.size:
        sums[below[q0[r]], r] = linear_power_integrals(
            w, s, rho[r], ends[q0[r] + 1], 0.0, _cut_values(f, p, cuts[r], kind, panel[q0[r]])
        )
    q0 = q0 + rooted  # past each rooted cut's first stretch
    live = np.flatnonzero(q1 > q0)
    count = np.cumsum(np.bincount(q0[live], minlength=ends.size) - np.bincount(q1[live], minlength=ends.size))
    qs = np.flatnonzero(count[:-1])  # the stretches some cut needs
    cut_at = np.flatnonzero(np.diff(np.cumsum(count[qs]) // (_CELLS // 32))) + 1
    for q in np.split(qs, cut_at) if qs.size else ():
        over = live[(q0[live] <= q[-1]) & (q1[live] > q[0])]
        cols = slice(over[0], over[-1] + 1)
        need = (q0[cols] <= q[:, None]) & (q[:, None] < q1[cols])
        j = panel[q]
        slope = _cut_values(f, p, cuts[cols], kind, j[:, None])
        at_lo = slope * (ends[q] - x[j])[:, None]
        at_lo += pref[j, cols]
        close = need & (at_lo < slope * (ends[q + 1] - ends[q])[:, None])
        vals = far_root_integrals(w, s, ends[q], ends[q + 1], at_lo, slope, need & ~close)
        i, k = np.nonzero(close)
        if i.size:
            vals[i, k] = linear_power_integrals(w, s, ends[q[i]], ends[q[i] + 1], at_lo[i, k], slope[i, k])
        rows = np.flatnonzero(np.diff(below[q], prepend=-1))
        sums[below[q[rows]], cols] += np.add.reduceat(vals, rows, axis=0)
    out = np.cumsum(sums, axis=0)
    xz = np.broadcast_to(x[flat], out.shape)
    past = (hs[:, None] > xz) & (xz > 0.0)
    top = np.broadcast_to(pref[-1] ** s, out.shape)[past]
    out[past] += top * power_log_integrals(w.a, w.b, xz[past], np.broadcast_to(hs[:, None], out.shape)[past])
    heads = np.minimum(hs[:, None], x[linear][None, :])
    linear_head = (heads > 0.0) & ~rooted
    lead = np.broadcast_to(_cut_values(f, p, cuts, kind, 0) ** s, out.shape)[linear_head]
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
    g_c: one sups_on_grid scan of the sup grid and the breaks over every cut,
    the tails from _cut_prefix's PREF.  The first factor increases in t and the
    tail decreases, so on [a, b] the objective is at most the first factor at b
    times the tail at a; an excess cut's tail, and so its bound, is 0 from x_Z on."""
    e, ip = -alpha / p, 1.0 / p
    x, n = f.breaks, f.n
    pref = _cut_prefix(f, p, cuts, kind)

    def tail(t, k):  # max(∫_t^1 g_c^p, 0)^{1/p} for the cuts k, t and k broadcast
        j = np.clip(np.searchsorted(x, t, side="left"), 1, n) - 1
        out = _cut_values(f, p, cuts[k], kind, j)
        out *= t - x[j]
        out += pref[j, k]
        np.subtract(pref[-1, k], out, out=out)
        return np.maximum(out, 0.0, out=out) ** ip

    def bound(a, b, k):
        return (1.0 - np.log(b)) ** e * tail(a, k)

    grid = UGrid(res.u_max, res.sup_count)
    return sups_on_grid(lambda t, k: bound(t, t, k), grid, cuts.size, x[1:], bound)[0]


def _grand_over_windows(
    f: StepRearrangement, p: float, alpha: float, cuts: np.ndarray, kind: str, res: Resolution
) -> np.ndarray:
    """The Grand norm of f·χ_(0,c] (kind='head') or of f·χ_(c,1] (kind='tail')
    at each cut c: the sup over the window of (1-Log s)^{-alpha/p} times the p-th
    root of the truncation's tail from s, P(c) - P(s) for a head and the suffix
    sum ∫_s^1 f^p for a tail.  Each window is scanned down to u_max + 6 by
    sup_on_interval; the first factor increases in s and the tail decreases, so
    on [a, b] the objective is at most the first factor at b times the tail at a."""
    e, ip = -alpha / p, 1.0 / p
    if kind == "tail":
        k, lo, hi = np.arange(cuts.size), cuts, np.ones(cuts.size)

        def mass(s, j):
            return tail_power_at(f, p, s)

    else:
        k = np.flatnonzero(cuts >= 1e-300)
        lo, hi = np.zeros(k.size), cuts[k]
        top = prefix_power_at(f, p, hi)

        def mass(s, j):
            return np.maximum(top[j] - prefix_power_at(f, p, s), 0.0)

    def bound(a, b, j):
        return (1.0 - np.log(b)) ** e * mass(a, j) ** ip

    out = np.zeros(cuts.size)
    if k.size:
        out[k], _ = sup_on_interval(
            lambda s, j: bound(s, s, j), lo, hi, res.sup_count, f.breaks[1:], res.u_max + 6.0, bound=bound
        )
    return out


def norms_over_cuts(
    f: StepRearrangement, spec: SpaceSpec, cuts: np.ndarray, kind: str, res: Resolution = DEFAULT
) -> np.ndarray:
    """Norms of the truncations of f at each cut c: by value, (f - c)_+
    (kind='excess') or min(f, c) (kind='capped'); by position, f·χ_(0,c]
    (kind='head') or f·χ_(c,1] in place, not rearranged (kind='tail').
    Every family takes excess, capped and head cuts, a head at c = 0 being
    zero; tails are taken for Lebesgue (finite p), Grand and Small only."""
    cuts = np.asarray(cuts, dtype=float)
    lebesgue = isinstance(spec, Lebesgue)
    if kind == "tail" and not (isinstance(spec, (Grand, Small)) or lebesgue and not math.isinf(spec.p)):
        raise TypeError(f"tail cuts are not evaluated for {spec!r}")
    if cuts.size == 0:
        return np.zeros(0)
    if lebesgue:
        return _lebesgue_over_cuts(f, spec.p, cuts, kind)
    if isinstance(spec, LorentzZygmund):
        return _lz_over_cuts(f, spec, cuts, kind)
    if isinstance(spec, Grand):
        over = _grand_over_windows if kind in ("head", "tail") else _grand_over_cuts
        return over(f, spec.p, spec.alpha, cuts, kind, res)
    if isinstance(spec, Small):
        return _small_over_cuts(f, spec.p, spec.alpha, cuts, kind)
    if isinstance(spec, GammaDouble):
        return _ggamma_over_cuts(f, spec, cuts, kind, res)
    raise TypeError(f"unknown space spec {spec!r}")


def _lebesgue_over_cuts(f: StepRearrangement, p: float, cuts: np.ndarray, kind: str) -> np.ndarray:
    v = f.values
    if math.isinf(p):
        if kind == "head":
            return np.where(cuts > 0.0, v[0], 0.0)
        return np.maximum(v[0] - cuts, 0.0) if kind == "excess" else np.minimum(v[0], cuts)
    if kind == "tail":
        return tail_power_at(f, p, cuts) ** (1.0 / p)
    if kind == "head":
        mass = prefix_power_at(f, p, cuts)
        # a subnormal v_1^p·c inside the first panel keeps few digits; v_1·c^{1/p} keeps them all
        low = (mass < np.finfo(float).tiny) & (cuts <= f.breaks[1])
        return np.where(low, v[0] * cuts ** (1.0 / p), mass ** (1.0 / p))
    # each truncation over its own g*(0+), so that no power overflows; each
    # cut's row sums pairwise, as the batch of one of a scalar norm does
    out = np.zeros(cuts.size)
    for at, _, part in _value_blocks(f, cuts, kind):
        top = part.max(axis=1)
        top[top == 0.0] = 1.0
        part /= top[:, None]
        part **= p
        part *= f.widths
        out[at] = top * part.sum(axis=1) ** (1.0 / p)
    return out


def _value_blocks(f: StepRearrangement, cuts: np.ndarray, kind: str):
    """(at, hi, v) for each block of at most _CELLS (cut, panel) cells: the
    slice at of its cuts, the right ends hi of their truncations' panels
    (lo, hi], a head's ending at c, and the truncations' values v there,
    zero past c."""
    x, n = f.breaks, f.n
    rows = max(1, _CELLS // n)
    for a in range(0, cuts.size, rows):
        c = cuts[a : a + rows, None]
        hi = np.minimum(x[1:], c) if kind == "head" else np.broadcast_to(x[1:], (c.size, n))
        if kind == "head":
            v = np.where(hi > x[:-1], f.values, 0.0)
        elif kind == "excess":
            v = f.values - c
            np.maximum(v, 0.0, out=v)
        else:
            v = np.minimum(f.values, c)
        yield slice(a, a + rows), hi, v


def _lz_over_cuts(f: StepRearrangement, spec: LorentzZygmund, cuts: np.ndarray, kind: str) -> np.ndarray:
    """Lorentz-Zygmund norms of the truncations, from one (cut, panel) matrix
    of their values v on the panels (lo, hi], a head's ending at c, in blocks
    of _CELLS cells.  For q = inf a panel's sup of v·w, w = t^{1/p}(1 - Log
    t)^alpha, is at its point nearest the peak of w; for finite q each term
    v^q ∫_lo^hi w is the exp of its log less its row's largest, so that none
    under- or overflows."""
    p, q, alpha = spec.p, spec.q, spec.alpha
    x, lo, out = f.breaks, f.breaks[:-1], np.zeros(cuts.size)
    w = LogWeight(1.0 / p, alpha) if math.isinf(q) else LogWeight(q / p - 1.0, alpha * q)
    peak = math.exp(min(0.0, 1.0 - alpha * p))  # w increases up to it, then decreases
    whole = None if math.isinf(q) else _log_weight_integrals(w, lo, x[1:])
    for at, hi, v in _value_blocks(f, cuts, kind):
        if math.isinf(q):
            out[at] = np.max(v * w(np.where(v > 0.0, np.clip(peak, lo, hi), 1.0)), axis=1)
            continue
        lw = np.repeat(whole[None, :], v.shape[0], axis=0)
        r, k = np.nonzero((hi > lo) & (hi < x[1:]))  # the panel a head cuts inside, (x_k, c]
        lw[r, k] = _log_weight_integrals(w, lo[k], hi[r, k])
        terms = np.full(v.shape, -np.inf)
        np.log(v, out=terms, where=v > 0.0)
        terms = q * terms + lw
        big = terms.max(axis=1)
        live = np.flatnonzero(big > -np.inf)
        total = np.sum(np.exp(terms[live] - big[live, None]), axis=1)
        out[at.start + live] = np.exp((big[live] + np.log(total)) / q)
    return out


def _log_weight_integrals(w: LogWeight, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Log ∫_lo^hi w for intervals 0 <= lo < hi <= 1, each integral taken
    relative to hi·w(hi), so that none under- or overflows."""
    s = (w.a + 1.0) * np.log(hi) + w.b * np.log1p(-np.log(hi))
    rel = np.empty(hi.size)
    inner = lo > 0.0
    rel[inner] = power_log_integrals(w.a, w.b, lo[inner], hi[inner], s[inner])
    rel[~inner] = [weight_integral(w, 0.0, h, e) for h, e in zip(hi[~inner].tolist(), s[~inner].tolist())]
    return s + np.log(rel)


def _small_over_cuts(f: StepRearrangement, p: float, alpha: float, cuts: np.ndarray, kind: str) -> np.ndarray:
    """A head's prefix is P(min(t, c)), so its Small norm is the prefix log
    integral up to c plus P(c)^{1/p} ∫_c^1 w."""
    w = LogWeight(-1.0, alpha - alpha / p - 1.0)
    if kind != "head":
        return _prefix_log_integrals(f, p, 1.0 / p, w, cuts, kind, np.ones(1))[0]
    hs, at = np.unique(cuts, return_inverse=True)
    inner = np.flatnonzero((hs > 0.0) & (hs < 1.0))
    rest = np.zeros(hs.size)
    tails = power_log_integrals(w.a, w.b, hs[inner], np.ones(inner.size))
    rest[inner] = prefix_power_at(f, p, hs[inner]) ** (1.0 / p) * tails
    return (prefix_log_integral(f, p, 1.0 / p, w, hs) + rest)[at]


def _w2_prefix_over_cuts(f: StepRearrangement, spec: GammaDouble, cuts: np.ndarray, kind: str):
    """W(t, k) = ∫_0^t g^p w2 for the truncations g of f at cuts[k] at points
    t, the two broadcast against each other, from one table of ∫ w2 over f's
    panels.  A value kind truncates the panel values.  A head's W is f's up to
    c and constant after it, at the table's value at c, which like the table
    leaves out ∫_0^{x_1} w2."""
    x, n = f.breaks, f.n

    def at_breaks():  # ∫_{x_1}^{x_k} w2 at each break x_k: the table leaves out ∫_0^{x_1} w2
        return np.concatenate([[0.0, 0.0], np.cumsum(power_log_integrals(spec.w2.a, spec.w2.b, x[1:-1], x[2:]))])

    w2b = f.memo(("w2breaks", spec.w2), at_breaks)
    v = f.values[:, None]
    if kind != "head":
        v = np.maximum(v - cuts, 0.0) if kind == "excess" else np.minimum(v, cuts)
    vp = v**spec.p
    pref = np.zeros((n + 1, vp.shape[1]))
    np.multiply(vp, np.diff(w2b)[:, None], out=pref[1:])
    _column_prefix(pref[1:])

    def table(t, k):
        i = np.clip(np.searchsorted(x, t, side="left"), 1, n) - 1
        part = np.maximum(weight_prefix_many(spec.w2, t) - w2b[i], 0.0)
        return pref[i, k] + vp[i, k] * part

    if kind != "head":
        return table
    j = np.clip(np.searchsorted(x, cuts, side="left"), 1, n) - 1  # x_j < c <= x_{j+1}
    inner = np.flatnonzero(x[j] > 0.0)
    part = np.zeros(cuts.size)
    part[inner] = power_log_integrals(spec.w2.a, spec.w2.b, x[j[inner]], cuts[inner])
    at_cut = pref[j, 0] + vp[j, 0] * part

    def head(t, k):
        return np.where(t <= cuts[k], table(t, 0), at_cut[k])

    return head


def _ggamma_over_cuts(f: StepRearrangement, spec: GammaDouble, cuts: np.ndarray, kind: str, res: Resolution):
    """One log_quad_multi call over every cut, with the head cuts as breaks,
    or for m = inf one scan of the sup grid, the breaks and the head cuts."""
    p, m = spec.p, spec.m
    prefix = _w2_prefix_over_cuts(f, spec, cuts, kind)
    heads = cuts[(cuts > 0.0) & (cuts < 1.0)] if kind == "head" else np.zeros(0)
    every = np.arange(cuts.size)

    def obj(t, k):
        return spec.w1(t) * prefix(t, k) ** (1.0 / p)

    def gm(t):
        return prefix(t[:, None], every[None, :]) ** (m / p)

    if not math.isinf(m):
        breaks = np.concatenate([f.breaks[1:-1], heads])
        lo, head = 0.0, 0.0
        if spec.w1.a == spec.w2.a == -1.0:  # below the first break, a power of u
            lo = min(f.breaks[1], heads.min(initial=1.0))
            head = _log_only_head(spec, gm, lo)
        return (log_quad_multi(gm, spec.w1, lo, 1.0, breaks, _w2_sigma(spec, m / p)) + head) ** (1.0 / m)
    # on the first panel the objective is ~ t^a (1-Log t)^b, which peaks near
    # u = b/a, maybe far below the grid: probe there and at half and twice that
    e_t, e_b = spec.growth
    a, b = spec.w1.a + e_t / p, spec.w1.b + e_b / p
    u = b / a * np.array([0.5, 1.0, 2.0]) if a > 0.0 and b > 0.0 else np.zeros(0)
    extras = np.concatenate([f.breaks[1:], heads, np.exp(1.0 - np.minimum(u, 700.0))])
    return sups_on_grid(obj, UGrid(res.u_max, res.sup_count), cuts.size, extras)[0]


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
    if math.isinf(m):
        def obj(t):  # the sup over (0, measE], as the integral below runs over it
            t = np.asarray(t)
            return np.where(t <= measE, spec.w1(t) * weight_prefix_many(spec.w2, t) ** (1.0 / p), 0.0)

        denom, _ = sup_on_grid(obj, UGrid(res.u_max, res.sup_count), [measE])
    else:
        def gm(t):
            return weight_prefix_many(spec.w2, t) ** (m / p)

        if spec.w1.a == spec.w2.a == -1.0:
            denom = float(_log_only_head(spec, gm, measE)) ** (1.0 / m)
        else:
            denom = log_quad(gm, spec.w1, 0.0, measE, (), _w2_sigma(spec, m / p)) ** (1.0 / m)
    lhs = rho * w2_mass ** (1.0 / p) / denom if denom > 0 else math.inf
    rhs_sq = _w2_prefix_over_cuts(f, spec, np.zeros(1), "excess")(np.array([measE]), 0)[0]
    return lhs, float(rhs_sq ** (1.0 / p))
