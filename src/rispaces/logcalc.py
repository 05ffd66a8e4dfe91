"""Log-scale quadrature, supremum search, and monotone-map inversion.

Every weight in this package has the shape w(t) = t^a (1 - Log t)^b on (0, 1).
Substituting u = 1 - Log t turns such weights into e^{(1-u)(a+1)} u^b, smooth
and polynomially-varying on a uniform grid, so all integrals and suprema are
done in the u variable.

Integrals take no tolerance: each is a closed form or one κ pass, Gauss-Legendre
panels in u at most 1/(2κ) wide, κ = |a + 1| + σ + (1 + |b|)/u, where σ bounds
the log-derivative of the factor g that multiplies the weight (s·t|L'|/L for
g = L^s).  A pass takes 5 points per panel if κ·w <= 1/16 on all its panels of
width w, 8 if κ·w <= 1/6, and 15 otherwise; each rung is exact to rounding on
such panels.  A weight alone (weight_integral) has elementary forms where
b = 0 or a = -1 and the incomplete gamma function for an open lower end.  A
power of a linear L
(linear_power_integrals) takes a Gauss-Jacobi rule next to a root of L; any
other g (log_quad) a march of two-unit chunks toward t = 0, computed in
batches of 8, 16, 32, ... chunks, one κ pass each, and summed one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np

from .errors import (
    BadExponent,
    BadInterval,
    Divergent,
    NoConvergence,
    NonFiniteValue,
    OutOfRange,
)
from .rearrangement import StepFunction

__all__ = [
    "LogWeight",
    "MonotoneMap",
    "UGrid",
    "u_of_t",
    "t_of_u",
    "weight_integral",
    "log_weight_integral",
    "log_quad",
    "log_quad_multi",
    "linear_power_integrals",
    "far_root_integrals",
    "sup_on_grid",
    "sups_on_grid",
    "sup_on_interval",
    "golden_refine",
    "invert_monotone",
    "log_integral_bounds_check",
    "tail_block_integral",
    "power_log_integrals",
    "weight_prefix_many",
]

# (points, largest κ·w): the rungs of a κ pass, each exact to rounding up to its
# limit, where the Bernstein ellipse of a panel has ρ >= ~4/(κw) (Trefethen,
# ATAP, Thm 19.3)
_RUNGS = ((5, 1.0 / 16.0), (8, 1.0 / 6.0), (15, 0.5))
_GL = {n: np.polynomial.legendre.leggauss(n) for n, _ in _RUNGS}
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TAIL_CHUNKS = 4000
_TAIL_EPS = 1e-16  # a marched chunk below this share of the sum is negligible
_PIECE_EPS = 2.0**-60  # a root-side piece proved below this share of its stretch is skipped
_SCAN_BLOCK = 1 << 16  # (point, column) values per block of a grid scan
_BLOCK = 1 << 20  # (node, column) values per block of a κ pass
_SCAN_LEVELS = (4096, 512, 64, 8)  # run sizes of a pruned window scan, coarse to fine
_RUN = 64  # points per run of a bounded sups_on_grid scan
_INVERT_TOL = 1e-12  # relative residual of every monotone-map inversion


def u_of_t(t):
    return 1.0 - np.log(t)


def t_of_u(u):
    return np.exp(1.0 - np.asarray(u, dtype=float))


@dataclass(frozen=True)
class LogWeight:
    """w(t) = t^a (1 - Log t)^b on (0, 1)."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise BadExponent("weight exponents must be finite")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t**self.a * (1.0 - np.log(t)) ** self.b

    def value_at_u(self, u):
        """w(e^{1-u}) without leaving the u scale."""
        u = np.asarray(u, dtype=float)
        return np.exp((1.0 - u) * self.a + self.b * np.log(u))

    def u_form(self, u):
        """w(t(u))·|dt/du|: the integrand of ∫ w dt after t = e^{1-u}."""
        u = np.asarray(u, dtype=float)
        return np.exp((1.0 - u) * (self.a + 1.0) + self.b * np.log(u))

    def doubling_constant(self) -> float:
        """K with w(2t) <= K w(t) on (0, 1/2); closed form for this weight family."""
        ln2 = math.log(2.0)
        return 2.0**self.a * max(1.0, (1.0 + ln2) ** -self.b)


@dataclass(frozen=True)
class UGrid:
    """Log grid: u uniform on [1, u_max], nodes t_j = e^{1-u_j}."""

    u_max: float = 35.0
    count: int = 4096

    def __post_init__(self):
        if not self.u_max > 1.0:
            raise BadInterval("u_max must exceed 1")
        if self.count < 2:
            raise BadInterval("need at least two grid nodes")

    def u_nodes(self) -> np.ndarray:
        return np.linspace(1.0, self.u_max, self.count)

    def t_nodes(self) -> np.ndarray:
        """Nodes in increasing t order."""
        return np.exp(1.0 - self.u_nodes())[::-1]

    def doubled(self) -> "UGrid":
        return UGrid(self.u_max, 2 * self.count)

    def with_points(self, points: Iterable[float]) -> np.ndarray:
        """The nodes and the points in (0, 1], merged in increasing t order."""
        pts = np.asarray(list(points), dtype=float)
        return np.unique(np.concatenate([self.t_nodes(), pts[(pts > 0.0) & (pts <= 1.0)]]))


# ---------------------------------------------------------------------------
# κ passes in the u variable
# ---------------------------------------------------------------------------


def _split(lo: np.ndarray, hi: np.ndarray, width) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each [lo_i, hi_i] cut evenly into panels at most width (or width_i) wide:
    (panel starts, panel ends, index i of each panel's interval)."""
    n = np.maximum(1, np.ceil((hi - lo) / width).astype(int))
    if (n == 1).all():
        return lo, hi, np.arange(lo.size)
    ids = np.repeat(np.arange(lo.size), n)
    k = np.arange(ids.size) - np.repeat(np.cumsum(n) - n, n)
    step = ((hi - lo) / n)[ids]
    a = lo[ids] + k * step
    b = np.where(k + 1 == n[ids], hi[ids], a + step)
    return a, b, ids


def _kappa_panels(c: np.ndarray, b: float, lo: np.ndarray, span: np.ndarray, sigma=0.0, reach=0.0):
    """The panels of a κ pass over the offsets [0, span_i] from lo_i >= 1 in
    u: nodes as offsets from lo_i, (panels, points); half widths; and the
    interval of each panel, nondecreasing, each interval with at least one
    panel.

    Each interval is cut at lo_i·2^k, and each piece evenly into panels at
    most 1/(2κ) wide, κ = |c_i| + σ_i + (1 + |b|)/v at the piece's start v,
    where e^{-c_i u} is the weight's rate and σ_i bounds the log-derivative
    in u of the rest of the integrand.  κ bounds how fast the integrand's log
    moves, and the 1/v keeps each panel within half its start from the branch
    point v = 0.  The pass takes the fewest points of _RUNGS whose limit
    bounds κ·w on every panel, and reach, a κ·w that some integrand needs
    beyond what its κ shows; so its Gauss-Legendre rule is exact to rounding
    on every panel, however wide the interval.  Intervals that are each one
    piece (k = 0) skip the piece layout, and pieces that are each one panel
    the panel layout: the same bits, without the gathers.
    """
    n = np.maximum(1, np.ceil(np.log1p(span / lo) / math.log(2.0))).astype(int)
    sigma = np.broadcast_to(sigma, lo.shape)
    if (n == 1).all():
        ids, start, end = np.arange(lo.size), np.minimum(0.0, span), np.minimum(lo, span)
    else:
        ids = np.repeat(np.arange(lo.size), n)
        k = np.arange(ids.size) - np.repeat(np.cumsum(n) - n, n)
        c, sigma, lo, span = c[ids], sigma[ids], lo[ids], span[ids]
        start = np.minimum(lo * (2.0**k - 1.0), span)
        end = np.minimum(lo * (2.0 ** (k + 1) - 1.0), span)
    kappa = np.abs(c) + sigma + (1.0 + abs(b)) / (lo + start)
    pa, pb, j = _split(start, end, 0.5 / kappa)
    if j.size > ids.size:  # some piece takes several panels
        kappa, ids = kappa[j], ids[j]
    half = 0.5 * (pb - pa)
    widest = max(reach, float(np.max(2.0 * half * kappa, initial=0.0)))
    gx = _GL[next((n for n, limit in _RUNGS if widest <= limit), 15)][0]
    return (0.5 * (pa + pb))[:, None] + half[:, None] * gx, half, ids


def _panel_sums(fu, x: np.ndarray, half: np.ndarray, ids: np.ndarray, intervals: int, width: int):
    """The κ pass over _kappa_panels' (x, half, ids): ∫ fu over each of the
    intervals, with fu(x, i) the u-integrand at the nodes of each panel's
    interval i, a (panels, points) array or (panels, points, width) for width
    columns, evaluated on blocks of panels of at most _BLOCK values."""
    rows, gl = max(1, _BLOCK // (x.shape[1] * max(width, 1))), _GL[x.shape[1]][1]
    parts = [
        np.tensordot(fu(x[k : k + rows], ids[k : k + rows]), gl, axes=(1, 0)) for k in range(0, half.size, rows)
    ]
    per = parts[0] if len(parts) == 1 else np.concatenate(parts)
    per *= half.reshape((-1,) + (1,) * (per.ndim - 1))
    if half.size == intervals:  # one panel per interval
        return per
    return np.add.reduceat(per, np.searchsorted(ids, np.arange(intervals)), axis=0)


@lru_cache(maxsize=None)
def _jacobi_rule(s: float) -> Tuple[np.ndarray, np.ndarray]:
    """The 15-point Gauss rule for ∫_0^1 x^s φ(x) dx, s > -1, by Golub-Welsch:
    nodes are the eigenvalues of the Jacobi matrix of P_n^(0,s)(2x - 1), and
    weights 1/(s + 1) over Σ_n p_n(x)^2 of the orthonormal polynomials at the
    node (Christoffel numbers keep small weights' digits better than
    eigenvectors)."""
    k = np.arange(1.0, 15.0)
    m = 2.0 * k + s
    diag = 0.5 + 0.5 * np.concatenate([[s / (s + 2.0)], s * s / (m * (m + 2.0))])
    off = k * (k + s) / (m * np.sqrt(m * m - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p_prev, p, total = np.zeros(15), np.ones(15), np.ones(15)
    for n in range(14):
        p_prev, p = p, ((x - diag[n]) * p - (off[n - 1] if n else 0.0) * p_prev) / off[n]
        total += p * p
    return x, 1.0 / ((s + 1.0) * total)


def linear_power_integrals(w: LogWeight, s: float, near, far, at_near, slope, shift=0.0):
    """e^{-shift} ∫ w(t) L(t)^s dt from near to far (either order, in (0, 1])
    for many stretches on which L(t) = at_near + slope·|t - near| >= 0.

    Where L vanishes at near, the 15-point Gauss-Jacobi rule with weight x^s
    takes the stretch out to where t has moved by a factor e^h,
    h = min(Log 2, 1/(2κ)), κ = |a+1| + (1+|b|)/u.  A stretch whose root lies
    at least its length away is one far_root_integrals stretch; the rest is
    cut where its distance from L's root doubles, and each piece is one κ
    pass with σ = 0 and the 15-point rule, but for the pieces proved below
    _PIECE_EPS of their stretch's integral (_felt_pieces), which are skipped.
    Exponents meet the shift before one exp, so nothing overflows that the
    shifted value does not.
    """
    near, far, at_near, slope, shift = (
        np.array(v, dtype=float).reshape(-1) for v in np.broadcast_arrays(near, far, at_near, slope, shift)
    )
    out = np.zeros(near.size)
    c, b = w.a + 1.0, w.b
    side = np.sign(far - near)  # away from the root
    r = np.flatnonzero((at_near == 0.0) & (slope > 0.0) & (side != 0.0))
    if r.size:
        h = np.minimum(math.log(2.0), 0.5 / (abs(c) + (1.0 + abs(b)) / (1.0 - np.log(near[r]))))
        gap = np.minimum(np.abs(far[r] - near[r]), near[r] * np.abs(np.expm1(side[r] * h)))
        x, wx = _jacobi_rule(float(s))
        lt = np.log(near[r])[:, None] + np.log1p((side[r] * gap / near[r])[:, None] * x)
        lead = s * np.log(slope[r]) + (s + 1.0) * np.log(gap) - shift[r]
        out[r] = np.exp(lead[:, None] + w.a * lt + b * np.log1p(-lt)) @ wx
        near[r] = np.where(gap == np.abs(far[r] - near[r]), far[r], near[r] + side[r] * gap)
        at_near[r] = slope[r] * gap
    span = np.abs(far - near)
    live = (span > 0.0) & (at_near > 0.0)
    d0 = np.divide(at_near, slope, out=span.copy(), where=slope > 0.0)  # the root's distance
    whole = np.flatnonzero(live & (d0 >= span))
    out[whole] += far_root_integrals(
        w, s, near[whole], far[whole], at_near[whole, None], slope[whole, None], shift=shift[whole]
    )[:, 0]
    close = np.flatnonzero(live & (d0 < span))
    if close.size == 0:
        return out
    # cut at the offsets d0·(2^k - 1) from near, the last piece ending at far
    d0 = np.maximum(d0[close], np.finfo(float).smallest_subnormal)
    n = np.ceil(np.logaddexp(0.0, np.log(span[close]) - np.log(d0)) / math.log(2.0)).astype(int)
    ids = np.repeat(close, n)
    k = np.arange(ids.size) - np.repeat(np.cumsum(n) - n, n)
    d0, sp = np.repeat(d0, n), span[ids]
    off_a, off_b = np.minimum(np.ldexp(d0, k) - d0, sp), np.minimum(np.ldexp(d0, k + 1) - d0, sp)
    ta = near[ids] + side[ids] * off_a
    tb = np.where(off_b >= sp, far[ids], near[ids] + side[ids] * off_b)
    la = at_near[ids] + slope[ids] * off_a
    felt = np.flatnonzero(_felt_pieces(w, s, ta, tb, la, at_near[ids] + slope[ids] * off_b, n))
    ids = ids[felt]
    # a piece next to a root has σ = 0 but takes the full rule: L at most
    # doubles on it, and its root lies a piece's width away, which κ·w misses
    pieces = _stretch_sums(w, s, ta[felt], tb[felt], la[felt, None], slope[ids, None], shift[ids], 0.0, 0.5)
    return out + np.bincount(ids, pieces[:, 0], out.size)


def _felt_pieces(w: LogWeight, s: float, ta, tb, la, lb, n: np.ndarray) -> np.ndarray:
    """Which of the root-side pieces [ta, tb] (either order), n to a stretch,
    on which L runs from la to lb > 0, may reach _PIECE_EPS of their stretch's
    integral.  L^s is monotone on a piece and Log w moves by at most
    κ = |a| + |b|/u per unit of u, so a piece's integral lies within
    e^{±κΔu} of its length times the larger, or the smaller, w·L^s at its
    ends, Δu its width in u; a stretch's integral is at least each of its
    pieces'.  Pieces of zero length in t are never felt."""
    lo, hi = np.minimum(ta, tb), np.maximum(ta, tb)
    width = _log1p_ratio(hi - lo, lo)
    with np.errstate(divide="ignore"):
        length = np.log(hi - lo)
    slack = (abs(w.a) + abs(w.b) / (1.0 - np.log(hi))) * width
    at = [w.a * np.log(t) + w.b * np.log1p(-np.log(t)) + s * np.log(big_l) for t, big_l in ((ta, la), (tb, lb))]
    floor = np.maximum.reduceat(length + np.minimum(*at) - slack, np.cumsum(n) - n)
    return length + np.maximum(*at) + slack >= np.repeat(floor, n) + math.log(_PIECE_EPS)


def far_root_integrals(w: LogWeight, s: float, near, far, at_near, slope, need=True, shift=0.0):
    """e^{-shift_i} ∫ w(t) (at_near_ij + slope_ij·|t - near_i|)^s dt from
    near_i to far_i (either order, in (0, 1]) for each stretch i and column j
    of the (stretch, column) arrays at_near and slope where need_ij holds, and
    0 elsewhere.  A needed L has at_near > 0 and its root at least the
    stretch's length away from near.  Each stretch lays its κ panels once for
    all its columns, with σ the largest s·t·slope/L at its ends over its
    needed columns.
    """
    near, far, shift = (np.broadcast_to(np.asarray(v, dtype=float), np.shape(near)) for v in (near, far, shift))
    need = np.broadcast_to(need, np.shape(at_near))
    at_near, slope = np.where(need, at_near, 1.0), np.where(need, slope, 0.0)  # L = 1 where not needed
    at_far = at_near + slope * np.abs(far - near)[:, None]
    sigma = s * np.max(slope * np.maximum(near[:, None] / at_near, far[:, None] / at_far), axis=1, initial=0.0)
    return np.where(need, _stretch_sums(w, s, near, far, at_near, slope, shift, sigma), 0.0)


def _stretch_sums(w: LogWeight, s: float, near, far, at_near, slope, shift, sigma, reach=0.0):
    """The integrals of far_root_integrals at every (stretch, column), from
    one κ pass: σ_i bounds stretch i's integrands, reach as in _kappa_panels."""
    if near.size == 0:
        return np.zeros(at_near.shape)
    c, b = w.a + 1.0, w.b
    hi_t, lo_t = np.maximum(near, far), np.minimum(near, far)
    lo_u = 1.0 - np.log(hi_t)
    x, half, p_run = _kappa_panels(np.full(near.size, c), b, lo_u, _log1p_ratio(hi_t - lo_t, lo_t), sigma, reach)
    # |t - near| at the nodes from y = u(near) - v, or from t where t > e·near
    g0 = np.sign(hi_t - near) * _log1p_ratio(np.abs(hi_t - near), np.minimum(hi_t, near))
    stretches = near.size
    if half.size > stretches:  # some stretch takes several panels; else p_run is the identity
        lo_u, g0, near, shift, slope, at_near = (a[p_run] for a in (lo_u, g0, near, shift, slope, at_near))
    v = lo_u[:, None] + x
    y = g0[:, None] - x
    nv = np.broadcast_to(near[:, None], y.shape)
    dist = nv * np.abs(np.expm1(np.minimum(y, 1.0)))
    dist[y > 1.0] = t_of_u(v[y > 1.0]) - nv[y > 1.0]
    mass = half[:, None] * _GL[x.shape[1]][1] * np.exp((1.0 - v) * c + b * np.log(v) - shift[:, None])
    big_l = slope[:, None, :] * dist[:, :, None]  # (panel, node, column)
    big_l += at_near[:, None, :]
    big_l **= s
    per = np.einsum("ijk,ij->ik", big_l, mass)
    if half.size == stretches:
        return per
    return np.add.reduceat(per, np.searchsorted(p_run, np.arange(stretches)), axis=0)


def log_quad_multi(g, w: LogWeight, lo: float, hi: float, breaks: Sequence[float] = (), sigma=None):
    """∫_lo^hi g(t) w(t) dt per output column of a vectorized g mapping t to
    (len(t), m) values (g of an empty t gives m): one κ pass over the panels
    between lo, hi and the breaks, in blocks of at most _BLOCK values.
    sigma(u), where given, bounds |t g'/g| at t = e^{1-u} (per point, or per
    point and column) at panel ends in u, the larger end bounding it on the
    panel; without it g must vary slowly against w.

    With lo = 0 the u-tail is marched in two-unit chunks, summed one at a time
    until two in a row fall below _TAIL_EPS of the sum, which suits integrands
    that decay exponentially in u; slowly decaying tails need closed forms
    such as ``tail_block_integral``.  The chunks are computed in batches of 8,
    16, 32, ... chunks, one κ pass each, none past _TAIL_CHUNKS: a march of n
    chunks takes ceil(log2(n/8 + 1)) passes and computes at most 2n + 7
    chunks, those past the stop never summed or checked.  A non-finite summed
    chunk, or a march whose sum overflows or whose chunks still grow at its
    end, raises Divergent; one whose chunks stop growing without vanishing,
    NoConvergence.
    """
    if not (0.0 <= lo <= hi <= 1.0):
        raise BadInterval(f"bad interval [{lo}, {hi}]")
    width = np.shape(g(np.zeros(0)))[-1]
    if lo == hi:
        return np.zeros(width)

    def pass_(us):  # the κ pass: one sum per u-interval between consecutive us
        bound = np.zeros(us.size)
        if sigma is not None:
            bound = np.max(np.reshape(sigma(us), (us.size, -1)), axis=1)

        def fu(x, i):
            v = us[i][:, None] + x
            vals = np.asarray(g(t_of_u(v).ravel()), dtype=float).reshape(v.shape + (-1,))
            return vals * w.u_form(v)[..., None]

        c = np.full(us.size - 1, w.a + 1.0)
        panels = _kappa_panels(c, w.b, us[:-1], np.diff(us), np.maximum(bound[:-1], bound[1:]))
        return _panel_sums(fu, *panels, us.size - 1, width)

    def finite(out, u_lo, u_hi):
        if not np.all(np.isfinite(out)):
            raise Divergent(f"integrand is not finite on u in [{float(u_lo)!r}, {float(u_hi)!r}] for {w!r}")
        return out

    brk = np.asarray(breaks, dtype=float)
    brk = brk[(brk > lo) & (brk < hi)]
    us = np.unique(u_of_t(np.concatenate([[hi, lo] if lo > 0.0 else [hi], brk])))
    acc = finite(pass_(us).sum(axis=0), us[0], us[-1]) if us.size > 1 else 0.0
    if lo > 0.0:
        return acc
    small, mag, ends = 0, np.inf, us[-1:]
    for n in range(1, _TAIL_CHUNKS + 1):
        i = n + 7 - (1 << ((n + 7).bit_length() - 1))  # batch k holds chunks 2^{k+3} - 7 .. 2^{k+4} - 8
        if i == 0:
            # a sequential sum: the ends bit for bit as adding 2 per chunk gives them
            ends = np.cumsum(np.concatenate([ends[-1:], np.full(min(n + 7, _TAIL_CHUNKS + 1 - n), 2.0)]))
            sums = pass_(ends)
        chunk = finite(sums[i], ends[i], ends[i + 1])
        acc = acc + chunk
        prev, mag = mag, np.abs(chunk)
        # an overflowed sum also passes this test, hence the check on return
        small = small + 1 if (mag <= _TAIL_EPS * np.abs(acc)).all() else 0
        if small == 2:
            break
    if small == 2 and np.isfinite(acc).all():
        return acc
    where = f"on u in [{float(us[0])!r}, inf): {n} two-unit chunks marched from u = {float(us[-1])!r} for {w!r}"
    if small == 2 or (mag > prev).any():
        raise Divergent(f"integrand grows without bound toward 0 {where}")
    raise NoConvergence(f"u-tail did not converge toward 0 {where}")


def log_quad(g, w: LogWeight, lo: float, hi: float, breaks: Sequence[float] = (), sigma=None) -> float:
    """∫_lo^hi g(t) w(t) dt for vectorized g: the one-column log_quad_multi."""

    def column(t):
        return np.reshape(np.asarray(g(t), dtype=float), (-1, 1))

    return float(log_quad_multi(column, w, lo, hi, breaks, sigma)[0])


def weight_integral(w: LogWeight, lo: float, hi: float, shift: float = 0.0) -> float:
    """e^{-shift} ∫_lo^hi t^a (1 - Log t)^b dt, 0 <= lo <= hi <= 1, exact to
    rounding: for lo = 0 the incomplete-gamma head (_head_integral), else
    power_log_integrals.  Returns inf when the integral diverges at 0.  The
    shift joins each exponent before its exp, so nothing overflows that the
    shifted value does not."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise BadInterval(f"bad interval [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    if lo > 0.0:
        return float(power_log_integrals(w.a, w.b, np.array([lo]), np.array([hi]), shift)[0])
    return _head_integral(w, hi, shift)


def _head_integral(w: LogWeight, x: float, shift: float) -> float:
    """e^{-shift} ∫_0^x w for 0 < x <= 1; inf when it diverges at 0.

    With c = a + 1 > 0 and s = b + 1 this is e^c c^{-s} Γ(s, c·u), u = 1 - Log x
    (DLMF 8.2.2): the u-integral of e^{(1-v)c} v^b over [u, U] by one κ pass,
    with U >= u the first point where c·U >= max(s, 0) + 2, plus the rest
    e^{c(1-U)} U^s·_gamma_cf(s, cU), whose exponent is summed before one exp,
    so it overflows only where the value does.  Any real s works, 0 and
    negative integers included.
    """
    c, s = w.a + 1.0, w.b + 1.0
    u = 1.0 - math.log(x)
    if c < 0.0 or (c == 0.0 and s >= 0.0):
        return math.inf
    if c == 0.0:
        return -math.exp(s * math.log(u) - shift) / s
    if w.b == 0.0:
        return math.exp(c * math.log(x) - shift) / c
    top = max(u, (max(s, 0.0) + 2.0) / c)
    body = 0.0
    if top > u:

        def fu(y, i):
            v = u + y
            return np.exp((1.0 - v) * c + w.b * np.log(v) - shift)

        panels = _kappa_panels(np.array([c]), w.b, np.array([u]), np.array([top - u]))
        body = float(_panel_sums(fu, *panels, 1, 1)[0])
    rest = math.exp(c * (1.0 - top) + s * math.log(top) - shift)
    return body + rest * _gamma_cf(s, c * top)


def _gamma_cf(s: float, z: float) -> float:
    """Γ(s, z) e^z z^{-s} for z > 0 by Lentz's method on the continued fraction
    1/(z+1-s- 1(1-s)/(z+3-s- 2(2-s)/(z+5-s- ...))), the even part of DLMF
    8.9.2; it takes a few dozen steps once z >= max(s, 0) + 2."""
    tiny = 1e-300
    den = z + 1.0 - s
    num, inv = 1.0 / tiny, 1.0 / den
    out = inv
    for n in range(1, 1000):
        an = -n * (n - s)
        den += 2.0
        inv = an * inv + den
        inv = 1.0 / (inv if abs(inv) > tiny else tiny)
        num = den + an / num
        num = num if abs(num) > tiny else tiny
        out *= inv * num
        if abs(inv * num - 1.0) <= 1e-16:
            return out
    raise NoConvergence(f"continued fraction of Gamma({s}, {z}) took 1000 steps")


def _weight_integrals(w: LogWeight, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """∫_lo^hi w for many intervals, 0 where lo = 0 or hi <= lo."""
    out = np.zeros(los.size)
    idx = np.nonzero((his > los) & (los > 0.0))[0]
    if idx.size:
        out[idx] = power_log_integrals(w.a, w.b, los[idx], his[idx])
    return out


def power_log_integrals(a, b: float, los: np.ndarray, his: np.ndarray, shift=0.0) -> np.ndarray:
    """e^{-shift_i} ∫_lo^hi t^{a_i} (1 - Log t)^b dt for intervals
    0 < lo_i < hi_i <= 1, with one a_i and shift_i per interval, or one for all.

    Elementary where b = 0 or a_i = -1: (y^e - x^e)/e = z^e (1 - e^{-|e| l})/|e|
    with l = Log(y/x) and z the end where the power is larger, written with
    log1p and expm1 so that narrow intervals lose nothing to cancellation.
    Otherwise one κ pass.  The shift joins each exponent before its exp.
    """
    c = np.broadcast_to(np.asarray(a, dtype=float) + 1.0, los.shape)
    shift = np.broadcast_to(np.asarray(shift, dtype=float), los.shape)
    d = _log1p_ratio(his - los, los)  # u(lo) - u(hi)
    flat = c == 0.0
    if b == 0.0:
        rise = _power_difference(los, his, np.where(flat, 1.0, c), d, shift)
        return np.where(flat, d * np.exp(-shift), rise)
    uh = 1.0 - np.log(his)
    out = np.empty(los.size)
    if flat.any():
        e, uf, sf = b + 1.0, uh[flat], shift[flat]
        r = np.log1p(d[flat] / uf)  # Log(u(lo)/u(hi))
        out[flat] = r * np.exp(-sf) if e == 0.0 else _power_difference(uf, uf + d[flat], e, r, sf)
    rest = np.flatnonzero(~flat)
    if rest.size:
        cr, ur, sr = c[rest], uh[rest], shift[rest]

        def fu(x, i):
            v = ur[i][:, None] + x
            return np.exp((1.0 - v) * cr[i][:, None] + b * np.log(v) - sr[i][:, None])

        out[rest] = _panel_sums(fu, *_kappa_panels(cr, b, ur, d[rest]), rest.size, 1)
    return out


def _log1p_ratio(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Log(1 + d/x) for x > 0 and x + d > 0 with no cancellation, or
    Log(x + d) - Log(x) where x is so small that d/x overflows."""
    with np.errstate(over="ignore"):
        out = np.log1p(d / x)
    big = np.isinf(out)
    out[big] = np.log(x[big] + d[big]) - np.log(x[big])
    return out


def _power_difference(x, y, e, l, shift):
    """e^{-shift}(y^e - x^e)/e for 0 < x < y, e != 0 and l = Log(y/x), as
    z^e(1 - e^{-|e| l})/|e|."""
    z = np.where(e > 0.0, y, x)
    return np.exp(e * np.log(z) - shift) * -np.expm1(-np.abs(e) * l) / np.abs(e)


def weight_prefix_many(w: LogWeight, ts: np.ndarray) -> np.ndarray:
    """∫_0^{t_i} w at each point of an array of any shape, by one cumulative
    sweep up from the smallest positive point; 0 at t_i = 0, whatever other
    points come with it."""
    ts = np.asarray(ts, dtype=float)
    order = np.argsort(ts, axis=None, kind="stable")  # fast on the sorted or reversed runs callers pass
    s = ts.flat[order]
    s = s[np.searchsorted(s, 0.0, side="right") :]
    out = np.zeros(ts.shape)
    if s.size:
        base, steps = weight_integral(w, 0.0, float(s[0])), _weight_integrals(w, s[:-1], s[1:])
        out.flat[order[ts.size - s.size :]] = base + np.concatenate([[0.0], np.cumsum(steps)])
    return out


def log_weight_integral(f: StepFunction, p: float, w: LogWeight, a: float, b: float) -> float:
    """∫_a^b f^p(s) w(s) ds with f a step function: exact values, panel weights.

    Weight factors over each overlapped panel are integrated as weight_integral
    does, exactly to rounding.
    """
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")
    lo = np.maximum(f.breaks[:-1], a)
    hi = np.minimum(f.breaks[1:], b)
    mask = (hi > lo) & (f.values > 0.0)
    if not np.any(mask):
        return 0.0
    los, his, vp = lo[mask], hi[mask], f.values[mask] ** p
    # the only possibly-open-ended panel is the first
    head = vp[0] * weight_integral(w, 0.0, float(his[0])) if los[0] == 0.0 else 0.0
    return head + float(np.dot(vp, _weight_integrals(w, los, his)))


def tail_block_integral(w: LogWeight, at_cut: float, slope: float, s: float, cut: float) -> float:
    """∫_0^cut w(t) (at_cut + slope·(cut - t))^s dt for the region below the
    smallest breakpoint, where a tail power integral is exactly linear in t.

    One linear_power_integrals stretch from the cut down to where slope·t is
    1e-8 of the total = at_cut + slope·cut, then the two leading terms of
    (total - slope·t)^s close it; converges even when the weight alone decays
    only polynomially in u (for a = -1 that needs b < -1).
    """
    total = at_cut + slope * cut
    if total <= 0.0 or cut <= 0.0:
        return 0.0
    t_freeze = cut if slope <= 0.0 else min(cut, 1e-8 * total / slope)
    acc = 0.0
    if t_freeze < cut:
        acc = float(linear_power_integrals(w, s, cut, t_freeze, at_cut, slope)[0])
    head = weight_integral(w, 0.0, t_freeze)
    if not math.isfinite(head):
        return math.inf
    corr = weight_integral(LogWeight(w.a + 1.0, w.b), 0.0, t_freeze)
    return acc + total**s * head - s * total ** (s - 1.0) * slope * corr


# ---------------------------------------------------------------------------
# suprema
# ---------------------------------------------------------------------------


def golden_refine(
    h: Callable[[np.ndarray, np.ndarray], np.ndarray],
    t_left: np.ndarray,
    t_right: np.ndarray,
    best: np.ndarray,
    best_t: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Golden-section refinement of grid maxima, one per bracket.

    Bracket k holds the grid node best_t[k], which scored best[k], between its
    neighbours t_left[k] <= t_right[k]; h(t, k) evaluates the objectives of
    brackets k at points t (arrays of equal length).  Each bracket is searched
    in u and stops on its own.  Returns (sup, argmax t) arrays, keeping a node
    unless its search beats it."""
    sup = np.array(best, dtype=float)
    arg = np.array(best_t, dtype=float)
    ua, ub = u_of_t(np.asarray(t_right, dtype=float)), u_of_t(np.asarray(t_left, dtype=float))
    live = np.flatnonzero(ub > ua)
    if live.size == 0:
        return sup, arg
    ua, ub = ua[live], ub[live]

    def hu(u, j):
        return np.asarray(h(t_of_u(u), live[j]), dtype=float)

    every = np.arange(live.size)
    c = ub - _INVPHI * (ub - ua)
    d = ua + _INVPHI * (ub - ua)
    fc, fd = hu(c, every), hu(d, every)
    act = every
    for _ in range(200):
        scale = np.maximum(np.maximum(1.0, np.abs(ua[act])), np.abs(ub[act]))
        act = act[(ub[act] - ua[act]) > 1e-8 * scale]
        if act.size == 0:
            break
        left = fc[act] >= fd[act]
        down, up = act[left], act[~left]  # brackets whose upper / lower end moves
        ub[down], d[down], fd[down] = d[down], c[down], fc[down]
        c[down] = ub[down] - _INVPHI * (ub[down] - ua[down])
        ua[up], c[up], fc[up] = c[up], d[up], fd[up]
        d[up] = ua[up] + _INVPHI * (ub[up] - ua[up])
        vals = hu(np.where(left, c[act], d[act]), act)
        fc[down], fd[up] = vals[left], vals[~left]
    pick = fc >= fd
    v, u = np.where(pick, fc, fd), np.where(pick, c, d)
    better = v > sup[live]
    sup[live[better]] = v[better]
    arg[live[better]] = t_of_u(u[better])
    return sup, arg


def sup_on_interval(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    count: int,
    extra_points: Iterable[float] = (),
    u_cap: float = 41.0,
    *,
    bound: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """(sup, argmax) arrays of g over windows (lo_k, hi_k] by log-grid scan plus
    golden refinement; g(t, k) evaluates window k's objective at points t.

    Window k scans the n_k nodes of np.linspace(u_hi, u_lo, n_k) in t (n_k
    scales with its u-length, between 8 and count) and the extra points inside
    it; a window open at 0 reaches down to u_lo = max(u_cap, u(hi_k) + 8).  Each
    point sequence is one run, cut coarse to fine into runs of the sizes in
    _SCAN_LEVELS.  A run is dropped when bound(a, b, k), an upper bound of g(·, k)
    on [a, b] that every call passes by keyword, lies below g at the largest point
    of a run of its window; the runs left are scanned point by point: the full
    scan's bits.  The maximum (at the smallest t attaining it) is refined in one
    golden pass between its neighbours in the window."""
    lo, hi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (lo, hi))
    u_hi = u_of_t(hi)
    u_lo = np.maximum(u_cap, u_hi + 8.0)
    u_lo[lo > 0.0] = u_of_t(lo[lo > 0.0])
    n = np.maximum(8, np.minimum(count, (count * (u_lo - u_hi) / 34.0).astype(int) + 8))
    step = (u_lo - u_hi) / (n - 1)
    xs = np.sort(np.asarray(list(extra_points), dtype=float))
    x_from, x_to = np.searchsorted(xs, lo, side="right"), np.searchsorted(xs, hi, side="right")
    xp = np.append(xs, 0.0)  # so that index 0 of an empty xs and the index xs.size are in range

    def node(k, i):  # node i, decreasing in i, of windows k, as np.linspace has it
        return t_of_u(np.where(i == n[k] - 1, u_lo[k], i * step[k] + u_hi[k]))

    def point(k, s, i):  # point i of windows k: node (s = 0) or extra point
        return np.where(s == 0, node(k, i), xp[np.maximum(x_to[k] - 1 - i, 0)])

    def name(j):
        return f"window ({float(lo[j])!r}, {float(hi[j])!r}]"

    def values(t, k):  # in chunks of _SCAN_BLOCK points
        chunks = (slice(i, i + _SCAN_BLOCK) for i in range(0, t.size, _SCAN_BLOCK))
        return np.concatenate([np.zeros(0)] + [_values(g, t[c], k[c], name) for c in chunks])

    k, s = np.divmod(np.arange(2 * lo.size), 2)  # one run per (window, sequence)
    start, stop = np.zeros(k.size, dtype=int), np.stack([n, x_to - x_from], axis=1).ravel()
    best, best_t = np.full(lo.size, -np.inf), np.full(lo.size, np.inf)
    for size in _SCAN_LEVELS + (1,):  # runs of one point: the scan of what is left
        m = -(-(stop - start) // size)
        start = np.repeat(start, m) + size * (np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m))
        k, s, stop = np.repeat(k, m), np.repeat(s, m), np.minimum(start + size, np.repeat(stop, m))
        b = point(k, s, start)
        ends = values(b, k)
        np.maximum.at(best, k, ends)
        if size > 1:
            live = ~(bound(point(k, s, stop - 1), b, k) * (1.0 + 1e-12) < best[k]) | (ends == best[k])
            k, s, start, stop = k[live], s[live], start[live], stop[live]
    np.minimum.at(best_t, k, np.where(ends == best[k], b, np.inf))

    # its neighbours, the points just below and just above it: the extra ones by
    # bisection in xs, the nodes from their index in u, checked exactly
    xl, xr = (np.clip(np.searchsorted(xs, best_t, side), x_from, x_to) for side in ("left", "right"))
    guess = np.divide(u_of_t(best_t) - u_hi, step, out=np.zeros(lo.size), where=step > 0.0)
    above = _walk(lambda j, v: node(v, j) > best_t[v], np.clip(guess, 0, n).astype(int), n)
    upto = _walk(lambda j, v: node(v, j) >= best_t[v], above, n)
    w = np.arange(lo.size)
    t_left = np.maximum(np.where(upto < n, node(w, upto), -np.inf), np.where(xl > x_from, xp[xl - 1], -np.inf))
    t_right = np.minimum(np.where(above > 0, node(w, above - 1), np.inf), np.where(xr < x_to, xp[xr], np.inf))
    t_left, t_right = (np.where(np.isinf(t), best_t, t) for t in (t_left, t_right))
    return golden_refine(values, t_left, t_right, best, best_t)


def _walk(pred, c: np.ndarray, n: np.ndarray) -> np.ndarray:
    """For each k, how many j in [0, n_k) satisfy pred(j, k), a predicate on arrays
    of j and k that holds up to some j and fails beyond: a walk from the guesses c."""
    c = c.copy()
    v = np.arange(n.size)
    while (v := v[c[v] < n[v]]).size and (v := v[pred(c[v], v)]).size:
        c[v] += 1
    v = np.arange(n.size)
    while (v := v[c[v] > 0]).size and (v := v[~pred(c[v] - 1, v)]).size:
        c[v] -= 1
    return c


def _values(g, ts: np.ndarray, ks: np.ndarray, name: Callable[[int], str]) -> np.ndarray:
    """g(ts, ks), ts and ks broadcast against each other, all finite; name(k)
    says what k is when they are not."""
    vals = np.asarray(g(ts, ks), dtype=float)
    if not np.all(finite := np.isfinite(vals)):
        i = np.argmin(finite)
        t, k = (np.broadcast_to(v, vals.shape).flat[i] for v in (ts, ks))
        raise NonFiniteValue(f"objective is {vals.flat[i]} at t = {float(t)!r} in {name(k)}")
    return vals


def sup_on_grid(g: Callable, grid: UGrid, extra_points: Iterable[float] = ()) -> Tuple[float, float]:
    """(sup estimate, argmax t) of a vectorized g >= 0 over (0, 1]: the
    one-column sups_on_grid."""
    val, arg = sups_on_grid(lambda t, _k: np.reshape(g(np.ravel(t)), np.shape(t)), grid, 1, extra_points)
    return float(val[0]), float(arg[0])


def sups_on_grid(g: Callable, grid: UGrid, columns: int, extra_points: Iterable[float] = (), bound=None):
    """(sup, argmax t) arrays of each of the columns of g over (0, 1], where
    g(t, k), nonnegative, gives columns k at points t, the two broadcast
    against each other: a scan up in t of grid.with_points(extra_points), then
    one golden_refine pass between each column's best point (the smallest t
    attaining its maximum) and that point's neighbours.

    The best value starts at 0.  Without a bound the scan goes in blocks of at
    most _SCAN_BLOCK values.  bound(a, b, k), an upper bound of g(·, k) on
    [a, b] as in sup_on_interval, makes it go in runs of _RUN points: g is
    evaluated at every run's largest point, and a run is scanned only for the
    columns whose bound there is positive and not below their best run end,
    which leaves every value bit for bit as the unbounded scan has it."""
    ts, every = grid.with_points(extra_points), np.arange(columns)

    def values(t, k):
        return _values(g, t, k, lambda c: f"column {c}")

    size = max(1, _SCAN_BLOCK // columns) if bound is None else _RUN
    first = np.arange(0, ts.size, size)
    last = np.append(first[1:], ts.size) - 1
    live = np.ones((first.size, columns), dtype=bool)
    if bound is not None:
        top = np.max(values(ts[last, None], every), axis=0, initial=0.0)
        b = np.asarray(bound(ts[first, None], ts[last, None], every), dtype=float)
        live = ~((b * (1.0 + 1e-12) < top) | (b == 0.0))  # a NaN never prunes
    best, at = np.zeros(columns), np.zeros(columns, dtype=int)
    for r in np.flatnonzero(live.any(axis=1)):
        c = np.flatnonzero(live[r])
        vals = values(ts[first[r] : last[r] + 1, None], c)
        i = np.argmax(vals, axis=0)
        top = vals[i, np.arange(c.size)]
        up = top > best[c]
        best[c[up]], at[c[up]] = top[up], first[r] + i[up]
    left, right = ts[np.maximum(at - 1, 0)], ts[np.minimum(at + 1, ts.size - 1)]
    return golden_refine(values, left, right, best, ts[at])


# ---------------------------------------------------------------------------
# monotone maps and inversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneMap:
    """A weight t^a (1 - Log t)^b restricted to the interval where it increases.

    For a > 0 the map increases on (0, t0] with t0 = e^{(a-b)/a}, that is
    u0 = b/a, when a < b and t0 = 1 otherwise; for a = 0 it increases on all of
    (0, 1] iff b < 0.  The top forward(t0) is taken at u0, so it stays finite
    where t0 underflows to 0.
    """

    forward: LogWeight

    def __post_init__(self):
        a, b = self.forward.a, self.forward.b
        if a < 0.0 or (a == 0.0 and b >= 0.0):
            raise BadExponent("map must be increasing near 0: need a > 0, or a = 0 with b < 0")
        u0 = 1.0 if (a == 0.0 or a >= b) else b / a
        object.__setattr__(self, "t0", float(t_of_u(u0)))
        object.__setattr__(self, "top", float(self.forward.value_at_u(u0)))

    def inverse(self, y):
        """t in the monotone domain with |forward(t) - y| <= 1e-12·max(|y|, tiny),
        elementwise over an array of targets; a scalar target gives a float.

        A target at or above top (within that residual) maps to t0 exactly;
        b = 0 and a = 0 have closed forms, and every other target is a Newton
        solve of its own (_newton)."""
        a, b = self.forward.a, self.forward.b
        ys = np.asarray(y, dtype=float)
        flat = ys.reshape(-1)
        bad = ~((flat > 0.0) & (flat <= self.top * (1.0 + _INVERT_TOL)))
        if bad.any():
            y_bad = float(flat[np.argmax(bad)])
            raise OutOfRange(f"target {y_bad} outside map range (0, {self.top}]")
        inner = flat < self.top
        out = np.full(flat.size, self.t0)
        if b == 0.0:
            out[inner] = flat[inner] ** (1.0 / a)
        elif a == 0.0:
            out[inner] = np.exp(1.0 - flat[inner] ** (1.0 / b))
        else:
            out[inner] = self._newton(flat[inner])
        return float(out[0]) if ys.ndim == 0 else out.reshape(ys.shape)

    def _newton(self, ys: np.ndarray) -> np.ndarray:
        """The roots of h(u) = a(1 - u) + b·Log u - Log y, the Log of forward
        over y at t = e^{1-u}, for 0 < y < top, a > 0 and b != 0: a Lambert-W
        type equation (Corless et al., Adv. Comput. Math. 5, 1996).

        For b < 0, h is convex and decreasing, so Newton's steps from u0 = 1,
        where h >= 0, climb to the root without passing it.  For b > 0, h is
        concave with its top at u* = b/a, so one step from a point left of the
        root with h' < 0 lands at or right of it, and the steps then fall to
        it.  That point is u0 = 1 when a > 2b, else the root of h's quadratic
        expansion about u*, left of the root as h''' > 0; at a double root
        (a <= b, u0 = u*) a step from u0 would divide by h'(u0) = 0.  A target
        stops after a step of at most 1e-15·u, or before one that would turn
        back, so its bits do not depend on the other targets; its residual is
        then checked against _INVERT_TOL."""
        a, b = self.forward.a, self.forward.b
        log_y = np.log(ys)

        def step(u, i):  # the Newton step -h/h' at u for the targets i
            return (a * (1.0 - u) + b * np.log(u) - log_y[i]) / (a - b / u)

        every = np.arange(ys.size)
        u = np.ones(ys.size)
        if b > 0.0:
            if a <= 2.0 * b:
                peak = b / a
                gap = np.maximum(a * (1.0 - peak) + b * math.log(peak) - log_y, 0.0)
                u = peak * (1.0 + np.sqrt(2.0 * gap / b))
                every = every[gap > 0.0]  # a target in rounding of top is u*
            u[every] += step(u[every], every)
        live, toward = every, (1.0 if b < 0.0 else -1.0)
        for _ in range(100):
            v = u[live]
            d = step(v, live)
            on = d * toward > 0.0
            u[live[on]] = v[on] + d[on]
            live = live[on & (np.abs(d) > 1e-15 * v)]
            if live.size == 0:
                break
        else:
            raise NoConvergence("Newton's method failed to reach the requested residual")
        far = np.flatnonzero(u > 1e7)
        if far.size:
            raise OutOfRange(f"target {float(ys[far[0]])} lies past u = 1e7 on the monotone domain")
        miss = np.flatnonzero(np.abs(self.forward.value_at_u(u) - ys) > _INVERT_TOL * np.maximum(ys, 1e-300))
        if miss.size:
            raise NoConvergence(f"target {float(ys[miss[0]])} inverted with a residual above {_INVERT_TOL}")
        return t_of_u(u)


def invert_monotone(psi, y):
    """Invert a monotone map given as a MonotoneMap or as the LogWeight it
    restricts, at a scalar target or elementwise over an array of targets."""
    if isinstance(psi, LogWeight):
        psi = MonotoneMap(psi)
    if not isinstance(psi, MonotoneMap):
        raise TypeError(f"expected a LogWeight or MonotoneMap, got {psi!r}")
    return psi.inverse(y)


# ---------------------------------------------------------------------------
# two-sided power-log integral bounds
# ---------------------------------------------------------------------------


def log_integral_bounds_check(alpha: float, beta: float, a_grid: Sequence[float]) -> dict:
    """Ratios of head/tail power-log integrals against their closed-form bounds.

    Head branch (alpha < 1): ∫_0^a t^{-alpha}(1 - Log t)^beta dt over
    a^{1-alpha}(1 - Log a)^beta; for beta >= 0 the ratio is additionally
    asserted to be at least 1/(1-alpha).  Tail branch (alpha < -1):
    ∫_a^1 t^{alpha}(1 - Log t)^beta dt over a^{alpha+1}(1 - Log a)^beta.
    """
    if not alpha < 1.0:
        raise BadExponent("head branch needs alpha < 1")
    a_grid = [float(a) for a in a_grid]
    if not a_grid or not all(0.0 < a < 1.0 for a in a_grid):
        raise BadExponent("probe points must lie in (0, 1)")
    head = {}
    for a in a_grid:
        num = weight_integral(LogWeight(-alpha, beta), 0.0, a)
        den = a ** (1.0 - alpha) * (1.0 - math.log(a)) ** beta
        head[a] = num / den
    out = {
        "alpha": alpha,
        "beta": beta,
        "head_ratios": head,
        "head_max": max(head.values()),
        "head_lower_bound": 1.0 / (1.0 - alpha) if beta >= 0 else None,
        "head_lower_ok": (
            all(r >= 1.0 / (1.0 - alpha) * (1.0 - 1e-12) for r in head.values())
            if beta >= 0
            else None
        ),
    }
    if alpha < -1.0:
        tail = {}
        for a in a_grid:
            num = weight_integral(LogWeight(alpha, beta), a, 1.0)
            den = a ** (alpha + 1.0) * (1.0 - math.log(a)) ** beta
            tail[a] = num / den
        out["tail_ratios"] = tail
        out["tail_max"] = max(tail.values())
    return out
