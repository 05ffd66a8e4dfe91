"""Log-scale quadrature, supremum search, and monotone-map inversion.

Every weight in this package has the shape w(t) = t^a (1 - Log t)^b on (0, 1).
Substituting u = 1 - Log t turns such weights into e^{(1-u)(a+1)} u^b, smooth
and polynomially-varying on a uniform grid, so all integrals and suprema are
done in the u variable.

Integrals of a weight alone (weight_integral) take no adaptive step: the
elementary antiderivative where b = 0 or a = -1, the incomplete gamma function
for an open lower end (one Gauss-Legendre pass, then a continued fraction),
and otherwise one 15-point Gauss-Legendre pass over panels narrow enough for
the rule to be exact to rounding.  Integrals of a general g times a weight
(log_quad) refine 15-point Gauss-Legendre panels adaptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "adaptive_quad",
    "sup_on_grid",
    "sup_on_interval",
    "golden_refine",
    "invert_monotone",
    "log_integral_bounds_check",
    "tail_block_integral",
    "power_log_integrals",
    "weight_prefix_many",
]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_PANELS = 200_000
_TAIL_CHUNKS = 4000
_SCAN_BLOCK = 1 << 16


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


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre machinery in the u variable
# ---------------------------------------------------------------------------


def _gl(fu: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """15-point Gauss-Legendre on each panel [a_i, b_i]: an (n, m) array for fu
    mapping flat nodes to (len(u), m) values, or (n, 1) for len(u) values."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    u = mid[:, None] + half[:, None] * _GL_X
    vals = np.asarray(fu(u.ravel()), dtype=float).reshape(a.size, _GL_X.size, -1)
    return half[:, None] * (_GL_W @ vals)


def adaptive_quad(
    fu: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    rel_tol: float,
    max_depth: int = 40,
) -> np.ndarray:
    """Σ over the panels between consecutive (increasing) edges of ∫ fu, one
    entry per output column, with per-panel whole-vs-halves refinement until
    every column of a panel meets the tolerance.  A non-finite integrand
    raises Divergent; errors name the interval, rel_tol and the depth."""
    edges = np.asarray(edges, dtype=float)
    where = f"on [{float(edges[0])!r}, {float(edges[-1])!r}] with rel_tol {rel_tol:g}"
    a, b = edges[:-1], edges[1:]
    coarse = _gl(fu, a, b)
    span = float(edges[-1] - edges[0])
    total = np.abs(coarse).sum(axis=0) + 1e-300
    acc = 0.0
    for depth in range(max_depth):
        # total sums |coarse| and every |fine| not yet accepted, so it catches a
        # non-finite integrand value
        if not np.isfinite(total).all():
            raise Divergent(f"integrand is not finite {where} at depth {depth}")
        m = 0.5 * (a + b)
        fine = _gl(fu, a, m) + _gl(fu, m, b)
        err = np.abs(fine - coarse)
        budget = rel_tol * np.maximum(np.abs(fine), total * ((b - a) / span)[:, None])
        ok = (err <= budget).all(axis=1)
        if ok.all():
            return acc + fine.sum(axis=0)
        acc = acc + fine[ok].sum(axis=0)
        a, b, m, fine = a[~ok], b[~ok], m[~ok], fine[~ok]
        total = np.maximum(total, np.abs(acc) + np.abs(fine).sum(axis=0))
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        if a.size > _MAX_PANELS:
            raise NoConvergence(f"over {_MAX_PANELS} adaptive panels {where} at depth {depth + 1}")
        coarse = _gl(fu, a, b)
    raise NoConvergence(f"adaptive depth {max_depth} exhausted {where}")


def _split(lo: np.ndarray, hi: np.ndarray, width) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each [lo_i, hi_i] cut evenly into panels at most width (or width_i) wide:
    (panel starts, panel ends, index i of each panel's interval)."""
    n = np.maximum(1, np.ceil((hi - lo) / width).astype(int))
    ids = np.repeat(np.arange(lo.size), n)
    k = np.arange(ids.size) - np.repeat(np.cumsum(n) - n, n)
    step = ((hi - lo) / n)[ids]
    a = lo[ids] + k * step
    b = np.where(k + 1 == n[ids], hi[ids], a + step)
    return a, b, ids


def _u_integral(fu, u_top: float, u_bottom: float, u_breaks: np.ndarray, rel_tol: float) -> np.ndarray:
    """∫ fu du over [u_top, u_bottom], split at u_breaks into panels at most one
    unit wide.

    u_bottom = inf (t = 0) integrates up to the last break, then marches
    two-unit chunks upward until two in a row are negligible against the sum.
    The march raises Divergent when the sum overflows or the chunks still grow
    at its end, and NoConvergence when they stop growing without vanishing;
    both name the u-interval, rel_tol and the chunks marched.
    """
    edges = np.unique(np.concatenate([u_breaks, [u_top, u_bottom]]))
    edges = edges[np.isfinite(edges)]
    acc = 0.0
    if edges.size > 1:
        a, b, _ = _split(edges[:-1], edges[1:], 1.0)
        acc = adaptive_quad(fu, np.append(a, b[-1]), rel_tol)
    if math.isfinite(u_bottom):
        return acc
    u0 = float(edges[-1])
    small = 0
    mag = np.inf

    def where(chunks):
        return (
            f"on u in [{u_top!r}, inf) with rel_tol {rel_tol:g}: "
            f"{chunks} two-unit chunks marched from u = {float(edges[-1])!r}"
        )

    for n in range(1, _TAIL_CHUNKS + 1):
        chunk = adaptive_quad(fu, np.array([u0, u0 + 2.0]), rel_tol)
        acc = acc + chunk
        prev, mag = mag, np.abs(chunk)
        # an overflowed sum also passes this test, hence the check on return
        if (mag <= rel_tol * 1e-2 * (np.abs(acc) + 1e-300)).all():
            small += 1
            if small >= 2:
                if not np.isfinite(acc).all():
                    raise Divergent(f"integrand grows without bound toward 0 {where(n)}")
                return acc
        else:
            small = 0
        u0 += 2.0
    if (mag > prev).any():
        raise Divergent(f"integrand grows without bound toward 0 {where(_TAIL_CHUNKS)}")
    raise NoConvergence(f"u-tail did not converge toward 0 {where(_TAIL_CHUNKS)}")


def log_quad_multi(
    g,
    w: LogWeight,
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    breaks: Sequence[float] = (),
) -> np.ndarray:
    """∫_lo^hi g(t) w(t) dt per output column of a vectorized g mapping t to
    (len(t), m) values; adaptive in u, split at breaks.

    With lo = 0 the u-tail is marched chunk by chunk, which suits integrands
    that decay exponentially in u (weights with a+1 > 0, or g vanishing near
    0); slowly decaying tails must be handled by callers through closed forms
    such as ``tail_block_integral``.
    """
    if not (0.0 <= lo <= hi <= 1.0):
        raise BadInterval(f"bad interval [{lo}, {hi}]")
    if lo == hi:
        return np.zeros(np.shape(g(np.array([hi])))[-1])

    def fu(u):
        return np.asarray(g(t_of_u(u)), dtype=float) * w.u_form(u)[:, None]

    brk = np.asarray(breaks, dtype=float)
    brk = brk[(brk > lo) & (brk < hi)]
    u_bottom = float(u_of_t(lo)) if lo > 0.0 else math.inf
    return _u_integral(fu, float(u_of_t(hi)), u_bottom, u_of_t(brk), rel_tol)


def log_quad(
    g: Callable[[np.ndarray], np.ndarray],
    w: LogWeight,
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    breaks: Sequence[float] = (),
) -> float:
    """∫_lo^hi g(t) w(t) dt for vectorized g: the one-column log_quad_multi."""

    def column(t):
        return np.reshape(np.asarray(g(t), dtype=float), (-1, 1))

    return float(log_quad_multi(column, w, lo, hi, rel_tol, breaks)[0])


def weight_integral(w: LogWeight, lo: float, hi: float) -> float:
    """∫_lo^hi t^a (1 - Log t)^b dt, 0 <= lo <= hi <= 1, with no adaptive step.

    Three cases: the elementary antiderivative for b = 0 and for a = -1; for
    lo = 0 and a > -1 the incomplete-gamma head (_head_integral); for lo > 0
    one κ-panel Gauss-Legendre pass (_weight_integrals).  Each is exact to
    rounding, so it takes no tolerance.  Returns inf when the integral
    diverges at 0.
    """
    if not (0.0 <= lo <= hi <= 1.0):
        raise BadInterval(f"bad interval [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    if lo > 0.0:
        return float(_weight_integrals(w, np.array([lo]), np.array([hi]))[0])
    return _head_integral(w, hi)


def _head_integral(w: LogWeight, x: float) -> float:
    """∫_0^x w for 0 < x <= 1; inf when it diverges at 0.

    With c = a + 1 > 0 and s = b + 1 this is e^c c^{-s} Γ(s, c·u), u = 1 - Log x
    (DLMF 8.2.2): the u-integral of e^{(1-v)c} v^b over [u, U] by one κ-panel
    pass, with U >= u the first point where c·U >= max(s, 0) + 2, plus the
    rest e^{c(1-U)} U^s·_gamma_cf(s, cU), whose exponent is summed before one
    exp, so it overflows only where the value does.  Any real s works, 0 and
    negative integers included.
    """
    c, s = w.a + 1.0, w.b + 1.0
    u = 1.0 - math.log(x)
    if c < 0.0 or (c == 0.0 and s >= 0.0):
        return math.inf
    if c == 0.0:
        return -(u**s) / s
    if w.b == 0.0:
        return x**c / c
    top = max(u, (max(s, 0.0) + 2.0) / c)
    body = 0.0
    if top > u:

        def fu(v, i):
            return w.u_form(v)

        body = float(_kappa_pass(fu, np.array([c]), w.b, np.array([u]), np.array([top - u]))[0])
    return body + float(np.exp(c * (1.0 - top) + s * math.log(top))) * _gamma_cf(s, c * top)


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


def power_log_integrals(a, b: float, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """∫_lo^hi t^{a_i} (1 - Log t)^b dt for intervals 0 < lo_i < hi_i <= 1, with
    one exponent a_i per interval, or one a for all.

    Elementary where b = 0 or a_i = -1: (y^e - x^e)/e = z^e (1 - e^{-|e| l})/|e|
    with l = Log(y/x) and z the end where the power is larger, written with
    log1p and expm1 so that narrow intervals lose nothing to cancellation and
    nothing overflows that the value does not.  Otherwise one κ-panel pass.
    """
    c = np.broadcast_to(np.asarray(a, dtype=float) + 1.0, los.shape)
    with np.errstate(over="ignore"):
        d = np.log1p((his - los) / los)  # u(lo) - u(hi), with no cancellation
    big = np.isinf(d)  # lo so small that the ratio overflows
    d[big] = np.log(his[big]) - np.log(los[big])
    flat = c == 0.0
    if b == 0.0:
        return np.where(flat, d, _power_difference(los, his, np.where(flat, 1.0, c), d))
    uh = 1.0 - np.log(his)
    out = np.empty(los.size)
    if flat.any():
        e, uf = b + 1.0, uh[flat]
        r = np.log1p(d[flat] / uf)  # Log(u(lo)/u(hi))
        out[flat] = r if e == 0.0 else _power_difference(uf, uf + d[flat], e, r)
    rest = np.flatnonzero(~flat)
    if rest.size:
        cr = c[rest]

        def fu(v, i):
            return np.exp((1.0 - v) * cr[i][:, None] + b * np.log(v))

        out[rest] = _kappa_pass(fu, c[rest], b, uh[rest], d[rest])
    return out


def _power_difference(x, y, e, l):
    """(y^e - x^e)/e for 0 < x < y, e != 0 and l = Log(y/x), as z^e(1 - e^{-|e| l})/|e|."""
    z = np.where(e > 0.0, y, x)
    return z**e * -np.expm1(-np.abs(e) * l) / np.abs(e)


def _kappa_pass(fu, c: np.ndarray, b: float, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """∫ fu(v, i) dv over [lo_i, lo_i + span_i] (1 <= lo_i) by one 15-point
    Gauss-Legendre pass, with fu(v, i) the u-integrand e^{(1-v)c_i} v^b of
    each panel's interval i at its (panels, 15) nodes v.

    Each interval is cut at lo_i·2^k, and each piece evenly into panels at
    most 1/(2κ) wide, with κ = |c_i| + (1 + |b|)/v at the piece's start v.
    κ bounds how fast log fu varies, and the 1/v keeps every panel within
    half its start from the branch point at v = 0, so on such panels the rule
    is exact to rounding, however wide the interval.  Panels are laid out as
    offsets from lo_i, so a narrow interval keeps every digit of its span.
    """
    n = np.maximum(1, np.ceil(np.log1p(span / lo) / math.log(2.0))).astype(int)
    ids = np.repeat(np.arange(lo.size), n)
    k = np.arange(ids.size) - np.repeat(np.cumsum(n) - n, n)
    start = np.minimum(lo[ids] * (2.0**k - 1.0), span[ids])
    end = np.minimum(lo[ids] * (2.0 ** (k + 1) - 1.0), span[ids])
    kappa = np.abs(c[ids]) + (1.0 + abs(b)) / (lo[ids] + start)
    pa, pb, j = _split(start, end, 0.5 / kappa)
    ids = ids[j]
    half = 0.5 * (pb - pa)
    v = (lo[ids] + 0.5 * (pa + pb))[:, None] + half[:, None] * _GL_X
    return np.bincount(ids, half * (fu(v, ids) @ _GL_W), lo.size)


def weight_prefix_many(w: LogWeight, ts: np.ndarray) -> np.ndarray:
    """∫_0^{t_i} w for an array of points, by one cumulative sweep."""
    ts = np.asarray(ts, dtype=float)
    order = np.argsort(ts)
    s = ts[order]
    base = weight_integral(w, 0.0, float(s[0])) if s.size else 0.0
    acc = base + np.concatenate([[0.0], np.cumsum(_weight_integrals(w, s[:-1], s[1:]))])
    out = np.empty_like(acc)
    out[order] = acc
    return out


def log_weight_integral(
    f: StepFunction,
    p: float,
    w: LogWeight,
    a: float,
    b: float,
    rel_tol: float = 1e-10,
) -> float:
    """∫_a^b f^p(s) w(s) ds with f a step function: exact values, panel weights.

    Weight factors over each overlapped panel are integrated as weight_integral
    does, exactly to rounding; rel_tol is checked but governs nothing.
    """
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")
    if not (0.0 < rel_tol <= 1e-4):
        raise BadInterval("rel_tol must lie in (0, 1e-4]")
    lo = np.maximum(f.breaks[:-1], a)
    hi = np.minimum(f.breaks[1:], b)
    mask = (hi > lo) & (f.values > 0.0)
    if not np.any(mask):
        return 0.0
    los, his, vp = lo[mask], hi[mask], f.values[mask] ** p
    # the only possibly-open-ended panel is the first
    head = vp[0] * weight_integral(w, 0.0, float(his[0])) if los[0] == 0.0 else 0.0
    return head + float(np.dot(vp, _weight_integrals(w, los, his)))


def tail_block_integral(
    w: LogWeight, total: float, slope: float, s: float, cut: float, rel_tol: float = 1e-12
) -> float:
    """∫_0^cut w(t) (total - slope·t)^s dt for the region below the smallest
    breakpoint, where a tail power integral is exactly total - slope·t.

    Marches down until slope·t <= 1e-8·total, then closes with the two leading
    terms of (total - slope·t)^s; converges even when the weight alone decays
    only polynomially in u (for a = -1 that needs b < -1).
    """
    if total <= 0.0 or cut <= 0.0:
        return 0.0
    t_freeze = cut if slope <= 0.0 else min(cut, 1e-8 * total / slope)

    acc = 0.0
    if t_freeze < cut:

        def g(t):
            return (total - slope * t) ** s

        acc += log_quad(g, w, t_freeze, cut, rel_tol)
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
) -> Tuple[np.ndarray, np.ndarray]:
    """(sup, argmax) arrays of g over windows (lo_k, hi_k] by log-grid scan plus
    golden refinement; g(t, k) evaluates window k's objective at points t.

    Window k scans n_k log-spaced nodes (n_k scales with its u-length, between
    8 and count) and the extra points inside it; a window open at 0 reaches
    down to u = max(u_cap, u(hi_k) + 8).  Grids are scanned in blocks of about
    _SCAN_BLOCK points, then every window is refined in one golden pass.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    u_hi = u_of_t(hi)
    u_lo = np.maximum(u_cap, u_hi + 8.0)
    u_lo[lo > 0.0] = u_of_t(lo[lo > 0.0])
    n = np.maximum(8, np.minimum(count, (count * (u_lo - u_hi) / 34.0).astype(int) + 8))
    xs = np.sort(np.asarray(list(extra_points), dtype=float))
    x_from = np.searchsorted(xs, lo, side="right")
    x_to = np.searchsorted(xs, hi, side="right")
    best = np.empty(lo.size)
    best_t = np.empty(lo.size)
    t_left = np.empty(lo.size)
    t_right = np.empty(lo.size)
    k0 = 0
    while k0 < lo.size:
        grids = []
        size = 0
        for k in range(k0, lo.size):
            nodes = t_of_u(np.linspace(u_hi[k], u_lo[k], n[k]))
            grid = np.unique(np.concatenate([nodes, xs[x_from[k]:x_to[k]]]))
            grids.append(grid)
            size += grid.size
            if size >= _SCAN_BLOCK:
                break
        sizes = np.array([grid.size for grid in grids])
        starts = np.cumsum(sizes) - sizes
        ts = np.concatenate(grids)
        ks = np.arange(k0, k0 + sizes.size)
        vals = np.asarray(g(ts, np.repeat(ks, sizes)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("objective returned a non-finite value")
        top = np.maximum.reduceat(vals, starts)
        hits = np.flatnonzero(vals == np.repeat(top, sizes))
        i = hits[np.searchsorted(hits, starts)]
        best[ks], best_t[ks] = top, ts[i]
        t_left[ks] = ts[np.maximum(i - 1, starts)]
        t_right[ks] = ts[np.minimum(i + 1, starts + sizes - 1)]
        k0 += sizes.size

    def h(t, k):
        v = np.asarray(g(t, k), dtype=float)
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue("objective returned a non-finite value")
        return v

    return golden_refine(h, t_left, t_right, best, best_t)


def sup_on_grid(
    g: Callable, grid: UGrid, extra_points: Iterable[float] = ()
) -> Tuple[float, float]:
    """(sup estimate, argmax t) of a vectorized g over (0, 1]: all grid nodes
    and supplied breakpoints, then golden-section refinement around the best
    node."""

    def gk(t, k):
        return g(t)

    val, arg = sup_on_interval(
        gk, np.zeros(1), np.ones(1), grid.count, extra_points, u_cap=grid.u_max
    )
    return float(val[0]), float(arg[0])


# ---------------------------------------------------------------------------
# monotone maps and inversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneMap:
    """A weight t^a (1 - Log t)^b restricted to the interval where it increases.

    For a > 0 the map increases on (0, t0] with t0 = e^{(a-b)/a} when a < b and
    t0 = 1 otherwise; for a = 0 it increases on all of (0, 1] iff b < 0.
    """

    forward: LogWeight

    def __post_init__(self):
        a, b = self.forward.a, self.forward.b
        if a < 0.0 or (a == 0.0 and b >= 0.0):
            raise BadExponent("map must be increasing near 0: need a > 0, or a = 0 with b < 0")
        t0 = 1.0 if (a == 0.0 or a >= b) else math.exp((a - b) / a)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "top", float(self.forward(t0)))

    def value(self, t):
        return self.forward(t)

    def inverse(self, y, tol: float = 1e-10):
        """t in the monotone domain with |forward(t) - y| <= tol·max(|y|, tiny),
        elementwise over an array of targets; a scalar target gives a float.

        A target at or above top (within the accepted slack) maps to t0 exactly;
        each other target expands its own bracket in u and bisects it until its
        own residual meets the tolerance."""
        a, b = self.forward.a, self.forward.b
        ys = np.asarray(y, dtype=float)
        flat = ys.reshape(-1)
        bad = ~((flat > 0.0) & (flat <= self.top * (1.0 + 1e-12)))
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
            out[inner] = self._bisect(flat[inner], tol)
        return float(out[0]) if ys.ndim == 0 else out.reshape(ys.shape)

    def _bisect(self, ys: np.ndarray, tol: float) -> np.ndarray:
        goal = tol * np.maximum(np.abs(ys), 1e-300)
        u_lo = np.full(ys.size, float(u_of_t(self.t0)))
        u_hi = u_lo + 1.0
        grow = np.arange(ys.size)
        for _ in range(200):
            grow = grow[self.forward.value_at_u(u_hi[grow]) >= ys[grow]]
            if grow.size == 0:
                break
            u_hi[grow] += np.maximum(4.0, u_hi[grow])
            far = grow[u_hi[grow] > 1e7]
            if far.size:
                raise OutOfRange(f"target {float(ys[far[0]])} not bracketed on the monotone domain")
        # a target keeps the midpoint that first met its residual; bisecting
        # on past that leaves it unchanged
        out = np.full(ys.size, np.nan)
        open_ = np.ones(ys.size, dtype=bool)
        for _ in range(400):
            um = 0.5 * (u_lo + u_hi)
            fm = self.forward.value_at_u(um)
            hit = np.abs(fm - ys) <= goal
            out = np.where(hit & open_, um, out)
            open_ &= ~hit
            if not open_.any():
                return t_of_u(out)
            above = fm > ys
            u_lo = np.where(above, um, u_lo)
            u_hi = np.where(above, u_hi, um)
        raise NoConvergence("bisection failed to reach the requested residual")

    def normalized_inverse(self, y: float, tol: float = 1e-10) -> float:
        """Inverse of the [0,1]-normalized restriction t -> forward(t·t0)/forward(t0)."""
        return self.inverse(y * self.top, tol) / self.t0


def invert_monotone(psi, y, tol: float = 1e-10):
    """Invert a monotone map given as a MonotoneMap or as the LogWeight it
    restricts, at a scalar target or elementwise over an array of targets."""
    if not (0.0 < tol <= 1e-6):
        raise BadInterval("tol must lie in (0, 1e-6]")
    if isinstance(psi, LogWeight):
        psi = MonotoneMap(psi)
    if not isinstance(psi, MonotoneMap):
        raise TypeError(f"expected a LogWeight or MonotoneMap, got {psi!r}")
    return psi.inverse(y, tol)


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
