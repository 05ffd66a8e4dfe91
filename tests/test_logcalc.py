"""Quadrature, suprema and inversion against closed forms and scipy oracles."""

import math
import re

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.optimize as so
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAST
from rispaces import logcalc, norms
from rispaces.config import Resolution
from rispaces.errors import (
    BadExponent,
    BadInterval,
    Divergent,
    NoConvergence,
    NonFiniteValue,
    OutOfRange,
)
from rispaces.logcalc import (
    LogWeight,
    MonotoneMap,
    UGrid,
    golden_refine,
    invert_monotone,
    log_integral_bounds_check,
    log_quad,
    log_weight_integral,
    sup_on_grid,
    t_of_u,
    u_of_t,
    weight_integral,
    weight_prefix_many,
)
from rispaces.equivharness import standard_family
from rispaces.kfunctional import GrandGrand, GrandLq, GrandSmallSameP, SmallSmall, k_curve, k_explicit
from rispaces.norms import Grand, Small, norms_over_cuts
from rispaces.rearrangement import PowerLog, StepFunction, discretize_model


def test_closed_form_log_over_t():
    # antiderivative of (1-Log s)^{-2}/s is (1-Log s)^{-1}
    w = LogWeight(-1.0, -2.0)
    a = math.exp(-1.0)
    assert weight_integral(w, a, 1.0) == pytest.approx(0.5, abs=1e-14)
    f = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    assert log_weight_integral(f, 1.0, w, a, 1.0) == pytest.approx(0.5, abs=1e-13)


def test_plain_log_weight():
    f = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    assert log_weight_integral(f, 1.0, LogWeight(0.0, 1.0), 0.0, 1.0) == pytest.approx(
        2.0, rel=1e-12
    )


def test_sqrt_singularity_against_normal_tail():
    # ∫_0^1 t^{-1/2}(1-Log t)^{-1/2} dt = e^{1/2}·2∫_1^∞ e^{-w^2/2} dw
    exact = math.exp(0.5) * 2.0 * math.sqrt(math.pi / 2.0) * sp.erfc(1.0 / math.sqrt(2.0))
    f = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    val = log_weight_integral(f, 1.0, LogWeight(-0.5, -0.5), 0.0, 1.0)
    assert val == pytest.approx(exact, rel=1e-10)


def test_step_weight_integral_against_mpmath_panel_sum():
    """∫_0^1 f^2 t^{-0.3}(1 - Log t)^{1.5} dt for f = t^{-1/4} on 200 panels
    against an mpmath quadrature of each panel, the first open at 0."""
    f = discretize_model(PowerLog(0.25, 0.0), FAST.u_max, FAST.panels)
    with mpmath.workdps(30):
        want = mpmath.fsum(
            mpmath.mpf(float(v)) ** 2
            * mpmath.quad(lambda t: t**-0.3 * (1 - mpmath.log(t)) ** 1.5, [float(lo), float(hi)])
            for lo, hi, v in zip(f.breaks[:-1], f.breaks[1:], f.values)
        )
    got = log_weight_integral(f, 2.0, LogWeight(-0.3, 1.5), 0.0, 1.0)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_quadrature_panel_doubling_consistency(power_quarter):
    """Splitting every panel in two leaves the function unchanged, so the
    quadrature must agree with itself to within ten times its tolerance."""
    f = power_quarter
    mids = 0.5 * (f.breaks[:-1] + f.breaks[1:])
    split = StepFunction(
        np.sort(np.concatenate([f.breaks, mids])), np.repeat(f.values, 2)
    )
    w = LogWeight(-0.5, 0.75)
    rel_tol = 1e-10
    a = log_weight_integral(f, 2.0, w, 0.0, 1.0)
    b = log_weight_integral(split, 2.0, w, 0.0, 1.0)
    assert abs(a - b) / a < 10 * rel_tol


def test_divergent_weight_is_infinite():
    assert weight_integral(LogWeight(-1.2, 0.0), 0.0, 1.0) == math.inf
    assert weight_integral(LogWeight(-1.0, 1.0), 0.0, 1.0) == math.inf


def test_log_quad_matches_scipy():
    w = LogWeight(-0.5, 1.0)

    def g(t):
        return np.sqrt(1.0 + np.asarray(t))

    ours = log_quad(g, w, 0.0, 1.0)
    ref, _ = si.quad(lambda t: math.sqrt(1 + t) * t**-0.5 * (1 - math.log(t)), 0, 1)
    assert ours == pytest.approx(ref, rel=1e-9)


def _head_integral(a, b, x):
    """∫_0^x t^a (1-Log t)^b dt = e^c c^{-b-1} Γ(b+1, c(1-Log x)), c = a+1 > 0."""
    c = mpmath.mpf(a) + 1
    return float(mpmath.e**c * c ** (-(b + 1)) * mpmath.gammainc(b + 1, c * (1 - mpmath.log(x))))


@pytest.mark.parametrize("a,b", [(-0.5, 1.5), (0.0, -1.0), (4.0, -3.0), (12.0, 8.0), (0.3, -20.0)])
def test_weight_prefix_many_against_incomplete_gamma(a, b):
    """Panels between consecutive points take one Gauss-Legendre pass each,
    steep weights included."""
    ts = np.exp(1.0 - np.linspace(1.0, 30.0, 40))
    got = weight_prefix_many(LogWeight(a, b), ts)
    want = [_head_integral(a, b, float(t)) for t in ts]
    assert got == pytest.approx(want, rel=1e-12)


def test_weight_prefix_many_is_pointwise_with_zeros():
    """A point at t = 0, such as a march node past e^{1-u}'s underflow, gets 0
    and leaves every other point's value as it is alone."""
    w, ts = LogWeight(-1.0, -3.0), np.exp(1.0 - np.array([700.0, 20.0, 744.0]))
    got = weight_prefix_many(w, np.concatenate([[0.0], ts, [0.0]]))
    assert got[0] == got[-1] == 0.0
    assert np.array_equal(got[1:-1], weight_prefix_many(w, ts))
    assert got[1:-1] == pytest.approx(0.5 / (1.0 - np.log(ts)) ** 2, rel=1e-12)


@pytest.mark.parametrize("a,b", [(-0.99, 5.0), (-0.995, 1.0)])
def test_open_end_tail_past_a_distant_peak(a, b):
    """The u-integrand e^{(1-u)(a+1)} u^b rises until u = b/(a+1) (500 and 200
    here) before it decays, so log_quad's tail march must not mistake the rise
    for divergence; weight_integral takes the incomplete-gamma head, which is
    exact to rounding."""
    exact = _head_integral(a, b, 0.5)
    w = LogWeight(a, b)
    via_weight = weight_integral(w, 0.0, 0.5)
    via_quad = log_quad(lambda t: np.ones_like(t), w, 0.0, 0.5)
    assert via_weight == pytest.approx(exact, rel=1e-13)
    assert via_quad == pytest.approx(exact, rel=5e-12)


@pytest.mark.parametrize("a", [-0.999, -0.99, -0.5, 0.0, 0.7, 3.0])
def test_open_ended_weight_integral_against_gammainc(a):
    """The incomplete-gamma head over a grid that reaches a -> -1, b = -1
    (s = 0), the negative integers and both sides of s = 0, and x up to 1."""
    bs = [-5.0, -3.0, -2.0, -1.0 - 1e-6, -1.0, -1.0 + 1e-6, -0.3, 0.0, 0.5, 2.0, 5.0]
    xs = [1e-15, 1e-6, 0.01, 0.3, 0.9, 1.0 - 1e-12]
    with mpmath.workdps(30):
        for b in bs:
            for x in xs:
                got = weight_integral(LogWeight(a, b), 0.0, x)
                assert got == pytest.approx(_head_integral(a, b, x), rel=1e-12), (a, b, x)


def test_open_ended_weight_integral_near_a_minus_one():
    """c = a + 1 = 1e-3 once made the u-tail march fail to converge."""
    got = weight_integral(LogWeight(-0.999, 1.0), 0.0, 0.3)
    assert got == pytest.approx(1000998.0725578988, rel=1e-12)


def test_finite_weight_integral_against_mpmath_quad():
    """Seeded random panels, from 1e-6 to 10 units wide in u, against mpmath
    on sub-panels short enough for its Gauss-Legendre rule; b = 0 and a = -1
    take the elementary forms."""
    rng = np.random.default_rng(5)
    cases = [(rng.uniform(-6.0, 6.0), rng.uniform(-5.0, 5.0)) for _ in range(30)]
    cases += [(rng.uniform(-6.0, 6.0), 0.0) for _ in range(4)]
    cases += [(-1.0, 2.5), (-1.0, -1.0), (-1.0, 0.0)]
    with mpmath.workdps(30):
        for a, b in cases:
            u_hi = rng.uniform(1.0, 36.0)
            du = math.exp(rng.uniform(math.log(1e-6), math.log(10.0)))
            hi, lo = math.exp(1.0 - u_hi), math.exp(1.0 - u_hi - du)
            c = mpmath.mpf(a) + 1
            ua, ub = 1 - mpmath.log(hi), 1 - mpmath.log(mpmath.mpf(lo))
            pieces = mpmath.linspace(ua, ub, math.ceil(du * (1.0 + abs(a + 1.0) + abs(b))) + 1)
            want = mpmath.quad(
                lambda v: mpmath.exp((1 - v) * c) * v**b, pieces, method="gauss-legendre"
            )
            assert weight_integral(LogWeight(a, b), lo, hi) == pytest.approx(
                float(want), rel=1e-11
            ), (a, b, lo, hi)


def _golub_welsch_jacobi(n, b, dps=40):
    """The n-point Gauss rule for the weight (1 + y)^b on [-1, 1] at dps
    digits: nodes are the eigenvalues of the monic Jacobi recurrence's matrix,
    weights μ_0 times the squared first components of its eigenvectors."""
    with mpmath.workdps(dps):
        b = mpmath.mpf(b)
        J = mpmath.zeros(n, n)
        for k in range(n):
            m = 2 * k + b
            J[k, k] = b / (b + 2) if k == 0 else b * b / (m * (m + 2))
            if k:
                off = 4 * k * k * (k + b) ** 2 / (m * m * (m + 1) * (m - 1))
                J[k, k - 1] = J[k - 1, k] = mpmath.sqrt(off)
        E, Q = mpmath.eigsy(J)
        mu0 = 2 ** (b + 1) / (b + 1)
        rule = sorted((E[i], mu0 * Q[0, i] ** 2) for i in range(n))
        return np.array([float(y) for y, _ in rule]), np.array([float(w) for _, w in rule])


@pytest.mark.parametrize("s", [1 / 3, 0.5, 1.5, 2.5])
def test_gauss_jacobi_root_rule_against_scipy(s):
    """The rule for ∫_0^1 x^s φ(x) dx is the Gauss-Jacobi rule for (1 + y)^s
    on [-1, 1], mapped by x = (1 + y)/2, here computed to 40 digits with
    mpmath (a double-precision oracle such as scipy's roots_jacobi is itself
    off by up to 6.5e-14)."""
    y, mu = _golub_welsch_jacobi(15, s)
    x, w = logcalc._jacobi_rule(s)
    assert x == pytest.approx((1.0 + y) / 2.0, rel=1e-13, abs=0.0)
    assert w == pytest.approx(mu / 2.0 ** (s + 1.0), rel=1e-13, abs=0.0)
    assert mu == pytest.approx(sp.roots_jacobi(15, 0.0, s)[1], rel=1e-12, abs=0.0)


def _count_felt(monkeypatch):
    """Record (felt, laid) root-side pieces of every linear_power_integrals call."""
    felt, keep = [], logcalc._felt_pieces

    def spy(*args):
        out = keep(*args)
        felt.append((int(out.sum()), out.size))
        return out

    monkeypatch.setattr(logcalc, "_felt_pieces", spy)
    return felt


def _feel_every_piece(monkeypatch):
    monkeypatch.setattr(logcalc, "_felt_pieces", lambda w, s, ta, *rest: np.ones(ta.size, dtype=bool))


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_root_side_pieces_below_rounding_are_skipped(monkeypatch, p):
    """Small tails of rand_00 cut far below its first break x_1 = 0.143: each
    has a stretch whose root lies at the cut, laid in up to ~1,000 pieces as
    its distance from the root doubles, most of them proved below 2^-60 of
    the stretch and skipped.  The norms agree with every piece summed to
    1e-15."""
    f = dict(standard_family(q=4).realize(Resolution()))["rand_00"]
    cuts = np.array([1e-300, 1e-200, 1e-100, 1e-30, 1e-16])
    felt = _count_felt(monkeypatch)
    got = norms_over_cuts(f, Small(p, 1.0), cuts, "tail")
    _feel_every_piece(monkeypatch)
    want = norms_over_cuts(f, Small(p, 1.0), cuts, "tail")
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    kept, laid = map(sum, zip(*felt))
    assert laid > 2000 and kept < laid / 2


@pytest.mark.parametrize("s", [-0.9, -0.5, 0.5, 3.0])
@pytest.mark.parametrize("w", [LogWeight(-0.5, 1.0), LogWeight(2.0, -3.0), LogWeight(-1.0, 0.0)])
def test_skipped_root_side_pieces_keep_the_stretch(monkeypatch, w, s):
    """Stretches whose root lies from 1e-300 to 0.15 of their length away, up
    and down in t: where s < 0 the pieces next to the root carry the stretch
    and are kept; the skipped and unskipped integrals agree to 1e-15."""
    near = np.array([1e-3, 1e-3, 0.5, 0.5, 0.2, 0.9])
    far = np.array([0.9, 0.9, 1e-6, 1e-6, 0.4, 0.1])
    at_near = np.array([1e-300, 1e-12, 1e-100, 1e-5, 1e-40, 3e-2])
    slope = np.array([1.0, 2.0, 0.5, 3.0, 1e-3, 0.25])
    felt = _count_felt(monkeypatch)
    got = logcalc.linear_power_integrals(w, s, near, far, at_near, slope)
    _feel_every_piece(monkeypatch)
    want = logcalc.linear_power_integrals(w, s, near, far, at_near, slope)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    assert 0 < felt[0][0] < felt[0][1]


def test_weight_integral_takes_no_adaptive_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive step taken")

    monkeypatch.setattr(logcalc, "log_quad_multi", refuse)
    for a, b in [(-0.999, 1.0), (0.0, -1.0), (2.0, -3.0), (-1.0, -2.0), (-0.5, 0.0), (-3.0, 1.5)]:
        for lo, hi in [(0.0, 0.3), (1e-9, 0.3), (0.2, 0.2 + 1e-9), (0.5, 1.0)]:
            assert weight_integral(LogWeight(a, b), lo, hi) > 0.0


def test_errors_name_interval_tolerance_and_steps():
    with pytest.raises(
        Divergent, match=r"on u in \[1\.69\d*, inf\): 4000 two-unit chunks.* LogWeight\(a=-1\.0, b=2\.0\)"
    ):
        log_quad(lambda t: np.ones_like(t), LogWeight(-1.0, 2.0), 0.0, 0.5)
    with np.errstate(over="ignore"), pytest.raises(
        Divergent, match=r"not finite on u in \[\d+\.\d+, \d+\.\d+\] for LogWeight\(a=-3\.0, b=0\.0\)"
    ):
        log_quad(lambda t: np.ones_like(t), LogWeight(-3.0, 0.0), 0.0, 0.5)
    with pytest.raises(NoConvergence, match=r"did not converge .* LogWeight\(a=-1\.0, b=0\.0\)"):
        log_quad(lambda t: np.ones_like(t), LogWeight(-1.0, 0.0), 0.0, 0.5)


@pytest.mark.parametrize(
    "w, chunk",
    [
        (LogWeight(-1.5, 0.0), r"not finite on u in \[1417\.69314718056, 1419\.69314718056\] "),
        (LogWeight(-3.0, 0.0), r"not finite on u in \[353\.69314718055995, 355\.69314718055995\] "),
        (LogWeight(-1.0, 2.0), r"grows without bound"),
    ],
    ids=["w0", "w1", "w2"],
)
def test_growing_tail_is_divergent(w, chunk):
    """Exponential growth overflows the integrand, and the error names the
    first two-unit chunk where it does, however the march batches its chunks;
    u^2 still grows when the march ends."""
    with np.errstate(over="ignore"), pytest.raises(Divergent, match=chunk):
        log_quad(lambda t: np.ones_like(t), w, 0.0, 0.5)


def test_tail_march_takes_doubling_batches():
    """∫_0^{1/2} t^{0.1} dt/t is marched over 178 two-unit chunks in u; in
    batches of 8, 16, 32, ... chunks that is 5 κ passes, each one call of g."""
    sizes = []

    def g(t):
        sizes.append(t.size)
        return t**0.1

    assert log_quad(g, LogWeight(-1.0, 0.0), 0.0, 0.5) == pytest.approx(0.5**0.1 / 0.1, rel=1e-13)
    assert np.count_nonzero(sizes) == 5


def test_short_tail_march_takes_one_pass():
    """∫_0^{1/2} t^{60} dt/t with a break at 1/4: past the break's κ pass the
    march stops after 2 chunks, each below 2^-60 of the sum, so its first
    batch of 8 chunks is its only pass."""
    sizes = []

    def g(t):
        sizes.append(t.size)
        return t**60

    got = log_quad(g, LogWeight(-1.0, 0.0), 0.0, 0.5, breaks=(0.25,))
    assert got == pytest.approx(0.5**60 / 60.0, rel=1e-13)
    assert np.count_nonzero(sizes) == 2


def test_sup_parabola():
    val, arg = sup_on_grid(lambda t: t * (1 - t), UGrid(35.0, 512))
    assert val == pytest.approx(0.25, abs=1e-8)
    assert arg == pytest.approx(0.5, abs=1e-4)


def test_sup_constant():
    val, _ = sup_on_grid(lambda t: 3.0 + 0.0 * np.asarray(t), UGrid(35.0, 64))
    assert val == 3.0


def test_sup_log_ratio_against_scipy():
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.sqrt(1.0 - t) / (1.0 - np.log(t))

    opt = so.minimize_scalar(
        lambda t: -float(g(t)), bounds=(1e-6, 1 - 1e-9), method="bounded",
        options={"xatol": 1e-12},
    )
    val, arg = sup_on_grid(g, UGrid(35.0, 4096))
    assert val == pytest.approx(-opt.fun, rel=1e-9)
    assert arg == pytest.approx(opt.x, abs=1e-3)


def test_sup_on_grid_scans_the_grid_it_is_given():
    """The scan is the grid's own nodes (all 96 at u_max = 30, not a window
    rule's count) merged with the points in (0, 1]; the refinement then
    evaluates g only between the best point's neighbours."""
    grid = UGrid(30.0, 96)
    pts = [0.0, -0.5, 0.37, 1.0, 1.5, 1e-20, float(grid.t_nodes()[40])]
    calls = []

    def g(t):
        calls.append(np.array(t, dtype=float))
        return np.sqrt(np.asarray(t)) * (1.0 - np.asarray(t))

    val, arg = sup_on_grid(g, grid, pts)
    scan = grid.with_points(pts)
    assert scan.size == 96 + 2 and scan[0] == 1e-20 and scan[-1] == 1.0
    assert calls[0].tobytes() == scan.tobytes()
    i = int(np.argmax(np.sqrt(scan) * (1.0 - scan)))
    assert all(np.all((c >= scan[i - 1]) & (c <= scan[i + 1])) for c in calls[1:])
    assert val == pytest.approx(2.0 / 3.0**1.5, rel=1e-14) and arg == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_sup_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        sup_on_grid(lambda t: np.full_like(np.asarray(t), np.nan), UGrid(35.0, 16))


def _layout(lo, hi, count, extra_points, u_cap):
    """(u_hi, u_lo, n, xs, x_from, x_to): window k holds the n_k nodes of
    np.linspace(u_hi_k, u_lo_k, n_k) and the extra points xs[x_from_k:x_to_k]."""
    u_hi = u_of_t(hi)
    u_lo = np.where(lo > 0.0, u_of_t(np.where(lo > 0.0, lo, 1.0)), np.maximum(u_cap, u_hi + 8.0))
    n = np.maximum(8, np.minimum(count, (count * (u_lo - u_hi) / 34.0).astype(int) + 8))
    xs = np.sort(np.asarray(list(extra_points), dtype=float))
    return u_hi, u_lo, n, xs, np.searchsorted(xs, lo, side="right"), np.searchsorted(xs, hi, side="right")


def _full_scan(g, lo, hi, count, extra_points=(), u_cap=41.0):
    """The window scan without pruning, as it was before runs: each window's
    nodes np.linspace(u_hi, u_lo, n_k) and extra points in (lo_k, hi_k], merged
    by np.unique and scanned in blocks of about 2^16 points, then golden
    refinement between the best point's neighbours."""
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    u_hi, u_lo, n, xs, x_from, x_to = _layout(lo, hi, count, extra_points, u_cap)
    best, best_t, t_left, t_right = (np.empty(lo.size) for _ in range(4))
    k0 = 0
    while k0 < lo.size:
        grids, size = [], 0
        for k in range(k0, lo.size):
            nodes = t_of_u(np.linspace(u_hi[k], u_lo[k], n[k]))
            grids.append(np.unique(np.concatenate([nodes, xs[x_from[k]:x_to[k]]])))
            size += grids[-1].size
            if size >= 1 << 16:
                break
        sizes = np.array([grid.size for grid in grids])
        starts = np.cumsum(sizes) - sizes
        ts, ks = np.concatenate(grids), np.arange(k0, k0 + sizes.size)
        vals = np.asarray(g(ts, np.repeat(ks, sizes)), dtype=float)
        top = np.maximum.reduceat(vals, starts)
        hits = np.flatnonzero(vals == np.repeat(top, sizes))
        i = hits[np.searchsorted(hits, starts)]
        best[ks], best_t[ks] = top, ts[i]
        t_left[ks] = ts[np.maximum(i - 1, starts)]
        t_right[ks] = ts[np.minimum(i + 1, starts + sizes - 1)]
        k0 += sizes.size
    return golden_refine(g, t_left, t_right, best, best_t)


def _same_bits(got, want):
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def _bump(centre, width):
    """A bump in u about centre[k], with its exact maximum on [a, b] as bound."""

    def g(t, k):
        return np.exp(-(((u_of_t(t) - u_of_t(centre[k])) / width) ** 2))

    def bound(a, b, k):
        return g(np.clip(centre[k], a, b), k)

    return g, bound


def _unbounded(a, b, k):
    """A bound that prunes no run: the scan it gives is the full scan."""
    return np.full(np.shape(a), np.inf)


def _nan_bound(bound):
    """bound on every other run and NaN on the rest: a NaN never prunes."""

    def nb(a, b, k):
        out = bound(a, b, k)
        out[::2] = np.nan
        return out

    return nb


def test_pruned_scan_equals_the_full_scan_on_edge_windows():
    node = float(t_of_u(np.linspace(u_of_t(0.5), u_of_t(0.01), 56))[5])  # a node of window 4
    extras = np.array([0.003, 0.02, 0.0371, 0.2, 0.2, 0.3, node, 0.7, 0.9])
    lo = np.array([0.0, 0.0, 0.3, 0.05, 0.01, 0.2, 0.3, 0.4, 0.0])
    hi = np.array([1.0, 0.1, 0.3, 0.06, 0.5, 0.2, 0.9, 0.41, 1e-12])
    # peaks: inside, on an extra point, at lo = hi, in a window without extra
    # points, on the node that is also an extra point, past either end
    centre = np.array([0.4, 0.0371, 0.3, 0.055, node, 0.2, 0.7, 0.9, 1e-20])
    g, bound = _bump(centre, 0.05)
    want = _full_scan(g, lo, hi, 512, extras)
    assert want[1][[1, 4, 6]].tolist() == [0.0371, node, 0.7]
    for b in (_unbounded, bound, _nan_bound(bound)):
        _same_bits(logcalc.sup_on_interval(g, lo, hi, 512, extras, bound=b), want)
    _same_bits(logcalc.sup_on_interval(g, lo, hi, 512, bound=bound), _full_scan(g, lo, hi, 512))


def test_pruned_scan_breaks_ties_toward_the_smallest_point():
    # a flat objective's argmax is each window's smallest point: the last node
    # u_lo, which (n - 1)·step + u_hi misses by an ulp in the window (0.01, 0.9]
    lo, hi = np.array([0.0, 0.2, 0.5, 0.01]), np.array([1.0, 0.9, 0.5, 0.9])

    def flat(t, k):
        return np.zeros(np.shape(t))

    want = _full_scan(flat, lo, hi, 256, [0.1, 0.3])
    for b in (_unbounded, lambda a, b, k: np.zeros(a.shape)):
        _same_bits(logcalc.sup_on_interval(flat, lo, hi, 256, [0.1, 0.3], bound=b), want)
    assert want[1][1] < 0.2 * (1.0 + 1e-12)
    # two plateaus at the bound: nodes 0-3, which hold the first run's largest
    # point, and nodes 40-42, inside the second run; the second wins the tie
    nodes = t_of_u(np.linspace(1.0, 41.0, 256))

    def plateaus(t, k):
        return ((t >= nodes[3]) | ((t >= nodes[42]) & (t <= nodes[40]))).astype(float)

    want = _full_scan(plateaus, [0.0], [1.0], 256)
    assert want[1][0] == nodes[42]
    for b in (_unbounded, lambda a, b, k: np.ones(a.shape)):
        _same_bits(logcalc.sup_on_interval(plateaus, [0.0], [1.0], 256, bound=b), want)


def test_nan_at_a_run_end_raises_with_a_bound():
    top = float(t_of_u(u_of_t(0.5)))  # the largest point of the window's first run

    def g(t, k):
        return np.where(t >= top, np.nan, 1.0)

    with pytest.raises(NonFiniteValue):
        logcalc.sup_on_interval(g, [0.1], [0.5], 256, bound=lambda a, b, k: np.zeros(a.shape))


def test_the_run_bound_is_a_required_keyword():
    with pytest.raises(TypeError, match="bound"):
        logcalc.sup_on_interval(lambda t, k: t, [0.1], [0.5], 256)


def test_pruned_scan_equals_the_full_scan_on_explicit_k_windows(monkeypatch):
    """Every Grand window of the explicit K-curves of the benchmark's members
    (LpLq scans none)."""
    seen = []

    def check(g, lo, hi, count, extras, u_cap, bound):
        got = logcalc.sup_on_interval(g, lo, hi, count, extras, u_cap, bound=bound)
        _same_bits(got, _full_scan(g, lo, hi, count, extras, u_cap))
        seen.append(np.size(lo))
        return got

    monkeypatch.setattr(norms, "sup_on_interval", check)  # every Grand head and tail window
    subset = ("const", "char_0.125", "plog_g0_d-1", "rand_00")
    for res in (Resolution(), Resolution().doubled()):
        for couple, q in (
            (GrandLq(2, 4, 1.0), 4.0),
            (GrandGrand(2, 4, 1.0), 4.0),
            (SmallSmall(2, 4), 4.0),
            (GrandSmallSameP(2), 2.0),
        ):
            for name, f in standard_family(q).realize(res):
                if name in subset:
                    k_curve(f, couple, UGrid(res.u_max, res.k_nodes), "explicit", res)
    assert len(seen) == 40 and sum(seen) > 10000


def test_pruned_scan_on_edge_cuts(monkeypatch):
    """Grand heads and tails at a subnormal cut, the first break, a cut on a
    later break and c = 1 (an empty tail window lo = hi)."""
    f = discretize_model(PowerLog(0.0, -1.0), FAST.u_max, FAST.panels)

    def check(g, lo, hi, count, extras, u_cap, bound):
        want = _full_scan(g, lo, hi, count, extras, u_cap)
        for b in (_unbounded, bound):
            _same_bits(logcalc.sup_on_interval(g, lo, hi, count, extras, u_cap, bound=b), want)
        return want

    monkeypatch.setattr(norms, "sup_on_interval", check)  # every Grand head and tail window
    cuts = np.array([1e-310, f.breaks[1], f.breaks[50], 1.0])
    for kind in ("head", "tail"):
        out = norms_over_cuts(f, Grand(4.0, 1.0), cuts, kind, FAST)
        assert np.all(np.isfinite(out))
    assert out[-1] == 0.0


def test_pruned_scan_evaluates_a_small_share_of_the_grid(monkeypatch):
    """GrandGrand(2, 4, 1) windows of plog_g0_d-1: the bounded scan evaluates
    g at most at 15% as many points as the windows hold, nodes and extra
    points, golden refinement included."""
    points = {"g": 0, "windows": 0}

    def check(g, lo, hi, count, extras, u_cap, bound):
        *_, n, _, x_from, x_to = _layout(lo, hi, count, extras, u_cap)
        points["windows"] += int(np.sum(n + x_to - x_from))

        def counted(t, k):
            points["g"] += np.size(t)
            return g(t, k)

        return logcalc.sup_on_interval(counted, lo, hi, count, extras, u_cap, bound=bound)

    monkeypatch.setattr(norms, "sup_on_interval", check)  # every Grand head and tail window
    res = Resolution()
    f = dict(standard_family(4.0).realize(res))["plog_g0_d-1"]
    k_explicit(f, GrandGrand(2, 4, 1.0), UGrid(res.u_max, res.k_nodes).t_nodes(), res)
    assert points["windows"] > 1e6
    assert 0 < points["g"] <= 0.15 * points["windows"]


def test_coarse_to_fine_scan_evaluates_few_points(monkeypatch):
    """GrandGrand(2, 4, 1) windows of plog_g0_d-1 at Resolution(): the coarse-to-fine
    scan gives g 90,737 points and bound 31,163 runs (one level of runs of 32
    gave them 153,091 and 35,100)."""
    points = {"g": 0, "bound": 0}

    def check(g, lo, hi, count, extras, u_cap, bound):
        def counted_g(t, k):
            points["g"] += np.size(t)
            return g(t, k)

        def counted_bound(a, b, k):
            points["bound"] += np.size(a)
            return bound(a, b, k)

        return logcalc.sup_on_interval(counted_g, lo, hi, count, extras, u_cap, bound=counted_bound)

    monkeypatch.setattr(norms, "sup_on_interval", check)  # every Grand head and tail window
    res = Resolution()
    f = dict(standard_family(4.0).realize(res))["plog_g0_d-1"]
    k_explicit(f, GrandGrand(2, 4, 1.0), UGrid(res.u_max, res.k_nodes).t_nodes(), res)
    assert 0 < points["g"] <= 95_000 and 0 < points["bound"] <= 33_000


@st.composite
def _scan_cases(draw):
    """(lo, hi, count, extras, centre): windows open at 0, closed, a few ulps
    wide, of one point, reaching 1 or ending at a subnormal hi; extra points that
    repeat, sit at a window's end or on one of its nodes; bump centres on a point,
    mid-window or anywhere."""
    count = draw(st.integers(2, 9000))
    lo, hi = [], []
    kinds = ["open", "closed", "narrow", "point", "top", "subnormal"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        h = {"top": 1.0, "subnormal": draw(st.floats(1e-318, 2e-308))}.get(kind) or draw(st.floats(1e-12, 1.0))
        if kind == "narrow":
            lo.append(h - draw(st.integers(1, 64)) * math.ulp(h))
        else:
            lo.append({"open": 0.0, "subnormal": 0.0, "point": h}.get(kind, draw(st.floats(0.0, h, exclude_min=True))))
        hi.append(h)
    extras = draw(st.lists(st.floats(1e-15, 1.0), max_size=12))
    points = extras + [x for x in lo if x > 0.0] + hi
    for k in range(len(lo)):
        u_hi = float(u_of_t(hi[k]))
        u_lo = float(u_of_t(lo[k])) if lo[k] > 0.0 else max(41.0, u_hi + 8.0)
        n = max(8, min(count, int(count * (u_lo - u_hi) / 34.0) + 8))
        points.append(float(t_of_u(np.linspace(u_hi, u_lo, n))[draw(st.integers(0, n - 1))]))
    extras += draw(st.lists(st.sampled_from(points), max_size=6))
    mids = [(a + b) / 2.0 for a, b in zip(lo, hi) if a + b > 0.0]
    anywhere = st.floats(0.5, 700.0).map(lambda u: float(t_of_u(u)))
    centre = [draw(st.sampled_from(points + mids) | anywhere) for _ in lo]
    return np.array(lo), np.array(hi), count, np.array(extras), np.array(centre)


@given(_scan_cases(), st.floats(0.01, 3.0))
@settings(max_examples=60, deadline=None)
def test_pruned_scan_equals_the_full_scan_on_drawn_windows(case, width):
    lo, hi, count, extras, centre = case
    g, bound = _bump(centre, width)
    want = _full_scan(g, lo, hi, count, extras)
    for b in (_unbounded, bound, _nan_bound(bound)):
        _same_bits(logcalc.sup_on_interval(g, lo, hi, count, extras, bound=b), want)


def test_the_neighbour_walk_counts_from_any_guess():
    """A window a few ulps wide has many nodes per rounding step of u(t), so the
    index guess of sup_on_interval's neighbour search can fall on either side."""
    n, held = np.array([0, 1, 8, 8, 8]), np.array([0, 1, 0, 5, 8])
    for guess in range(9):
        got = logcalc._walk(lambda j, k: j < held[k], np.minimum(guess, n), n)
        assert got.tolist() == held.tolist()


def test_a_non_finite_window_value_names_the_window_and_the_point():
    top = float(t_of_u(u_of_t(0.5)))  # the largest node of the window (0.1, 0.5]

    def g(t, k):
        return np.where(t >= top, np.nan, 1.0)

    with pytest.raises(NonFiniteValue, match=rf"nan at t = {re.escape(repr(top))} in window \(0\.1, 0\.5\]"):
        logcalc.sup_on_interval(g, [0.2, 0.1], [0.3, 0.5], 256, bound=lambda a, b, k: np.full(a.shape, np.inf))


def test_a_non_finite_column_value_names_the_column_and_the_point():
    grid = UGrid(35.0, 64)
    ts = grid.with_points(())
    first = float(ts[ts > 0.5][0])  # the scan runs up in t

    def g(t, k):  # column 0 is 1, column 1 is t up to 0.5 and inf past it
        return np.where(k == 0, 1.0, np.where(t > 0.5, np.inf, t))

    with pytest.raises(NonFiniteValue, match=rf"inf at t = {re.escape(repr(first))} in column 1"):
        logcalc.sups_on_grid(g, grid, 2)


@st.composite
def _grid_cases(draw):
    """(grid, extras, columns, g, bound): a sup grid, extra points (repeated,
    on a node or outside (0, 1]) and per column a tent in u, at most cap[k]
    high (a plateau where it is cut), whose peak lies on an extra point, on a
    run's largest point, on a node or anywhere; a column of height 0 is zero
    everywhere.  bound is the tent's exact maximum on [a, b]."""
    grid = UGrid(draw(st.floats(2.0, 45.0)), draw(st.integers(2, 3000)))
    nodes = grid.t_nodes()
    extras = draw(st.lists(st.floats(1e-20, 1.5) | st.sampled_from(nodes.tolist()), max_size=10))
    extras += draw(st.lists(st.sampled_from(extras), max_size=3)) if extras else []
    ts = grid.with_points(extras)
    places = {
        "extra": st.sampled_from(extras) if extras else st.nothing(),
        "run end": st.sampled_from(ts[logcalc._RUN - 1 :: logcalc._RUN].tolist() or [float(ts[-1])]),
        "node": st.sampled_from(nodes.tolist()),
        "anywhere": st.floats(0.5, 60.0).map(lambda u: float(t_of_u(u))),
    }
    columns = draw(st.integers(1, 6))
    centre = np.array([draw(st.one_of(*places.values())) for _ in range(columns)])
    height = np.array([draw(st.sampled_from([0.0, 1.0]) | st.floats(0.1, 10.0)) for _ in range(columns)])
    width = np.array([draw(st.floats(1e-3, 5.0)) for _ in range(columns)])
    cap = np.array([draw(st.sampled_from([1.0]) | st.floats(0.05, 1.0)) for _ in range(columns)])

    def g(t, k):
        tent = np.maximum(0.0, 1.0 - np.abs(u_of_t(t) - u_of_t(centre[k])) / width[k])
        return height[k] * np.minimum(tent, cap[k])

    def bound(a, b, k):
        return g(np.clip(centre[k], a, b), k)

    return grid, np.array(extras), columns, g, bound


@given(_grid_cases())
@settings(max_examples=150, deadline=None)
def test_bounded_grid_scan_equals_the_unbounded_scan(case):
    grid, extras, columns, g, bound = case
    want = logcalc.sups_on_grid(g, grid, columns, extras)
    for b in (bound, _nan_bound(bound), lambda a, b, k: 2.0 * bound(a, b, k)):
        _same_bits(logcalc.sups_on_grid(g, grid, columns, extras, b), want)


def test_invert_pure_power_exact():
    for a in (0.25, 0.5, 2.0):
        for y in (0.9, 0.5, 1e-6):
            t = invert_monotone(LogWeight(a, 0.0), y)
            assert t == pytest.approx(y ** (1 / a), rel=1e-12)


def test_invert_mixed_weight_residual():
    w = LogWeight(0.25, -1.0)
    y = 0.5
    t = invert_monotone(w, y)
    assert abs(float(w(t)) - y) <= 1e-10 * y
    assert t == pytest.approx(0.504, abs=1e-3)


def test_invert_log_only_closed_form():
    # (1 - Log x)^{-1} inverts to e^{1 - 1/t}
    w = LogWeight(0.0, -1.0)
    for t in (0.9, 0.5, 0.1, 1e-3):
        x = invert_monotone(w, t)
        assert x == pytest.approx(math.exp(1.0 - 1.0 / t), rel=1e-12)


def test_invert_out_of_range():
    m = MonotoneMap(LogWeight(1.0, 3.0))
    assert m.t0 == pytest.approx(math.exp(-2.0))
    with pytest.raises(OutOfRange):
        m.inverse(m.top * 1.1)
    with pytest.raises(OutOfRange):
        invert_monotone(LogWeight(0.5, 0.0), -1.0)


def test_inverse_on_arrays_equals_batches_of_one():
    for w in (LogWeight(0.25, 0.75), LogWeight(0.5, -0.5), LogWeight(0.25, 0.0), LogWeight(0.0, -1.0)):
        m = MonotoneMap(w)
        ys = m.top * np.exp(-np.array([30.0, 0.0, 2.5, 1e-9, 2.5, 11.0, 0.3]))
        got = m.inverse(ys)
        assert isinstance(got, np.ndarray) and got.shape == ys.shape
        assert isinstance(m.inverse(float(ys[0])), float)
        assert got.tolist() == [m.inverse(np.array([y]))[0] for y in ys]
        assert got.tolist() == [m.inverse(float(y)) for y in ys]


def test_inverse_maps_the_top_to_t0_exactly():
    """A target at the top of the range, or within the accepted slack above it,
    is the end t0 of the monotone domain, not a bisection residual from it."""
    for a, b in ((0.25, 0.75), (0.5, -0.5), (0.25, 0.0), (0.0, -1.0)):
        m = MonotoneMap(LogWeight(a, b))
        ys = np.array([0.5 * m.top, m.top, m.top * (1.0 + 5e-13)])
        got = m.inverse(ys)
        assert got[1] == got[2] == m.t0 and got[0] < m.t0
        assert m.inverse(m.top) == m.t0


def test_inverse_array_with_one_bad_target_names_it():
    m = MonotoneMap(LogWeight(1.0, 3.0))
    for bad in (m.top * 1.1, -2.0, 0.0):
        ys = np.array([0.5 * m.top, 0.1 * m.top, bad, 0.2 * m.top])
        with pytest.raises(OutOfRange, match=f"target {bad!r} outside"):
            m.inverse(ys)


def test_golden_refine_on_arrays_equals_batches_of_one():
    peaks = np.array([0.3, 1e-4, 0.9, 0.05, 0.3])
    widths = np.array([1.0, 3.0, 0.5, 2.0, 0.25])

    def h(t, k):
        return np.exp(-((u_of_t(t) - u_of_t(peaks[k])) / widths[k]) ** 2)

    # brackets around a node next to each peak, one degenerate
    best_t = peaks * 1.01
    t_left, t_right = best_t * 0.9, np.minimum(best_t * 1.1, 1.0)
    t_left[2] = t_right[2] = best_t[2]
    best = h(best_t, np.arange(peaks.size))
    sup, arg = golden_refine(h, t_left, t_right, best, best_t)
    for k in range(peaks.size):

        def hk(t, j, k=k):
            return h(t, np.full(np.size(t), k))

        one = golden_refine(hk, t_left[k:k + 1], t_right[k:k + 1], best[k:k + 1], best_t[k:k + 1])
        assert (sup[k], arg[k]) == (one[0][0], one[1][0])
    assert sup[[0, 1, 3, 4]] == pytest.approx(1.0, abs=1e-12)
    assert (sup[2], arg[2]) == (best[2], best_t[2])


def test_monotone_map_t0_rule():
    assert MonotoneMap(LogWeight(2.0, 1.0)).t0 == 1.0  # a >= b
    assert MonotoneMap(LogWeight(1.0, 2.0)).t0 == pytest.approx(math.exp(-1.0))
    with pytest.raises(BadExponent):
        MonotoneMap(LogWeight(0.0, 1.0))  # decreasing near zero


def test_monotone_map_whose_t0_underflows():
    """t0 = e^{1 - b/a} underflows to 0 for b/a past about 745; the top is
    taken at u0 = b/a, so it stays finite and the Newton solve still runs.
    (RuntimeWarnings are errors in this suite.)"""
    m = MonotoneMap(LogWeight(1e-8, 5.0))
    assert m.t0 == 0.0 and math.isfinite(m.top)
    assert m.top == pytest.approx(math.exp(1e-8 * (1.0 - 5e8)) * 5e8**5, rel=1e-12)
    with pytest.raises(OutOfRange, match=re.escape(f"target {0.5 * m.top!r} lies past u = 1e7")):
        m.inverse(0.5 * m.top)  # its root lies past u0 = 5e8
    # u0 = 5e5: a root below u = 1e7 meets the 1e-12 residual on the u scale
    # (a miss raises NoConvergence), though its t underflows to 0
    m = MonotoneMap(LogWeight(1e-5, 5.0))
    assert m.t0 == 0.0 and math.isfinite(m.top)
    assert m.inverse(np.array([0.5, 1e-30]) * m.top).tolist() == [0.0, 0.0]
    with pytest.raises(OutOfRange, match=re.escape(f"target {1e-100 * m.top!r} lies past u = 1e7")):
        m.inverse(1e-100 * m.top)


@given(st.floats(0.1, 3.0), st.floats(-3.0, 3.0), st.floats(-11.0, -0.01))
@settings(max_examples=60, deadline=None)
def test_roundtrip_on_monotone_domain(a, b, log_y):
    m = MonotoneMap(LogWeight(a, b))
    y = m.top * math.exp(log_y)
    t = m.inverse(y)
    assert abs(float(m.forward(t)) - y) <= 1e-10 * y


def test_normalized_map_log_bracket():
    """The normalized inverse keeps 1 + |Log phi(t)| within a fixed multiple of
    1 + |Log t|, and the recorded bracket is stable under grid refinement."""
    m = MonotoneMap(LogWeight(0.5, 1.5))

    def bracket(n):
        ts = np.exp(np.linspace(math.log(1e-12), 0.0, n))[:-1]
        ratios = []
        for t in ts:
            phi = m.inverse(float(t) * m.top) / m.t0
            ratios.append((1.0 + abs(math.log(phi))) / (1.0 + abs(math.log(t))))
        return min(ratios), max(ratios)

    lo1, hi1 = bracket(60)
    lo2, hi2 = bracket(120)
    assert 0.0 < lo1 and math.isfinite(hi1)
    assert abs(hi2 - hi1) / hi1 < 0.05
    assert abs(lo2 - lo1) / lo1 < 0.05


def test_bounds_check_trivial():
    rep = log_integral_bounds_check(0.0, 0.0, [0.1, 0.5, 0.9])
    for ratio in rep["head_ratios"].values():
        assert ratio == pytest.approx(1.0, rel=1e-12)
    assert rep["head_lower_ok"]


def test_bounds_check_log_weight():
    # ∫_0^a (1 - Log t) dt = a(2 - Log a): ratio 3/2 at a = e^{-1}
    rep = log_integral_bounds_check(0.0, 1.0, [math.exp(-1.0)])
    assert rep["head_max"] == pytest.approx(1.5, rel=1e-12)
    assert rep["head_lower_ok"]


def test_bounds_check_tail_branch():
    rep = log_integral_bounds_check(-2.0, 0.0, [0.1])
    assert rep["tail_ratios"][0.1] == pytest.approx(0.9, rel=1e-12)


@given(st.floats(-3.0, 0.9), st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_bounds_check_lower_bound_property(alpha, beta):
    rep = log_integral_bounds_check(alpha, beta, [0.05, 0.3, 0.8])
    assert rep["head_lower_ok"]


def test_u_transform_roundtrip():
    ts = np.array([1e-12, 0.1, 0.9, 1.0])
    assert np.allclose(t_of_u(u_of_t(ts)), ts, rtol=1e-14)


def test_bad_intervals():
    f = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(BadInterval):
        log_weight_integral(f, 1.0, LogWeight(0, 0), 0.7, 0.2)
