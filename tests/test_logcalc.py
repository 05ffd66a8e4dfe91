"""Quadrature, suprema and inversion against closed forms and scipy oracles."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.optimize as so
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rispaces import logcalc
from rispaces.errors import (
    BadExponent,
    BadInterval,
    Divergent,
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


def test_quadrature_refinement_consistency(power_quarter):
    w = LogWeight(-0.3, 1.5)
    coarse = log_weight_integral(power_quarter, 2.0, w, 0.0, 1.0)
    fine = log_weight_integral(power_quarter, 2.0, w, 0.0, 1.0)
    assert coarse == pytest.approx(fine, rel=1e-7)


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


@pytest.mark.parametrize("s", [1 / 3, 0.5, 1.5, 2.5])
def test_gauss_jacobi_root_rule_against_scipy(s):
    """The rule for ∫_0^1 x^s φ(x) dx is scipy's Gauss-Jacobi rule for
    (1 + y)^s on [-1, 1], mapped by x = (1 + y)/2."""
    y, mu = sp.roots_jacobi(15, 0.0, s)
    x, w = logcalc._jacobi_rule(s)
    assert x == pytest.approx((1.0 + y) / 2.0, rel=1e-13, abs=0.0)
    assert w == pytest.approx(mu / 2.0 ** (s + 1.0), rel=1e-13, abs=0.0)


def test_weight_integral_takes_no_adaptive_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive step taken")

    monkeypatch.setattr(logcalc, "log_quad_multi", refuse)
    for a, b in [(-0.999, 1.0), (0.0, -1.0), (2.0, -3.0), (-1.0, -2.0), (-0.5, 0.0), (-3.0, 1.5)]:
        for lo, hi in [(0.0, 0.3), (1e-9, 0.3), (0.2, 0.2 + 1e-9), (0.5, 1.0)]:
            assert weight_integral(LogWeight(a, b), lo, hi) > 0.0


def test_errors_name_interval_tolerance_and_steps():
    with pytest.raises(
        Divergent, match=r"on u in \[1\.69\d*, inf\): 4000 two-unit chunks"
    ):
        log_quad(lambda t: np.ones_like(t), LogWeight(-1.0, 2.0), 0.0, 0.5)
    with np.errstate(over="ignore"), pytest.raises(
        Divergent, match=r"not finite on u in \[\d+\.\d+, \d+\.\d+\]"
    ):
        log_quad(lambda t: np.ones_like(t), LogWeight(-3.0, 0.0), 0.0, 0.5)


@pytest.mark.parametrize("w", [LogWeight(-1.5, 0.0), LogWeight(-3.0, 0.0), LogWeight(-1.0, 2.0)])
def test_growing_tail_is_divergent(w):
    """Exponential growth overflows the sum (or the integrand first); u^2
    still grows when the march ends."""
    with np.errstate(over="ignore"), pytest.raises(Divergent):
        log_quad(lambda t: np.ones_like(t), w, 0.0, 0.5)


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


def test_sup_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        sup_on_grid(lambda t: np.full_like(np.asarray(t), np.nan), UGrid(35.0, 16))


def test_invert_pure_power_exact():
    for a in (0.25, 0.5, 2.0):
        for y in (0.9, 0.5, 1e-6):
            t = invert_monotone(LogWeight(a, 0.0), y)
            assert t == pytest.approx(y ** (1 / a), rel=1e-12)


def test_invert_mixed_weight_residual():
    w = LogWeight(0.25, -1.0)
    y = 0.5
    t = invert_monotone(w, y, tol=1e-10)
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
        got = m.inverse(ys, 1e-12)
        assert isinstance(got, np.ndarray) and got.shape == ys.shape
        assert isinstance(m.inverse(float(ys[0]), 1e-12), float)
        assert got.tolist() == [m.inverse(np.array([y]), 1e-12)[0] for y in ys]
        assert got.tolist() == [m.inverse(float(y), 1e-12) for y in ys]


def test_inverse_maps_the_top_to_t0_exactly():
    """A target at the top of the range, or within the accepted slack above it,
    is the end t0 of the monotone domain, not a bisection residual from it."""
    for a, b in ((0.25, 0.75), (0.5, -0.5), (0.25, 0.0), (0.0, -1.0)):
        m = MonotoneMap(LogWeight(a, b))
        ys = np.array([0.5 * m.top, m.top, m.top * (1.0 + 5e-13)])
        got = m.inverse(ys, 1e-12)
        assert got[1] == got[2] == m.t0 and got[0] < m.t0
        assert m.inverse(m.top, 1e-12) == m.t0


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


@given(st.floats(0.1, 3.0), st.floats(-3.0, 3.0), st.floats(-11.0, -0.01))
@settings(max_examples=60, deadline=None)
def test_roundtrip_on_monotone_domain(a, b, log_y):
    m = MonotoneMap(LogWeight(a, b))
    y = m.top * math.exp(log_y)
    t = m.inverse(y, tol=1e-10)
    assert abs(float(m.value(t)) - y) <= 1e-10 * y


def test_normalized_map_log_bracket():
    """The normalized inverse keeps 1 + |Log phi(t)| within a fixed multiple of
    1 + |Log t|, and the recorded bracket is stable under grid refinement."""
    m = MonotoneMap(LogWeight(0.5, 1.5))

    def bracket(n):
        ts = np.exp(np.linspace(math.log(1e-12), 0.0, n))[:-1]
        ratios = []
        for t in ts:
            phi = m.normalized_inverse(float(t), tol=1e-10)
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
