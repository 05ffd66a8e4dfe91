"""Interpolation norms, the identity declarations, and the equivalent-norm displays."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate as si

from rispaces import interpolation
from rispaces.config import DEFAULT
from rispaces.equivharness import FunctionFamily, run_identity_experiment, standard_family
from rispaces.errors import BadExponent, HypothesisViolation
from rispaces.interpolation import (
    IDENTITIES,
    InterpParams,
    KCurve,
    ZSpace,
    doubling_time,
    identify_target,
    interp_norm,
    z_norm,
    z_norm_alt,
)
from rispaces.kfunctional import General, GrandGrand, GrandLq, GrandSmallSameP, LpLq, SmallSmall, k_curve
from rispaces.logcalc import LogWeight, UGrid
from rispaces.norms import GammaDouble, Grand, LorentzZygmund, Small, ggamma_norm, lebesgue_norm
from rispaces.rearrangement import StepRearrangement

from conftest import FAST


def min_curve(a: float, nodes: int = 400) -> KCurve:
    """Exact K-curve of the couple (L1, Linf) for an indicator of measure a:
    K(t) = min(t, a).  The kink is one of the nodes, so the log-log
    interpolation reproduces the curve exactly."""
    ts = np.exp(1.0 - np.linspace(1.0, 35.0, nodes))[::-1]
    ts = np.unique(np.append(ts, a))
    return KCurve(ts, np.minimum(ts, a))


def closed_form_min_norm(a: float, theta: float, r: float) -> float:
    """Piecewise closed form of (∫ [t^{-theta} min(t,a)]^r dt/t)^{1/r}."""
    left = a ** ((1 - theta) * r) / ((1 - theta) * r)
    right = a**r * (1.0 - a ** (theta * r)) / (theta * r * a ** (theta * r))
    return (left + right) ** (1.0 / r)


def test_interp_norm_closed_form():
    # recomputed closed form: 1/2 + 1/4 = 3/4, norm sqrt(3)/2
    expected = closed_form_min_norm(0.5, 0.5, 2.0)
    assert expected == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
    got = interp_norm(min_curve(0.5), InterpParams(0.5, 2.0, 0.0))
    assert got == pytest.approx(expected, rel=1e-10)


def test_interp_norm_matches_scipy_quad():
    params = InterpParams(0.3, 1.5, 0.7)
    got = interp_norm(min_curve(0.25), params)
    ref, _ = si.quad(
        lambda t: (t**-0.3 * (1 - math.log(t)) ** 0.7 * min(t, 0.25)) ** 1.5 / t,
        0,
        1,
        limit=400,
    )
    assert got == pytest.approx(ref ** (1 / 1.5), rel=1e-8)


@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_interp_norm_segments_against_mpmath(alpha):
    """Power segments of several slopes (the array pass: closed form for
    alpha = 0, one Gauss-Legendre pass otherwise) and a segment that starts
    at K = 0 (linear in t there) against mpmath on the interpolated curve."""
    ts = np.array([1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0])
    ks = np.array([0.0, 0.0, 2e-3, 0.05, 0.3, 0.4])
    theta, r = 0.3, 2.5

    def k_of(t, i):
        if ks[i] == 0.0:
            return ks[i + 1] * (t - ts[i]) / (ts[i + 1] - ts[i])
        m = mpmath.log(ks[i + 1] / ks[i]) / mpmath.log(ts[i + 1] / ts[i])
        return ks[i] * (t / ts[i]) ** m

    with mpmath.workdps(30):
        ref = sum(
            mpmath.quad(
                lambda t, i=i: (t**-theta * (1 - mpmath.log(t)) ** alpha * k_of(t, i)) ** r / t,
                [ts[i], ts[i + 1]],
            )
            for i in range(1, ts.size - 1)
        )
        ref = float(ref ** (1 / mpmath.mpf(r)))
    got = interp_norm(KCurve(ts, ks), InterpParams(theta, r, alpha))
    assert got == pytest.approx(ref, rel=1e-10)


def _piecewise_power_norm_mp(curve: KCurve, theta: float, r: float) -> float:
    """(∫_0^1 [t^{-theta} K(t)]^r dt/t)^{1/r} in mpmath, K the curve's
    piecewise power (K(t_1) t/t_1 below the first node): closed forms per
    segment, in mpmath's unbounded exponent range."""
    t = [mpmath.mpf(float(v)) for v in curve.t_nodes]
    k = [mpmath.mpf(float(v)) for v in curve.k_values]
    total = (k[0] / t[0]) ** r * t[0] ** ((1 - theta) * r) / ((1 - theta) * r)
    for i in range(len(t) - 1):
        m = mpmath.log(k[i + 1] / k[i]) / mpmath.log(t[i + 1] / t[i])
        e = (m - theta) * r
        seg = (t[i + 1] ** e - t[i] ** e) / e if e != 0 else mpmath.log(t[i + 1] / t[i])
        total += (k[i] * t[i] ** -m) ** r * seg
    return float(total ** (1 / mpmath.mpf(r)))


@pytest.mark.parametrize("r", [24.0, 64.0])
def test_interp_norm_large_r_against_mpmath(r):
    """K(t_i)^r t_i^{-m r} overflows once m·r passes about 20 on a grid down
    to t_1 = 1.7e-15, so each piece is scaled inside its exponent and the sum
    is taken in logs; T1.2's oracle curves at theta = 0.5."""
    realized = dict(standard_family().realize(DEFAULT))
    couple = IDENTITIES["T1.2"].couple(p=2.0, q=4.0, alpha=1.0)
    grid = UGrid(DEFAULT.u_max, DEFAULT.k_nodes)
    for name in ("const", "rand_00"):
        curve = k_curve(realized[name], couple, grid, "oracle", DEFAULT)
        got = interp_norm(curve, InterpParams(0.5, r, 0.0))
        with mpmath.workdps(30):
            want = _piecewise_power_norm_mp(curve, 0.5, r)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12), name


def test_interp_norm_zero_curve():
    ts = np.exp(1.0 - np.linspace(1.0, 35.0, 50))[::-1]
    assert interp_norm(KCurve(ts, 0 * ts), InterpParams(0.5, 2.0)) == 0.0


def test_interp_norm_sup_form_linear_curve():
    ts = np.exp(1.0 - np.linspace(1.0, 35.0, 100))[::-1]
    assert interp_norm(KCurve(ts, ts), InterpParams(0.5, math.inf)) == pytest.approx(
        1.0, rel=1e-10
    )


def test_interp_norm_homogeneous():
    c = min_curve(0.25)
    params = InterpParams(0.4, 2.0, -0.5)
    base = interp_norm(c, params)
    scaled = interp_norm(KCurve(c.t_nodes, 5.0 * c.k_values), params)
    assert scaled == pytest.approx(5.0 * base, rel=1e-12)


def test_interp_norm_monotone_in_curve():
    c1 = min_curve(0.25)
    c2 = KCurve(c1.t_nodes, c1.k_values * 1.1 + 1e-3 * c1.t_nodes)
    params = InterpParams(0.5, 2.0, 0.0)
    assert interp_norm(c2, params) >= interp_norm(c1, params)


# Each identity at reference parameters: its couple, left side and right side;
# p_theta = 8/3 for (p, q, theta) = (2, 4, 1/2).
DECLARATIONS = [
    ("T1.1", dict(p=2, q=4, alpha=1), GrandLq(2, 4, 1), InterpParams(1, math.inf, -0.25), Grand(4, 1)),
    ("T3.1", dict(p=1, q=4, alpha=2), LpLq(1, 4), InterpParams(1, math.inf, -0.5), Grand(4, 2)),
    ("T1.2", dict(p=2, q=4, theta=0.5, r=2, alpha=1), GrandGrand(2, 4, 1), InterpParams(0.5, 2),
     LorentzZygmund(8 / 3, 2, -3 / 8)),
    ("T3.4", dict(p=2, q=4, theta=0.5, r=2, alpha=1), SmallSmall(2, 4), InterpParams(0.5, 2),
     LorentzZygmund(8 / 3, 2, 3 / 8)),
    ("T3.4", dict(p=2, q=4, theta=0.5, r=2, alpha=0.5), General(Small(2, 0.5), Small(4, 0.5)),
     InterpParams(0.5, 2), LorentzZygmund(8 / 3, 2, 3 / 16)),
    ("T5.1", dict(p=2, q=4, theta=0.5, r=2), SmallSmall(2, 4), InterpParams(0.5, 2), LorentzZygmund(8 / 3, 2, 1 / 8)),
    ("P4.1", dict(p=2, alpha=1), LpLq(2, math.inf), InterpParams(0, 1, -0.5), Small(2, 1)),
    ("P4.2", dict(p=2, q=4, alpha=2), LpLq(2, 4), InterpParams(0, 1, 0.0), Small(2, 2)),
    ("T1.3", dict(p=2, theta=0.75, r=2), GrandSmallSameP(2), InterpParams(0.75, 2), ZSpace(2, 0.75, 2, z_norm_alt)),
    ("T6.2", dict(p=2, theta=0.75, r=2), GrandSmallSameP(2), InterpParams(0.75, 2), ZSpace(2, 0.75, 2, z_norm)),
]


@pytest.mark.parametrize("tid, params, couple, side, target", DECLARATIONS)
def test_identity_declarations(tid, params, couple, side, target):
    identity = IDENTITIES[tid]
    assert tuple(d.name for d in identity.params) == tuple(params)
    assert identity.couple(**params) == couple
    got = identity.side(**params)
    assert (got.theta, got.r) == (side.theta, side.r) and got.alpha == pytest.approx(side.alpha, abs=1e-15)
    got = identity.target(**params)
    assert type(got) is type(target)
    assert vars(got) == pytest.approx(vars(target), rel=1e-15)


def test_lorentz_zygmund_target_exponents():
    """1/p_theta = (1 - theta)/p + theta/q, alpha_theta = 1 - theta - 1/p_theta
    (T5.1's log exponent), and T1.2 and T3.4 take -+alpha/p_theta."""
    for p, q, theta, r in [(2, 4, 0.5, 2), (1.5, 3, 0.25, 1), (2, 8, 0.9, 3)]:
        lz = IDENTITIES["T5.1"].target(p=p, q=q, theta=theta, r=r)
        assert 1 / lz.p == pytest.approx((1 - theta) / p + theta / q, abs=1e-15)
        assert lz.alpha == pytest.approx(1 - theta - 1 / lz.p, abs=1e-15)
        assert lz.q == r
        for tid, sign in (("T1.2", -1.0), ("T3.4", 1.0)):
            got = IDENTITIES[tid].target(p=p, q=q, theta=theta, r=r, alpha=0.75)
            assert (got.p, got.q) == (lz.p, r)
            assert got.alpha == pytest.approx(sign * 0.75 / lz.p, rel=1e-15)


def test_doubling_times():
    assert doubling_time(0) == 1.0
    assert doubling_time(1) == 0.5
    assert doubling_time(2) == 1.0 / 8.0
    assert doubling_time(3) == 1.0 / 128.0


def test_z_norm_zero_all_cases():
    z = StepRearrangement(np.array([0.0, 1.0]), np.array([0.0]))
    for theta in (0.25, 0.5, 0.75):
        assert z_norm(z, 2, theta, 2) == 0.0


def test_z_norm_critical_telescopes(one, power_quarter):
    # theta = 1/p, r = p: the block sum telescopes to the plain p-norm
    assert z_norm(one, 2, 0.5, 2) == pytest.approx(1.0, rel=1e-12)
    assert z_norm(power_quarter, 2, 0.5, 2) == pytest.approx(
        lebesgue_norm(power_quarter, 2), rel=1e-12
    )


def test_z_norm_tail_case_against_scipy(chi_half):
    # theta < 1/p: ∫ [(1-Log t)^{bt} (∫_t^1 f^p)^{1/p}]^r dt/t with f = chi;
    # the oracle integrates on the u = 1 - Log t axis, where scipy converges
    theta, r, p = 0.25, 2.0, 2.0
    bt = theta - 1 / p - 1 / r
    ref, _ = si.quad(
        lambda u: u ** (bt * r) * max(0.5 - math.exp(1.0 - u), 0.0), 1, np.inf
    )
    assert z_norm(chi_half, p, theta, r) == pytest.approx(ref**0.5, rel=1e-9)


def test_z_norm_prefix_case_against_scipy(chi_half):
    theta, r, p = 0.75, 2.0, 2.0
    bt = theta - 1 / p - 1 / r
    ref, _ = si.quad(
        lambda u: u ** (bt * r) * min(math.exp(1.0 - u), 0.5), 1, np.inf
    )
    assert z_norm(chi_half, p, theta, r) == pytest.approx(ref**0.5, rel=1e-9)


def test_z_alt_equals_double_weight_norm(power_quarter):
    theta, r, p = 0.75, 2.0, 2.0
    spec = GammaDouble(p, r, LogWeight(-1.0, theta * r - 1.0), LogWeight(0.0, -1.0))
    assert z_norm_alt(power_quarter, p, theta, r) == pytest.approx(
        ggamma_norm(power_quarter, spec, FAST), rel=1e-8
    )


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
def test_z_alt_of_constant_against_mpmath(theta, r):
    """For f = 1 the inner integral is e·E1(u) (DLMF 6.2), so z_norm_alt is
    (∫_1^∞ u^{θr-1} (e·E1(u))^{r/2} du)^{1/r}: all of it the u-tail march."""
    one = StepRearrangement(np.array([0.0, 1.0]), np.array([1.0]))
    with mpmath.workdps(30):
        integrand = lambda u: u ** (theta * r - 1) * (mpmath.e * mpmath.expint(1, u)) ** (r / 2)
        want = mpmath.quad(integrand, [1, 4, 16, 64, mpmath.inf]) ** (1 / mpmath.mpf(r))
    assert z_norm_alt(one, 2.0, theta, r) == pytest.approx(float(want), rel=1e-13)


def test_z_and_z_alt_bracket_each_other(power_quarter, chi_half, one):
    for f in (power_quarter, chi_half, one):
        for theta in (0.25, 0.5, 0.75):
            a = z_norm(f, 2, theta, 2)
            b = z_norm_alt(f, 2, theta, 2)
            assert 0 < a < math.inf and 0 < b < math.inf
            assert max(a / b, b / a) < 16.0


def test_z_norm_bad_exponents(one):
    with pytest.raises(BadExponent):
        z_norm(one, 2, 0.0, 2)
    with pytest.raises(BadExponent):
        z_norm(one, 1.0, 0.5, 2)


def test_identify_zero_function():
    z = StepRearrangement(np.array([0.0, 1.0]), np.array([0.0]))
    lhs, rhs = identify_target("T1.2", z, p=2, q=4, theta=0.5, r=2, alpha=1.0, res=FAST)
    assert lhs == 0.0 and rhs == 0.0


def test_identify_t11_finite_ratio(one):
    lhs, rhs = identify_target("T1.1", one, p=2, q=4, alpha=1.0, res=FAST)
    assert 0 < lhs < math.inf and 0 < rhs < math.inf
    assert max(lhs / rhs, rhs / lhs) < 64.0


def test_identify_t13_uses_double_weight_target(one):
    lhs, rhs = identify_target("T1.3", one, p=2, theta=0.75, r=2, res=FAST)
    spec = GammaDouble(2, 2, LogWeight(-1.0, 0.5), LogWeight(0.0, -1.0))
    assert rhs == pytest.approx(ggamma_norm(one, spec, FAST), rel=1e-10)
    assert max(lhs / rhs, rhs / lhs) < 64.0


def test_identify_hypothesis_violations(one):
    with pytest.raises(HypothesisViolation):
        identify_target("T1.2", one, p=2, q=4, theta=1.5, r=2, alpha=1.0, res=FAST)
    with pytest.raises(HypothesisViolation):
        identify_target("T1.2", one, p=4, q=2, theta=0.5, r=2, alpha=1.0, res=FAST)
    with pytest.raises(HypothesisViolation):
        identify_target("T5.1", one, p=2, q=4, theta=0.5, r=math.inf, res=FAST)
    with pytest.raises(HypothesisViolation):
        identify_target("nope", one, p=2, res=FAST)


def test_t13_takes_the_left_side_t62_computed(monkeypatch):
    """T6.2 and T1.3 share a couple and InterpParams, so interp_norm runs once
    per (member, resolution, theta, r), and the kept left side is the one a
    function with an empty memo computes."""
    members = dict(standard_family(q=2.0).members)
    names = ("const", "char_0.125", "plog_g0_d-1", "rand_00")
    fam = FunctionFamily("left-side memo", tuple((n, members[n]) for n in names))
    real, calls = interpolation.interp_norm, []

    def counted(curve, params):
        calls.append(params)
        return real(curve, params)

    monkeypatch.setattr(interpolation, "interp_norm", counted)
    runs = []
    for theta, r in ((0.75, 2.0), (0.5, 1.0)):
        params = dict(p=2.0, theta=theta, r=r)
        runs += [(params, run_identity_experiment(tid, params, fam, FAST)) for tid in ("T6.2", "T1.3")]
    assert len(calls) == 2 * 2 * len(names)  # (theta, r) pairs x resolutions x members
    monkeypatch.undo()
    realized = dict(fam.realize(FAST))
    for params, report in runs:
        assert [m["id"] for m in report.members] == list(names)
        for m in report.members:
            f = realized[m["id"]]
            assert m["lhs"] == identify_target("T6.2", StepRearrangement(f.breaks, f.values), **params, res=FAST)[0]
