"""K-functional oracle vs explicit forms, curve invariants, coupling conditions."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.optimize as so

from rispaces import kfunctional
from rispaces.config import Resolution
from rispaces.errors import BadExponent, InfiniteNorm, OutOfRange
from rispaces.kfunctional import (
    General,
    GrandGrand,
    GrandLq,
    GrandSmallSameP,
    KCurve,
    LpLq,
    SmallSmall,
    check_C_conditions,
    couple_psi,
    couple_spaces,
    k_curve,
    k_explicit,
    k_oracle,
    oracle_lines,
    split_point,
)
from rispaces.logcalc import LogWeight, MonotoneMap, UGrid
from rispaces.norms import Grand, Lebesgue, space_norm
from rispaces.rearrangement import StepRearrangement

from conftest import FAST

COUPLES = [
    LpLq(1, 2),
    LpLq(2, 4),
    LpLq(2, math.inf),
    GrandLq(2, 4, 1.0),
    GrandGrand(2, 4, 1.0),
    SmallSmall(2, 4),
    GrandSmallSameP(2),
]


def zero_fn():
    return StepRearrangement(np.array([0.0, 1.0]), np.array([0.0]))


def scale(f, lam):
    return StepRearrangement(f.breaks, lam * f.values)


def test_classical_l1_linf_identity(chi_half):
    # K(chi_{(0,1/2)}, t; L1, Linf) = ∫_0^t chi* = min(t, 1/2), exactly
    c = LpLq(1, math.inf)
    for t in (0.05, 0.3, 0.5, 0.8, 1.0):
        assert k_oracle(chi_half, c, t, FAST) == pytest.approx(min(t, 0.5), abs=1e-12)
        assert k_explicit(chi_half, c, t, FAST) == pytest.approx(min(t, 0.5), abs=1e-12)


def test_zero_function_all_couples():
    z = zero_fn()
    for c in COUPLES:
        assert k_oracle(z, c, 0.5, FAST) == 0.0
        assert k_explicit(z, c, 0.5, FAST) == 0.0


def test_holmstedt_closed_form(one):
    # (L1, L2), f = 1, t = 1/2: t^2 + t sqrt(1 - t^2)
    val = k_explicit(one, LpLq(1, 2), 0.5, FAST)
    assert val == pytest.approx(0.25 + 0.5 * math.sqrt(0.75), rel=1e-12)


def test_grand_small_explicit_against_scipy(one):
    val = k_explicit(one, GrandSmallSameP(2), 0.5, FAST)
    phi1 = math.exp(-1.0)
    opt = so.minimize_scalar(
        lambda s: -((1 - math.log(s)) ** -0.5) * max(phi1 - s, 0) ** 0.5,
        bounds=(1e-12, phi1),
        method="bounded",
        options={"xatol": 1e-14},
    )
    second, _ = si.quad(
        lambda s: (1 - math.log(s)) ** -0.5 * (s - phi1) ** 0.5 / s, phi1, 1.0
    )
    assert val == pytest.approx(-opt.fun + 0.5 * second, rel=1e-8)


def test_endpoint_bound(power_quarter):
    # the oracle minimizes over a family containing both trivial decompositions
    for c in COUPLES:
        x0, x1 = couple_spaces(c)
        n0 = space_norm(power_quarter, x0, FAST)
        n1 = space_norm(power_quarter, x1, FAST)
        for t in (0.01, 0.3, 1.0):
            if math.isfinite(n0) and math.isfinite(n1):
                bound = min(n0, t * n1)
                assert k_oracle(power_quarter, c, t, FAST) <= bound + 1e-12


def test_oracle_scaling_exact(power_quarter):
    c = GrandLq(2, 4, 1.0)
    for t in (0.1, 0.7):
        base = k_oracle(power_quarter, c, t, FAST)
        assert k_oracle(scale(power_quarter, 2.5), c, t, FAST) == pytest.approx(
            2.5 * base, rel=1e-12
        )
        base_e = k_explicit(power_quarter, c, t, FAST)
        assert k_explicit(scale(power_quarter, 2.5), c, t, FAST) == pytest.approx(
            2.5 * base_e, rel=1e-12
        )


@pytest.mark.parametrize("couple", COUPLES, ids=str)
def test_oracle_curve_invariants(couple, power_quarter):
    curve = k_curve(power_quarter, couple, UGrid(FAST.u_max, FAST.k_nodes), "oracle", FAST)
    assert curve.monotone_ok
    assert curve.concave_ok
    assert np.all(curve.k_values >= 0)


@pytest.mark.parametrize(
    "couple", [LpLq(1, 2), LpLq(2, 4), GrandLq(2, 4, 1.0), GrandGrand(2, 4, 1.0),
               SmallSmall(2, 4), GrandSmallSameP(2)],
    ids=str,
)
def test_explicit_brackets_oracle(couple, power_quarter):
    grid = UGrid(FAST.u_max, FAST.k_nodes)
    oracle = k_curve(power_quarter, couple, grid, "oracle", FAST)
    explicit = k_curve(power_quarter, couple, grid, "explicit", FAST)
    ratio = np.maximum(
        oracle.k_values / explicit.k_values, explicit.k_values / oracle.k_values
    )
    assert np.all(np.isfinite(ratio))
    assert ratio.max() < 64.0


def test_curve_zero(one):
    grid = UGrid(FAST.u_max, 16)
    curve = k_curve(zero_fn(), LpLq(1, 2), grid, "oracle", FAST)
    assert np.all(curve.k_values == 0.0)


def test_curve_flags_require_shape():
    with pytest.raises(BadExponent):
        KCurve(np.array([0.5, 0.2]), np.array([1.0, 2.0]))
    with pytest.raises(BadExponent):
        KCurve(np.array([0.2, 0.5]), np.array([1.0, -2.0]))
    bumpy = KCurve(np.array([0.1, 0.2, 0.4]), np.array([1.0, 0.5, 2.0]))
    assert not bumpy.monotone_ok


def test_split_point_residuals():
    # every couple's ratio map inverts with a tiny relative residual, for
    # arguments whose split point stays inside the normal float range
    for c in COUPLES:
        u_hi = 7.0 if isinstance(c, GrandSmallSameP) else 30.0
        ts = np.exp(1.0 - np.linspace(1.0, u_hi, 200))
        psi = couple_psi(c)
        for t in ts:
            phi = split_point(c, float(t))
            assert abs(float(psi(phi)) - t) <= 1e-10 * t


def _mpmath_split_point(psi: LogWeight, t: float, guess: float) -> float:
    """The root of a(1 - u) + b·Log u = Log t in 40 digits, from Newton's
    method in mpmath started at u(guess): the map is monotone on its domain,
    so the root is the one split point."""
    with mpmath.workdps(40):
        a, b, log_t = mpmath.mpf(psi.a), mpmath.mpf(psi.b), mpmath.log(mpmath.mpf(t))

        def h(u):
            return a * (1 - u) + b * mpmath.log(u) - log_t

        u = mpmath.findroot(h, 1 - mpmath.log(mpmath.mpf(guess)))
        assert abs(h(u)) < mpmath.mpf(10) ** -30 and u >= 1 - mpmath.log(MonotoneMap(psi).t0) - 1e-30
        return float(mpmath.exp(1 - u))


@pytest.mark.parametrize(
    "c", COUPLES + [SmallSmall(1.5, 8), GrandGrand(3, 9, 2.0), GrandLq(1.5, 3, 0.5)], ids=repr
)
def test_split_points_match_an_mpmath_root(c):
    """At 120 targets t = e^{1-u}, u from 1 to the default u_max = 35, and for
    SmallSmall(2, 4) also next to the double root at the top of its map,
    t = top·(1 - δ): the split point within 1e-13 of an mpmath root, relative
    in t.  Closer to the double root the root's own condition, 1/|h'|, grows
    past that.  Split points that underflow past the normal range are left
    out."""
    m = MonotoneMap(couple_psi(c))
    ts = np.exp(1.0 - np.linspace(1.0, 35.0, 120))
    ts = ts[ts < m.top]
    if isinstance(c, SmallSmall) and m.t0 < 1.0:
        ts = np.concatenate([ts, m.top * (1.0 - np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5]))])
    phi = split_point(c, ts)
    for t, got in zip(ts, phi):
        if got >= np.finfo(float).tiny:
            want = _mpmath_split_point(m.forward, float(t), float(got))
            assert abs(got - want) <= 1e-13 * want, (t, got, want)


def _psi_by_formula(c):
    """(a, b) of each couple's ratio map, written out per couple as couple_psi
    once did; couple_psi now forms them from the fundamental functions."""
    p, q = c.p, getattr(c, "q", c.p)
    if isinstance(c, LpLq):
        return 1.0 / p - (0.0 if math.isinf(q) else 1.0 / q), 0.0
    if isinstance(c, GrandLq):
        return 1.0 / p - 1.0 / q, -c.alpha / p
    if isinstance(c, GrandGrand):
        return 1.0 / p - 1.0 / q, -c.alpha / p + c.alpha / q
    if isinstance(c, SmallSmall):
        return 1.0 / p - 1.0 / q, (p - q + p * q) / (p * q)
    return 0.0, -1.0


def test_couple_psi_matches_the_per_couple_formulas():
    """Bit for bit on a grid of couples; SmallSmall's log exponent, a sum of
    three terms, to rounding (and exactly for the (2, 4) couple the pins use)."""
    couples = []
    for p in np.linspace(1.5, 10.0, 41):
        p = float(p)
        couples += [GrandSmallSameP(p), LpLq(p, math.inf)]
        for q in (3.0, 4.0, 6.0, 9.0, 12.0):
            if p < q:
                couples += [LpLq(p, q), SmallSmall(p, q)]
                couples += [k(p, q, a) for k in (GrandLq, GrandGrand) for a in (0.5, 1.0, 1.5, 2.0)]
    for c in couples:
        w, (a, b) = couple_psi(c), _psi_by_formula(c)
        if isinstance(c, SmallSmall):
            assert w.a == a and w.b == pytest.approx(b, rel=1e-15, abs=0.0), c
        else:
            assert (w.a, w.b) == (a, b), c
    assert couple_psi(SmallSmall(2, 4)) == LogWeight(0.25, 0.75)


def test_split_point_power_couples_closed_form():
    assert split_point(LpLq(2, 4), 0.3) == pytest.approx(0.3**4.0, rel=1e-14)
    assert split_point(LpLq(1, math.inf), 0.3) == pytest.approx(0.3, rel=1e-14)
    assert split_point(GrandSmallSameP(2), 0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)
    with pytest.raises(OutOfRange):
        split_point(GrandSmallSameP(2), 1.5)


def test_check_c_conditions_lebesgue_pair():
    # identical L^2 spaces: ∫_0^t s^{-1/2} ds = 2 t^{1/2}: the first ratio is 2
    rep = check_C_conditions(Lebesgue(2), Lebesgue(2), UGrid(35.0, 64), FAST)
    assert rep["c0"][0] == pytest.approx(2.0, rel=1e-9)
    assert rep["c0"][1] == pytest.approx(2.0, rel=1e-9)
    assert rep["passed"]


def test_check_c_conditions_grand_vs_lq():
    rep = check_C_conditions(Grand(2, 1.0), Lebesgue(4), UGrid(35.0, 64), FAST)
    assert rep["passed"]
    assert all(math.isfinite(v) for v in (rep["c0"][0], rep["c0"][1], rep["c1"], rep["c2"]))


def test_coupling_conditions_are_checked_per_resolution(monkeypatch, chi_half):
    """The verdict is computed on a grid of the resolution's depth, so a
    second depth gets its own check (a couple no other test uses)."""
    calls = []

    def spy(x0, x1, grid, res):
        calls.append((x0, x1, grid.u_max, res.u_max))
        return {"passed": True}

    monkeypatch.setattr(kfunctional, "check_C_conditions", spy)
    couple = General(Grand(2, 1.375), Lebesgue(4.5))
    for u_max in (35.0, 25.0, 35.0):
        k_explicit(chi_half, couple, 0.4, Resolution(u_max=u_max, panels=200, sup_count=1024))
    assert calls == [(couple.x0, couple.x1, 35.0, 35.0), (couple.x0, couple.x1, 25.0, 25.0)]


def test_general_couple_at_t_one(power_quarter):
    """At t = 1 the split point is the ratio map's end 1: the head is f itself
    and the tail vanishes."""
    couple = General(Grand(2, 1.0), Lebesgue(4))
    want = space_norm(power_quarter, Grand(2, 1.0), FAST)
    assert k_explicit(power_quarter, couple, 1.0, FAST) == pytest.approx(want, rel=1e-12)


def test_general_couple_explicit_runs(power_quarter):
    couple = General(Grand(2, 1.0), Lebesgue(4))
    val = k_explicit(power_quarter, couple, 0.4, FAST)
    assert math.isfinite(val) and val > 0
    # the general form stays within a constant of the oracle
    o = k_oracle(power_quarter, couple, 0.4, FAST)
    assert max(val / o, o / val) < 64.0


def fresh(f):
    """f with an empty memo."""
    return StepRearrangement(f.breaks, f.values)


def test_oracle_lines_and_curves_are_read_only(power_quarter):
    f = fresh(power_quarter)
    couple = GrandLq(2, 4, 1.0)
    curve = k_curve(f, couple, UGrid(FAST.u_max, FAST.k_nodes), "oracle", FAST)
    for a in (*oracle_lines(f, couple, FAST), curve.t_nodes, curve.k_values):
        with pytest.raises(ValueError):
            a[0] = -1.0


def test_oracle_curve_is_kept_per_grid_couple_and_resolution(power_quarter):
    f = fresh(power_quarter)
    grid = UGrid(FAST.u_max, FAST.k_nodes)
    base = k_curve(f, GrandLq(2, 4, 1.0), grid, "oracle", FAST)
    assert k_curve(f, GrandLq(2.0, 4.0, 1.0), UGrid(FAST.u_max, FAST.k_nodes), "oracle", FAST) is base
    others = [
        (GrandLq(2, 4, 1.0), grid.doubled(), FAST),
        (LpLq(2, 4), grid, FAST),
        (GrandLq(2, 4, 1.0), grid, FAST.doubled()),
    ]
    for couple, g, res in others:
        curve = k_curve(f, couple, g, "oracle", res)
        assert curve is not base
        assert k_curve(f, couple, g, "oracle", res) is curve
        assert np.array_equal(curve.k_values, k_curve(fresh(f), couple, g, "oracle", res).k_values)
    assert k_curve(f, LpLq(2, 4), grid, "oracle", FAST).k_values.tolist() != base.k_values.tolist()


def test_a_curve_with_no_finite_line_raises_on_every_call(monkeypatch, power_quarter):
    monkeypatch.setattr(kfunctional, "norms_over_cuts", lambda f, spec, cuts, kind, res: np.full(cuts.size, np.inf))
    f = fresh(power_quarter)
    for _ in range(2):
        with pytest.raises(InfiniteNorm):
            k_curve(f, LpLq(2, 4), UGrid(FAST.u_max, FAST.k_nodes), "oracle", FAST)
