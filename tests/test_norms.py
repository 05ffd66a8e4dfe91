"""Space norms: closed forms, scipy cross-checks, and axiom-style properties."""

import bisect
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.optimize as so
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rispaces import norms
from rispaces.config import Resolution
from rispaces.equivharness import standard_family
from rispaces.errors import ConditionC2Failed, NonFiniteValue
from rispaces.logcalc import LogWeight
from rispaces.norms import (
    GammaDouble,
    Grand,
    Lebesgue,
    LorentzZygmund,
    Small,
    fundamental_function,
    ggamma_lower_bound_check,
    ggamma_norm,
    grand_norm,
    lebesgue_norm,
    lorentz_zygmund_norm,
    norms_over_cuts,
    prefix_log_integral,
    small_norm,
    space_norm,
    tail_log_integral,
)
from rispaces.rearrangement import (
    PowerLog,
    StepFunction,
    StepRearrangement,
    discretize_model,
    evaluate_many,
    rearrange_from_samples,
)

from conftest import FAST

THM13_W1 = LogWeight(-1.0, 0.75 * 2.0 - 1.0)
THM13_W2 = LogWeight(0.0, -1.0)


def zero_fn():
    return StepRearrangement(np.array([0.0, 1.0]), np.array([0.0]))


def scale(f, lam):
    return StepRearrangement(f.breaks, lam * f.values)


# ---------------------------------------------------------------------------
# lebesgue
# ---------------------------------------------------------------------------


def test_lebesgue_indicator(chi_quarter):
    assert lebesgue_norm(chi_quarter, 2) == pytest.approx(0.5, abs=1e-15)


def test_lebesgue_constant(one):
    for p in (1, 2, 5, math.inf):
        assert lebesgue_norm(one, p) == pytest.approx(1.0, abs=1e-15)


def test_lebesgue_powerlog(power_quarter):
    assert lebesgue_norm(power_quarter, 2) == pytest.approx(math.sqrt(2.0), rel=1e-3)


# ---------------------------------------------------------------------------
# lorentz-zygmund
# ---------------------------------------------------------------------------


def test_lz_degenerates_to_lebesgue(one, chi_quarter, power_quarter):
    for f in (one, chi_quarter, power_quarter):
        for p in (1.5, 2.0, 3.0):
            assert lorentz_zygmund_norm(f, p, p, 0.0) == pytest.approx(
                lebesgue_norm(f, p), rel=1e-8
            )


def test_lz_indicator(chi_quarter):
    assert lorentz_zygmund_norm(chi_quarter, 2, 2, 0.0) == pytest.approx(0.5, rel=1e-12)


def test_lz_log_weighted_l1(one):
    assert lorentz_zygmund_norm(one, 1.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-10)


def test_lz_sup_form(chi_quarter):
    # sup t^{1/2} (1-Log t)^0 over (0, 1/4] = 1/2
    assert lorentz_zygmund_norm(chi_quarter, 2, math.inf, 0.0) == pytest.approx(
        0.5, rel=1e-8
    )


# ---------------------------------------------------------------------------
# grand
# ---------------------------------------------------------------------------


def test_grand_constant_matches_scalar_sup(one):
    # sup (1-Log t)^{-1} (1-t)^{1/2}, computed independently on a dense grid
    ts = np.linspace(1e-9, 1 - 1e-12, 2_000_001)
    ref = np.max(np.sqrt(1 - ts) / (1 - np.log(ts)))
    assert grand_norm(one, 2, 2, FAST) == pytest.approx(ref, rel=1e-7)


def test_grand_zero():
    assert grand_norm(zero_fn(), 2, 1, FAST) == 0.0


def test_grand_borderline_powerlog():
    # tail ∫_t^1 s^{-1} ds = -Log t: objective ((u-1)/u)^{1/2} climbs toward 1
    f35 = discretize_model(PowerLog(0.5, 0.0), 35.0, 400)
    f50 = discretize_model(PowerLog(0.5, 0.0), 50.0, 400)
    v35 = grand_norm(f35, 2, 1, FAST)
    v50 = grand_norm(f50, 2, 1, FAST)
    assert 0.9 < v35 < 1.0 + 1e-9
    assert v35 < v50 < 1.0 + 1e-9


def _capped_grand_maxima(f, p, alpha, cuts, t_min):
    """max over [t_min, 1] of (1-Log t)^{-alpha/p} (∫_t^1 min(f, c)^p)^{1/p}
    for each cut c, in mpmath: the tails at the breaks summed over the panels
    from the right, and on each panel the objective at its ends and at its one
    stationary point, the root of s(1 + alpha - Log s) = alpha·C/V for the tail
    C - V s.  Floats only pick the panels that can hold the maximum and locate
    the roots: the maximum moves to second order in its location."""
    x, v = f.breaks, f.values
    tails = np.cumsum((np.minimum(v[:, None], cuts) ** p * np.diff(x)[:, None])[::-1], axis=0)[::-1]
    tails = np.vstack([tails, np.zeros(cuts.size)])
    lw = (1.0 - np.log(x[1:])) ** (-alpha / p)
    seen = x[1:] >= t_min
    lower = np.max(lw[seen, None] * tails[1:][seen] ** (1.0 / p), axis=0)
    i, k = np.nonzero(seen[:, None] & (lw[:, None] * tails[:-1] ** (1.0 / p) >= lower * (1.0 - 1e-9)))
    lo, hi = np.maximum(x[i], t_min), x[i + 1]
    vp = np.minimum(v[i], cuts[k]) ** p
    target = alpha * (tails[i + 1, k] + vp * hi) / np.where(vp > 0.0, vp, 1.0)
    a, b = lo.copy(), hi.copy()
    for _ in range(200):
        mid = (a + b) / 2.0
        low = mid * (1.0 + alpha - np.log(mid)) < target
        a, b = np.where(low, mid, a), np.where(low, b, mid)
    points = np.stack([lo, hi, np.where(vp > 0.0, a, hi)], axis=1)
    best = np.zeros(cuts.size)
    with mpmath.workdps(30):
        mx = [mpmath.mpf(float(t)) for t in x]
        own = [mpmath.mpf(0)] * (f.n + 1)  # ∫_{x_j}^1 f^p, the tails of the cuts above v_j
        for j in range(f.n - 1, -1, -1):
            own[j] = own[j + 1] + mpmath.mpf(float(v[j])) ** p * (mx[j + 1] - mx[j])
        capped = np.searchsorted(-v, -cuts, side="right")  # min(v_j, c) = c for j below
        for j, c, ts in zip(i, k, points):
            m, cp = capped[c], mpmath.mpf(float(cuts[c])) ** p
            top = own[max(j + 1, m)] + (cp * (mx[m] - mx[j + 1]) if j + 1 < m else 0)
            slope = mpmath.mpf(float(min(v[j], cuts[c]))) ** p
            for t in map(mpmath.mpf, ts):
                val = ((1 - mpmath.log(t)) ** -alpha * (top + slope * (mx[j + 1] - t))) ** (1 / mpmath.mpf(p))
                best[c] = max(best[c], float(val))
    return best


@pytest.mark.parametrize("res", [Resolution(), Resolution().doubled()], ids=["default", "doubled"])
def test_capped_grand_lines_match_an_mpmath_maximum(res):
    """Every capped Grand(4, 1) line of plog_g0.499_d1, whose f^4 has most of
    its mass near 0: a tail read as f's total less its prefix cancels there
    (1.4e-8 and 1.7e-8 off on 46 of 559 and 218 of 1114 cuts)."""
    f = dict(standard_family(q=2.0).realize(res))["plog_g0.499_d1"]
    cuts = np.unique(np.concatenate([[0.0], f.values]))
    got = norms_over_cuts(f, Grand(4.0, 1.0), cuts, "capped", res)
    want = _capped_grand_maxima(f, 4.0, 1.0, cuts, float(np.exp(1.0 - res.u_max)))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_a_grand_objective_that_overflows_names_its_point():
    """f^2 overflows, so every tail is inf - inf: the cut scan raises where it
    reads the first run's largest point, and does not return 0."""
    f = dict(standard_family().realize(Resolution()))["rand_00"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonFiniteValue, match=r"^objective is nan at t = 2\.891725312640603e-15 in column 0$"):
            grand_norm(StepRearrangement(f.breaks, 1e200 * f.values), 2.0, 1.0)


# ---------------------------------------------------------------------------
# small
# ---------------------------------------------------------------------------


def test_small_zero():
    assert small_norm(zero_fn(), 2, 1) == 0.0


def test_small_constant(one):
    exact = math.exp(0.5) * 2.0 * math.sqrt(math.pi / 2.0) * sp.erfc(1.0 / math.sqrt(2.0))
    assert small_norm(one, 2, 1) == pytest.approx(exact, rel=1e-9)


def test_small_scaling(power_quarter):
    base = small_norm(power_quarter, 2, 1)
    assert small_norm(scale(power_quarter, 2.0), 2, 1) == pytest.approx(
        2.0 * base, rel=1e-12
    )


# ---------------------------------------------------------------------------
# generalized gamma with two weights
# ---------------------------------------------------------------------------


def test_ggamma_zero():
    spec = GammaDouble(2, 2, LogWeight(0.0, 0.0), LogWeight(0.0, 0.0))
    assert ggamma_norm(zero_fn(), spec, FAST) == 0.0


def test_ggamma_against_scipy(one):
    spec = GammaDouble(2, 2, THM13_W1, THM13_W2)

    def inner(t):
        # ∫_0^t (1 - Log s)^{-1} ds = e·E1(1 - Log t)
        return math.e * sp.exp1(1.0 - math.log(t))

    ref, _ = si.quad(
        lambda t: (1.0 - math.log(t)) ** 0.5 / t * inner(t), 0, 1, limit=200
    )
    assert ggamma_norm(one, spec, FAST) == pytest.approx(math.sqrt(ref), rel=1e-8)


def test_w2_table_is_read_only(power_quarter):
    f = StepRearrangement(power_quarter.breaks, power_quarter.values)
    ggamma_norm(f, GammaDouble(2, 2, THM13_W1, THM13_W2), FAST)
    table = f.memo(("w2breaks", THM13_W2), lambda: None)
    with pytest.raises(ValueError):
        table[1] = -1.0


def test_ggamma_homogeneity(power_quarter):
    spec = GammaDouble(2, 2, THM13_W1, THM13_W2)
    base = ggamma_norm(power_quarter, spec, FAST)
    assert ggamma_norm(scale(power_quarter, 3.0), spec, FAST) == pytest.approx(
        3.0 * base, rel=1e-12
    )


def test_ggamma_c2_failure():
    with pytest.raises(ConditionC2Failed):
        GammaDouble(2, 2, LogWeight(-2.0, 0.0), LogWeight(0.0, -1.0))
    with pytest.raises(ConditionC2Failed):
        GammaDouble(2, 2, THM13_W1, LogWeight(-1.0, 0.0))


def test_ggamma_doubling_constant():
    assert THM13_W2.doubling_constant() == pytest.approx(1.0 + math.log(2.0))
    assert LogWeight(1.0, 0.0).doubling_constant() == pytest.approx(2.0)


@pytest.mark.parametrize(
    "a2,b2",
    [(a2, b2) for a2 in (-0.9, -0.5, 0.0, 0.5, 2.0, 8.0) for b2 in (-6.0, -1.0, 0.0, 0.5, 3.0, 10.0)]
    + [(-1.0, b2) for b2 in (-6.0, -3.0, -1.5, -1.01)],
)
def test_w2_sigma_bounds_the_inner_log_derivative(a2, b2):
    """σ(u) >= s·t w2/W2 at t = e^{1-u}, with W2 = ∫_0^t w2 from mpmath: with
    c = a2 + 1 > 0, W2 = e^c c^{-(b2+1)} Γ(b2+1, c·u); with a2 = -1,
    W2 = u^{b2+1} E_{-b2}(0).  The bound is the ratio itself where b2 = 0 or
    a2 = -1."""
    s = 1.5
    sigma = norms._w2_sigma(GammaDouble(10.0, 1.0, LogWeight(0.0, 0.0), LogWeight(a2, b2)), s)
    c = mpmath.mpf(a2) + 1
    for u in np.geomspace(1.0, 5000.0, 13).tolist():
        if c > 0:
            ratio = mpmath.exp(-c * u) * mpmath.mpf(u) ** b2 * c ** (b2 + 1) / mpmath.gammainc(b2 + 1, c * u)
        else:
            ratio = 1 / (u * mpmath.expint(-b2, 0))
        bound, want = sigma(u), s * float(ratio)
        assert bound * (1.0 + 1e-12) >= want, (u, bound, want)
        if b2 == 0.0 or a2 == -1.0:
            assert bound == pytest.approx(want, rel=1e-12), u


A2_ONE = GammaDouble(2, 2, LogWeight(-1.0, 0.0), LogWeight(-1.0, -3.0))


@pytest.mark.parametrize("name", ["const", "rand_00", "plog_g0_d-1"])
def test_ggamma_with_an_a2_minus_one_inner_weight_raises_no_warning(name):
    """σ reads only the growth exponents, so an inner weight w2 = t^{-1}·…,
    which overflows where t underflows, is never evaluated for it."""
    f = dict(standard_family().realize(FAST))[name]
    norm = ggamma_norm(f, A2_ONE, FAST)
    lhs, rhs = ggamma_lower_bound_check(f, A2_ONE, 0.5, FAST)
    assert math.isfinite(norm) and norm > 0.0
    assert math.isfinite(lhs) and lhs >= rhs > 0.0


def _log_only_ggamma(spec):
    """[∫_0^1 w1 (∫_0^t w2)^{m/p} dt]^{1/m} for a1 = a2 = -1 in closed form:
    with u = 1 - Log t, ∫_0^t w2 = u^s/(-s), s = b2 + 1, the integrand in u
    is u^E/(-s)^{m/p}, E = b1 + s·m/p."""
    e = spec.w1.b + (spec.w2.b + 1.0) * spec.m / spec.p
    return ((-spec.w2.b - 1.0) ** (-spec.m / spec.p) / (-1.0 - e)) ** (1.0 / spec.m)


@pytest.mark.parametrize(
    "spec",
    [
        A2_ONE,
        GammaDouble(2, 2, LogWeight(-1.0, -4.0), LogWeight(-1.0, -3.0)),
        GammaDouble(3, 1.5, LogWeight(-1.0, 0.5), LogWeight(-1.0, -5.0)),
        GammaDouble(1, 4, LogWeight(-1.0, -0.5), LogWeight(-1.0, -1.5)),
    ],
    ids=repr,
)
def test_ggamma_of_a_constant_with_log_only_weights_is_closed_form(spec):
    """a1 = a2 = -1: below the first break the outer integrand is a power of
    u, closed from there on, so nothing is lost where the u-tail's march
    would stop at t = 0 (u ≈ 745; A2_ONE read 0.7066329 against 1/√2 that
    way).  const and its value cuts, and the lower bound check's
    denominator, to 1e-12.  (Head cuts below 1 wait on the w2 table, which
    leaves ∫_0^{x_1} w2 out of a head's value past its cut.)"""
    f = dict(standard_family().realize(FAST))["const"]
    norm = _log_only_ggamma(spec)
    assert ggamma_norm(f, spec, FAST) == pytest.approx(norm, rel=1e-12, abs=0.0)
    for kind, cuts, scale in (("excess", [0.0, 0.25], [1.0, 0.75]), ("capped", [0.5, 2.0], [0.5, 1.0])):
        got = norms.norms_over_cuts(f, spec, np.array(cuts), kind, FAST)
        assert got == pytest.approx(norm * np.array(scale), rel=1e-12, abs=0.0)
    assert norms.norms_over_cuts(f, spec, np.ones(1), "head", FAST) == pytest.approx(norm, rel=1e-12)
    for measure in (1e-3, 0.5, 1.0):
        u, s, e = 1.0 - math.log(measure), spec.w2.b + 1.0, spec.m / spec.p
        w2_mass = u**s / -s
        denom = (w2_mass**e * u ** (spec.w1.b + 1.0) / -(spec.w1.b + s * e + 1.0)) ** (1.0 / spec.m)
        lhs, rhs = ggamma_lower_bound_check(f, spec, measure, FAST)
        assert lhs == pytest.approx(norm * w2_mass ** (1.0 / spec.p) / denom, rel=1e-12)
        assert rhs == pytest.approx(w2_mass ** (1.0 / spec.p), rel=1e-12)


def test_ggamma_quasi_triangle(rng):
    spec = GammaDouble(2, 2, THM13_W1, THM13_W2)
    k12 = spec.k12
    bound = (2.0 * k12) ** 0.5
    w = 1.0 / 16.0
    for _ in range(10):
        v1 = rng.uniform(0, 3, 16)
        v2 = rng.uniform(0, 3, 16)
        f1 = rearrange_from_samples([(v, w) for v in v1])
        f2 = rearrange_from_samples([(v, w) for v in v2])
        fsum = rearrange_from_samples([(a + b, w) for a, b in zip(v1, v2)])
        lhs = ggamma_norm(fsum, spec, FAST)
        rhs = bound * (ggamma_norm(f1, spec, FAST) + ggamma_norm(f2, spec, FAST))
        assert lhs <= rhs * (1 + 1e-10)


# ---------------------------------------------------------------------------
# shared axioms
# ---------------------------------------------------------------------------

SPACES = [
    Lebesgue(2),
    LorentzZygmund(2, 3, 0.5),
    Grand(2, 1),
    Small(2, 1),
    GammaDouble(2, 2, THM13_W1, THM13_W2),
]


@pytest.mark.parametrize("spec", SPACES, ids=lambda s: s.__class__.__name__)
def test_homogeneity_all_norms(spec, power_quarter):
    lam = 3.7
    base = space_norm(power_quarter, spec, FAST)
    scaled = space_norm(scale(power_quarter, lam), spec, FAST)
    assert scaled == pytest.approx(lam * base, rel=1e-12)


@st.composite
def _step_rearrangements(draw):
    """Up to eight panels with distinct values in [0.1, 100], a tenth apart,
    so that no truncation at one of them cancels more than three digits."""
    values = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=8, unique=True))
    widths = draw(st.lists(st.integers(1, 100), min_size=len(values), max_size=len(values)))
    breaks = np.concatenate([[0.0], np.cumsum(widths) / sum(widths)])
    return StepRearrangement(breaks, np.sort(values)[::-1] / 10.0)


@given(_step_rearrangements(), st.floats(-300.0, 300.0), st.sampled_from([1.0, 2.0, 1000.0]))
@settings(max_examples=60, deadline=None)
def test_lebesgue_and_lz_norms_scale_at_any_size(f, e, p):
    """‖λf‖ = λ‖f‖ for λ in [1e-300, 1e300]: no power overflows or
    underflows, for the norm, its truncations at cuts scaled by λ, and
    LZ(2, 64, 1)."""
    lam = 10.0**e
    g = StepRearrangement(f.breaks, lam * f.values)
    assert lebesgue_norm(g, p) == pytest.approx(lam * lebesgue_norm(f, p), rel=1e-12)
    cuts = np.unique(np.concatenate([[0.0], f.values]))
    for kind in ("excess", "capped"):
        want = lam * norms_over_cuts(f, Lebesgue(p), cuts, kind)
        assert norms_over_cuts(g, Lebesgue(p), lam * cuts, kind) == pytest.approx(want, rel=1e-12)
    want = lam * lorentz_zygmund_norm(f, 2.0, 64.0, 1.0)
    assert lorentz_zygmund_norm(g, 2.0, 64.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_lorentz_zygmund_q64_of_a_large_step():
    """LZ(2, 64, 1) of a step with top value 1e6, whose 64th power
    overflows, against mpmath panel by panel."""
    x, v = [0.0, 0.2, 0.6, 1.0], [1e6, 3e5, 2e4]
    f = StepRearrangement(np.array(x), np.array(v))
    with mpmath.workdps(30):
        total = sum(
            mpmath.mpf(c) ** 64 * mpmath.quad(lambda t: t**31 * (1 - mpmath.log(t)) ** 64, [a, b])
            for c, a, b in zip(v, x[:-1], x[1:])
        )
        want = float(total ** (mpmath.mpf(1) / 64))
    assert lorentz_zygmund_norm(f, 2.0, 64.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_lorentz_zygmund_q64_far_below_the_top():
    """LZ(8/3, 64, -3/8) of plog_g0.375_d0: f*(0+) = 3.5e5, and each panel's
    (v/f*(0+))^64 or its weight integral of t^23 (1 - Log t)^{-24} lies below
    1e-308, but the norm is about 1.  The value is the panel sum in mpmath at
    30 digits."""
    f = dict(standard_family().realize(Resolution()))["plog_g0.375_d0"]
    assert lorentz_zygmund_norm(f, 8.0 / 3.0, 64.0, -0.375) == pytest.approx(0.955324018031196, rel=1e-12)


@pytest.mark.parametrize("p, alpha", [(2.0, 2.0), (2.0, 5.0), (2.0, 20.0), (3.0, 0.25), (1.5, -1.0)])
def test_lorentz_zygmund_sup_form_against_a_dense_evaluation(p, alpha):
    """q = inf: t^{1/p}(1 - Log t)^alpha peaks at t* = e^{1 - alpha p} inside
    the panel (0.01, 0.3] for alpha = 2, inside the first panel for alpha = 5,
    and there at u = 40, below the default grid depth, for alpha = 20; it
    increases on (0, 1] for the other two.  The dense points include t* and
    the breaks."""
    x = np.array([0.0, 1e-3, 1e-2, 0.3, 0.7, 1.0])
    f = StepRearrangement(x, np.array([5.0, 3.0, 2.0, 1.0, 0.0]))
    ts = np.concatenate([np.exp(1.0 - np.linspace(1.0, 60.0, 200001)), x[1:], [math.exp(1.0 - alpha * p)]])
    dense = ts ** (1.0 / p) * (1.0 - np.log(ts)) ** alpha * evaluate_many(f, ts)
    got = lorentz_zygmund_norm(f, p, math.inf, alpha)
    assert got == pytest.approx(float(np.max(dense)), rel=1e-15)
    assert got >= np.max(dense)


@pytest.mark.parametrize("spec", SPACES, ids=lambda s: s.__class__.__name__)
def test_monotone_in_rearrangement(spec, rng):
    w = 1.0 / 24.0
    for _ in range(5):
        lo = rng.uniform(0, 2, 24)
        hi = lo + rng.uniform(0, 2, 24)
        f = rearrange_from_samples([(v, w) for v in lo])
        g = rearrange_from_samples([(v, w) for v in hi])
        assert space_norm(f, spec, FAST) <= space_norm(g, spec, FAST) * (1 + 1e-10)


# ---------------------------------------------------------------------------
# fundamental functions
# ---------------------------------------------------------------------------


def test_fundamental_lebesgue():
    exact, equiv = fundamental_function(Lebesgue(2), 0.25, FAST)
    assert exact == pytest.approx(0.5, abs=1e-14)
    assert equiv == pytest.approx(0.5, abs=1e-14)


def test_fundamental_lebesgue_toward_one():
    exact, _ = fundamental_function(Lebesgue(2), 1.0 - 1e-12, FAST)
    assert exact == pytest.approx(1.0, rel=1e-6)


def test_fundamental_grand_equivalent():
    exact, equiv = fundamental_function(Grand(2, 2), 0.25, FAST)
    assert equiv == pytest.approx(0.25**0.5 / (1.0 + math.log(4.0)), rel=1e-12)
    assert 0.0 < exact <= equiv * 4.0 and exact >= equiv / 4.0


@pytest.mark.parametrize(
    "spec", [Grand(2, 1), Small(2, 1), Grand(3, 2), Small(3, 2)],
    ids=["grand21", "small21", "grand32", "small32"],
)
def test_fundamental_bracket_stable(spec):
    """Exact/equivalent ratio sits in a bracket stable under grid refinement."""

    def bracket(n):
        ratios = []
        for t in np.exp(np.linspace(math.log(1e-10), math.log(0.9), n)):
            exact, equiv = fundamental_function(spec, float(t), FAST)
            ratios.append(exact / equiv)
        return min(ratios), max(ratios)

    lo1, hi1 = bracket(24)
    lo2, hi2 = bracket(48)
    assert 0.0 < lo1 <= hi1 < math.inf
    assert abs(hi2 - hi1) / hi1 < 0.05
    assert abs(lo2 - lo1) / lo1 < 0.05


# ---------------------------------------------------------------------------
# the explicit-constant lower bound
# ---------------------------------------------------------------------------


def test_lower_bound_equality_for_constant(one):
    spec = GammaDouble(2, 2, THM13_W1, THM13_W2)
    lhs, rhs = ggamma_lower_bound_check(one, spec, 1.0, FAST)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_lower_bound_indicator(chi_half):
    spec = GammaDouble(2, 2, THM13_W1, THM13_W2)
    lhs, rhs = ggamma_lower_bound_check(chi_half, spec, 0.5, FAST)
    assert lhs >= rhs * (1 - 1e-8)


# ---------------------------------------------------------------------------
# GammaDouble with m = inf, against a dense oracle that reaches below x_1
# ---------------------------------------------------------------------------

# w2 = (1 - Log t)^{-1}: ∫_0^t w2 = e E1(1 - Log t)
SUP_STEPS = StepRearrangement(np.array([0.0, 0.1, 0.4, 1.0]), np.array([3.0, 2.0, 0.5]))


def _w2_prefix(t):
    return math.e * sp.exp1(1.0 - np.log(t))


def _dense_sup(obj_u, breaks, top=1.0):
    """max of obj over u = 1 - Log t in [1 - Log top, 80] (t down to e^{-79},
    far below the first break): a 400,001-node grid, a bounded search around
    its best node, and the breaks up to top."""
    u = np.linspace(1.0 - math.log(top), 80.0, 400_001)
    y = obj_u(u)
    k = int(np.argmax(y))
    best = so.minimize_scalar(
        lambda x: -obj_u(np.array([x]))[0],
        bounds=(u[max(k - 1, 0)], u[min(k + 1, u.size - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return max(y[k], -best.fun, *obj_u(1.0 - np.log(breaks[1:][breaks[1:] <= top])))


def _sup_oracle(f, w1, top=1.0):
    """sup_{t <= top} w1(t) (∫_0^t f^2 w2)^{1/2} for a step function f."""
    lo, hi = f.breaks[:-1], f.breaks[1:]
    below = np.concatenate([[0.0], _w2_prefix(lo[1:])])

    def obj_u(u):
        t = np.exp(1.0 - u)[:, None]
        pieces = np.where(t > lo, _w2_prefix(np.minimum(t, hi)) - below, 0.0)
        inner = np.sum(f.values**2 * pieces, axis=1)
        return np.exp((1.0 - u) * w1.a) * u**w1.b * np.sqrt(inner)

    return _dense_sup(obj_u, f.breaks, top)


@pytest.mark.parametrize(
    "w1", [LogWeight(-0.45, 2.0), LogWeight(-0.25, 1.0), LogWeight(-0.5, 0.0), LogWeight(-0.48, 2.0)]
)
def test_ggamma_sup_form_against_dense_oracle(w1):
    """m = inf: the sup of w1 (∫_0^t f^2 w2)^{1/2}.  For w1 = t^{-0.45}(1 - Log t)^2
    it lies at u ≈ 30, inside the first panel; for t^{-0.48}(1 - Log t)^2 at
    u ≈ 75, far below the grid (it read 310.42 for 440.68); for the other two
    at the first break."""
    spec = GammaDouble(2.0, math.inf, w1, THM13_W2)
    want = _sup_oracle(SUP_STEPS, w1)
    assert ggamma_norm(SUP_STEPS, spec, FAST) == pytest.approx(want, rel=1e-12)
    assert ggamma_norm(SUP_STEPS, spec) == pytest.approx(want, rel=1e-12)


def test_ggamma_sup_form_below_the_grid_with_a_log_inner_weight():
    """w2 = t^{-1}(1 - Log t)^{-3}: ∫_0^t w2 = u^{-2}/2 with u = 1 - Log t, so on the
    first panel w1 = t^{0.05}(1 - Log t)^3 gives 3 e^{0.05(1-u)} u^2 / sqrt 2, whose
    maximum at u = 40 lies below the grid."""
    spec = GammaDouble(2.0, math.inf, LogWeight(0.05, 3.0), LogWeight(-1.0, -3.0))
    want = 3.0 / math.sqrt(2.0) * math.exp(0.05 * (1.0 - 40.0)) * 40.0**2
    assert ggamma_norm(SUP_STEPS, spec, FAST) == pytest.approx(want, rel=1e-12)
    assert ggamma_norm(SUP_STEPS, spec) == pytest.approx(want, rel=1e-12)


def test_ggamma_sup_form_weight_conditions():
    """m = inf takes t^a1 (1 - Log t)^b1 ∫_0^t w2 ~ t^{a1 + 1/2} (1 - Log t)^{b1 - 1/2}
    bounded at 0: a1 + 1/2 > 0, or = 0 with b1 - 1/2 <= 0."""
    GammaDouble(2.0, math.inf, LogWeight(-0.5, 0.5), THM13_W2)
    with pytest.raises(ConditionC2Failed):
        GammaDouble(2.0, math.inf, LogWeight(-0.5, 0.6), THM13_W2)
    with pytest.raises(ConditionC2Failed):
        GammaDouble(2.0, math.inf, LogWeight(-0.6, -3.0), THM13_W2)


@pytest.mark.parametrize("w1", [LogWeight(-0.45, 2.0), LogWeight(-0.25, 1.0)])
def test_lower_bound_sup_form_against_dense_oracle(w1):
    """m = inf: the denominator is the sup over (0, measure] for the unit
    function.  With t^{-0.25}(1 - Log t), whose sup for the unit function lies
    above the measure, a sup over all of (0, 1] gave lhs < rhs."""
    spec = GammaDouble(2.0, math.inf, w1, THM13_W2)
    unit = StepRearrangement(np.array([0.0, 1.0]), np.array([1.0]))
    measure = 0.05
    lhs, rhs = ggamma_lower_bound_check(SUP_STEPS, spec, measure, FAST)
    denom = _sup_oracle(unit, w1, measure)
    want_lhs = _sup_oracle(SUP_STEPS, w1) * math.sqrt(_w2_prefix(measure)) / denom
    assert lhs == pytest.approx(want_lhs, rel=1e-12)
    assert rhs == pytest.approx(3.0 * math.sqrt(_w2_prefix(measure)), rel=1e-12)
    assert lhs >= rhs * (1 - 1e-12)


def test_lower_bound_zero():
    spec = GammaDouble(2, 2, THM13_W1, THM13_W2)
    lhs, rhs = ggamma_lower_bound_check(zero_fn(), spec, 0.7, FAST)
    assert lhs == 0.0 and rhs == 0.0


@given(st.floats(0.05, 1.0), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_lower_bound_random(measure, seed):
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.uniform(0, 4, 12))[::-1]
    f = rearrange_from_samples([(float(v), 1.0 / 12.0) for v in vals])
    spec = GammaDouble(2, 2, THM13_W1, THM13_W2)
    lhs, rhs = ggamma_lower_bound_check(f, spec, measure, FAST)
    assert lhs >= rhs * (1 - 1e-8)


def _tail_log_integral_mp(f, p, s, d):
    """∫_0^1 (1-Log t)^d (∫_t^1 f^p)^s dt/t by mpmath in u = 1 - Log t.

    Panel by panel: tanh-sinh on the last positive panel, whose tail has the
    root (x_m - t)^s, Gauss-Legendre on the others.  Below the first break x_1
    the tail is total - v_1^p t: its constant part integrates in closed form
    and tanh-sinh takes the rest, root included when that panel is the only
    positive one.
    """
    mp = mpmath.mp
    x = [mp.mpf(float(b)) for b in f.breaks]
    vp = [mp.mpf(float(v)) ** p for v in f.values]
    tails = [mp.mpf(0)] * len(x)
    for i in range(len(vp) - 1, -1, -1):
        tails[i] = tails[i + 1] + vp[i] * (x[i + 1] - x[i])

    def fu(u):
        t = mp.e ** (1 - u)
        i = max(bisect.bisect_left(x, t), 1)
        tail = tails[i] + vp[i - 1] * (x[i] - t)
        return u**d * tail**s if tail > 0 else mp.mpf(0)

    us = [1 - mp.log(b) for b in x[1:]][::-1]
    m = sum(1 for v in f.values if v > 0)
    u_root = 1 - mp.log(x[m])
    smooth = [u for u in us if u > u_root]
    top, total, v1p = us[-1], tails[0], vp[0]

    def near(u):
        return u**d * (max(total - v1p * mp.e ** (1 - u), 0) ** s - total**s)

    far = total**s * top ** (d + 1) / (-d - 1) + mp.quad(near, [top, top + 10, mp.inf])
    if not smooth:  # the only positive panel is the first, all of it past top
        return far
    return (
        mp.quad(fu, [u_root, smooth[0]])
        + mp.quad(fu, smooth, method="gauss-legendre", maxdegree=8)
        + far
    )


@pytest.mark.parametrize("p,s,d", [(2.0, 0.5, -1.25), (4.0, 0.25, -1.5)])
def test_tail_log_integral_root_at_support_end(p, s, d):
    """For s < 1 the integrand vanishes like (x_m - t)^s at the end x_m of the
    last positive panel (x_m = 1 for const); these raised NoConvergence or an
    exploding panel count before that panel was integrated in y = (x_m - t)^s.
    The benchmark's four members, and two functions whose only positive panel
    is the first, below the smallest break."""
    realized = dict(standard_family(q=4.0, seed=20240801).realize(Resolution()))
    realized["one panel"] = StepRearrangement(np.array([0.0, 1.0]), np.array([2.0]))
    realized["one of two"] = StepRearrangement(np.array([0.0, 0.3, 1.0]), np.array([2.0, 0.0]))
    with mpmath.workdps(15):
        for name in ("const", "char_0.125", "plog_g0_d-1", "rand_00", "one panel", "one of two"):
            f = realized[name]
            want = float(_tail_log_integral_mp(f, p, s, d))
            got = tail_log_integral(f, p, s, LogWeight(-1.0, d))
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), name


def test_tail_log_integral_keeps_small_tails():
    """∫ f^4 of plog_g0.25_d-1 is about 1.05e7, almost all of it near 0, while
    its tail at t = 0.94 is 0.068: a tail taken as the total minus a prefix
    keeps about eight digits there, too few for rel_tol 1e-10."""
    f = dict(standard_family(q=2.0).realize(Resolution()))["plog_g0.25_d-1"]
    with mpmath.workdps(20):
        want = float(_tail_log_integral_mp(f, 4.0, 0.25, -1.5))
    got = tail_log_integral(f, 4.0, 0.25, LogWeight(-1.0, -1.5))
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def _log_integral_mp(f, p, s, w, tail):
    """∫_0^1 w(t) (∫_t^1 f^p)^s dt (tail) or ∫_0^1 w(t) (∫_0^t f^p)^s dt by
    mpmath in u = 1 - Log t, for any step function: tanh-sinh between
    consecutive breaks, where a root of the tail at the end of the support
    sits at an end.  Past the smallest break, a tail under a = -1 decays only
    like u^b, so its constant part total^s is integrated in closed form."""
    mp = mpmath.mp
    a, b = mp.mpf(w.a), mp.mpf(w.b)
    x = [mp.mpf(float(v)) for v in f.breaks]
    vp = [mp.mpf(float(v)) ** p for v in f.values]
    pref = [mp.mpf(0)]
    for i, v in enumerate(vp):
        pref.append(pref[-1] + v * (x[i + 1] - x[i]))
    total = pref[-1]

    def inner(t):
        i = max(bisect.bisect_left(x, t), 1)
        prefix = pref[i - 1] + vp[i - 1] * (t - x[i - 1])
        return max(total - prefix, 0) if tail else prefix

    def fu(u):
        return mp.e ** ((1 - u) * (a + 1)) * u**b * inner(mp.e ** (1 - u)) ** s

    us = [1 - mp.log(t) for t in reversed(x[1:])]
    top = us[-1]
    body = mp.quad(fu, us)
    if not (tail and w.a == -1.0):
        return body + mp.quad(fu, [top, top + 10, mp.inf])

    def near(u):
        return u**b * ((total - vp[0] * mp.e ** (1 - u)) ** s - total**s)

    return body + total**s * top ** (b + 1) / (-b - 1) + mp.quad(near, [top, top + 10, mp.inf])


@pytest.mark.parametrize("a,b", [(-0.5, 1.5), (0.7, -2.0), (2.0, 0.5)])
@pytest.mark.parametrize("s", [0.5, 2.0])
def test_prefix_and_tail_log_integrals_take_any_weight(a, b, s):
    """The weights t^a (1-Log t)^b dt with a != -1 of the Hardy displays
    (thm2.1), on a function whose support ends at 1 and one with a zero tail."""
    w = LogWeight(a, b)
    fs = [
        StepRearrangement(np.array([0.0, 0.1, 0.45, 1.0]), np.array([3.0, 1.5, 0.5])),
        StepRearrangement(np.array([0.0, 0.2, 0.7, 1.0]), np.array([2.0, 1.0, 0.0])),
    ]
    with mpmath.workdps(20):
        for f in fs:
            want = float(_log_integral_mp(f, 2.0, s, w, tail=False))
            assert prefix_log_integral(f, 2.0, s, w, 1.0) == pytest.approx(want, rel=1e-10)
            want = float(_log_integral_mp(f, 2.0, s, w, tail=True))
            assert tail_log_integral(f, 2.0, s, w) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "values,tail,s,b",
    [
        pytest.param(v, tail, s, b, id=f"{tail}-{s}-{b}" + ("" if v[0] else f"-zero-head-{v[1]}"))
        for v in ((1.0, 0.0, 2.0), (0.0, 1.0, 2.0), (0.0, 0.0, 2.0))
        for tail, s, b in (
            (False, 1.5, -0.5),
            (False, 2.0, -1.0),
            (True, 0.5, -1.5),
            (False, 1 / 3, -1 / 3),
            (False, 0.5, -1 / 3),
        )
    ],
)
def test_log_integrals_of_a_step_function_that_is_not_monotone(values, tail, s, b):
    """The discretization check feeds unsorted steps to these integrals: the
    prefix stays constant only past the last positive value, and the tail's
    root sits at the end of the last positive panel, not after #{v > 0}
    panels.  With a zero head the prefix starts from 0 at the first positive
    panel, a root (t - rho)^s that raised NoConvergence for s < 1."""
    h = StepFunction(np.array([0.0, 0.3, 0.6, 1.0]), np.array(values))
    w = LogWeight(-1.0, b)
    with mpmath.workdps(20):
        want = float(_log_integral_mp(h, 1.0, s, w, tail))
    if tail:
        got = tail_log_integral(h, 1.0, s, w)
    else:
        got = prefix_log_integral(h, 1.0, s, w, 1.0)
    assert got == pytest.approx(want, rel=1e-10)
