"""Literal explicit-K values at the default Resolution, and the array form
against elementwise scalar calls.

Each couple's displayed equivalent is pinned on four members of the standard
family (seed 20240801) at t values that reach both ends of the K-curve grid,
the GrandSmallSameP split point underflowing to 0 (t <= 1e-3) or to a
subnormal (t = 1.35e-3), and t near 1.  At t = 1 the Grand-Lq and Grand-Grand split point is exactly
1, so K is the member's Grand(2, 1) norm; that and the Grand tail windows are
checked against an mpmath per-panel maximum.
"""

import math

import mpmath
import numpy as np
import pytest

from rispaces.config import Resolution
from rispaces.equivharness import standard_family
from rispaces.kfunctional import (
    General,
    GrandGrand,
    GrandLq,
    GrandSmallSameP,
    LpLq,
    SmallSmall,
    k_explicit,
    split_point,
)
from rispaces.norms import Grand, Lebesgue, norms_over_cuts
from rispaces.rearrangement import discretize_model

RES = Resolution()
COUPLES = {
    "lp-lq": (LpLq(2, 4), 4.0),
    "grand-lq": (GrandLq(2, 4, 1.0), 4.0),
    "grand-grand": (GrandGrand(2, 4, 1.0), 4.0),
    "small-small": (SmallSmall(2, 4), 4.0),
    "grand-small": (GrandSmallSameP(2), 2.0),
}
TS = (math.exp(-34.0), 1e-9, 1e-3, 1.35e-3, 0.02, 0.2, 0.6, 0.999, 1.0)

PINNED = {
    "lp-lq": {
        "const": (
            1.713908431542016e-15, 1.000000001e-09, 0.00100099999999975,
            0.0013518224999988792, 0.020399999199999953, 0.23991995195515067,
            0.9395367366639403, 1.2491419958733967, 1.0,
        ),
        "char_0.125": (
            1.019096050626461e-15, 5.946035585013606e-10, 0.0005956035575001713,
            0.0008045373026215043, 0.012292067344562615, 0.15853832484137878,
            0.3535533905932738, 0.3535533905932738, 0.3535533905932738,
        ),
        "plog_g0_d-1": (
            4.866662195626469e-15, 2.83951123998103e-09, 0.002869157070359718,
            0.0038851855828404953, 0.06385729633798769, 0.8872090596186424,
            2.6230069467853543, 2.493572004270736, 2.2362480895615273,
        ),
        "rand_00": (
            3.333363722899554e-15, 1.9448902092136463e-09, 0.0019478630796852022,
            0.002631019840270451, 0.040086945009682226, 0.5070407862963662,
            1.9284086458439136, 1.6332284749328816, 1.589117951178886,
        ),
    },
    "grand-lq": {
        "const": (
            1.7139084315420453e-15, 1.0000000083798358e-09, 0.001004337619354353,
            0.0013576837564880655, 0.02119253871244288, 0.2635811893022194,
            0.8387052591860213, 0.7541365045323585, 0.5637769354091853,
        ),
        "char_0.125": (
            1.0190960506264903e-15, 5.946035658811963e-10, 0.0005989411763839586,
            0.0008103985572020519, 0.013084196672332314, 0.17571977889358062,
            0.14623842051566, 0.14623842051566002, 0.14623842051566002,
        ),
        "plog_g0_d-1": (
            4.8666621956275015e-15, 2.839511498484724e-09, 0.0029406026845364623,
            0.0040039393193159216, 0.07165621162073042, 0.8076273880524403,
            1.5529914903697843, 1.161641678930834, 0.9655110338143247,
        ),
        "rand_00": (
            3.3333637228996416e-15, 1.944890231152964e-09, 0.0019577853986829344,
            0.0026484446101699057, 0.0424422300363389, 0.5647184115113654,
            1.1314195795257078, 0.7568591916505977, 0.7233054653862862,
        ),
    },
    "grand-grand": {
        "const": (
            1.2868895301305496e-15, 7.508508086577482e-10, 0.0007517741155254888,
            0.0010153266424207936, 0.015370944389695666, 0.18220789809773474,
            0.6961094493693655, 0.774107568782074, 0.5637769354091853,
        ),
        "char_0.125": (
            6.5541799205514435e-16, 3.824113246957802e-10, 0.0003833346315635209,
            0.0005179333390721371, 0.008002154710456308, 0.10852000130534113,
            0.14623842051566002, 0.14623842051566002, 0.14623842051566002,
        ),
        "plog_g0_d-1": (
            2.8607885315364655e-15, 1.6691604198167593e-09, 0.0016934420323662547,
            0.00229555551137758, 0.03864666376365919, 0.5407245857414207,
            1.4545279569947809, 1.182363663520416, 0.9655110338143247,
        ),
        "rand_00": (
            2.1887067519877873e-15, 1.2770266582724776e-09, 0.0012797715327430936,
            0.001728974621134345, 0.026592716962576996, 0.3506494674021863,
            1.0541318279495226, 0.76041469422112, 0.7233054653862862,
        ),
    },
    "small-small": {
        "const": (
            1.2868895301305466e-15, 7.50850807695345e-10, 0.0007508633019028058,
            0.0010136721533702488, 0.01502462550753374, 0.15151600474564406,
            0.47137189393899925, 0.8468651039661738, 0.8479552007746294,
        ),
        "char_0.125": (
            6.554179920551415e-16, 3.8241132373337714e-10, 0.000382423817940838,
            0.0005162788500215921, 0.007655835828294382, 0.07782810795325046,
            0.25030820356181854, 0.4787940594881679, 0.4795157168126614,
        ),
        "plog_g0_d-1": (
            2.8607880590393552e-15, 1.6691603861053375e-09, 0.001669598313643928,
            0.002254192266501527, 0.03359450964130851, 0.3569287445206903,
            1.2429194118783542, 2.4918074126213177, 2.495700042647747,
        ),
        "rand_00": (
            2.1887067519877786e-15, 1.277026655411375e-09, 0.0012770637991089777,
            0.0017240560345674896, 0.02556315475357419, 0.25940635261503936,
            0.8282343230883177, 1.5634201651088202, 1.5657057271919206,
        ),
    },
    "grand-small": {
        "const": (
            2.2475493922823747e-15, 1.3113590848375968e-09, 0.0013113590848375966,
            0.0017703347645307557, 0.026227181699636764, 0.27422410221909793,
            0.5106914005001738, 0.5633845672164923, 0.5637769354091853,
        ),
        "char_0.125": (
            1.4764001924076379e-15, 8.614230289300301e-10, 0.00086142302893003,
            0.0011629210890555404, 0.017228460581485423, 0.18082993096941236,
            0.14623842051566002, 0.14623842051566002, 0.14623842051566002,
        ),
        "plog_g0_d-1": (
            8.27949117893184e-15, 4.8307663505002635e-09, 0.004830766350500264,
            0.006521534573175356, 0.096615327111056, 0.9462330458153798,
            1.073104344694949, 0.9653840026428882, 0.9655110338143247,
        ),
        "rand_00": (
            5.275162163394104e-15, 3.077855307968823e-09, 0.0030778553079688223,
            0.00415510466575818, 0.06155710616795667, 0.6469869362496461,
            0.80243572044335, 0.7233035861716127, 0.7233054653862862,
        ),
    },
}



def member(q, name):
    model = dict(standard_family(q=q, seed=20240801).members)[name]
    return discretize_model(model, RES.u_max, RES.panels)


@pytest.mark.parametrize("label", sorted(COUPLES))
def test_k_explicit_pinned(label):
    couple, q = COUPLES[label]
    for name, expected in PINNED[label].items():
        f = member(q, name)
        got = [k_explicit(f, couple, t, RES) for t in TS]
        assert got == pytest.approx(list(expected), rel=1e-11, abs=0.0), name


def test_array_t_matches_scalar_calls():
    # unsorted, with repeats, and with several t sharing the split point 0
    ts = np.array([0.6, 1e-9, 0.02, 1.0, 1e-3, 0.6, 1e-9, 2e-4, 0.999, 0.02, 1.35e-3, 1e-3])
    couples = [(couple, q) for couple, q in COUPLES.values()]
    couples.append((General(Grand(2, 1.0), Lebesgue(4)), 4.0))
    for couple, q in couples:
        for name in ("plog_g0_d-1", "rand_00"):
            f = member(q, name)
            ts_c = ts[ts < 1.0] if isinstance(couple, General) else ts
            got = k_explicit(f, couple, ts_c, RES)
            want = [k_explicit(f, couple, float(t), RES) for t in ts_c]
            assert isinstance(got, np.ndarray) and got.shape == ts_c.shape
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (couple, name)


def grand_window_sup(f, p, alpha, c):
    """sup over s in [c, 1] of (1 - Log s)^{-alpha/p} (∫_s^1 f^p)^{1/p} in mpmath,
    panel by panel.  On a panel the log-derivative has the sign of
    alpha·T(s) - v^p·s(1 - Log s), T the tail, which decreases in s: the panel's
    maximum is at an end or at that expression's root, bisected in Log s."""
    one = mpmath.mpf(1)
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(b)) for b in f.breaks]
        vp = [mpmath.mpf(float(v)) ** p for v in f.values]
        suf = [mpmath.mpf(0)] * (len(vp) + 1)
        for i in reversed(range(len(vp))):
            suf[i] = suf[i + 1] + vp[i] * (x[i + 1] - x[i])
        best = mpmath.mpf(0)
        for i in range(len(vp)):
            lo, hi = max(x[i], mpmath.mpf(float(c)), mpmath.mpf(10) ** -300), x[i + 1]
            if hi < lo:
                continue

            def tail(s, i=i):
                return suf[i + 1] + vp[i] * (x[i + 1] - s)

            def slope(s, i=i):
                return alpha * tail(s) - vp[i] * s * (1 - mpmath.log(s))

            points = [lo, hi]
            if slope(lo) > 0 > slope(hi):
                a, b = mpmath.log(lo), mpmath.log(hi)
                for _ in range(120):
                    m = (a + b) / 2
                    a, b = (m, b) if slope(mpmath.exp(m)) > 0 else (a, m)
                points.append(mpmath.exp(a))
            for s in points:
                best = max(best, (1 - mpmath.log(s)) ** (-alpha / p) * tail(s) ** (one / p))
        return float(best)


@pytest.mark.parametrize("name", ["plog_g0.499_d-1", "plog_g0.499_d0"])
def test_grand_tail_windows_against_mpmath(name):
    """Tail windows take ∫_s^1 f^p from the suffix sums: at the GrandGrand(2, 4, 1)
    split points of t = 0.2, 0.5, 0.8 the Grand(4, 1) tail of these members is
    not lost to P(1) - P(s) cancellation (it read 0.0 for the first)."""
    f = member(2.0, name)
    phi = split_point(GrandGrand(2, 4, 1.0), np.array([0.2, 0.5, 0.8]))
    got = norms_over_cuts(f, Grand(4, 1.0), phi, "tail", RES)
    want = [grand_window_sup(f, 4, 1, c) for c in phi]
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["const", "plog_g0_d-1", "rand_00"])
def test_k_at_one_is_the_grand_norm(name):
    """The ratio map's end t0 = 1 is the split point at t = 1 exactly, so K(f, 1)
    of Grand-Lq and Grand-Grand is the Grand(2, 1) norm of f."""
    f = member(4.0, name)
    want = grand_window_sup(f, 2, 1, 0.0)
    for couple in (GrandLq(2, 4, 1.0), GrandGrand(2, 4, 1.0)):
        assert split_point(couple, 1.0) == 1.0
        assert k_explicit(f, couple, 1.0, RES) == pytest.approx(want, rel=1e-12, abs=0.0)
