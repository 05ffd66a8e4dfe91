"""Log integrals of powers of piecewise-linear prefix and tail integrals on
the panels that are hard for a fixed rule: a root of the power at a panel
end, a panel that ends just past such a root, and a panel of a step function
that is not monotone.  Each value is checked against mpmath, and the count of
Gauss-Legendre nodes is bounded, so that such a panel cannot quietly cost
thousands of panels."""

import mpmath
import numpy as np
import pytest

from rispaces import logcalc
from rispaces.config import DEFAULT
from rispaces.equivharness import standard_family
from rispaces.logcalc import LogWeight
from rispaces.norms import Small, norms_over_cuts, prefix_log_integral, tail_log_integral
from rispaces.rearrangement import StepFunction, StepRearrangement

REL = 1e-12
S_VALUES = [1 / 3, 0.5, 1.5, 2.5]


def _node_bound(stretches: int, integrals: int) -> int:
    """κ passes give a panel far from a root of the power one 15-node panel,
    and one that ends near a root about 2s + 1 panels per halving of its
    distance to the root, some 40 halvings here: two panels per stretch and
    600 more per integral bound both, far below the 10^5 panels that an
    unresolved root would cost."""
    return 15 * (2 * stretches + 600 * integrals)


def _mp_linear(w, s, lo, hi, at_lo, at_hi):
    """∫_lo^hi w(t) L(t)^s dt for L linear from at_lo to at_hi, by tanh-sinh
    on pieces that halve the distance to L's root, when it lies within the
    panel's width of the end where L is smaller."""
    mp = mpmath.mp
    a, b = mp.mpf(w.a), mp.mpf(w.b)
    width = hi - lo
    slope = (at_hi - at_lo) / width

    def f(t):
        big_l = at_lo + slope * (t - lo)
        return t**a * (1 - mp.log(t)) ** b * big_l**s if big_l > 0 else mp.mpf(0)

    points = [lo, hi]
    if slope != 0:
        near, sign, d = (lo, 1, at_lo / slope) if slope > 0 else (hi, -1, at_hi / -slope)
        d = max(d, width * mp.mpf(2) ** -80)
        while d < width:
            points.append(near + sign * d)
            d *= 2
    return mp.quad(f, sorted(points))


def _mp_prefix(f, p, s, w):
    """∫_0^1 w(t) (∫_0^t f^p)^s dt: the first panel in u, where the prefix is
    v_1^p t, and every later one by _mp_linear."""
    mp = mpmath.mp
    x = [mp.mpf(float(v)) for v in f.breaks]
    vp = [mp.mpf(float(v)) ** p for v in f.values]
    pref = [mp.mpf(0)]
    for i, v in enumerate(vp):
        pref.append(pref[-1] + v * (x[i + 1] - x[i]))
    a, b, u1 = mp.mpf(w.a), mp.mpf(w.b), 1 - mp.log(x[1])
    head = mp.quad(lambda u: mp.e ** ((1 - u) * (a + 1 + s)) * u**b, [u1, u1 + 10, mp.inf])
    total = vp[0] ** s * head
    for i in range(1, len(vp)):
        if pref[i + 1] > 0:
            total += _mp_linear(w, s, x[i], x[i + 1], pref[i], pref[i + 1])
    return total


def _mp_tail(f, p, s, w):
    """∫_0^1 w(t) (∫_t^1 f^p)^s dt with w = (1 - Log t)^b dt/t, b < -1: below
    the first break the tail is total - v_1^p t, whose constant part
    integrates in closed form; every later panel by _mp_linear."""
    mp = mpmath.mp
    x = [mp.mpf(float(v)) for v in f.breaks]
    vp = [mp.mpf(float(v)) ** p for v in f.values]
    suf = [mp.mpf(0)]
    for i in range(len(vp) - 1, -1, -1):
        suf.insert(0, suf[0] + vp[i] * (x[i + 1] - x[i]))
    b, u1, total = mp.mpf(w.b), 1 - mp.log(x[1]), suf[0]

    def near(u):
        return u**b * ((total - vp[0] * mp.e ** (1 - u)) ** s - total**s)

    out = total**s * u1 ** (b + 1) / (-b - 1) + mp.quad(near, [u1, u1 + 10, mp.inf])
    for i in range(1, len(vp)):
        if suf[i] > 0:
            out += _mp_linear(w, s, x[i], x[i + 1], suf[i], suf[i + 1])
    return out


def _truncation(f, c, kind):
    """The cut's truncation as a step function: (f - c)_+, min(f, c), or
    f·χ_(c,1] with c made a break."""
    if kind == "excess":
        return StepFunction(f.breaks, np.maximum(f.values - c, 0.0))
    if kind == "capped":
        return StepFunction(f.breaks, np.minimum(f.values, c))
    k = int(np.searchsorted(f.breaks, c, side="right"))
    breaks = np.insert(f.breaks, k, c)
    values = np.insert(f.values, k - 1, f.values[k - 1])
    values[:k] = 0.0
    return StepFunction(breaks, values)


def _members():
    x = np.array([0.0, 0.3, 0.6, 0.6 + 1e-6, 1.0])
    return {
        # the tail is v^p (x_m - t) on a last positive panel 1e-6 wide, and its
        # panel before ends 1e-6 from that root
        "narrow end": StepRearrangement(x, np.array([2.0, 1.0, 3e-3, 0.0])),
        # unsorted, with a zero head: the prefix has a root at 0.2, and the
        # small second value leaves the third panel just past a root
        "zero head": StepFunction(
            np.array([0.0, 0.2, 0.5, 0.7, 1.0]), np.array([0.0, 1e-4, 2.0, 1.0])
        ),
        "rand_00": dict(standard_family().realize(DEFAULT))["rand_00"],
    }


MEMBERS = _members()


@pytest.fixture
def nodes(monkeypatch):
    """The count of Gauss-Legendre nodes that κ passes lay out while the
    test runs."""
    count = [0]
    kappa_panels = logcalc._kappa_panels

    def counted(*args, **kwargs):
        x, half, ids = kappa_panels(*args, **kwargs)
        count[0] += x.size
        return x, half, ids

    monkeypatch.setattr(logcalc, "_kappa_panels", counted)
    return count


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("name", list(MEMBERS))
def test_prefix_and_tail_powers_on_hard_panels(nodes, name, s):
    f = MEMBERS[name]
    w_prefix, w_tail = LogWeight(-0.5, 0.75), LogWeight(-1.0, -1.5)
    with mpmath.workdps(25):
        want_prefix = float(_mp_prefix(f, 2.0, s, w_prefix))
        want_tail = float(_mp_tail(f, 2.0, s, w_tail))
    assert prefix_log_integral(f, 2.0, s, w_prefix, 1.0) == pytest.approx(want_prefix, rel=REL)
    assert tail_log_integral(f, 2.0, s, w_tail) == pytest.approx(want_tail, rel=REL)
    assert nodes[0] <= _node_bound(2 * f.n, 2)


def _cuts(f, kind):
    """Cuts of each kind; tail cuts 1e-9 above and below a break, relative
    to the break, next to plain ones."""
    if kind != "tail":
        return np.unique(np.quantile(f.values, [0.0, 0.3, 0.7]))
    x = f.breaks[f.n // 2]
    return np.array([x * (1.0 + 1e-9), x * (1.0 - 1e-9), 0.5 * f.breaks[1], 0.45])


@pytest.mark.parametrize("p", [3.0, 2.0])  # s = 1/p is 1/3 and 0.5
@pytest.mark.parametrize("kind", ["excess", "capped", "tail"])
@pytest.mark.parametrize("name", ["narrow end", "rand_00"])
def test_small_norms_of_truncations_on_hard_panels(nodes, name, kind, p):
    f = MEMBERS[name]
    spec = Small(p, 1.0)
    w = LogWeight(-1.0, spec.alpha - spec.alpha / p - 1.0)
    cuts = _cuts(f, kind)
    got = norms_over_cuts(f, spec, cuts, kind)
    with mpmath.workdps(25):
        want = [float(_mp_prefix(_truncation(f, c, kind), p, 1.0 / p, w)) for c in cuts]
    assert got == pytest.approx(want, rel=REL)
    assert nodes[0] <= _node_bound(f.n * cuts.size, cuts.size)
