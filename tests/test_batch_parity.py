"""Scalar norms and quadratures against their batched counterparts.

The scalar entry points are the one-column case of the batched code, so the
two must agree to rounding on the benchmark's four standard members at the
default resolution.
"""

import math

import numpy as np
import pytest

from rispaces.config import DEFAULT
from rispaces.equivharness import standard_family
from rispaces.kfunctional import General, LpLq, k_explicit, k_oracle
from rispaces.logcalc import LogWeight, log_quad, log_quad_multi, weight_integral
from rispaces.norms import (
    GammaDouble,
    Grand,
    Lebesgue,
    LorentzZygmund,
    Small,
    ggamma_norm,
    grand_norm,
    lebesgue_norm,
    norms_over_cuts,
    prefix_log_integral,
    small_norm,
    space_norm,
)
from rispaces.rearrangement import prefix_power_at, tail_power_at
from truncations import capped_part, excess_part

MEMBERS = ("const", "char_0.125", "plog_g0_d-1", "rand_00")
REL = 1e-13


@pytest.fixture(scope="module")
def members():
    realized = dict(standard_family().realize(DEFAULT))
    return [(name, realized[name]) for name in MEMBERS]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * abs(b)


SCALAR = [
    (Lebesgue(2.0), lambda f: lebesgue_norm(f, 2.0)),
    (Lebesgue(4.0), lambda f: lebesgue_norm(f, 4.0)),
    (Grand(2.0, 1.0), lambda f: grand_norm(f, 2.0, 1.0, DEFAULT)),
    (Grand(4.0, 0.5), lambda f: grand_norm(f, 4.0, 0.5, DEFAULT)),
    (Small(2.0, 1.0), lambda f: small_norm(f, 2.0, 1.0)),
    (Small(4.0 / 3.0, 2.0), lambda f: small_norm(f, 4.0 / 3.0, 2.0)),
]


@pytest.mark.parametrize("spec,scalar", SCALAR, ids=[repr(s) for s, _ in SCALAR])
@pytest.mark.parametrize("kind", ["excess", "capped"])
def test_scalar_norm_is_one_cut_of_the_batch(members, spec, scalar, kind):
    """Cut 0 leaves f in the excess and zero in the cap; the top value leaves
    zero in the excess and f in the cap.  Lebesgue norms are exact panel sums,
    the same bits either way."""
    make = excess_part if kind == "excess" else capped_part
    for name, f in members:
        cuts = np.array([0.0, float(f.values[0])])
        batched = norms_over_cuts(f, spec, cuts, kind, DEFAULT)
        for c, got in zip(cuts, batched):
            want = scalar(make(f, float(c)))
            same = float(got) == want if isinstance(spec, Lebesgue) else _close(float(got), want)
            assert same, (name, kind, c, got, want)


def test_log_quad_is_one_column_of_log_quad_multi(members):
    w = LogWeight(-1.0, -0.5)
    for name, f in members:
        x1 = float(f.breaks[1])

        def g(t):
            return prefix_power_at(f, 2.0, np.asarray(t, dtype=float)) ** 0.5

        def g_multi(t):
            return g(t)[:, None]

        for lo, hi in ((x1, 1.0), (1e-9, 0.3)):
            one = log_quad(g, w, lo, hi, f.breaks[1:-1])
            multi = log_quad_multi(g_multi, w, lo, hi, f.breaks[1:-1])
            assert multi.shape == (1,)
            assert _close(float(multi[0]), one), (name, lo, hi, multi, one)


POSITION_CUTS = [(Small(2.0, 1.0), "tail")] + [
    (spec, kind)
    for spec in (Lebesgue(2.0), Lebesgue(4.0), Grand(2.0, 1.0), Grand(4.0, 1.0))
    for kind in ("head", "tail")
]


@pytest.mark.parametrize("spec,kind", POSITION_CUTS, ids=[f"{s!r}-{k}" for s, k in POSITION_CUTS])
def test_tail_cuts_are_one_cut_each(members, spec, kind):
    """Norms of the head and tail truncations f·χ_(0,c] and f·χ_(c,1], batched
    and one cut at a time, at split points that exercise each start of a cut:
    c = 0, inside the first panel, subnormal (a Small root summed in log
    space), on a break, inside a panel, past the support of char_0.125, and 1.
    The cuts are not sorted.  At c = 0 and c = 1 one side is f and the other
    zero."""
    for name, f in members:
        x = f.breaks
        cuts = np.array([0.5, 0.0, 0.5 * x[1], 5.4e-322, x[2], 0.5 * (x[2] + x[3]), 0.2, 0.99, 1.0])
        batched = norms_over_cuts(f, spec, cuts, kind, DEFAULT)
        for c, got in zip(cuts, batched):
            want = float(norms_over_cuts(f, spec, np.array([c]), kind, DEFAULT)[0])
            assert abs(float(got) - want) <= 1e-12 * abs(want), (name, c, got, want)
        whole, zero = (batched[-1], batched[1]) if kind == "head" else (batched[1], batched[-1])
        assert zero == 0.0, name
        assert _close(float(whole), space_norm(f, spec, DEFAULT)), name
        if name == "char_0.125" and kind == "tail":
            assert np.all(batched[cuts >= 0.125] == 0.0)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_lebesgue_position_cuts_are_step_power_integrals(members, p):
    for name, f in members:
        cuts = np.array([0.0, 0.5 * f.breaks[1], f.breaks[2], 0.3, 1.0])
        head = norms_over_cuts(f, Lebesgue(p), cuts, "head", DEFAULT)
        tail = norms_over_cuts(f, Lebesgue(p), cuts, "tail", DEFAULT)
        assert np.array_equal(head, prefix_power_at(f, p, cuts) ** (1.0 / p)), name
        assert np.array_equal(tail, tail_power_at(f, p, cuts) ** (1.0 / p)), name


# Head, tail and capped truncations go through the same batched branch as the
# excess: each kind against a closed form or the space's own norm.


def test_lz_couple_written_as_general_is_the_lebesgue_couple(members):
    """LorentzZygmund(2, 2, 0) is L^2, so General(LZ(2, 2, 0), L^4) has the K
    of LpLq(2, 4): its excess lines and explicit heads go through the batched
    Lorentz-Zygmund branch and its split point through the Lorentz-Zygmund
    fundamental weight."""
    general, lplq = General(LorentzZygmund(2.0, 2.0, 0.0), Lebesgue(4.0)), LpLq(2.0, 4.0)
    ts = np.geomspace(1e-6, 1.0, 12)
    for name, f in members:
        got, want = k_explicit(f, general, ts, DEFAULT), k_explicit(f, lplq, ts, DEFAULT)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), name
        for t in ts.tolist():
            assert k_oracle(f, general, t, DEFAULT) == pytest.approx(k_oracle(f, lplq, t, DEFAULT), rel=1e-12)


@pytest.mark.parametrize("p,alpha", [(2.0, 1.0), (4.0 / 3.0, 2.0)])
def test_small_heads_are_a_prefix_integral_and_a_weight_tail(members, p, alpha):
    """The prefix of f·χ_(0,c] is P(min(t, c)), so its Small norm is
    ∫_0^c w P^{1/p} + P(c)^{1/p} ∫_c^1 w."""
    w = LogWeight(-1.0, alpha - alpha / p - 1.0)
    for name, f in members:
        cuts = np.array([0.5 * f.breaks[1], f.breaks[2], 0.2, 0.99])
        got = norms_over_cuts(f, Small(p, alpha), cuts, "head", DEFAULT)
        for c, head in zip(cuts.tolist(), got):
            tail = prefix_power_at(f, p, np.array([c]))[0] ** (1.0 / p) * weight_integral(w, c, 1.0)
            want = prefix_log_integral(f, p, 1.0 / p, w, c) + tail
            assert abs(head - want) <= 1e-12 * want, (name, c, head, want)


GAMMA_DOUBLE = [
    GammaDouble(2.0, 2.0, LogWeight(-1.0, 0.0), LogWeight(0.0, -1.0)),
    GammaDouble(2.0, math.inf, LogWeight(0.25, 0.0), LogWeight(0.0, -1.0)),
]


@pytest.mark.parametrize("spec", GAMMA_DOUBLE, ids=["m=2", "m=inf"])
def test_gamma_double_truncations_that_keep_f_are_its_norm(members, spec):
    for name, f in members:
        norm = ggamma_norm(f, spec, DEFAULT)
        assert _close(float(norms_over_cuts(f, spec, np.zeros(1), "excess", DEFAULT)[0]), norm), name
        assert _close(float(norms_over_cuts(f, spec, np.ones(1), "head", DEFAULT)[0]), norm), name


def test_sup_norm_heads_are_the_top_value(members):
    for name, f in members:
        cuts = np.array([0.5 * f.breaks[1], f.breaks[2], 0.2, 0.99, 1.0])
        assert np.all(norms_over_cuts(f, Lebesgue(math.inf), cuts, "head", DEFAULT) == f.values[0]), name
