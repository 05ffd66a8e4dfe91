"""Scalar norms and quadratures against their batched counterparts.

The scalar entry points are the one-column case of the batched code, so the
two must agree to rounding on the benchmark's four standard members at the
default resolution.
"""

import numpy as np
import pytest

from rispaces.config import DEFAULT
from rispaces.equivharness import standard_family
from rispaces.logcalc import LogWeight, log_quad, log_quad_multi
from rispaces.norms import (
    Grand,
    Lebesgue,
    Small,
    grand_norm,
    lebesgue_norm,
    norms_over_cuts,
    small_norm,
)
from rispaces.rearrangement import capped_part, excess_part, prefix_power_at

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
    (Small(2.0, 1.0), lambda f: small_norm(f, 2.0, 1.0, DEFAULT)),
    (Small(4.0 / 3.0, 2.0), lambda f: small_norm(f, 4.0 / 3.0, 2.0, DEFAULT)),
]


@pytest.mark.parametrize("spec,scalar", SCALAR, ids=[repr(s) for s, _ in SCALAR])
@pytest.mark.parametrize("kind", ["excess", "capped"])
def test_scalar_norm_is_one_cut_of_the_batch(members, spec, scalar, kind):
    """Cut 0 leaves f in the excess and zero in the cap; the top value leaves
    zero in the excess and f in the cap."""
    make = excess_part if kind == "excess" else capped_part
    for name, f in members:
        cuts = np.array([0.0, float(f.values[0])])
        batched = norms_over_cuts(f, spec, cuts, kind, DEFAULT)
        for c, got in zip(cuts, batched):
            want = scalar(make(f, float(c)))
            assert _close(float(got), want), (name, kind, c, got, want)


def test_log_quad_is_one_column_of_log_quad_multi(members):
    w = LogWeight(-1.0, -0.5)
    for name, f in members:
        x1 = f.min_positive_break()

        def g(t):
            return prefix_power_at(f, 2.0, np.asarray(t, dtype=float)) ** 0.5

        def g_multi(t):
            return g(t)[:, None]

        for lo, hi in ((x1, 1.0), (1e-9, 0.3)):
            one = log_quad(g, w, lo, hi, DEFAULT.rel_tol, f.breaks[1:-1])
            multi = log_quad_multi(g_multi, w, lo, hi, DEFAULT.rel_tol, f.breaks[1:-1])
            assert multi.shape == (1,)
            assert _close(float(multi[0]), one), (name, lo, hi, multi, one)


def test_tail_cuts_are_one_cut_each(members):
    """Small norms of the tail truncations f·χ_(c,1], batched and one cut at a
    time, at split points that exercise each start of a cut: c = 0 (a linear
    head, the Small norm of f), inside the first panel, subnormal (a root
    summed in log space), on a break, inside a panel, past the support of
    char_0.125 (zero), and 1.  The cuts are not sorted."""
    spec = Small(2.0, 1.0)
    for name, f in members:
        x = f.breaks
        cuts = np.array([0.5, 0.0, 0.5 * x[1], 5.4e-322, x[2], 0.5 * (x[2] + x[3]), 0.2, 0.99, 1.0])
        batched = norms_over_cuts(f, spec, cuts, "tail", DEFAULT)
        for c, got in zip(cuts, batched):
            want = float(norms_over_cuts(f, spec, np.array([c]), "tail", DEFAULT)[0])
            assert abs(float(got) - want) <= 1e-12 * abs(want), (name, c, got, want)
        assert _close(float(batched[1]), small_norm(f, 2.0, 1.0, DEFAULT)), name
        assert batched[-1] == 0.0, name
        if name == "char_0.125":
            assert np.all(batched[cuts >= 0.125] == 0.0)
