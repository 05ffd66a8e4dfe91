"""The Small oracle lines in (stretch, cut) blocks against the pair lists they
replaced.

norms._prefix_log_integrals lays each stretch's nodes once for all the cuts
over it.  The reference below is the former evaluation: one
linear_power_integrals stretch per (stretch, cut) pair, read off one boolean
mask stretch by stretch.  Both must agree to rounding on both standard
families, on the benchmark's members at the doubled resolution, and where
P_c has a root at or next to a stretch's lower end.
"""

import numpy as np
import pytest

from rispaces import norms
from rispaces.config import DEFAULT
from rispaces.equivharness import standard_family
from rispaces.logcalc import LogWeight, linear_power_integrals, power_log_integrals, weight_prefix_many
from rispaces.rearrangement import StepFunction, StepRearrangement

SUBSET = ("const", "char_0.125", "plog_g0_d-1", "rand_00")
REL = 1e-13
HEADS = np.geomspace(1e-6, 1.0, 13)


def _pair_list_prefix_log_integrals(f, p, s, w, cuts, kind, hs):
    """_prefix_log_integrals with one linear_power_integrals stretch per
    (stretch, cut) pair, in blocks of about _CELLS / 64 pairs."""
    x = f.breaks
    pref = norms._cut_prefix(f, p, cuts, kind)
    vp = norms._cut_values(f, p, cuts, kind, np.arange(f.n)[:, None])
    linear, flat = norms._cut_reach(f, cuts, kind)
    kr = np.argmax(vp > 0.0, axis=0)
    rho = np.maximum(x[kr], cuts if kind == "tail" else 0.0)
    rooted = (rho > 0.0) & (flat > 0)
    start = np.where(rooted, rho, x[linear])
    ends = np.unique(np.concatenate([x[x < hs[-1]], hs]))
    q0 = np.searchsorted(ends, start, side="right") - 1
    q1 = np.minimum(np.searchsorted(ends, x[flat], side="left"), ends.size - 1)
    stretch = np.arange(ends.size - 1)[:, None]
    need = (q0 <= stretch) & (stretch < q1)
    chunk = (np.cumsum(need.sum(axis=1)) - 1) // (norms._CELLS // 64)
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(chunk)) + 1, [ends.size - 1]])
    sums = np.zeros(hs.size * cuts.size)
    for qa, qb in zip(bounds[:-1], bounds[1:]):
        q, col = np.nonzero(need[qa:qb])
        q += qa
        j = np.searchsorted(x, ends[q], side="right") - 1
        lo = np.maximum(ends[q], start[col])
        slope = vp[j, col]
        at_lo = np.where(rooted[col] & (lo == start[col]), 0.0, pref[j, col] + slope * (lo - x[j]))
        vals = linear_power_integrals(w, s, lo, ends[q + 1], at_lo, slope)
        sums += np.bincount(np.searchsorted(hs, ends[q + 1]) * cuts.size + col, vals, sums.size)
    out = np.cumsum(sums.reshape(hs.size, cuts.size), axis=0)
    xz = np.broadcast_to(x[flat], out.shape)
    past = (hs[:, None] > xz) & (xz > 0.0)
    top = np.broadcast_to(pref[-1] ** s, out.shape)[past]
    out[past] += top * power_log_integrals(w.a, w.b, xz[past], np.broadcast_to(hs[:, None], out.shape)[past])
    heads = np.minimum(hs[:, None], x[linear][None, :])
    linear_head = (heads > 0.0) & ~rooted
    lead = np.broadcast_to(vp[0] ** s, out.shape)[linear_head]
    out[linear_head] += lead * weight_prefix_many(LogWeight(w.a + s, w.b), heads[linear_head])
    return out


def _check(f, cuts, kind, p=2.0, alpha=1.0, hs=np.ones(1)):
    w = LogWeight(-1.0, alpha - alpha / p - 1.0)
    want = _pair_list_prefix_log_integrals(f, p, 1.0 / p, w, cuts, kind, hs)
    got = norms._prefix_log_integrals(f, p, 1.0 / p, w, cuts, kind, hs)
    np.testing.assert_allclose(got, want, rtol=REL, atol=0.0, err_msg=f"{kind} p={p} alpha={alpha}")


def _members():
    for q in (2.0, 4.0):
        for name, f in standard_family(q=q).realize(DEFAULT):
            yield f"q={q:g} {name}", f
    for name, f in standard_family().realize(DEFAULT.doubled()):
        if name in SUBSET:
            yield f"doubled {name}", f


@pytest.mark.parametrize("kind", ["excess", "capped", "tail"])
def test_blocks_match_pair_lists_on_the_families(kind):
    for label, f in _members():
        by_value = np.unique(np.concatenate([[0.0], f.values]))
        cuts = f.breaks[:-1] if kind == "tail" else by_value
        try:
            _check(f, cuts, kind)
        except AssertionError as err:
            raise AssertionError(label) from err


@pytest.mark.parametrize("kind", ["excess", "capped", "tail"])
def test_blocks_match_pair_lists_below_many_heads(kind):
    f = dict(standard_family(q=4.0).realize(DEFAULT))["plog_g0_d-1"]
    cuts = f.breaks[:-1:7] if kind == "tail" else np.unique(np.concatenate([[0.0], f.values[::7]]))
    _check(f, cuts, kind, p=4.0, hs=HEADS)
    _check(f, np.zeros(1), "excess", hs=HEADS)  # prefix_log_integral's array form


@pytest.mark.parametrize("kind", ["excess", "capped", "tail"])
def test_blocks_match_pair_lists_next_to_a_root(kind):
    """A break 1e-9 from 0, so a cut's P_c has its root closer to a stretch
    than the stretch's length; a zero head, where P_c vanishes up to the
    first positive panel; tail cuts on a break and 1e-9 from one."""
    near_zero = StepRearrangement(np.array([0.0, 1e-9, 0.5, 1.0]), np.array([5.0, 2.0, 1.0]))
    zero_head = StepFunction(np.array([0.0, 0.2, 0.45, 0.7, 1.0]), np.array([0.0, 3.0, 1.0, 0.5]))
    for f in (near_zero, zero_head):
        if kind == "tail":
            x = f.breaks[1:-1]
            cuts = np.unique(np.concatenate([[0.0, 1e-9, 2e-9], x, x - 1e-9, x + 1e-9]))
        else:
            cuts = np.unique(np.concatenate([[0.0], f.values, 0.5 * f.values]))
        for hs in (np.ones(1), HEADS):
            _check(f, cuts, kind, hs=hs)
