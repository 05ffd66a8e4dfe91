"""The per-cut panel tables of norms against the construction they replaced.

_cut_prefix fills its PREF table in place, in a mapping of its own when the
table is a MiB or more, and sums it row by row when it has _ROW_SUMS columns
or more; no VP table is kept: _cut_values gives VP at the cells a caller
reads, selecting v^p or c^p for a capped cut, and _first_positive each cut's
first positive panel.  The reference below builds both tables with fresh
arrays (np.where, np.zeros, a power of every cell and a separate cumsum);
everything must agree with it bit for bit, for every kind, on members whose
tables are mapped and on ones whose tables are not.
"""

import mmap

import numpy as np
import pytest

from rispaces import norms
from rispaces.config import DEFAULT
from rispaces.equivharness import standard_family
from rispaces.logcalc import LogWeight
from rispaces.norms import GammaDouble
from rispaces.rearrangement import StepFunction, StepRearrangement

SUBSET = ("const", "char_0.125", "plog_g0_d-1", "rand_00")


def _fresh_cut_panel_powers(f, p, cuts, kind):
    if kind == "tail":
        x, (_, vpf, _) = f.breaks, f.prefix_power(p)
        k = np.searchsorted(x, cuts, side="right") - 1
        i = np.arange(f.n)[:, None]
        vp = np.where(i >= k, vpf[:, None], 0.0)
        k, col = np.minimum(k, f.n - 1), np.arange(cuts.size)
        mass = np.where(i > k, vp * f.widths[:, None], 0.0)
        mass[k, col] = vpf[k] * (x[k + 1] - cuts)
        pref = np.zeros((f.n + 1, cuts.size))
        np.cumsum(mass, axis=0, out=pref[1:])
        pref[k, col] = -vpf[k] * (cuts - x[k])
        return vp, pref
    v, c = f.values[:, None], cuts[None, :]
    vp = np.minimum(v, c) if kind == "capped" else np.maximum(v - c, 0.0)
    vp **= p
    pref = np.zeros((f.n + 1, cuts.size))
    np.cumsum(vp * f.widths[:, None], axis=0, out=pref[1:])
    return vp, pref


def _mapped(a):
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a.obj if isinstance(a, memoryview) else a, mmap.mmap)


def _check(f, p, cuts, kind):
    want_vp, want_pref = _fresh_cut_panel_powers(f, p, cuts, kind)
    pref = norms._cut_prefix(f, p, cuts, kind)
    assert np.array_equal(pref, want_pref)
    assert _mapped(pref) == (pref.nbytes >= norms._MAPPED)
    assert np.array_equal(norms._cut_values(f, p, cuts, kind, np.arange(f.n)[:, None]), want_vp)
    rows = np.arange(cuts.size) % f.n
    assert np.array_equal(norms._cut_values(f, p, cuts, kind, rows), want_vp[rows, np.arange(cuts.size)])
    assert np.array_equal(norms._cut_values(f, p, cuts, kind, 0), want_vp[0])
    assert np.array_equal(norms._first_positive(f, p, cuts, kind), np.argmax(want_vp > 0.0, axis=0))


@pytest.mark.parametrize("res", [DEFAULT, DEFAULT.doubled()], ids=["default", "doubled"])
@pytest.mark.parametrize("kind", ["excess", "capped", "tail"])
def test_tables_match_fresh_arrays(res, kind):
    members = dict(standard_family(q=2.0).realize(res))
    for name in SUBSET:
        f = members[name]
        cuts = np.unique(np.concatenate([[0.0], f.values])) if kind != "tail" else np.linspace(0.0, 1.0, 301)
        for p in (1.0, 2.0, 2.5, 4.0):
            _check(f, p, cuts, kind)


def _decreasing(n, seed=0):
    rng = np.random.default_rng(seed)
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]])
    return StepRearrangement(breaks, np.sort(rng.uniform(0.0, 5.0, n))[::-1])


@pytest.mark.parametrize("width", [norms._ROW_SUMS - 1, norms._ROW_SUMS + 1, 1201])
@pytest.mark.parametrize("kind", ["excess", "capped", "tail"])
def test_prefix_sums_by_row_match_cumsum(width, kind):
    """Tables on both sides of _ROW_SUMS columns, and one as wide as the
    doubled plog member's, against np.cumsum down the columns."""
    f = _decreasing(700)
    cuts = np.linspace(0.0, 1.0 if kind == "tail" else 5.5, width)
    for p in (1.0, 2.0, 2.5, 4.0):
        _check(f, p, cuts, kind)


@pytest.mark.parametrize("kind", ["excess", "capped", "tail"])
def test_zero_heads_and_cuts_without_a_positive_panel(kind):
    """A step function whose first panels are zero, and cuts at and past its
    largest value, where no panel is positive and argmax reads 0."""
    f = StepFunction(np.array([0.0, 0.2, 0.45, 0.7, 0.9, 1.0]), np.array([0.0, 0.0, 3.0, 1.0, 0.0]))
    cuts = np.array([0.0, 0.5, 1.0, 2.9, 3.0, 4.0]) if kind != "tail" else np.array([0.0, 0.3, 0.7, 0.95, 1.0])
    for p in (1.0, 2.0, 2.5, 4.0):
        _check(f, p, cuts, kind)


def test_capped_values_select_powers_on_a_step_function():
    """min(v, c)^p as a selection between v^p and c^p, on values that are not
    monotone, at cuts of 0, at values, between values and past the largest."""
    f = StepFunction(np.array([0.0, 0.2, 0.45, 0.7, 0.9, 1.0]), np.array([0.0, 0.0, 3.0, 1.0, 0.0]))
    cuts = np.array([0.0, 0.5, 1.0, 2.0, 2.9, 3.0, 4.0])
    rows, each = np.arange(f.n), np.arange(cuts.size) % f.n
    for p in (1.0, 2.0, 2.5, 4.0):
        want = np.minimum(f.values[:, None], cuts)
        want **= p
        assert np.array_equal(norms._cut_values(f, p, cuts, "capped", rows[:, None]), want)
        assert np.array_equal(norms._cut_values(f, p, cuts, "capped", each), want[each, np.arange(cuts.size)])
        assert np.array_equal(norms._cut_values(f, p, cuts[3:4], "capped", rows), want[:, 3])
        for i in rows:
            assert np.array_equal(norms._cut_values(f, p, cuts, "capped", i), want[i])


@pytest.mark.parametrize("kind", ["excess", "capped"])
def test_w2_table_sums_by_row_as_cumsum(kind, monkeypatch):
    """The GammaDouble w2 table of more cuts than _ROW_SUMS against the same
    table summed by np.cumsum."""
    f = dict(standard_family(q=2.0).realize(DEFAULT))["plog_g0_d-1"]
    cuts = np.unique(np.concatenate([[0.0], f.values]))
    assert cuts.size > norms._ROW_SUMS
    spec = GammaDouble(2.0, 2.0, LogWeight(-1.0, 0.0), LogWeight(0.0, -1.0))
    ts = np.concatenate([f.breaks[1:], 0.5 * (f.breaks[:-1] + f.breaks[1:])])[:, None]
    k = np.arange(cuts.size)[None, :]
    got = norms._w2_prefix_over_cuts(f, spec, cuts, kind)(ts, k)
    monkeypatch.setattr(norms, "_ROW_SUMS", cuts.size + 1)
    assert np.array_equal(got, norms._w2_prefix_over_cuts(f, spec, cuts, kind)(ts, k))


def test_small_tables_come_from_the_heap():
    t = norms._table((3, 4))
    assert t.shape == (3, 4) and not _mapped(t)
    big = norms._table((norms._MAPPED // 8 + 1,))
    big.fill(1.0)
    assert _mapped(big) and big.sum() == big.size
