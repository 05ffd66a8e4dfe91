"""The per-cut panel tables of norms against the construction they replaced.

_cut_prefix fills its PREF table in place, in a mapping of its own when the
table is a MiB or more, and no VP table is kept: _cut_values gives VP at the
cells a caller reads, and _first_positive each cut's first positive panel.
The reference below builds both tables with fresh arrays (np.where, np.zeros
and a separate cumsum); everything must agree with it bit for bit, for every
kind, on members whose tables are mapped and on ones whose tables are not.
"""

import mmap

import numpy as np
import pytest

from rispaces import norms
from rispaces.config import DEFAULT
from rispaces.equivharness import standard_family
from rispaces.rearrangement import StepFunction

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
        for p in (1.0, 2.0, 2.5):
            _check(f, p, cuts, kind)


@pytest.mark.parametrize("kind", ["excess", "capped", "tail"])
def test_zero_heads_and_cuts_without_a_positive_panel(kind):
    """A step function whose first panels are zero, and cuts at and past its
    largest value, where no panel is positive and argmax reads 0."""
    f = StepFunction(np.array([0.0, 0.2, 0.45, 0.7, 0.9, 1.0]), np.array([0.0, 0.0, 3.0, 1.0, 0.0]))
    cuts = np.array([0.0, 0.5, 1.0, 2.9, 3.0, 4.0]) if kind != "tail" else np.array([0.0, 0.3, 0.7, 0.95, 1.0])
    for p in (1.0, 2.0):
        _check(f, p, cuts, kind)


def test_small_tables_come_from_the_heap():
    t = norms._table((3, 4))
    assert t.shape == (3, 4) and not _mapped(t)
    big = norms._table((norms._MAPPED // 8 + 1,))
    big.fill(1.0)
    assert _mapped(big) and big.sum() == big.size
