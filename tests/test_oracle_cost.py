"""The oracle lines do only the work that can change a result.

The Grand cut scan skips the (run, cut) pairs that a monotone bound rules
out, and must equal the dense scan bit for bit; each κ pass takes the fewest
Gauss-Legendre points that its panels' κ·w allows, and each rung must be
exact to rounding at its limit.  Counts of scanned cells and of quadrature
nodes guard the savings."""

import mpmath
import numpy as np
import pytest

from rispaces import logcalc, norms
from rispaces.config import DEFAULT
from rispaces.equivharness import standard_family
from rispaces.kfunctional import GrandSmallSameP, SmallSmall, oracle_lines
from rispaces.logcalc import UGrid, golden_refine
from rispaces.norms import Grand, Small
from rispaces.rearrangement import StepRearrangement

SUBSET = ("const", "char_0.125", "plog_g0_d-1", "rand_00")
GRANDS = [Grand(2.0, 1.0), Grand(4.0, 1.0), Grand(2.0, 0.5)]


def _dense_grand_over_cuts(f, p, alpha, cuts, kind, res):
    """The Grand cut scan without pruning: every row for every cut, from the
    cut table, then golden refinement between the best row's neighbours."""
    e, ip = -alpha / p, 1.0 / p
    x, n = f.breaks, f.n
    pref = norms._cut_prefix(f, p, cuts, kind)
    vp = norms._cut_values(f, p, cuts, kind, np.arange(f.n)[:, None])
    ts = np.unique(np.concatenate([UGrid(res.u_max, res.sup_count).t_nodes(), x[1:]]))

    def h(t, c):  # t and c broadcast against each other
        k = np.clip(np.searchsorted(x, t, side="left"), 1, n)
        tail = pref[-1, c] - (pref[k - 1, c] + vp[k - 1, c] * (t - x[k - 1]))
        return (1.0 - np.log(t)) ** e * np.maximum(tail, 0.0) ** ip

    every = np.arange(cuts.size)
    best, at = np.zeros(cuts.size), np.zeros(cuts.size, dtype=int)
    rows = max(1, (1 << 20) // cuts.size)
    for r0 in range(0, ts.size, rows):
        obj = h(ts[r0 : r0 + rows, None], every)
        i = np.argmax(obj, axis=0)
        top = obj[i, every]
        up = top > best  # ascending rows: the smallest t attaining the max
        best[up], at[up] = top[up], r0 + i[up]
    out, _ = golden_refine(h, ts[np.maximum(at - 1, 0)], ts[np.minimum(at + 1, ts.size - 1)], best, ts[at])
    return out


def _cases():
    """(label, f, res): every member of both standard families at the default
    resolution, and the benchmark's four members at the doubled one."""
    for q in (2.0, 4.0):
        for name, f in standard_family(q=q).realize(DEFAULT):
            yield f"q={q:g} {name}", f, DEFAULT
    for name, f in standard_family().realize(DEFAULT.doubled()):
        if name in SUBSET:
            yield f"doubled {name}", f, DEFAULT.doubled()


@pytest.mark.parametrize("kind", ["excess", "capped"])
def test_pruned_grand_scan_is_the_dense_scan(kind):
    for label, f, res in _cases():
        cuts = np.unique(np.concatenate([[0.0], f.values]))
        for spec in GRANDS:
            want = _dense_grand_over_cuts(f, spec.p, spec.alpha, cuts, kind, res)
            got = norms._grand_over_cuts(f, spec.p, spec.alpha, cuts, kind, res)
            assert np.array_equal(got, want), (label, spec, kind)


@pytest.mark.parametrize("kind", ["excess", "capped"])
def test_grand_scan_evaluates_few_cells(monkeypatch, kind):
    """At most 15% of the (row, cut) cells of plog_g0_d-1's scan, run ends,
    bounds and golden refinement included."""
    cells = [0]

    def counted(g, grid, columns, extra_points, bound):
        def count(fn):
            def call(*args):
                out = fn(*args)
                cells[0] += np.size(out)
                return out

            return call

        return logcalc.sups_on_grid(count(g), grid, columns, extra_points, count(bound))

    monkeypatch.setattr(norms, "sups_on_grid", counted)
    f = dict(standard_family(q=4.0).realize(DEFAULT))["plog_g0_d-1"]
    cuts = np.unique(np.concatenate([[0.0], f.values]))
    norms._grand_over_cuts(f, 2.0, 1.0, cuts, kind, DEFAULT)
    rows = np.unique(np.concatenate([UGrid(DEFAULT.u_max, DEFAULT.sup_count).t_nodes(), f.breaks[1:]])).size
    assert 0 < cells[0] <= 0.15 * rows * cuts.size


@pytest.mark.parametrize("kind", ["excess", "capped"])
def test_small_lines_evaluate_the_staircase(monkeypatch, kind):
    """plog_g0_d-1's Small lines evaluate at most 1.5 (node, cut) cells per
    node of a live (stretch, cut) pair: each block of stretches covers only
    the cuts live on it, not the whole (stretch, cut) rectangle.  No pair's
    root lies within its stretch, so none takes the root rules."""
    cells, live, pairs, rooted = [0], [0], [0], [0]
    kappa_panels, far_root, root_rules = logcalc._kappa_panels, norms.far_root_integrals, norms.linear_power_integrals
    laid = []

    def counted_panels(*args, **kwargs):
        laid.append(kappa_panels(*args, **kwargs))
        return laid[-1]

    def counted_blocks(w, s, near, far, at_near, slope, need):
        laid.clear()
        out = far_root(w, s, near, far, at_near, slope, need)
        x, _, ids = laid[0]
        cells[0] += x.size * at_near.shape[1]
        live[0] += int(np.sum(np.bincount(ids, minlength=near.size) * x.shape[1] @ need))
        pairs[0] += int(np.count_nonzero(need))
        return out

    def counted_roots(*args):
        rooted[0] += np.size(args[2])
        return root_rules(*args)

    monkeypatch.setattr(logcalc, "_kappa_panels", counted_panels)
    monkeypatch.setattr(norms, "far_root_integrals", counted_blocks)
    monkeypatch.setattr(norms, "linear_power_integrals", counted_roots)
    f = dict(standard_family(q=4.0).realize(DEFAULT))["plog_g0_d-1"]
    norms.norms_over_cuts(f, Small(2.0, 1.0), np.unique(np.concatenate([[0.0], f.values])), kind)
    assert pairs[0] == 179700 and rooted[0] == 0
    assert 0 < cells[0] <= 1.5 * live[0]


@pytest.mark.parametrize("s", [1 / 4, 1 / 3, 1 / 2, 3 / 2, 5 / 2])
@pytest.mark.parametrize("points,limit", logcalc._RUNGS)
def test_each_rung_is_exact_at_its_limit(points, limit, s):
    """One panel of κ·w just below the rung's limit: ∫ e^{(1-u)c} u^b L^s du
    with L(t) = t - t_r and σ = s·t/L at the panel's end nearest the root,
    so the root lies as close as σ allows; and with no L (σ = 0), where the
    branch point u = 0 of u^b sets κ."""
    c, lo = 0.5, 2.0
    for b in (-1.5, -0.5, 0.75, 2.0):
        for sigma in (0.0, 40.0):
            kappa = c + sigma + (1.0 + abs(b)) / lo
            span = limit / kappa * (1.0 - 1e-12)
            rho = s / sigma if sigma else 0.0  # (t_min - t_r)/t_min

            def fu(x, i, b=b, sigma=sigma, span=span, rho=rho):
                v = lo + x  # L/t_min is expm1(span - x) + rho at the offset x
                out = np.exp((1.0 - v) * c + b * np.log(v))
                return out * (np.expm1(span - x) + rho) ** s if sigma else out

            args = (np.array([c]), b, np.array([lo]), np.array([span]), sigma)
            assert logcalc._kappa_panels(*args)[0].shape == (1, points)
            got = logcalc._panel_sums(fu, *logcalc._kappa_panels(*args), 1, 1)[0]
            with mpmath.workdps(30):
                mc, mb, ml, ms, mr, mw = (mpmath.mpf(v) for v in (c, b, lo, s, rho, span))

                def g(y):
                    out = mpmath.e ** ((1 - ml - y) * mc) * (ml + y) ** mb
                    return out * (mpmath.expm1(mw - y) + mr) ** ms if sigma else out

                want = float(mpmath.quad(g, mpmath.linspace(0, mw, 5)))
            assert got == pytest.approx(want, rel=1e-14), (b, sigma)


@pytest.mark.parametrize("couple,before", [(SmallSmall(2.0, 4.0), 26955), (GrandSmallSameP(2.0), 17970)])
def test_oracle_lines_lay_half_the_nodes(monkeypatch, couple, before):
    """plog_g0_d-1's oracle lines lay at most half the Gauss-Legendre nodes
    of one 15-point rule for every panel (before, counted that way)."""
    count = [0]
    kappa_panels = logcalc._kappa_panels

    def counted(*args, **kwargs):
        x, half, ids = kappa_panels(*args, **kwargs)
        count[0] += x.size
        return x, half, ids

    monkeypatch.setattr(logcalc, "_kappa_panels", counted)
    g = dict(standard_family(q=4.0).realize(DEFAULT))["plog_g0_d-1"]
    oracle_lines(StepRearrangement(g.breaks, g.values), couple, DEFAULT)  # a fresh memo
    assert 0 < count[0] <= 0.5 * before
