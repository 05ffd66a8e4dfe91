"""The κ-pass layout and sums, the oracle envelope and the prefix sweep take
shortcuts that must leave every bit as the general constructions have it:
each test keeps the general form and compares with np.array_equal."""

import math

import numpy as np
import pytest

from rispaces import logcalc
from rispaces.config import DEFAULT
from rispaces.equivharness import standard_family
from rispaces.kfunctional import GrandLq, GrandSmallSameP, k_curve, oracle_lines
from rispaces.logcalc import LogWeight, UGrid, weight_integral, weight_prefix_many


def split_general(lo, hi, width):
    """Every interval laid out piece by piece, one-panel intervals included."""
    n = np.maximum(1, np.ceil((hi - lo) / width).astype(int))
    ids = np.repeat(np.arange(lo.size), n)
    k = np.arange(ids.size) - np.repeat(np.cumsum(n) - n, n)
    step = ((hi - lo) / n)[ids]
    a = lo[ids] + k * step
    b = np.where(k + 1 == n[ids], hi[ids], a + step)
    return a, b, ids


def kappa_panels_general(c, b, lo, span, sigma=0.0, reach=0.0):
    """Doubling pieces lo·(2^k - 1) by repeat and gather, then split_general."""
    n = np.maximum(1, np.ceil(np.log1p(span / lo) / math.log(2.0))).astype(int)
    ids = np.repeat(np.arange(lo.size), n)
    k = np.arange(ids.size) - np.repeat(np.cumsum(n) - n, n)
    start = np.minimum(lo[ids] * (2.0**k - 1.0), span[ids])
    end = np.minimum(lo[ids] * (2.0 ** (k + 1) - 1.0), span[ids])
    kappa = np.abs(c[ids]) + np.broadcast_to(sigma, lo.shape)[ids] + (1.0 + abs(b)) / (lo[ids] + start)
    pa, pb, j = split_general(start, end, 0.5 / kappa)
    half = 0.5 * (pb - pa)
    widest = max(reach, float(np.max(2.0 * half * kappa[j], initial=0.0)))
    gx = logcalc._GL[next((n for n, limit in logcalc._RUNGS if widest <= limit), 15)][0]
    return (0.5 * (pa + pb))[:, None] + half[:, None] * gx, half, ids[j]


def _node_steps():
    """The node-to-node steps of a 600-panel grid: one piece and one panel each."""
    us = np.linspace(1.0, 35.0, 601)
    return np.full(600, 0.5), -1.0, us[:-1], np.diff(us), 0.0, 0.0


def _one_piece_many_panels():
    lo = np.linspace(10.0, 30.0, 40)
    return np.full(40, 3.0), 0.5, lo, np.full(40, 2.0), 0.25, 0.0


def _mixed(seed):
    """One-panel, one-piece and many-piece intervals interleaved, with a σ per
    interval and a reach."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(1.0, 40.0, 300)
    span = lo * rng.choice([1e-3, 0.05, 0.8, 3.0, 40.0], lo.size)
    return rng.uniform(-3.0, 3.0, lo.size), 1.5, lo, span, rng.uniform(0.0, 2.0, lo.size), 0.3


@pytest.mark.parametrize(
    "args, panels",
    [(_node_steps(), "one"), (_one_piece_many_panels(), "many"), (_mixed(0), "many"), (_mixed(1), "many")],
    ids=["node-steps", "one-piece", "mixed-0", "mixed-1"],
)
def test_kappa_panels_match_the_general_layout(args, panels):
    got, want = logcalc._kappa_panels(*args), kappa_panels_general(*args)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert (got[1].size == args[2].size) == (panels == "one")


@pytest.mark.parametrize("seed", [0, 1])
def test_split_matches_the_general_layout(seed):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 5.0, 200)
    hi = lo + rng.choice([1e-4, 0.1, 2.0], lo.size)
    width = rng.uniform(0.2, 0.6, lo.size)
    for mask in (hi - lo < 0.2, np.ones(lo.size, dtype=bool)):  # one panel each, then mixed
        got, want = logcalc._split(lo[mask], hi[mask], width[mask]), split_general(lo[mask], hi[mask], width[mask])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def panel_sums_reduceat(fu, x, half, ids, intervals, width):
    """Every pass reduced by np.add.reduceat, one-panel intervals included."""
    rows, gl = max(1, logcalc._BLOCK // (x.shape[1] * max(width, 1))), logcalc._GL[x.shape[1]][1]
    per = np.concatenate(
        [np.tensordot(fu(x[k : k + rows], ids[k : k + rows]), gl, axes=(1, 0)) for k in range(0, half.size, rows)]
    )
    per *= half.reshape((-1,) + (1,) * (per.ndim - 1))
    return np.add.reduceat(per, np.searchsorted(ids, np.arange(intervals)), axis=0)


@pytest.mark.parametrize("args, panels", [(_node_steps(), "one"), (_mixed(0), "many")], ids=["node-steps", "mixed-0"])
@pytest.mark.parametrize("width", [0, 3])
def test_panel_sums_match_the_reduceat_form(args, panels, width):
    layout = logcalc._kappa_panels(*args)
    intervals = args[2].size

    def fu(x, i):
        base = np.exp(-0.5 * x) * (1.0 + i)[:, None]
        return base[:, :, None] * np.arange(1.0, width + 1.0) if width else base

    want = panel_sums_reduceat(fu, *layout, intervals, width)
    assert np.array_equal(logcalc._panel_sums(fu, *layout, intervals, width), want)
    assert (layout[1].size == intervals) == (panels == "one")


def stretch_sums_gathered(w, s, near, far, at_near, slope, shift, sigma, reach=0.0):
    """_stretch_sums with every per-stretch array gathered to the panels and
    every pass reduced by np.add.reduceat; also the panel count."""
    c, b = w.a + 1.0, w.b
    hi_t, lo_t = np.maximum(near, far), np.minimum(near, far)
    lo_u = 1.0 - np.log(hi_t)
    span = logcalc._log1p_ratio(hi_t - lo_t, lo_t)
    x, half, p_run = logcalc._kappa_panels(np.full(near.size, c), b, lo_u, span, sigma, reach)
    v = lo_u[p_run][:, None] + x
    g0 = np.sign(hi_t - near) * logcalc._log1p_ratio(np.abs(hi_t - near), np.minimum(hi_t, near))
    y = g0[p_run][:, None] - x
    nv = np.broadcast_to(near[p_run][:, None], y.shape)
    dist = nv * np.abs(np.expm1(np.minimum(y, 1.0)))
    dist[y > 1.0] = logcalc.t_of_u(v[y > 1.0]) - nv[y > 1.0]
    mass = half[:, None] * logcalc._GL[x.shape[1]][1] * np.exp((1.0 - v) * c + b * np.log(v) - shift[p_run][:, None])
    big_l = slope[p_run][:, None, :] * dist[:, :, None]
    big_l += at_near[p_run][:, None, :]
    big_l **= s
    per = np.einsum("ijk,ij->ik", big_l, mass)
    return np.add.reduceat(per, np.searchsorted(p_run, np.arange(near.size)), axis=0), half.size


@pytest.mark.parametrize("split", [False, True], ids=["one-panel", "some-split"])
def test_stretch_sums_match_the_gathered_form(split):
    rng = np.random.default_rng(5)
    near = rng.uniform(0.05, 0.9, 400)
    ratio = rng.choice([0.999, 1.001, 1e-3, 1.05] if split else [0.999, 1.001], near.size)
    far = np.minimum(near * ratio, 1.0)
    at_near, slope = rng.uniform(0.1, 2.0, (near.size, 3)), rng.uniform(0.0, 1.0, (near.size, 3))
    shift, sigma = rng.uniform(-1.0, 1.0, near.size), rng.uniform(0.0, 2.0, near.size)
    w = LogWeight(-0.5, 0.75)
    blocks = (near, far, at_near, slope, shift)
    for args in ((w, 0.5, *blocks, sigma), (w, 2.5, *blocks, 0.0, 0.5)):  # a σ per stretch; none, with a reach
        want, panels = stretch_sums_gathered(*args)
        assert (panels > near.size) == split
        assert np.array_equal(logcalc._stretch_sums(*args), want)


@pytest.mark.parametrize(
    "q, couple", [(2.0, GrandSmallSameP(2.0)), (4.0, GrandLq(2.0, 4.0, 1.0))], ids=["q2-same-p", "q4-grand-lq"]
)
@pytest.mark.parametrize("res", [DEFAULT, DEFAULT.doubled()], ids=["default", "doubled"])
def test_oracle_envelope_matches_the_broadcast_form(q, couple, res):
    ts = UGrid(res.u_max, res.k_nodes).t_nodes()
    for name, f in standard_family(q=q).realize(res):
        A, B = oracle_lines(f, couple, res)
        finite = np.isfinite(A) & np.isfinite(B)
        if not finite.any():
            continue
        want = np.min(A[finite][None, :] + ts[:, None] * B[finite][None, :], axis=1)
        for _ in range(2):  # sampled, then the memoized curve
            assert np.array_equal(k_curve(f, couple, UGrid(res.u_max, res.k_nodes), "oracle", res).k_values, want), name


def prefix_quicksort(w, ts):
    """weight_prefix_many as it sorted before: quicksort, ties in any order."""
    order = np.argsort(ts, axis=None)
    s = ts.flat[order]
    s = s[np.searchsorted(s, 0.0, side="right") :]
    out = np.zeros(ts.shape)
    if s.size:
        base, steps = weight_integral(w, 0.0, float(s[0])), logcalc._weight_integrals(w, s[:-1], s[1:])
        out.flat[order[ts.size - s.size :]] = base + np.concatenate([[0.0], np.cumsum(steps)])
    return out


@pytest.mark.parametrize("w", [LogWeight(0.0, -1.0), LogWeight(-0.5, 1.0)], ids=["w2", "w-half"])
def test_weight_prefix_many_is_the_quicksort_sweep(w):
    rng = np.random.default_rng(3)
    us = 1.0 + np.cumsum(rng.uniform(0.0, 0.01, 10_000))
    nodes = np.exp(1.0 - us)  # decreasing in t, as a κ table lays them out
    tied = np.repeat(nodes[::50], 7)
    cases = {
        "reversed": nodes,
        "shuffled": rng.permutation(nodes),
        "tied": rng.permutation(np.concatenate([tied, [0.0, 0.0]])),
        "reversed 2-D": nodes.reshape(100, 100),
    }
    for name, ts in cases.items():
        assert np.array_equal(weight_prefix_many(w, ts), prefix_quicksort(w, ts)), name
