"""The κ-pass layout, the oracle envelope and the prefix sweep take shortcuts
that must leave every bit as the general constructions have it: each test
keeps the general form and compares with np.array_equal."""

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
