"""Batched truncation norms against the norms of the truncated functions.

norms_over_cuts evaluates every (family, kind) pair it takes in one batch over
the cuts; here each cut is checked against space_norm of its truncation built
as a step function of its own (tests/truncations.py).  The functions are the
benchmark's four standard members and an explicit step function with a wide
first panel, repeated values and trailing zeros.
"""

import math

import numpy as np
import pytest

from rispaces import logcalc, norms
from rispaces.config import DEFAULT
from rispaces.equivharness import standard_family
from rispaces.logcalc import LogWeight
from rispaces.norms import GammaDouble, Grand, Lebesgue, LorentzZygmund, Small, norms_over_cuts, space_norm
from rispaces.rearrangement import ExplicitSteps, discretize_model
from truncations import capped_part, excess_part, head_restriction

MEMBERS = ("const", "char_0.125", "plog_g0_d-1", "rand_00")
STEPS = ExplicitSteps(
    (0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.6, 0.8, 1.0),
    (3.0, 3.0, 2.0, 2.0, 2.0, 1.5, 0.5, 0.0, 0.0),
)
SPACES = [
    Lebesgue(2.0),
    Lebesgue(math.inf),
    LorentzZygmund(2.0, 2.0, 1.0),
    LorentzZygmund(8.0 / 3.0, 64.0, -0.375),
    LorentzZygmund(2.0, math.inf, 0.5),
    Grand(2.0, 1.0),
    Small(4.0 / 3.0, 2.0),
    GammaDouble(2.0, 2.0, LogWeight(-1.0, 0.0), LogWeight(0.0, -1.0)),
    GammaDouble(2.0, math.inf, LogWeight(0.25, 0.0), LogWeight(0.0, -1.0)),
]
MAKE = {"excess": excess_part, "capped": capped_part, "head": head_restriction}


@pytest.fixture(scope="module")
def functions():
    realized = dict(standard_family().realize(DEFAULT))
    out = [(name, realized[name]) for name in MEMBERS]
    return out + [("steps", discretize_model(STEPS, DEFAULT.u_max, DEFAULT.panels))]


def cuts_for(f, kind) -> np.ndarray:
    """Unsorted, with one repeat.  By value: 0, an inner value, v_1 and a point
    above it.  By position: 0, a subnormal, a break, a point inside a panel
    and 1."""
    if kind == "head":
        brk = float(f.breaks[f.n // 2])
        return np.array([0.37, 0.0, 5e-322, brk, 1.0, brk])
    vals = np.unique(np.concatenate([[0.0], f.values]))
    inner, top = float(vals[vals.size // 2]), float(vals[-1])
    return np.array([top, 0.0, inner, 1.25 * top, inner])


@pytest.mark.parametrize("kind", sorted(MAKE))
@pytest.mark.parametrize("spec", SPACES, ids=[repr(s) for s in SPACES])
def test_batched_norms_match_the_truncated_functions(functions, spec, kind):
    for name, f in functions:
        cuts = cuts_for(f, kind)
        got = norms_over_cuts(f, spec, cuts, kind, DEFAULT)
        for c, value in zip(cuts.tolist(), got.tolist()):
            want = space_norm(MAKE[kind](f, c), spec, DEFAULT)
            assert abs(value - want) <= 1e-12 * want, (name, c, value, want)


@pytest.mark.parametrize("spec", SPACES, ids=[repr(s) for s in SPACES])
def test_every_head_at_zero_is_zero(functions, spec):
    for name, f in functions:
        assert norms_over_cuts(f, spec, np.zeros(1), "head", DEFAULT).tolist() == [0.0], name


def test_blocks_leave_the_norms_unchanged(functions, monkeypatch):
    """A batch is evaluated in blocks: of _CELLS (cut, panel) values for the
    Lebesgue and Lorentz-Zygmund value matrices, of _BLOCK (node, cut) values
    per κ pass and of _SCAN_BLOCK (point, cut) values per grid scan.  Blocks
    a few rows high give the same norms."""
    specs = [spec for spec in SPACES if isinstance(spec, (Lebesgue, LorentzZygmund, GammaDouble))]
    name, f = functions[2]
    cuts = np.unique(np.concatenate([[0.0], f.values]))[::30]
    kinds = ("excess", "capped")
    want = {(s, kind): norms_over_cuts(f, s, cuts, kind, DEFAULT) for s in specs for kind in kinds}
    monkeypatch.setattr(norms, "_CELLS", 3 * f.n)
    monkeypatch.setattr(logcalc, "_BLOCK", 40 * 15 * cuts.size)
    monkeypatch.setattr(logcalc, "_SCAN_BLOCK", 7 * cuts.size)
    for (spec, kind), value in want.items():
        got = norms_over_cuts(f, spec, cuts, kind, DEFAULT)
        assert np.allclose(got, value, rtol=1e-12, atol=0.0), (name, spec, kind)
