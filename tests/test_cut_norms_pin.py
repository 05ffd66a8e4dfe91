"""Literal norms_over_cuts values of the Small and Grand branches, and a few
cuts against the per-cut norms of the truncated functions.

The cuts reach the edges of the truncation structure: c = 0, the largest value
v_1 (which may be repeated), values repeated on several panels, the last
positive value, and points between two values.  The functions are the
benchmark's four standard members (seed 20240801) and an explicit step
function with a repeated top value, a repeated inner value and trailing zero
panels.  Values are pinned at the default and at the doubled Resolution.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from rispaces.config import Resolution
from rispaces.equivharness import standard_family
from rispaces.norms import Grand, Small, norms_over_cuts, space_norm
from rispaces.rearrangement import ExplicitSteps, discretize_model
from truncations import capped_part, excess_part

PINNED = json.loads(Path(__file__).with_name("cut_norms_pinned.json").read_text())
RESOLUTIONS = {"default": Resolution(), "doubled": Resolution().doubled()}
SPECS = {
    "Small(2,1)": Small(2.0, 1.0),
    "Small(4,1)": Small(4.0, 1.0),
    "Grand(2,1)": Grand(2.0, 1.0),
    "Grand(4,1)": Grand(4.0, 1.0),
}
MEMBERS = ("const", "char_0.125", "plog_g0_d-1", "rand_00")
STEPS = ExplicitSteps(
    (0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.6, 0.8, 1.0),
    (3.0, 3.0, 2.0, 2.0, 2.0, 1.5, 0.5, 0.0, 0.0),
)


def functions(res: Resolution):
    models = dict(standard_family(seed=20240801).members)
    out = {name: models[name] for name in MEMBERS}
    out["steps"] = STEPS
    return {name: discretize_model(m, res.u_max, res.panels) for name, m in out.items()}


def pin_cuts(f) -> np.ndarray:
    """About 15 cuts: 0, the last positive value, the top value, values spread
    over the distinct ones, the midpoints of three gaps, fixed fractions of
    v_1 and a point above it."""
    vals = np.unique(np.concatenate([[0.0], f.values]))
    top = vals.size - 1
    picks = np.unique(np.concatenate([np.linspace(0, top, 10).round().astype(int), [0, 1, top]]))
    gaps = np.unique(np.linspace(0, top - 1, 3).round().astype(int))
    mids = 0.5 * (vals[gaps] + vals[gaps + 1])
    fractions = vals[-1] * np.array([1e-6, 0.3, 0.7, 1.0 - 1e-9, 1.25])
    return np.unique(np.concatenate([vals[picks], mids, fractions]))


@pytest.mark.parametrize("level", sorted(RESOLUTIONS))
@pytest.mark.parametrize("label", sorted(SPECS))
@pytest.mark.parametrize("kind", ["excess", "capped"])
def test_norms_over_cuts_pinned(level, label, kind):
    res = RESOLUTIONS[level]
    for name, f in functions(res).items():
        cuts = pin_cuts(f)
        want = PINNED[level][label][kind][name]
        assert len(want) == cuts.size, name
        got = norms_over_cuts(f, SPECS[label], cuts, kind, res)
        assert list(got) == pytest.approx(want, rel=1e-11, abs=0.0), name


def test_cuts_match_per_cut_norms_of_the_truncations():
    """Unsorted cuts with a repeat, each against space_norm of its own
    truncated function: the one-column path of the same norm."""
    res = Resolution()
    for name, f in functions(res).items():
        vals = np.unique(np.concatenate([[0.0], f.values]))
        cuts = np.array([vals[-1], 0.0, vals[vals.size // 2], vals[1], vals[vals.size // 2]])
        for label, spec in SPECS.items():
            for kind, make in (("excess", excess_part), ("capped", capped_part)):
                got = norms_over_cuts(f, spec, cuts, kind, res)
                want = [space_norm(make(f, float(c)), spec, res) for c in cuts]
                assert list(got) == pytest.approx(want, rel=1e-11, abs=0.0), (name, label, kind)
