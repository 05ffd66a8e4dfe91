"""A lower bound for an associate norm over a family of test functions.

Not an experiment: the tests use it to check Hoelder saturation and the
duality of the grand and small spaces.
"""

import math

import numpy as np

from rispaces.config import DEFAULT, Resolution
from rispaces.equivharness import FunctionFamily
from rispaces.norms import SpaceSpec, space_norm
from rispaces.rearrangement import StepFunction, StepRearrangement, evaluate_many


def product_integral(f: StepFunction, g: StepFunction) -> float:
    """Exact ∫_0^1 f(s) g(s) ds over the merged panel grid."""
    edges = np.union1d(f.breaks, g.breaks)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(evaluate_many(f, mids) * evaluate_many(g, mids) * np.diff(edges)))


def associate_lower_bound(
    f: StepRearrangement,
    spec: SpaceSpec,
    family: FunctionFamily,
    res: Resolution = DEFAULT,
) -> float:
    """max over g of ∫ f g / norm(g): a lower bound for the associate norm."""
    best = 0.0
    for _, g in family.realize(res):
        denom = space_norm(g, spec, res)
        if denom <= 0.0 or not math.isfinite(denom):
            continue
        best = max(best, product_integral(f, g) / denom)
    return best
