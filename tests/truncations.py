"""Reference truncations of a decreasing rearrangement, built as step
functions of their own.

``norms.norms_over_cuts`` evaluates the norms of these truncations for many
cuts at once without building them; the tests check it against ``space_norm``
of the functions built here, one cut at a time.
"""

import numpy as np

from rispaces.errors import BadPoint
from rispaces.rearrangement import StepRearrangement


def excess_part(f: StepRearrangement, c: float) -> StepRearrangement:
    """(f - c)_+ on the same panels."""
    return StepRearrangement(f.breaks, np.maximum(f.values - c, 0.0))


def capped_part(f: StepRearrangement, c: float) -> StepRearrangement:
    """min(f, c) on the same panels."""
    return StepRearrangement(f.breaks, np.minimum(f.values, c))


def head_restriction(f: StepRearrangement, x: float) -> StepRearrangement:
    """f·χ_{(0,x]} as a rearrangement (zero beyond x): f itself at x = 1 and
    the zero function at x = 0."""
    if not (0.0 <= x <= 1.0):
        raise BadPoint(f"cut point {x} outside [0, 1]")
    if x == 1.0:
        return f
    if x == 0.0:
        return StepRearrangement(np.array([0.0, 1.0]), np.zeros(1))
    keep = f.breaks[1:-1] < x
    breaks = np.concatenate([[0.0], f.breaks[1:-1][keep], [x, 1.0]])
    idx = np.searchsorted(f.breaks, breaks[1:-1], side="left")
    values = np.concatenate([f.values[np.clip(idx, 1, f.n) - 1], [0.0]])
    return StepRearrangement(breaks, values)
