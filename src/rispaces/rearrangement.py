"""Step functions on (0, 1) and decreasing rearrangements.

All downstream computation runs on nonnegative step functions with half-open
panels (x[i-1], x[i]].  A decreasing rearrangement is just the sorted-descending
form of such data; power integrals are exact panel sums.  Function models
(power-log profiles, indicators, explicit steps, weighted samples) are the
generators used by the experiment harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import BadInterval, BadModel, BadPoint, BadWeights, NonFiniteInput

__all__ = [
    "StepFunction",
    "StepRearrangement",
    "PowerLog",
    "Char",
    "ExplicitSteps",
    "Samples",
    "FunctionModel",
    "rearrange_from_samples",
    "discretize_model",
    "power_integral",
    "evaluate_at",
    "evaluate_many",
    "prefix_power_at",
    "tail_power_at",
    "tail_rearranged",
]


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Nonnegative step function on (0, 1) with panels (breaks[i-1], breaks[i]]."""

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breaks = np.asarray(self.breaks, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if breaks.ndim != 1 or values.ndim != 1 or values.size != breaks.size - 1:
            raise BadModel("need n+1 breaks for n >= 1 values")
        if values.size < 1:
            raise BadModel("need at least one panel")
        if not (np.all(np.isfinite(breaks)) and np.all(np.isfinite(values))):
            raise NonFiniteInput("breaks and values must be finite")
        if breaks[0] != 0.0 or breaks[-1] != 1.0:
            raise BadModel("breaks must start at 0 and end at 1")
        if not np.all(np.diff(breaks) > 0):
            raise BadModel("breaks must be strictly increasing")
        if np.any(values < 0):
            raise BadModel("values must be nonnegative")
        breaks = breaks.copy()
        values = values.copy()
        breaks.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_cache", {})

    @property
    def n(self) -> int:
        return self.values.size

    def memo(self, key, make):
        """make()'s result, computed on the first call with this key and kept as
        long as this function lives: the one cache of per-function data.  An
        array result, alone or in a tuple, is made read-only, so no caller can
        change what later calls get; a make() that raises stores nothing."""
        if key not in self._cache:
            value = make()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            self._cache[key] = value
        return self._cache[key]

    @property
    def widths(self) -> np.ndarray:
        return self.memo("widths", lambda: np.diff(self.breaks))

    def prefix_power(self, p: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(∫_0^{x_i} f^p, panel values^p, ∫_{x_i}^1 f^p): prefix and suffix
        sums, one entry per break, and one value per panel (exact).  A tail
        is summed from the right, so it keeps its digits however small it is
        next to the total."""

        def make():
            vp = self.values**p
            mass = vp * self.widths
            pref = np.concatenate([[0.0], np.cumsum(mass)])
            suf = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])
            return pref, vp, suf

        return self.memo(("prefix", p), make)


class StepRearrangement(StepFunction):
    """Step function whose values are nonincreasing (a decreasing rearrangement)."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(np.diff(self.values) > 0):
            raise BadModel("rearrangement values must be nonincreasing")


# ---------------------------------------------------------------------------
# function models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLog:
    """Profile t^{-gamma} (1 - Log t)^{-delta}; gamma < 1 keeps it integrable."""

    gamma: float
    delta: float

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0) or not math.isfinite(self.delta):
            raise BadModel("power-log model needs 0 <= gamma < 1 and finite delta")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t**-self.gamma * (1.0 - np.log(t)) ** -self.delta


@dataclass(frozen=True)
class Char:
    """Indicator of (0, a)."""

    a: float

    def __post_init__(self):
        if not (0.0 < self.a <= 1.0):
            raise BadModel("indicator length must lie in (0, 1]")


@dataclass(frozen=True)
class ExplicitSteps:
    breaks: Tuple[float, ...]
    values: Tuple[float, ...]


@dataclass(frozen=True)
class Samples:
    """Weighted value list; weights must sum to one."""

    samples: Tuple[Tuple[float, float], ...]


FunctionModel = Union[PowerLog, Char, ExplicitSteps, Samples]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def rearrange_from_samples(samples: Sequence[Tuple[float, float]]) -> StepRearrangement:
    """Sort weighted samples by descending value; breaks at cumulative weights."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise BadModel("samples must be a nonempty sequence of (value, weight)")
    values, weights = arr[:, 0], arr[:, 1]
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("sample values and weights must be finite")
    if np.any(values < 0):
        raise NonFiniteInput("sample values must be nonnegative")
    if np.any(weights <= 0):
        raise BadWeights("sample weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise BadWeights(f"weights sum to {weights.sum()!r}, expected 1")
    order = np.argsort(-values, kind="stable")
    v = values[order]
    w = weights[order]
    breaks = np.concatenate([[0.0], np.cumsum(w)])
    breaks[-1] = 1.0
    return StepRearrangement(breaks, v)


def _monotonize_from_right(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(values[::-1])[::-1]


def discretize_model(
    model: FunctionModel, u_max: float = 35.0, panels: int = 600
) -> StepRearrangement:
    """Sample a model on the log grid t_j = e^{1-u_j}, u uniform on [1, u_max].

    Values are taken at geometric panel midpoints; the deepest panel (0, t_min]
    uses the midpoint the grid would have with one more node.  A trailing
    running-maximum pass restores monotonicity for models that are not
    nonincreasing everywhere.
    """
    if not u_max > 1.0:
        raise BadModel("u_max must exceed 1")
    if panels < 2:
        raise BadModel("need at least two panels")
    if isinstance(model, Samples):
        return rearrange_from_samples(model.samples)
    if isinstance(model, ExplicitSteps):
        return StepRearrangement(np.asarray(model.breaks), np.asarray(model.values))

    u = np.linspace(1.0, float(u_max), panels)
    breaks = np.concatenate([[0.0], np.exp(1.0 - u)[::-1]])
    if isinstance(model, Char):
        a = float(model.a)
        if a < 1.0 and a not in breaks:
            breaks = np.sort(np.append(breaks, a))
        # panel (x_{i-1}, x_i] lies inside (0, a) iff x_i <= a
        values = np.where(breaks[1:] <= a, 1.0, 0.0)
        return StepRearrangement(breaks, values)

    du = (u_max - 1.0) / (panels - 1)
    mids = np.sqrt(breaks[1:-1] * breaks[2:])
    first_mid = breaks[1] * math.exp(-0.5 * du)
    mids = np.concatenate([[first_mid], mids])
    values = np.asarray(model(mids), dtype=float)
    if not np.all(np.isfinite(values)):
        raise BadModel("model evaluates to a non-finite value on the grid")
    values = _monotonize_from_right(values)
    return StepRearrangement(breaks, values)


def power_integral(f: StepFunction, p: float, a: float, b: float) -> float:
    """Exact ∫_a^b f^p(s) ds over step panels."""
    if not (0.0 <= a <= b <= 1.0):
        raise BadInterval(f"bad interval [{a}, {b}]")
    if p <= 0:
        raise BadInterval("power must be positive")
    return float(prefix_power_at(f, p, b) - prefix_power_at(f, p, a))


def prefix_power_at(f: StepFunction, p: float, t) -> Union[float, np.ndarray]:
    """∫_0^t f^p, exact, vectorized over t."""
    pref, vp, _ = f.prefix_power(p)
    ts = np.asarray(t, dtype=float)
    idx = np.searchsorted(f.breaks, ts, side="left")
    idx = np.clip(idx, 1, f.n)
    out = pref[idx - 1] + vp[idx - 1] * (ts - f.breaks[idx - 1])
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def tail_power_at(f: StepFunction, p: float, t) -> Union[float, np.ndarray]:
    """∫_t^1 f^p, exact, vectorized over t: on the panel (x_{i-1}, x_i] of t,
    the suffix sum from x_i plus v_i^p (x_i - t)."""
    _, vp, suf = f.prefix_power(p)
    ts = np.asarray(t, dtype=float)
    idx = np.clip(np.searchsorted(f.breaks, ts, side="left"), 1, f.n)
    out = suf[idx] + vp[idx - 1] * (f.breaks[idx] - ts)
    return float(out) if np.isscalar(t) or ts.ndim == 0 else out


def evaluate_at(f: StepFunction, t: float) -> float:
    """Value of the panel (x_{i-1}, x_i] containing t."""
    if not (0.0 < t <= 1.0):
        raise BadPoint(f"point {t} outside (0, 1]")
    idx = int(np.searchsorted(f.breaks, t, side="left"))
    return float(f.values[max(idx, 1) - 1])


def evaluate_many(f: StepFunction, ts: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(f.breaks, ts, side="left")
    idx = np.clip(idx, 1, f.n)
    return f.values[idx - 1]


# ---------------------------------------------------------------------------
# the rearranged tail used by the general explicit K-form
# ---------------------------------------------------------------------------


def tail_rearranged(f: StepRearrangement, x: float) -> StepRearrangement:
    """Rearrangement of f·χ_{(x,1]}: the tail values shifted back to the origin
    (zero at x = 1)."""
    if not (0.0 < x <= 1.0):
        raise BadPoint(f"cut point {x} outside (0, 1]")
    inner = f.breaks[(f.breaks > x) & (f.breaks < 1.0)]
    edges = np.concatenate([[x], inner, [1.0]])
    widths = np.diff(edges)
    mask = widths > 0
    idx = np.searchsorted(f.breaks, edges[1:], side="left")
    vals = f.values[np.clip(idx, 1, f.n) - 1][mask]
    breaks = np.concatenate([[0.0], np.cumsum(widths[mask])])
    if breaks[-1] < 1.0:
        breaks = np.append(breaks, 1.0)
        vals = np.append(vals, 0.0)
    else:
        breaks[-1] = 1.0
    return StepRearrangement(breaks, vals)
