"""K-functionals for compatible couples of the implemented spaces.

Two evaluation routes exist for every couple:

* an oracle that minimizes ``norm0(g_c) + t * norm1(h_c)`` over the truncation
  family g_c = (f - c)_+, h_c = min(f, c) with c running over the step values
  (an upper bound on the true infimum, adequate for ratio experiments), and
* the explicit two-or-three-term equivalents, one per couple variant, built
  from norms of the head and tail truncations f·χ_(0,phi] and f·χ_(phi,1]
  (Holmstedt's form), with the split point phi obtained by inverting the
  couple's fundamental-function ratio.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from .config import DEFAULT, Resolution
from .errors import (
    BadExponent,
    ConditionCheckFailed,
    InfiniteNorm,
    OutOfRange,
)
from .logcalc import LogWeight, MonotoneMap, UGrid, weight_integral
from .norms import (
    Grand,
    Lebesgue,
    Small,
    SpaceSpec,
    fundamental_equivalent_weight,
    norms_over_cuts,
    prefix_log_integral,
    space_norm,
)
from .rearrangement import StepRearrangement, rearrange_from_samples, tail_rearranged

__all__ = [
    "LpLq",
    "GrandLq",
    "GrandGrand",
    "SmallSmall",
    "GrandSmallSameP",
    "General",
    "CoupleSpec",
    "KCurve",
    "couple_spaces",
    "couple_psi",
    "split_point",
    "k_oracle",
    "k_explicit",
    "k_curve",
    "check_C_conditions",
]


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise BadExponent(msg)


@dataclass(frozen=True)
class LpLq:
    p: float
    q: float

    def __post_init__(self):
        _check(1.0 <= self.p < self.q <= math.inf, "need 1 <= p < q <= inf")


@dataclass(frozen=True)
class GrandLq:
    p: float
    q: float
    alpha: float

    def __post_init__(self):
        _check(1.0 < self.p < self.q < math.inf, "need 1 < p < q < inf")
        _check(self.alpha > 0.0, "need alpha > 0")


@dataclass(frozen=True)
class GrandGrand:
    p: float
    q: float
    alpha: float

    def __post_init__(self):
        _check(1.0 < self.p < self.q < math.inf, "need 1 < p < q < inf")
        _check(self.alpha > 0.0, "need alpha > 0")


@dataclass(frozen=True)
class SmallSmall:
    """Couple of two small spaces, both with log parameter one."""

    p: float
    q: float

    def __post_init__(self):
        _check(1.0 < self.p < self.q < math.inf, "need 1 < p < q < inf")


@dataclass(frozen=True)
class GrandSmallSameP:
    """Grand and small space sharing the exponent p (log parameter one)."""

    p: float

    def __post_init__(self):
        _check(1.0 < self.p < math.inf, "need 1 < p < inf")


@dataclass(frozen=True)
class General:
    x0: SpaceSpec
    x1: SpaceSpec


CoupleSpec = Union[LpLq, GrandLq, GrandGrand, SmallSmall, GrandSmallSameP, General]


def couple_spaces(c: CoupleSpec) -> Tuple[SpaceSpec, SpaceSpec]:
    if isinstance(c, LpLq):
        return Lebesgue(c.p), Lebesgue(c.q)
    if isinstance(c, GrandLq):
        return Grand(c.p, c.alpha), Lebesgue(c.q)
    if isinstance(c, GrandGrand):
        return Grand(c.p, c.alpha), Grand(c.q, c.alpha)
    if isinstance(c, SmallSmall):
        return Small(c.p, 1.0), Small(c.q, 1.0)
    if isinstance(c, GrandSmallSameP):
        return Grand(c.p, 1.0), Small(c.p, 1.0)
    if isinstance(c, General):
        return c.x0, c.x1
    raise TypeError(f"unknown couple {c!r}")


def couple_psi(c: CoupleSpec) -> LogWeight:
    """The ratio map whose inverse locates the split point of the explicit forms:
    the ratio of the two spaces' fundamental-function equivalents.  SmallSmall's
    displayed form splits where that ratio times (1 - Log t) meets its argument."""
    w0, w1 = (fundamental_equivalent_weight(x) for x in couple_spaces(c))
    extra = 1.0 if isinstance(c, SmallSmall) else 0.0
    return LogWeight(w0.a - w1.a, w0.b - w1.b + extra)


def split_point(c: CoupleSpec, t, tol: float = 1e-12):
    """phi(t): inverse of the couple's ratio map at t, elementwise over an array
    of t; a scalar t gives a float."""
    return MonotoneMap(couple_psi(c)).inverse(t, tol)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def oracle_lines(
    f: StepRearrangement, couple: CoupleSpec, res: Resolution = DEFAULT
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cut intercepts/slopes (norm0 of the excess, norm1 of the cap).

    The oracle K at any t is the lower envelope min_c(A_c + t B_c); cuts do not
    depend on t, so the arrays are memoized on the function.
    """

    def make():
        x0, x1 = couple_spaces(couple)
        cuts = np.unique(np.concatenate([[0.0], f.values]))
        A = norms_over_cuts(f, x0, cuts, "excess", res)
        return A, norms_over_cuts(f, x1, cuts, "capped", res)

    return f.memo(("lines", couple, res.sup_count, res.u_max), make)


def k_oracle(
    f: StepRearrangement, couple: CoupleSpec, t: float, res: Resolution = DEFAULT
) -> float:
    """min over truncation cuts of norm0((f-c)_+) + t·norm1(min(f, c))."""
    if not t > 0.0:
        raise BadExponent("K argument must be positive")
    A, B = oracle_lines(f, couple, res)
    vals = A + t * B
    finite = np.isfinite(vals)
    if not np.any(finite):
        raise InfiniteNorm("no trial decomposition has finite component norms")
    return float(np.min(vals[finite]))


# ---------------------------------------------------------------------------
# explicit equivalents
# ---------------------------------------------------------------------------


def k_explicit(f: StepRearrangement, couple: CoupleSpec, t, res: Resolution = DEFAULT):
    """The couple's displayed equivalent of K(f, t), term by term, at a scalar t
    (a float) or elementwise over a 1-D array of t.

    Terms that depend on t only through the split point phi(t) are evaluated
    once per distinct phi.
    """
    t_in = np.asarray(t, dtype=float)
    if t_in.ndim > 1:
        raise BadExponent("K argument must be a scalar or a 1-D array")
    ts = np.atleast_1d(t_in)
    if not np.all(ts > 0.0):
        raise BadExponent("K argument must be positive")
    vals = _k_explicit_many(f, couple, ts, res)
    return float(vals[0]) if t_in.ndim == 0 else vals


def _k_explicit_many(
    f: StepRearrangement, couple: CoupleSpec, ts: np.ndarray, res: Resolution
) -> np.ndarray:
    if isinstance(couple, General):
        verdict = _condition_verdict(couple.x0, couple.x1, res)
        if not verdict["passed"]:
            raise ConditionCheckFailed(f"coupling conditions failed: {verdict}")
    phi, at = np.unique(split_point(couple, ts), return_inverse=True)
    x0, x1 = couple_spaces(couple)
    if isinstance(couple, (LpLq, GrandLq, GrandGrand, GrandSmallSameP)):
        # Holmstedt: norm0 of f·χ_(0,phi] plus t·norm1 of f·χ_(phi,1]
        head = norms_over_cuts(f, x0, phi, "head", res)
        if isinstance(couple, LpLq) and math.isinf(couple.q):
            return head[at]
        return head[at] + ts * norms_over_cuts(f, x1, phi, "tail", res)[at]
    if isinstance(couple, SmallSmall):
        p, q = couple.p, couple.q
        ip = 1.0 / p
        if np.any(ts >= math.e):
            raise OutOfRange("second term of this form needs 1 - Log t > 0")
        k1 = prefix_log_integral(f, p, ip, LogWeight(-1.0, -ip), phi)
        k2 = norms_over_cuts(f, Lebesgue(p), phi, "head", res)
        k3 = norms_over_cuts(f, Grand(q, 1.0), phi, "tail", res)
        # the middle term carries the outer argument t, not the split point
        return k1[at] + (1.0 - np.log(ts)) ** ((p - 1.0) / p) * k2[at] + ts * k3[at]
    if isinstance(couple, General):
        if not np.all(phi > 0.0):
            raise OutOfRange("split point left (0, 1]")
        head = norms_over_cuts(f, x0, phi, "head", res)
        tail = np.array([space_norm(tail_rearranged(f, float(x)), x1, res) for x in phi])
        return head[at] + ts * tail[at]
    raise TypeError(f"unknown couple {couple!r}")


# ---------------------------------------------------------------------------
# sampled curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KCurve:
    """K(f, t) sampled on a log t-grid, with monotonicity/concavity flags.

    ``monotone_ok``: values nondecreasing in t (1e-9 relative slack);
    ``concave_ok``: values/t nonincreasing (same slack).  Oracle curves satisfy
    both by construction; explicit curves may not, hence flags instead of errors.
    """

    t_nodes: np.ndarray
    k_values: np.ndarray
    monotone_ok: bool = field(init=False)
    concave_ok: bool = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.t_nodes, dtype=float)
        k = np.asarray(self.k_values, dtype=float)
        if t.ndim != 1 or t.size < 2 or k.shape != t.shape:
            raise BadExponent("curve needs matching t and K arrays, length >= 2")
        if not np.all(np.diff(t) > 0):
            raise BadExponent("curve nodes must be strictly increasing")
        if np.any(k < 0) or not np.all(np.isfinite(k)):
            raise BadExponent("curve values must be finite and nonnegative")
        scale = float(np.max(k)) + 1e-300
        slack = 1e-9 * scale
        object.__setattr__(self, "t_nodes", t)
        object.__setattr__(self, "k_values", k)
        object.__setattr__(self, "monotone_ok", bool(np.all(np.diff(k) >= -slack)))
        ratio = k / t
        object.__setattr__(
            self, "concave_ok", bool(np.all(np.diff(ratio) <= 1e-9 * np.abs(ratio[:-1]) + slack))
        )


def k_curve(
    f: StepRearrangement,
    couple: CoupleSpec,
    grid: UGrid,
    method: str = "oracle",
    res: Resolution = DEFAULT,
) -> KCurve:
    """Sample K(f, t) at the grid's t-nodes by the chosen method."""
    ts = grid.t_nodes()
    if method == "oracle":
        A, B = oracle_lines(f, couple, res)
        finite = np.isfinite(A) & np.isfinite(B)
        if not np.any(finite):
            raise InfiniteNorm("no trial decomposition has finite component norms")
        vals = np.min(A[finite][None, :] + ts[:, None] * B[finite][None, :], axis=1)
    elif method == "explicit":
        vals = k_explicit(f, couple, ts, res)
    else:
        raise BadExponent(f"unknown method {method!r}")
    return KCurve(ts, vals)


# ---------------------------------------------------------------------------
# coupling conditions for the general two-space equivalent
# ---------------------------------------------------------------------------

def _discretized_quotient(weight: LogWeight, lo: float, hi: float, grid: UGrid):
    """Rearrangement of 1/weight restricted to (lo, hi], as weighted samples."""
    u_hi = 1.0 - math.log(max(lo, math.exp(1.0 - grid.u_max)))
    u_lo = 1.0 - math.log(hi)
    edges = np.exp(1.0 - np.linspace(u_lo, u_hi, max(grid.count // 16, 64)))[::-1]
    edges[0] = max(lo, edges[0])
    mids = np.sqrt(edges[:-1] * edges[1:])
    widths = np.diff(edges)
    keep = widths > 0
    vals = 1.0 / weight(mids[keep])
    samples = list(zip(vals, widths[keep]))
    slack = 1.0 - float(np.sum(widths[keep]))
    if slack > 0:
        samples.append((0.0, slack))
    total = sum(w for _, w in samples)
    samples = [(v, w / total) for v, w in samples]
    return rearrange_from_samples(samples)


def check_C_conditions(x0: SpaceSpec, x1: SpaceSpec, grid: UGrid, res: Resolution = DEFAULT) -> dict:
    """Empirical suprema of the three coupling conditions, with refinement drift.

    C0: ∫_0^t ds/Φ_i over t/Φ_i(t); C1: (Φ1/Φ0)(t)·norm0 of χ_{(0,t]}/Φ1;
    C2: (Φ0/Φ1)(t)·norm1 of χ_{(t,1]}/Φ0.  Pass = all finite and stable
    (< 5% change) when the probe grid is doubled.
    """
    w0 = fundamental_equivalent_weight(x0)
    w1 = fundamental_equivalent_weight(x1)

    def sups(g: UGrid, m: int):
        # nested probe sets: doubling m to 2m-1 keeps every base probe
        ts = np.exp(1.0 - np.linspace(1.0, g.u_max, m))
        c0 = [0.0, 0.0]
        for i, w in enumerate((w0, w1)):
            inv = LogWeight(-w.a, -w.b)
            vals = [
                weight_integral(inv, 0.0, float(t)) / (float(t) * float(inv(t)))
                for t in ts
            ]
            c0[i] = max(vals)
        c1 = 0.0
        c2 = 0.0
        for t in ts:
            t = float(t)
            ratio = float(w0(t) / w1(t))
            q1 = _discretized_quotient(w1, 0.0, t, g)
            c1 = max(c1, space_norm(q1, x0, res) / ratio)
            if t < 1.0:
                q2 = _discretized_quotient(w0, t, 1.0, g)
                c2 = max(c2, ratio * space_norm(q2, x1, res))
        return np.array([c0[0], c0[1], c1, c2])

    m = max(9, grid.count // 2 + 1)
    base = sups(grid, m)
    fine = sups(grid.doubled(), 2 * m - 1)
    with np.errstate(invalid="ignore"):  # inf - inf: a divergent sup fails below anyway
        drift = np.abs(fine - base) / np.maximum(np.abs(base), 1e-300)
    finite = bool(np.all(np.isfinite(base)) and np.all(np.isfinite(fine)))
    return {
        "c0": (float(base[0]), float(base[1])),
        "c1": float(base[2]),
        "c2": float(base[3]),
        "drift": drift.tolist(),
        "passed": finite and bool(np.all(drift < 0.05)),
    }


@functools.lru_cache(maxsize=None)
def _condition_verdict(x0: SpaceSpec, x1: SpaceSpec, res: Resolution) -> dict:
    """check_C_conditions, once per couple and resolution."""
    return check_C_conditions(x0, x1, UGrid(res.u_max, 256), res)
