"""Harness experiments on reduced families and resolutions."""

import json
import math

import numpy as np
import pytest
import scipy.integrate as si

from rispaces import equivharness
from rispaces.config import Resolution
from rispaces.equivharness import (
    EquivReport,
    FunctionFamily,
    associate_lower_bound,
    discretization_check,
    hardy_check,
    lemma31_33_check,
    model_in_space,
    prop32_check,
    random_steps,
    run_identity_experiment,
    standard_family,
    sup_smoothing_check,
)
from rispaces.errors import BadExponent, HypothesisViolation, NotMonotone
from rispaces.logcalc import sup_on_grid
from rispaces.norms import Grand, Lebesgue, Small, small_norm
from rispaces.rearrangement import (
    Char,
    ExplicitSteps,
    PowerLog,
    StepFunction,
    StepRearrangement,
    discretize_model,
)

from conftest import FAST

MINI = FunctionFamily(
    "mini",
    (
        ("const", PowerLog(0.0, 0.0)),
        ("char_half", Char(0.5)),
        ("char_eighth", Char(1.0 / 8.0)),
        ("plog", PowerLog(0.2, 1.0)),
        ("plog2", PowerLog(0.1, -1.0)),
    ),
)


def test_standard_family_composition():
    fam = standard_family(q=4.0, seed=7)
    names = [n for n, _ in fam.members]
    assert names[0] == "const"
    assert sum(n.startswith("char") for n in names) == 3
    assert sum(n.startswith("plog") for n in names) == 11
    assert sum(n.startswith("rand") for n in names) == 10
    # seeded: same seed, same members
    fam2 = standard_family(q=4.0, seed=7)
    assert fam.members == fam2.members


def test_family_realization_memoized():
    first = MINI.realize(FAST)
    second = MINI.realize(FAST)
    assert all(a is b for (_, a), (_, b) in zip(first, second))


def test_model_in_space_rules():
    assert model_in_space(PowerLog(0.3, 0.0), Lebesgue(2))
    assert not model_in_space(PowerLog(0.5, 0.0), Lebesgue(2))
    assert model_in_space(PowerLog(0.5, 1.0), Lebesgue(2))  # log rescue
    assert model_in_space(PowerLog(0.5, 0.0), Grand(2, 1.0))  # borderline, still in
    assert not model_in_space(PowerLog(0.5, 0.0), Grand(2, 0.5))
    assert not model_in_space(PowerLog(0.5, 1.0), Small(2, 1.0))
    assert model_in_space(PowerLog(0.5, 1.1), Small(2, 1.0))
    assert model_in_space(Char(0.5), Lebesgue(math.inf))


def test_identity_experiment_passes():
    rep = run_identity_experiment(
        "T1.2", dict(p=2, q=4, theta=0.5, r=2, alpha=1.0), MINI, FAST
    )
    assert rep.passed
    assert rep.max_ratio < 64.0 and rep.min_ratio > 1 / 64.0
    assert rep.drift < 0.05
    payload = json.loads(rep.to_json())
    assert payload["pass"] and payload["experiment"] == "T1.2"
    assert {"id", "lhs", "rhs", "ratio"} <= set(payload["members"][0])


def test_identity_experiment_skips_zero_member():
    fam = FunctionFamily(
        "zero", (("zero", ExplicitSteps((0.0, 1.0), (0.0,))), ("const", PowerLog(0, 0)))
    )
    rep = run_identity_experiment("T1.1", dict(p=2, q=4, alpha=1.0), fam, FAST)
    assert any(s["reason"] == "degenerate member skipped" for s in rep.skipped)
    assert all(m["id"] != "zero" for m in rep.members)


def test_identity_experiment_filters_infinite_members():
    fam = FunctionFamily("hot", (("toohot", PowerLog(0.5, 0.0)), ("const", PowerLog(0, 0))))
    rep = run_identity_experiment("T1.1", dict(p=2, q=4, alpha=1.0), fam, FAST)
    assert any(s["id"] == "toohot" for s in rep.skipped)
    assert rep.passed


def test_hardy_thm22_first_closed_form(one):
    """psi = 1, a = 2, alpha = 1: both sides reduce to incomplete-gamma moments:
    LHS^2 = e^2 Γ(3,2)/8 = 10/8, RHS^2 = e^2 Γ(5,2)/32 = 21/4."""
    fam = FunctionFamily("single", (("const", PowerLog(0.0, 0.0)),))
    rep = hardy_check("thm2.2-first", dict(a=2.0, alpha=1.0), fam, FAST)
    lhs_sq = math.exp(2.0) * float(si.quad(lambda u: math.exp(-2 * u) * u**2, 1, np.inf)[0])
    rhs_sq = math.exp(2.0) * float(si.quad(lambda u: math.exp(-2 * u) * u**4, 1, np.inf)[0])
    member = rep.members[0]
    assert member["lhs"] == pytest.approx(math.sqrt(lhs_sq), rel=1e-9)
    assert member["rhs"] == pytest.approx(math.sqrt(rhs_sq), rel=1e-9)
    assert rep.passed


def test_hardy_skips_zero_integrand():
    fam = FunctionFamily("zeros", (("zero", ExplicitSteps((0.0, 1.0), (0.0,))),))
    rep = hardy_check("thm2.1-first", dict(lam=0.5, b=1.0, beta=0.0), fam, FAST)
    assert not rep.members
    assert rep.skipped[0]["reason"] == "degenerate member skipped"


@pytest.mark.parametrize(
    "which,exps",
    [
        ("thm2.1-first", dict(lam=0.5, b=1.0, beta=0.0)),
        ("thm2.1-second", dict(lam=0.5, b=1.0, beta=0.0)),
        ("thm2.1-first", dict(lam=0.25, b=2.0, beta=1.0)),
        ("thm2.1-second", dict(lam=0.25, b=2.0, beta=-1.0)),
        ("thm2.2-first", dict(a=2.0, alpha=1.0)),
        ("thm2.2-second", dict(a=2.0, alpha=-1.0)),
    ],
)
def test_hardy_family_brackets(which, exps):
    rep = hardy_check(which, exps, MINI, FAST)
    assert rep.passed, rep.to_json()
    assert rep.max_ratio < 64.0


def test_hardy_sup_form(chi_half):
    fam = FunctionFamily("single", (("chi", Char(0.5)),))
    for which in ("thm2.1-first", "thm2.1-second"):
        rep = hardy_check(which, dict(lam=0.5, b=math.inf, beta=0.0), fam, FAST)
        assert rep.passed and math.isfinite(rep.max_ratio)


def test_hardy_sup_form_follows_the_resolution(monkeypatch):
    """b = inf: both sides search the resolution's sup grid, and the doubled
    pass the doubled one."""
    counts = []

    def spy(g, grid, extra_points=()):
        counts.append((grid.u_max, grid.count))
        return sup_on_grid(g, grid, extra_points)

    monkeypatch.setattr(equivharness, "sup_on_grid", spy)
    fam = FunctionFamily("single", (("chi", Char(0.5)),))
    res = Resolution(u_max=30.0, panels=64, sup_count=96, k_nodes=16)
    hardy_check("thm2.1-first", dict(lam=0.5, b=math.inf, beta=0.0), fam, res)
    assert counts == [(30.0, 96)] * 2 + [(30.0, 192)] * 2


def test_identity_experiment_checks_hypotheses_first():
    """p > q is a hypothesis violation, not a failure to build the couple."""
    with pytest.raises(HypothesisViolation, match="need 1 < p < q < inf"):
        run_identity_experiment("T1.2", dict(p=4, q=2, theta=0.5, r=2, alpha=1.0), MINI, FAST)
    with pytest.raises(HypothesisViolation, match="need p, q, alpha"):
        run_identity_experiment("T1.1", dict(p=2, q=4), MINI, FAST)


def test_hardy_bad_exponents():
    with pytest.raises(BadExponent):
        hardy_check("thm2.2-first", dict(a=2.0, alpha=-1.0), MINI, FAST)
    with pytest.raises(BadExponent):
        hardy_check("thm2.1-first", dict(lam=-1.0, b=1.0), MINI, FAST)
    with pytest.raises(BadExponent):
        hardy_check("nope", dict(), MINI, FAST)


def test_sup_smoothing_constant_kd(one):
    """For constant K_d the window sup is attained at the right endpoint, so
    the smoothed side carries the larger log power: both sides are pure
    kernels and the ratio is their quotient (computed independently here)."""
    theta, r, alpha, q = 0.5, 2.0, 1.0, 4.0
    rep = sup_smoothing_check(one, dict(theta=theta, r=r, alpha=alpha, q=q))
    i_sup = si.quad(
        lambda u: math.exp((1 - u) * (1 - theta) * r) * u ** (alpha * (1 - theta) * r / q),
        1,
        np.inf,
    )[0]
    i_dir = si.quad(
        lambda u: math.exp((1 - u) * (1 - theta) * r) * u ** (-alpha * theta * r / q),
        1,
        np.inf,
    )[0]
    m = rep.members[0]
    assert m["lhs"] == pytest.approx(i_sup, rel=1e-9)
    assert m["rhs"] == pytest.approx(i_dir, rel=1e-9)
    assert m["lhs"] >= m["rhs"]
    assert rep.passed


def test_sup_smoothing_zero():
    z = StepFunction(np.array([0.0, 1.0]), np.array([0.0]))
    rep = sup_smoothing_check(z, dict(theta=0.5, r=2.0, alpha=1.0, q=4.0))
    assert not rep.members and rep.skipped


def test_sup_smoothing_indicator(chi_half):
    rep = sup_smoothing_check(chi_half, dict(theta=0.5, r=2.0, alpha=1.0, q=4.0))
    assert rep.passed
    assert rep.members[0]["ratio"] >= 1.0 - 1e-9


def test_sup_smoothing_second_display(chi_half):
    rep = sup_smoothing_check(chi_half, dict(nu=0.5, beta=1.0, q=4.0, r=2.0), "prop5.1")
    assert rep.passed


def test_sup_smoothing_rejects_nonmonotone():
    f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(NotMonotone):
        sup_smoothing_check(f, dict(theta=0.5, r=2.0, alpha=1.0, q=4.0))


def test_discretization_constant():
    h = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    rep = discretization_check(h, 1.0, 1.0)
    assert rep.passed
    ids = {m["id"] for m in rep.members}
    assert {"blocks-prefix", "blocks-tail", "sum-vs-integral"} <= ids
    for m in rep.members:
        assert max(m["ratio"], 1 / m["ratio"]) <= 32.0


def test_discretization_zero():
    h = StepFunction(np.array([0.0, 1.0]), np.array([0.0]))
    rep = discretization_check(h, 1.0, 1.0)
    assert not rep.members  # everything degenerate


@pytest.mark.parametrize("lam", [-1.0, 0.0, 0.5, 1.0])
def test_discretization_sign_regimes(lam, rng):
    m = random_steps(rng, nonincreasing=False)
    h = StepFunction(np.asarray(m.breaks), np.asarray(m.values))
    rep = discretization_check(h, lam, 1.5)
    for row in rep.members:
        assert math.isfinite(row["ratio"]) and row["ratio"] > 0


def test_discretization_block_ratios_scale_invariant(rng):
    # both sides of each block display are homogeneous in h, exactly
    m = random_steps(rng, nonincreasing=False)
    h = StepFunction(np.asarray(m.breaks), np.asarray(m.values))
    h5 = StepFunction(h.breaks, 5.0 * h.values)
    r1 = {row["id"]: row["ratio"] for row in discretization_check(h, 0.5, 1.5).members}
    r2 = {row["id"]: row["ratio"] for row in discretization_check(h5, 0.5, 1.5).members}
    for key in r1:
        assert r1[key] == pytest.approx(r2[key], rel=1e-12)


def test_prop32_constant_function(one):
    rep = prop32_check(one, 2.0, 2.0, 0.5)
    assert rep.passed and rep.params["violations"] == 0
    # at x = 1 the closed form gives LHS = 1 against 2 sqrt(2 Log 2)
    row = max(rep.members, key=lambda m: float(m["id"].split("=")[1]))
    assert row["lhs"] == pytest.approx(1.0, rel=1e-12)
    assert row["rhs"] == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2.0)), rel=1e-12)


def test_prop32_indicator_scaling():
    for a in (1.0 / 8.0, 1.0 / 64.0):
        chi = discretize_model(Char(a), 35.0, 100)
        rep = prop32_check(chi, 2.0, 2.0, 0.5)
        assert rep.passed and rep.params["violations"] == 0


def test_prop32_zero():
    z = StepRearrangement(np.array([0.0, 1.0]), np.array([0.0]))
    rep = prop32_check(z, 2.0, 2.0, 0.5)
    assert not rep.members


def test_lemma31_33_zero_skipped():
    z = StepRearrangement(np.array([0.0, 1.0]), np.array([0.0]))
    rep = lemma31_33_check(z, 2.0, 4.0, 1.0, FAST)
    assert not rep.members


def test_lemma31_33_finite(one, power_quarter):
    for f in (one, power_quarter):
        rep = lemma31_33_check(f, 2.0, 4.0, 1.0, FAST)
        assert rep.passed
        assert len(rep.members) == 2


def test_associate_lower_bound_zero():
    z = StepRearrangement(np.array([0.0, 1.0]), np.array([0.0]))
    assert associate_lower_bound(z, Lebesgue(2), MINI, FAST) == 0.0


def test_associate_lower_bound_holder_saturation(chi_quarter):
    fam = FunctionFamily("with_quarter", ((("char_q", Char(0.25)),) + MINI.members))
    bound = associate_lower_bound(chi_quarter, Lebesgue(2), fam, FAST)
    assert bound >= 0.5 - 1e-12  # the indicator itself saturates Hoelder


def test_associate_bound_respects_duality(power_quarter):
    # lower bound for the grand-space associate stays under a fixed multiple
    # of the conjugate small norm
    bound = associate_lower_bound(power_quarter, Grand(2, 1.0), MINI, FAST)
    ceiling = small_norm(power_quarter, 2.0, 1.0, FAST)
    assert bound <= 64.0 * ceiling


def test_report_json_is_strict_with_null_for_non_finite():
    """A report whose drift is undefined (NaN) and whose member ratio is
    infinite parses with a parser that refuses NaN and Infinity."""
    rep = EquivReport("T1.1", {"p": 2.0, "bound": math.inf})
    rep.members.append({"id": "m", "lhs": 1.0, "rhs": 0.0, "ratio": math.inf})
    rep.finalize(drift=math.nan)

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(rep.to_json(), parse_constant=refuse)
    assert payload["drift"] is None
    assert payload["max_ratio"] is None and payload["members"][0]["ratio"] is None
    assert payload["params"] == {"p": 2.0, "bound": None}
    assert payload["pass"] is False
