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
    EXPERIMENTS,
    FunctionFamily,
    discretization_check,
    hardy_check,
    identity_rows,
    LEMMA_PARAMS,
    lemma31_33_check,
    model_in_space,
    prop32_check,
    random_steps,
    run_experiment,
    run_identity_experiment,
    run_lemma_experiment,
    standard_family,
    sup_smoothing_check,
)
from rispaces.errors import BadExponent, HypothesisViolation, NonFiniteValue, NotMonotone
from rispaces.interpolation import identify_target
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

from associate import associate_lower_bound
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
    assert first is second
    assert MINI.realize(FAST.doubled()) is not first


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


IDENTITY_CASES = [("T3.1", dict(p=2, q=4, alpha=1.0))] + [
    ("T3.4", dict(p=2, q=4, theta=0.5, r=2, alpha=a)) for a in (1.0, 0.5, 2.0)
]


@pytest.mark.parametrize(
    "tid,params", IDENTITY_CASES, ids=[f"{t}-alpha{p['alpha']:g}" for t, p in IDENTITY_CASES]
)
def test_lebesgue_and_small_couple_identities_pass(tid, params):
    """T3.1 (the L^p-L^q couple against a Grand target) and T3.4 (two Small
    spaces: the SmallSmall couple at alpha = 1, a General couple otherwise,
    against a Lorentz-Zygmund target) hold their bracket and drift gate."""
    rep = run_identity_experiment(tid, params, standard_family(q=4.0), FAST)
    assert rep.passed, rep.to_json()
    assert rep.max_ratio < 64.0 and rep.min_ratio > 1 / 64.0
    assert rep.drift < 0.05


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


def test_identity_rows_leave_members_outside_a_required_space_unevaluated():
    """The row loop the experiment judges: None sides for the member whose
    Grand target norm is infinite, and the sides identify_target gives for the
    others, which the experiment reports as its members."""
    fam = FunctionFamily("hot", (("toohot", PowerLog(0.5, 0.0)), ("const", PowerLog(0, 0))))
    params = dict(p=2, q=4, alpha=1.0)
    rows = list(identity_rows("T1.1", params, fam, FAST))
    assert [row[0] for row in rows] == ["toohot", "const"] and rows[0][1:] == (None, None)
    rep = run_identity_experiment("T1.1", params, fam, FAST)
    assert [(m["id"], m["lhs"], m["rhs"]) for m in rep.members] == [rows[1]]


def test_identity_rows_check_hypotheses_on_the_call():
    with pytest.raises(HypothesisViolation, match="T1.1 needs p < q < inf, got q = 2"):
        identity_rows("T1.1", dict(p=4, q=2, alpha=1.0), MINI, FAST)


@pytest.mark.parametrize(
    "name,params,key",
    [
        ("discretization", {"lamda": 0.5, "q": 2.0}, "lamda"),
        ("discretization", {"lam": 0.5, "q": 2.0}, "lam"),
        ("T1.1", {"p": 2.0, "q": 4.0, "alpha": 1.0, "theta": 0.3}, "theta"),
        ("hardy:thm2.2-first", {"a": 2.0, "alpha": 0.5, "beta": 0.0}, "beta"),
    ],
)
def test_run_experiment_rejects_parameters_outside_the_catalogue(name, params, key):
    accepted = ", ".join(EXPERIMENTS[name])
    with pytest.raises(HypothesisViolation) as err:
        run_experiment(name, params, FAST)
    assert str(err.value) == f"{name} takes no parameter {key!r}; it takes {accepted}"


def test_run_experiment_unknown_name():
    with pytest.raises(HypothesisViolation, match="unknown experiment 'T9.9'"):
        run_experiment("T9.9", {"p": 2.0})


def lemma_report(name, f, params, res):
    """The report of the lemma check that the named experiment runs on one function."""
    if name == "prop3.2":
        return prop32_check(f, params["p"], params["r"], params["eps"])
    if name == "lemma3.1+3.3":
        return lemma31_33_check(f, params["p"], params["q"], params["alpha"], res)
    return sup_smoothing_check(f, params, name.split(":", 1)[1])


# One valid parameter set of each catalogue entry, defaults included.
VALID = {
    **{tid: dict(p=2.0, q=4.0, alpha=1.0) for tid in ("T1.1", "T3.1", "P4.2", "lemma3.1+3.3")},
    **{tid: dict(p=2.0, q=4.0, theta=0.5, r=2.0, alpha=1.0) for tid in ("T1.2", "T3.4")},
    "T5.1": dict(p=2.0, q=4.0, theta=0.5, r=2.0),
    "P4.1": dict(p=2.0, alpha=1.0),
    **{tid: dict(p=2.0, theta=0.5, r=2.0) for tid in ("T1.3", "T6.2")},
    **{f"hardy:thm2.1-{side}": dict(lam=0.5, b=2.0, beta=0.0) for side in ("first", "second")},
    "hardy:thm2.2-first": dict(a=2.0, alpha=1.0),
    "hardy:thm2.2-second": dict(a=2.0, alpha=-1.0),
    "discretization": {"lambda": 1.0, "q": 2.0},
    "prop3.2": dict(p=2.0, r=2.0, eps=0.5),
    "sup_smoothing:prop3.1": dict(theta=0.5, r=2.0, alpha=1.0, q=4.0),
    "sup_smoothing:prop5.1": dict(nu=0.5, beta=1.0, q=4.0, r=2.0),
}
# A nan in each parameter of each entry, which every range test refuses.
NAN_CASES = [
    (name, {**VALID[name], key: math.nan}, f"got {key} = nan$") for name, keys in EXPERIMENTS.items() for key in keys
]


@pytest.mark.parametrize(
    "name,params,names",
    [
        ("hardy:thm2.1-first", {"lam": 0.5}, "'b'"),
        ("hardy:thm2.1-second", {"lam": -1.0, "b": 2.0}, "lam"),
        ("hardy:thm2.2-second", {"a": 2.0, "alpha": 0.5}, "alpha"),
        ("hardy:thm2.2-first", {"a": 0.0, "alpha": 1.0}, "1 <= a < inf, got a = 0.0"),
        ("discretization", {"lambda": 1.0, "q": 0.0}, "q"),
        ("discretization", {"q": -2.0}, "q"),
        ("T1.1", {"p": 2.0, "q": 1.0, "alpha": 1.0}, "T1.1 needs p < q < inf, got q = 1.0"),
        ("prop3.2", {"p": math.inf, "r": 2.0, "eps": 0.5}, "needs 1 <= p < inf, got p = inf"),
        ("prop3.2", {"p": 2.0, "r": 1.0, "eps": 0.5}, "needs 1 < r < inf, got r = 1.0"),
        ("lemma3.1+3.3", {"p": 4.0, "q": 2.0, "alpha": 1.0}, "needs p < q < inf, got q = 2.0"),
        ("lemma3.1+3.3", {"p": 2.0, "q": 4.0, "alpha": math.inf}, "got alpha = inf"),
        ("sup_smoothing:prop3.1", {"theta": 1.0, "r": 2.0, "alpha": 1.0, "q": 4.0}, "got theta = 1.0"),
        ("sup_smoothing:prop3.1", {"theta": 0.5, "r": math.inf, "alpha": 1.0, "q": 4.0}, "got r = inf"),
        ("sup_smoothing:prop5.1", {"nu": 0.5, "beta": math.nan, "q": 4.0, "r": 2.0}, "got beta = nan"),
        ("sup_smoothing:prop5.1", {"nu": 0.5, "beta": 1.0, "q": 0.0, "r": 2.0}, "needs q > 0"),
    ] + NAN_CASES,
)
def test_run_experiment_names_a_bad_parameter_before_any_numerics(monkeypatch, name, params, names):
    """Presence and range are checked before a family is built; the direct
    call of the entry's check raises the same error, which callers may catch
    as BadExponent."""

    def refuse(*args, **kwargs):
        raise AssertionError("numerics started")

    monkeypatch.setattr(equivharness, "standard_family", refuse)
    monkeypatch.setattr(equivharness, "random_steps", refuse)
    with pytest.raises(HypothesisViolation, match=names) as err:
        run_experiment(name, params, FAST)
    one = StepRearrangement(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(BadExponent) as direct:
        if name.startswith("hardy:"):
            hardy_check(name.split(":", 1)[1], params, MINI, FAST)
        elif name in LEMMA_PARAMS:
            lemma_report(name, one, params, FAST)
        elif name == "discretization":
            discretization_check(one, params.get("lambda", 1.0), params.get("q", 1.0))
        else:
            identify_target(name, one, **params, res=FAST)
    assert type(direct.value) is HypothesisViolation and str(direct.value) == str(err.value)


def test_run_experiment_unknown_hardy_display():
    with pytest.raises(HypothesisViolation, match="unknown experiment 'hardy:thm2.9'"):
        run_experiment("hardy:thm2.9", {"a": 2.0})


def test_run_experiment_hardy_beta_defaults_to_zero():
    """Also in the sup form, b = inf being in range."""
    res = Resolution(panels=32, sup_count=64)
    fam = standard_family(seed=3)
    for b in (2.0, math.inf):
        got = run_experiment("hardy:thm2.1-first", {"lam": 0.5, "b": b}, res, seed=3)
        want = hardy_check("thm2.1-first", {"lam": 0.5, "b": b, "beta": 0.0}, fam, res, seed=3)
        assert got.members and got.members == want.members and got.params == {"lam": 0.5, "b": b}


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


def test_t12_at_r64_keeps_a_member_far_below_its_top():
    """T1.2 at r = 64 (p = 2, q = 4, theta = 0.5, alpha = 1): the target of
    plog_g0.375_d0, LZ(8/3, 64, -0.375), is about 1 with f*(0+) = 3.5e5, so
    the member is judged, not skipped as degenerate."""
    fam = FunctionFamily("one", (("plog_g0.375_d0", PowerLog(0.375, 0.0)),))
    rep = run_identity_experiment("T1.2", dict(p=2, q=4, theta=0.5, r=64, alpha=1.0), fam)
    assert not rep.skipped
    assert [m["id"] for m in rep.members] == ["plog_g0.375_d0"]
    assert rep.members[0]["rhs"] == pytest.approx(0.955324018031196, rel=1e-12)


def test_identity_experiment_checks_hypotheses_first():
    """p > q is a hypothesis violation, not a failure to build the couple."""
    with pytest.raises(HypothesisViolation, match="T1.2 needs p < q < inf, got q = 2"):
        run_identity_experiment("T1.2", dict(p=4, q=2, theta=0.5, r=2, alpha=1.0), MINI, FAST)
    with pytest.raises(HypothesisViolation, match="T1.1 needs parameter 'alpha'; it takes p, q, alpha"):
        run_identity_experiment("T1.1", dict(p=2, q=4), MINI, FAST)


def test_identity_experiment_failure_names_its_member():
    """A member too large for the Grand cut scan fails with the type and
    message of the scan's error, led by the identity, the member, the
    resolution and the side, and raised from the scan's error."""
    steps = dict(standard_family(q=4.0).members)["rand_00"]
    huge = ExplicitSteps(steps.breaks, tuple(1e200 * v for v in steps.values))
    family = FunctionFamily("huge", (("huge_rand_00", huge),))
    scan = "objective is nan at t = 2.891725312640603e-15 in column 0"
    want = (
        "T1.1 member huge_rand_00 at Resolution(u_max=35.0, panels=600, sup_count=4096, k_nodes=200): "
        f"oracle K-curve: {scan}"
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValue) as err:
        run_identity_experiment("T1.1", dict(p=2, q=4, alpha=1.0), family)
    assert str(err.value) == want
    cause = err.value.__cause__
    while cause.__cause__ is not None:
        cause = cause.__cause__
    assert type(cause) is NonFiniteValue and str(cause) == scan


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


# The acceptance suite's parameters (AC11, AC12) of each lemma experiment.
LEMMA_CASES = {
    "prop3.2": dict(p=2.0, r=2.0, eps=0.5),
    "lemma3.1+3.3": dict(p=2.0, q=4.0, alpha=1.0),
    "sup_smoothing:prop3.1": dict(theta=0.5, r=2.0, alpha=1.0, q=4.0),
    "sup_smoothing:prop5.1": dict(nu=0.5, beta=1.0, q=4.0, r=2.0),
}
WITH_ZERO = FunctionFamily("mini+zero", MINI.members + (("zero", ExplicitSteps((0.0, 1.0), (0.0,))),))


@pytest.mark.parametrize("name", LEMMA_CASES)
def test_lemma_experiment_judges_every_members_rows(name):
    """A lemma experiment's members are the direct check's rows of each
    family member, named member/row; the rows a check skips stay skipped."""
    params = LEMMA_CASES[name]
    assert set(LEMMA_PARAMS) == set(LEMMA_CASES) and EXPERIMENTS[name] == tuple(params)
    rep = run_lemma_experiment(name, params, WITH_ZERO, FAST, seed=5)
    rows, skipped = [], []
    for member, f in WITH_ZERO.realize(FAST):
        direct = lemma_report(name, f, params, FAST)
        assert direct.passed == (member != "zero")
        rows += [(f"{member}/{m['id']}", m["lhs"], m["rhs"]) for m in direct.members]
        skipped += [f"{member}/{m['id']}" for m in direct.skipped]
    assert [(m["id"], m["lhs"], m["rhs"]) for m in rep.members] == rows
    assert [m["id"] for m in rep.skipped] == skipped and any(m.startswith("zero/") for m in skipped)
    assert rep.passed and rep.drift < 0.05 and rep.seed == 5
    assert rep.params == {**params, "failed_members": []}
    # run_experiment runs it over the seeded standard family
    coarse = Resolution(panels=32, sup_count=64)
    got = run_experiment(name, params, coarse, seed=3)
    want = run_lemma_experiment(name, params, standard_family(seed=3), coarse, seed=3)
    assert got.members == want.members and got.passed == want.passed


def test_lemma_experiment_fails_where_a_members_own_verdict_fails(monkeypatch):
    """Prop 3.2's violations fail the experiment even where every ratio lies
    below the ceiling; the members that failed are listed."""
    original = equivharness.prop32_check

    def violated(f, p, r, eps):
        rep = original(f, p, r, eps)
        rep.params["violations"], rep.passed = 1, False
        return rep

    monkeypatch.setattr(equivharness, "prop32_check", violated)
    rep = run_lemma_experiment("prop3.2", LEMMA_CASES["prop3.2"], WITH_ZERO, FAST)
    assert rep.max_ratio < 1.0 and rep.drift < 0.05 and not rep.passed
    assert rep.params["failed_members"] == [name for name, _ in MINI.members]


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
    ceiling = small_norm(power_quarter, 2.0, 1.0)
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
