"""Acceptance suite: one test per criterion, at the default resolution.

Each criterion prints its own PASS/FAIL line.  Families are module-level so
their discretizations and oracle-line caches are shared across criteria.
"""

import math

import numpy as np
import pytest

from rispaces.cli import main as cli_main
from rispaces.config import Resolution
from rispaces.equivharness import (
    hardy_check,
    prop32_check,
    random_steps,
    run_identity_experiment,
    standard_family,
    sup_smoothing_check,
    discretization_check,
    model_in_space,
)
from rispaces.interpolation import doubling_time, z_norm
from rispaces.kfunctional import (
    GrandGrand,
    GrandLq,
    GrandSmallSameP,
    LpLq,
    SmallSmall,
    couple_psi,
    couple_spaces,
    k_curve,
    split_point,
)
from rispaces.logcalc import LogWeight, UGrid, invert_monotone, log_integral_bounds_check
from rispaces.norms import (
    GammaDouble,
    ggamma_lower_bound_check,
    lebesgue_norm,
    lorentz_zygmund_norm,
    space_norm,
    Grand,
    Lebesgue,
    LorentzZygmund,
    Small,
)
from rispaces.rearrangement import (
    StepFunction,
    StepRearrangement,
    power_integral,
    rearrange_from_samples,
)

ACC = Resolution()  # the documented defaults
FAMILY2 = standard_family(q=2.0)
FAMILY4 = standard_family(q=4.0)
FAMILY_INF = standard_family(q=math.inf)

THM13_SPECS = [
    GammaDouble(2, 2, LogWeight(-1.0, th * 2 - 1.0), LogWeight(0.0, -1.0))
    for th in (0.5, 0.75)
]


def report(name: str, passed: bool, detail: str = ""):
    print(f"{name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{name} {detail}"


def couple_bracket(couple, family, res):
    """Worst two-sided oracle/explicit K ratio over the family and t-grid."""
    x0, _ = couple_spaces(couple)
    grid = UGrid(res.u_max, res.k_nodes)
    worst = 0.0
    for name, model in family.members:
        if not model_in_space(model, x0):
            continue
        f = dict(family.realize(res))[name]
        oracle = k_curve(f, couple, grid, "oracle", res)
        explicit = k_curve(f, couple, grid, "explicit", res)
        mask = (oracle.k_values > 0) & (explicit.k_values > 0)
        if not np.any(mask):
            continue
        o, e = oracle.k_values[mask], explicit.k_values[mask]
        worst = max(worst, float(np.max(np.maximum(o / e, e / o))))
    return worst


def test_ac1_rearrangement_oracle():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        values = rng.uniform(0.0, 10.0, n)
        weights = rng.uniform(0.1, 2.0, n)
        weights /= weights.sum()
        samples = list(zip(values, weights))
        f = rearrange_from_samples(samples)
        expect = sorted(values, reverse=True)
        assert list(f.values) == expect
        err = abs(power_integral(f, 1, 0, 1) - float(np.dot(values, weights)))
        worst = max(worst, err)
    report("AC1 rearrangement oracle (1000 samples)", worst <= 1e-12, f"max err {worst:.2e}")


def test_ac2_norm_degeneracies():
    lam = 2.718
    worst_lz = 0.0
    worst_hom = 0.0
    specs = [
        Lebesgue(2),
        LorentzZygmund(2, 3, 0.5),
        Grand(2, 1.0),
        Small(2, 1.0),
        THM13_SPECS[1],
    ]
    for name, f in FAMILY4.realize(ACC):
        for p in (1.5, 2.0, 4.0):
            a = lorentz_zygmund_norm(f, p, p, 0.0)
            b = lebesgue_norm(f, p)
            if b > 0:
                worst_lz = max(worst_lz, abs(a - b) / b)
        g = StepRearrangement(f.breaks, lam * f.values)
        for spec in specs:
            base = space_norm(f, spec, ACC)
            if base == 0.0:
                continue
            scaled = space_norm(g, spec, ACC)
            worst_hom = max(worst_hom, abs(scaled - lam * base) / (lam * base))
    report(
        "AC2 norm degeneracies",
        worst_lz <= 1e-8 and worst_hom <= 1e-12,
        f"lz err {worst_lz:.2e} hom err {worst_hom:.2e}",
    )


@pytest.mark.parametrize("p,q,family", [(1, 2, FAMILY2), (2, 4, FAMILY4)], ids=["l1l2", "l2l4"])
def test_ac3_holmstedt_bracket(p, q, family):
    couple = LpLq(p, q)
    base = couple_bracket(couple, family, ACC)
    fine = couple_bracket(couple, family, ACC.doubled())
    drift = abs(fine - base) / base
    report(
        f"AC3 two-term bracket (L{p}, L{q})",
        base <= 16.0 and drift < 0.05,
        f"bracket {base:.3f} drift {drift:.3%}",
    )


@pytest.mark.parametrize(
    "couple",
    [GrandLq(2, 4, 1.0), GrandGrand(2, 4, 1.0), SmallSmall(2, 4), GrandSmallSameP(2)],
    ids=["grand-lq", "grand-grand", "small-small", "grand-small"],
)
def test_ac4_explicit_k_brackets(couple):
    family = FAMILY2 if isinstance(couple, GrandSmallSameP) else FAMILY4
    base = couple_bracket(couple, family, ACC)
    fine = couple_bracket(couple, family, ACC.doubled())
    drift = abs(fine - base) / base
    report(
        f"AC4 explicit K bracket {couple}",
        base <= 64.0 and drift < 0.05,
        f"bracket {base:.3f} drift {drift:.3%}",
    )


def _identity(name, tid, params, family, ceiling=64.0):
    rep = run_identity_experiment(tid, params, family, ACC, ceiling=ceiling)
    bracket = max(rep.max_ratio, 1.0 / rep.min_ratio)
    report(
        name,
        rep.passed,
        f"bracket {bracket:.3f} drift {rep.drift:.3%} members {len(rep.members)}",
    )


def test_ac5_grand_identity():
    _identity("AC5 grand-space identity", "T1.1", dict(p=2, q=4, alpha=1.0), FAMILY4)


def test_ac6_grand_grand_identity():
    _identity(
        "AC6 grand-grand identity", "T1.2", dict(p=2, q=4, theta=0.5, r=2, alpha=1.0), FAMILY4
    )


def test_ac7_small_small_identity():
    _identity(
        "AC7 small-small identity", "T5.1", dict(p=2, q=4, theta=1.0 / 3.0, r=2), FAMILY4
    )


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75], ids=["sub", "critical", "super"])
def test_ac8_same_exponent_identity(theta):
    _identity(
        f"AC8 same-exponent identity theta={theta}",
        "T6.2",
        dict(p=2, theta=theta, r=2),
        FAMILY2,
    )


def test_ac8_critical_block_sum_vs_lebesgue():
    worst = 0.0
    for name, f in FAMILY2.realize(ACC):
        z = z_norm(f, 2, 0.5, 2)
        l = lebesgue_norm(f, 2)
        if z > 0 and l > 0:
            worst = max(worst, z / l, l / z)
    report("AC8 critical block sum vs plain norm", worst <= 16.0, f"bracket {worst:.3f}")


def test_ac9_discretization():
    spots = [doubling_time(k) for k in range(4)]
    exact = spots == [1.0, 0.5, 1.0 / 8.0, 1.0 / 128.0]
    rng = np.random.default_rng(271828)
    worst = 0.0
    for lam in (0.5, 1.0):
        for q in (1.0, 1.5):
            for _ in range(20):
                m = random_steps(rng, nonincreasing=False)
                h = StepFunction(np.asarray(m.breaks), np.asarray(m.values))
                rep = discretization_check(h, lam, q)
                for row in rep.members:
                    if row["id"].startswith("blocks"):
                        worst = max(worst, row["ratio"], 1.0 / row["ratio"])
    report(
        "AC9 discretization blocks",
        exact and worst <= 32.0,
        f"block grid exact={exact}, bracket {worst:.3f}",
    )


def test_ac10_inversion_residuals():
    couples = [
        LpLq(1, 2),
        LpLq(2, 4),
        LpLq(2, math.inf),
        GrandLq(2, 4, 1.0),
        GrandGrand(2, 4, 1.0),
        SmallSmall(2, 4),
        GrandSmallSameP(2),
    ]
    worst = 0.0
    for c in couples:
        # keep split points inside the normal float range (doubles only)
        u_hi = 7.0 if isinstance(c, GrandSmallSameP) else 30.0
        ts = np.exp(1.0 - np.linspace(1.0, u_hi, 1000))
        psi = couple_psi(c)
        for t in ts:
            phi = split_point(c, float(t))
            worst = max(worst, abs(float(psi(phi)) - t) / t)
    phi1_err = 0.0
    for t in np.exp(1.0 - np.linspace(1.0, 7.0, 1000)):
        got = invert_monotone(LogWeight(0.0, -1.0), float(t))
        phi1_err = max(phi1_err, abs(got - math.exp(1.0 - 1.0 / t)) / got)
    report(
        "AC10 inversion residuals",
        worst <= 1e-10 and phi1_err <= 1e-12,
        f"psi resid {worst:.2e}, closed-form err {phi1_err:.2e}",
    )


def test_ac11_explicit_constant_inequalities():
    violations = []
    # norm lower bound with explicit constant, over family x measures x weights
    for spec in THM13_SPECS:
        for _, f in FAMILY2.realize(ACC):
            for meas in (1.0, 0.5, 1.0 / 8.0):
                lhs, rhs = ggamma_lower_bound_check(f, spec, meas, ACC)
                if not lhs >= rhs * (1.0 - 1e-8):
                    violations.append(("lower-bound", meas, lhs, rhs))
    # head-integral lower bound 1/(1-alpha) for beta >= 0
    for alpha in (-2.0, -0.5, 0.0, 0.5, 0.9):
        for beta in (0.0, 0.5, 1.0, 2.0):
            rep = log_integral_bounds_check(alpha, beta, list(np.exp(-np.linspace(0.05, 25, 12))))
            if not rep["head_lower_ok"]:
                violations.append(("head-bound", alpha, beta))
    # windowed sup bound with constant 2 (Log 2)^{1/r'}
    for _, f in FAMILY2.realize(ACC):
        for p in (1.5, 2.0):
            for r in (1.5, 2.0):
                for eps in (0.25, 0.5):
                    rep = prop32_check(f, p, r, eps)
                    if rep.members and rep.params["violations"]:
                        violations.append(("windowed-sup", p, r, eps))
    report("AC11 explicit-constant inequalities", not violations, f"violations {violations[:3]}")


def test_ac12_hardy_and_smoothing():
    checks = [
        ("thm2.1-first", dict(lam=0.5, b=1.0, beta=0.0)),
        ("thm2.1-second", dict(lam=0.5, b=1.0, beta=0.0)),
        ("thm2.2-first", dict(a=2.0, alpha=1.0)),
        ("thm2.2-second", dict(a=2.0, alpha=-1.0)),
    ]
    ok = True
    detail = []
    for which, exps in checks:
        rep = hardy_check(which, exps, FAMILY2, ACC)
        ok = ok and rep.passed and rep.drift < 0.05
        detail.append(f"{which} {rep.max_ratio:.2f}")
    # sup-smoothing: bracket stability and the exact one-sided direction
    for which, exps in (
        ("prop3.1", dict(theta=0.5, r=2.0, alpha=1.0, q=4.0)),
        ("prop5.1", dict(nu=0.5, beta=1.0, q=4.0, r=2.0)),
    ):
        worst = {True: 0.0, False: 0.0}
        for refined in (False, True):
            res = ACC.doubled() if refined else ACC
            for _, f in FAMILY2.realize(res):
                rep = sup_smoothing_check(f, exps, which)
                if not rep.members:
                    continue
                ok = ok and rep.passed  # includes i_sup >= i_dir within 1e-9
                worst[refined] = max(worst[refined], rep.members[0]["ratio"])
        drift = abs(worst[True] - worst[False]) / worst[False]
        ok = ok and drift < 0.05
        detail.append(f"{which} {worst[False]:.2f}")
    report("AC12 weighted Hardy and sup smoothing", ok, "; ".join(detail))


def test_ac13_small_space_identities():
    _identity("AC13 small identity (endpoint couple)", "P4.1", dict(p=2, alpha=1.0), FAMILY_INF)
    _identity("AC13 small identity (finite couple)", "P4.2", dict(p=2, q=4, alpha=1.0), FAMILY4)


def test_ac14_determinism(tmp_path):
    import contextlib
    import io

    def run(argv, path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv + ["--out", str(path)])
        return code

    args_exp = ["experiment", "discretization", "lambda=1", "q=1", "--seed", "7"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1 = run(args_exp, a)
    code2 = run(args_exp, b)
    args_k = [
        "kfunc", "--fn", '{"kind":"char","a":0.5}',
        "--couple", '{"couple":"lp_lq","p":1,"q":2}',
        "--k-nodes", "32", "--panels", "128",
    ]
    ka, kb = tmp_path / "ka.csv", tmp_path / "kb.csv"
    code3 = run(args_k, ka)
    code4 = run(args_k, kb)
    same = a.read_bytes() == b.read_bytes() and ka.read_bytes() == kb.read_bytes()
    report(
        "AC14 determinism",
        same and code1 == code2 == 0 and code3 == code4 == 0,
        "byte-identical outputs",
    )
