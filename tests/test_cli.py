"""CLI surface: outputs, exit codes, determinism."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from rispaces import cli, equivharness
from rispaces.cli import main
from rispaces.config import Resolution
from rispaces.equivharness import (
    EXPERIMENTS,
    hardy_check,
    run_experiment,
    run_identity_experiment,
    standard_family,
)
from rispaces.kfunctional import GrandGrand, GrandLq, GrandSmallSameP, SmallSmall, k_curve
from rispaces.logcalc import UGrid
from rispaces.rearrangement import PowerLog, discretize_model


def run_cli(*argv):
    """Invoke the entry point in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_norm_indicator():
    code, out = run_cli(
        "norm", "--space", '{"space":"lebesgue","p":2}', "--fn", '{"kind":"char","a":0.25}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.5, abs=1e-12)


def test_norm_grand_constant():
    code, out = run_cli(
        "norm",
        "--space",
        '{"space":"grand","p":2,"alpha":2}',
        "--fn",
        '{"kind":"power_log","gamma":0,"delta":0}',
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.4199, abs=1e-3)


@pytest.mark.parametrize("args, space", [
    (("norm", "--space", '{"space":"lebesgue","p":2}'), "Lebesgue(p=2.0)"),
    (("kfunc", "--couple", '{"couple":"lp_lq","p":2,"q":4}'), "Lebesgue(p=2.0)"),
    (("kfunc", "--couple", '{"couple":"grand_grand","p":2,"q":4,"alpha":1}'), "Grand(p=2.0, alpha=1.0)"),
])
def test_norm_and_kfunc_refuse_a_model_outside_the_space(args, space, capsys):
    """t^{-0.6} is in neither L^2 nor the Grand space G^{2)}: the norm, or the
    K-functional of a couple whose first space that is, is infinite, so the
    command fails with nothing on stdout and names the model and the space."""
    code, out = run_cli(*args, "--fn", '{"kind":"power_log","gamma":0.6,"delta":0}')
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert "PowerLog(gamma=0.6, delta=0.0)" in err and f"outside {space}" in err


def test_norm_writes_to_out(tmp_path):
    args = ("norm", "--space", '{"space":"lebesgue","p":2}', "--fn", '{"kind":"char","a":0.25}')
    out = tmp_path / "norm.json"
    code, stdout = run_cli(*args, "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text() == run_cli(*args)[1]
    assert json.loads(out.read_text())["value"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "space",
    [
        '{"space":"lebesgue","p":2}',
        '{"space":"lorentz_zygmund","p":2,"q":2,"alpha":0}',
        '{"space":"grand","p":2,"alpha":1}',
        '{"space":"small","p":2,"alpha":1}',
        '{"space":"ggamma","p":2,"m":2,"w1":{"a":-1,"b":0.5},"w2":{"a":0,"b":-1}}',
    ],
)
def test_norm_echoes_the_space_kind_of_the_spec(space):
    code, out = run_cli("norm", "--space", space, "--fn", '{"kind":"char","a":0.5}')
    assert code == 0 and json.loads(out)["space"] == json.loads(space)["space"]


def test_non_finite_norm_is_a_numerical_failure(capsys):
    """Small(1000)'s norm of a log-damped constant overflows to nan: a
    numerical failure that names the space, not a value printed as invalid
    JSON."""
    spec = ('{"space":"small","p":1000,"alpha":1}', '{"kind":"power_log","gamma":0,"delta":-1}')
    with np.errstate(over="ignore", invalid="ignore"):
        code, stdout = run_cli("norm", "--space", spec[0], "--fn", spec[1])
    assert code == 1 and stdout == ""
    assert capsys.readouterr().err == "numerical failure: NonFiniteValue: small norm is nan\n"


def test_malformed_json_exits_2(capsys):
    assert main(["norm", "--space", "{oops", "--fn", '{"kind":"char","a":0.5}']) == 2


def test_unknown_space_exits_2():
    code, _ = run_cli("norm", "--space", '{"space":"hm","p":2}', "--fn", '{"kind":"char","a":0.5}')
    assert code == 2


def test_bad_hypothesis_exits_2(tmp_path):
    code, _ = run_cli(
        "experiment", "T1.2", "p=2", "q=4", "theta=1.5", "r=2", "alpha=1",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 2


def test_non_numeric_parameter_is_a_config_error(capsys):
    code, stdout = run_cli("experiment", "T1.1", "p=abc", "q=4", "alpha=1")
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err == "error: p needs a number, got 'abc'\n"


def test_reversed_exponents_are_a_hypothesis_violation(capsys):
    """p > q is checked before the couple is built: exit 2, not a numerical failure."""
    code, stdout = run_cli("experiment", "T1.2", "p=4", "q=2", "theta=0.5", "r=2", "alpha=1")
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err == "error: T1.2 needs p < q < inf, got q = 2.0\n"


@pytest.mark.parametrize(
    "flag,value,floor",
    [("--panels", "1", "1"), ("--u-max", "0.5", "1"), ("--sup-count", "0", "1"), ("--k-nodes", "1", "1")],
)
def test_out_of_range_resolution_is_an_input_error(capsys, flag, value, floor):
    """A grid the package cannot build is an input error (exit 2) that names
    its flag, not a numerical failure."""
    args = ["experiment", "T1.2", "p=2", "q=4", "theta=0.5", "r=2", "alpha=1", flag, value]
    code, stdout = run_cli(*args)
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err == f"error: {flag} must exceed {floor}, got {value}\n"


def test_u_max_past_the_normal_floats_is_an_input_error(capsys):
    """The breaks e^{1-u} of a grid deeper than 1 - Log(tiny) ~ 709.40 leave the
    normal floats: refused as a configuration error; one just above u = 373,
    where the products of neighbouring breaks do, gives a finite norm."""
    args = ["norm", "--space", '{"space":"grand","p":2,"alpha":1}',
            "--fn", '{"kind":"power_log","gamma":0,"delta":-1}']
    for u_max in ("709.4", "inf"):
        code, stdout = run_cli(*args, "--u-max", u_max)
        assert code == 2 and stdout == ""
        assert capsys.readouterr().err == f"error: --u-max must not exceed 709.396, got {float(u_max)}\n"
    for u_max in ("375", "709.39"):
        code, stdout = run_cli(*args, "--u-max", u_max)
        assert code == 0 and 0.97 < json.loads(stdout)["value"] < 1.02


@pytest.mark.parametrize("argv", [
    ("norm", "--space", '{"space":"grand","p":2,"alpha":1}', "--fn", '{"kind":"char","a":0.5}'),
    ("experiment", "P4.1", "p=2", "alpha=1"),
])
def test_unwritable_out_exits_2_before_any_work(monkeypatch, tmp_path, capsys, argv):
    """An --out path that cannot be written is a configuration error, found
    with the other flags before any spec is parsed or family built; an OSError
    from the final write is the same error."""
    monkeypatch.setattr(equivharness, "run_experiment", None)  # any work would raise
    monkeypatch.setattr(cli, "parse_spec", None)
    for out, reason in ((tmp_path / "missing" / "x.json", "No such file or directory"), (tmp_path, "Is a directory")):
        code, stdout = run_cli(*argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert capsys.readouterr().err == f"error: cannot write {str(out)!r}: {reason}\n"
    monkeypatch.undo()
    gone = tmp_path / "gone"
    gone.mkdir()
    for owner, name in ((cli, "space_norm"), (equivharness, "run_experiment")):
        work = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, work=work, **k: (work(*a, **k), gone.rmdir())[0])
    out = gone / "r.json"
    code, stdout = run_cli(*argv, "--out", str(out), "--panels", "32", "--sup-count", "64")
    assert (code, stdout) == (2, "")
    assert capsys.readouterr().err == f"error: cannot write {str(out)!r}: No such file or directory\n"


def test_writable_out_is_probed_without_a_trace(tmp_path):
    """The probe of a new --out path removes the file it made, so a run that
    then fails leaves none behind, and it leaves an existing file as it was."""
    out = tmp_path / "r.json"
    argv = ("norm", "--space", '{"space":"grand","p":2}', "--fn", '{"kind":"char","a":0.5}', "--out", str(out))
    assert run_cli(*argv)[0] == 2 and not out.exists()
    out.write_text("kept")
    assert run_cli(*argv)[0] == 2 and out.read_text() == "kept"


def test_kfunc_csv(tmp_path):
    out = tmp_path / "k.csv"
    code, _ = run_cli(
        "kfunc",
        "--fn", '{"kind":"char","a":0.5}',
        "--couple", '{"couple":"lp_lq","p":1,"q":"inf"}',
        "--k-nodes", "16", "--panels", "64",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,K_oracle,K_explicit,ratio"
    for line in lines[1:]:
        t, ko, ke, ratio = line.split(",")
        assert float(ko) == pytest.approx(min(float(t), 0.5), abs=1e-10)
        assert float(ke) == pytest.approx(min(float(t), 0.5), abs=1e-10)


@pytest.mark.parametrize(
    "spec,couple",
    [
        ('{"couple":"grand_lq","p":2,"q":4,"alpha":1}', GrandLq(2, 4, 1.0)),
        ('{"couple":"grand_grand","p":2,"q":3,"alpha":0.5}', GrandGrand(2, 3, 0.5)),
        ('{"couple":"small_small","p":2,"q":4}', SmallSmall(2, 4)),
        ('{"couple":"grand_small_same_p","p":3}', GrandSmallSameP(3)),
    ],
)
def test_kfunc_parses_each_couple(tmp_path, spec, couple):
    """The CSV carries the K-curves of the couple the spec names."""
    out = tmp_path / "k.csv"
    fn = PowerLog(0.25, 0.0)
    code, _ = run_cli(
        "kfunc", "--fn", '{"kind":"power_log","gamma":0.25,"delta":0}', "--couple", spec,
        "--k-nodes", "12", "--panels", "64", "--sup-count", "256", "--out", str(out),
    )
    assert code == 0
    res = Resolution(panels=64, sup_count=256, k_nodes=12)
    f = discretize_model(fn, res.u_max, res.panels)
    grid = UGrid(res.u_max, res.k_nodes)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == k_curve(f, couple, grid, "oracle", res).k_values.tolist()
    assert [float(r[2]) for r in rows] == k_curve(f, couple, grid, "explicit", res).k_values.tolist()


def test_kfunc_zero_function_has_empty_ratio(tmp_path):
    out = tmp_path / "k.csv"
    code, _ = run_cli(
        "kfunc",
        "--fn", '{"kind":"steps","breaks":[0,1],"values":[0]}',
        "--couple", '{"couple":"lp_lq","p":1,"q":2}',
        "--k-nodes", "8", "--panels", "64",
        "--out", str(out),
    )
    assert code == 0
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
    assert all(r[1] == "0.0" and r[3] == "" for r in rows)


def test_kfunc_reports_explicit_failure_on_stderr(tmp_path, capsys):
    # L^1 has Φ(t) = t, so ∫_0^t ds/Φ diverges and the coupling conditions fail
    out = tmp_path / "k.csv"
    args = (
        "kfunc",
        "--fn", '{"kind":"char","a":0.5}',
        "--couple", '{"couple":"general","x0":{"space":"lebesgue","p":1},"x1":{"space":"lebesgue","p":2}}',
        "--k-nodes", "8", "--panels", "64",
    )
    code, _ = run_cli(*args, "--out", str(out))
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("explicit K failed: ConditionCheckFailed: ")
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 8 and all(r[2] == "" and r[3] == "" for r in rows)
    code, stdout = run_cli(*args)
    assert code == 0 and stdout == out.read_text()


def test_interp_single_function(tmp_path):
    out = tmp_path / "interp.csv"
    code, _ = run_cli(
        "interp", "P4.1", "p=2", "alpha=1",
        "--fn", '{"kind":"char","a":0.5}',
        "--panels", "128", "--k-nodes", "64", "--sup-count", "512",
        "--out", str(out),
    )
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "function_id,lhs,rhs,ratio"
    name, lhs, rhs, ratio = row.split(",")
    assert name == "fn"
    assert 1 / 64 < float(ratio) < 64


def test_experiment_report_and_determinism(tmp_path):
    args = [
        "experiment", "discretization", "lambda=1", "q=1",
        "--seed", "11", "--out",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, str(out1))[0] == 0
    assert run_cli(*args, str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["pass"] is True


@pytest.mark.parametrize(
    "which,params",
    [
        ("thm2.1-first", ("lam=0.5", "b=2", "beta=0.5")),
        ("thm2.1-second", ("lam=0.5", "b=inf", "beta=0")),
        ("thm2.2-first", ("a=2", "alpha=0.5")),
        ("thm2.2-second", ("a=2", "alpha=-1")),
    ],
)
def test_experiment_hardy(tmp_path, which, params):
    """hardy:<display> runs hardy_check over the seeded standard family."""
    out = tmp_path / "hardy.json"
    flags = ("--panels", "64", "--sup-count", "256", "--seed", "5")
    code, _ = run_cli("experiment", f"hardy:{which}", *params, *flags, "--out", str(out))
    exponents = {k: float(v) for k, v in (kv.split("=") for kv in params)}
    res = Resolution(panels=64, sup_count=256)
    want = hardy_check(which, exponents, standard_family(seed=5), res, seed=5)
    assert code == (0 if want.passed else 3)
    assert out.read_text() == want.to_json() + "\n"
    assert json.loads(out.read_text())["experiment"] == f"hardy:{which}"


def test_interp_rows_are_the_identity_experiments_rows():
    """interp reads the harness's row loop: the members outside a required
    space (here the two whose LZ target norm is infinite) get empty sides,
    and every other row carries the sides the experiment reports."""
    flags = ("--panels", "64", "--sup-count", "256", "--k-nodes", "32")
    code, out = run_cli("interp", "T1.2", "p=2", "q=4", "theta=0.5", "r=2", "alpha=1", *flags)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    params = dict(p=2.0, q=4.0, theta=0.5, r=2.0, alpha=1.0)
    rep = run_identity_experiment("T1.2", params, res=Resolution(panels=64, sup_count=256, k_nodes=32))
    members = {m["id"]: m for m in rep.members}
    assert [r[0] for r in rows if r[1:] == ["", "", ""]] == ["plog_g0.375_d-1", "plog_g0.375_d0"]
    assert [r[0] for r in rows if r[1]] == list(members)
    for name, lhs, rhs, _ in (r for r in rows if r[1]):
        assert (lhs, rhs) == (repr(members[name]["lhs"]), repr(members[name]["rhs"]))


def test_experiment_writes_run_experiments_report(capsys):
    code, out = run_cli("experiment", "discretization", "lambda=0.5", "q=2", "--seed", "7")
    assert code == 0
    assert out == run_experiment("discretization", {"lambda": 0.5, "q": 2.0}, seed=7).to_json() + "\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("experiment", "discretization", "lamda=0.5", "q=2"),
         "discretization takes no parameter 'lamda'; it takes lambda, q"),
        (("experiment", "discretization", "lam=0.5", "q=2"),
         "discretization takes no parameter 'lam'; it takes lambda, q"),
        (("experiment", "T1.1", "p=2", "q=4", "alpha=1", "theta=0.3"),
         "T1.1 takes no parameter 'theta'; it takes p, q, alpha"),
        (("interp", "P4.1", "p=2", "alpha=1", "q=4", "--fn", '{"kind":"char","a":0.5}'),
         "P4.1 takes no parameter 'q'; it takes p, alpha"),
        (("interp", "T1.1", "p=2", "q=4", "alpha=inf"), "T1.1 needs 0 < alpha < inf, got alpha = inf"),
    ],
)
def test_parameters_outside_the_catalogue_exit_2(capsys, argv, message):
    code, stdout = run_cli(*argv)
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--space", "--fn"])
@pytest.mark.parametrize("target", ["missing.json", "."])
def test_unreadable_spec_file_exits_2(tmp_path, capsys, flag, target):
    """A spec file that cannot be opened or read is an input error naming it."""
    path = str(tmp_path / target)
    specs = {"--space": '{"space":"lebesgue","p":2}', "--fn": '{"kind":"char","a":0.5}'}
    specs[flag] = "@" + path
    code, stdout = run_cli("norm", *(item for pair in specs.items() for item in pair))
    assert code == 2 and stdout == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path!r}: ") and err.count("\n") == 1


def test_experiment_unknown_name():
    code, _ = run_cli("experiment", "T9.9", "p=2")
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (("hardy:thm2.1-first", "lam=0.5"), "hardy:thm2.1-first needs parameter 'b'; it takes lam, b, beta"),
        (("hardy:thm2.1-second", "lam=0", "b=2"), "hardy:thm2.1-second needs 0 < lam < inf, got lam = 0.0"),
        (("hardy:thm2.1-first", "lam=0.5", "b=0.5"), "hardy:thm2.1-first needs b >= 1, got b = 0.5"),
        (("hardy:thm2.2-first", "alpha=1"), "hardy:thm2.2-first needs parameter 'a'; it takes a, alpha"),
        (("hardy:thm2.2-first", "a=0.5", "alpha=1"), "hardy:thm2.2-first needs 1 <= a < inf, got a = 0.5"),
        (("hardy:thm2.2-second", "a=2", "alpha=0.5"),
         "hardy:thm2.2-second needs -inf < alpha < -1/a (tail branch), got alpha = 0.5"),
        (("hardy:thm2.2-first", "a=2", "alpha=-0.5"),
         "hardy:thm2.2-first needs -1/a < alpha < inf (prefix branch), got alpha = -0.5"),
        (("hardy:thm2.9", "a=2"), "unknown experiment 'hardy:thm2.9'; see list-experiments"),
        (("discretization", "lambda=1", "q=0"), "discretization needs 0 < q < inf, got q = 0.0"),
        (("discretization", "q=inf"), "discretization needs 0 < q < inf, got q = inf"),
        (("discretization", "lambda=nan"), "discretization needs a finite lambda, got lambda = nan"),
        (("prop3.2", "p=inf", "r=2", "eps=0.5"), "prop3.2 needs 1 <= p < inf, got p = inf"),
        (("lemma3.1+3.3", "p=2", "q=2", "alpha=1"), "lemma3.1+3.3 needs p < q < inf, got q = 2.0"),
        (("sup_smoothing:prop3.1", "theta=0.5", "r=0.5", "alpha=1", "q=4"),
         "sup_smoothing:prop3.1 needs 1 <= r < inf, got r = 0.5"),
        (("sup_smoothing:prop5.1", "nu=0", "beta=1", "q=4", "r=2"),
         "sup_smoothing:prop5.1 needs 0 < nu < inf, got nu = 0.0"),
        (("T1.1", "p=2", "q=1", "alpha=1"), "T1.1 needs p < q < inf, got q = 1.0"),
        (("T1.1", "p=2", "q=4", "alpha=inf"), "T1.1 needs 0 < alpha < inf, got alpha = inf"),
        (("T1.2", "p=2", "q=4", "theta=0.5", "r=2", "alpha=inf"), "T1.2 needs 0 < alpha < inf, got alpha = inf"),
        (("P4.1", "p=2", "alpha=inf"), "P4.1 needs 0 < alpha < inf, got alpha = inf"),
        (("hardy:thm2.1-first", "lam=0.5", "b=2", "beta=nan"), "hardy:thm2.1-first needs a finite beta, got beta = nan"),
        (("hardy:thm2.1-first", "lam=0.5", "b=2", "beta=inf"), "hardy:thm2.1-first needs a finite beta, got beta = inf"),
        (("hardy:thm2.1-first", "lam=inf", "b=2"), "hardy:thm2.1-first needs 0 < lam < inf, got lam = inf"),
        (("hardy:thm2.2-first", "a=inf", "alpha=1"), "hardy:thm2.2-first needs 1 <= a < inf, got a = inf"),
        (("hardy:thm2.2-first", "a=2", "alpha=inf"),
         "hardy:thm2.2-first needs -1/a < alpha < inf (prefix branch), got alpha = inf"),
    ],
)
def test_bad_hardy_and_discretization_parameters_exit_2(capsys, argv, message):
    """A missing or out-of-range parameter, or an unknown display, is a
    configuration error named before any numerics, not a numerical failure:
    so are a lemma check's (prop 3.2 at p = inf would pass vacuously, its
    right side being infinite), an identity's (at q = 1 building the family
    divided by zero) and a non-finite exponent's (each ended in a BadExponent
    from the numerics)."""
    code, stdout = run_cli("experiment", *argv)
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err == f"error: {message}\n"


# One valid parameter set of each experiment, and the parameters it may leave
# out (each has a default).
VALID = {
    "T1.1": ("p=2 q=4 alpha=1", ""),
    "T3.1": ("p=2 q=4 alpha=1", ""),
    "T1.2": ("p=2 q=4 theta=0.5 r=2 alpha=1", ""),
    "T3.4": ("p=2 q=4 theta=0.5 r=2 alpha=1", ""),
    "T5.1": ("p=2 q=4 theta=0.5 r=2", ""),
    "P4.1": ("p=2 alpha=1", ""),
    "P4.2": ("p=2 q=4 alpha=1", ""),
    "T1.3": ("p=2 theta=0.5 r=2", ""),
    "T6.2": ("p=2 theta=0.5 r=2", ""),
    "hardy:thm2.1-first": ("lam=0.5 b=2 beta=0", "beta"),
    "hardy:thm2.1-second": ("lam=0.5 b=2 beta=0", "beta"),
    "hardy:thm2.2-first": ("a=2 alpha=1", ""),
    "hardy:thm2.2-second": ("a=2 alpha=-1", ""),
    "discretization": ("lambda=1 q=2", "lambda q"),
    "prop3.2": ("p=2 r=2 eps=0.5", ""),
    "lemma3.1+3.3": ("p=2 q=4 alpha=1", ""),
    "sup_smoothing:prop3.1": ("theta=0.5 r=2 alpha=1 q=4", ""),
    "sup_smoothing:prop5.1": ("nu=0.5 beta=1 q=4 r=2", ""),
}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_experiment_names_a_dropped_or_unknown_parameter_before_any_numerics(
    monkeypatch, capsys, name
):
    """Each required parameter left out, and one the experiment does not
    take, is a configuration error that names it; no family is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("numerics started")

    monkeypatch.setattr(equivharness, "standard_family", refuse)
    monkeypatch.setattr(equivharness, "random_steps", refuse)
    assert set(VALID) == set(EXPERIMENTS)
    given, optional = (text.split() for text in VALID[name])
    assert [kv.split("=")[0] for kv in given] == list(EXPERIMENTS[name])
    for kv in given:
        key = kv.split("=")[0]
        if key in optional:
            continue
        code, stdout = run_cli("experiment", name, *(other for other in given if other != kv))
        err = capsys.readouterr().err
        assert code == 2 and stdout == "" and re.search(rf"\b{re.escape(key)}\b", err), err
    code, stdout = run_cli("experiment", name, *given, "nu2=1")
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err.startswith(f"error: {name} takes no parameter 'nu2'; it takes ")


@pytest.mark.parametrize(
    "argv",
    [
        ("prop3.2", "p=2", "r=2", "eps=0.5"),
        ("lemma3.1+3.3", "p=2", "q=4", "alpha=1"),
        ("sup_smoothing:prop3.1", "theta=0.5", "r=2", "alpha=1", "q=4"),
        ("sup_smoothing:prop5.1", "nu=0.5", "beta=1", "q=4", "r=2"),
    ],
    ids=lambda argv: argv[0],
)
def test_lemma_experiments_pass_at_the_default_resolution(monkeypatch, argv):
    """AC11's and AC12's parameters over the standard family: a strict-JSON
    report that passes, with every member's own verdict."""
    monkeypatch.delenv("RISPACES_SEED", raising=False)
    code, out = run_cli("experiment", *argv)

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out, parse_constant=refuse)
    assert code == 0 and report["pass"] and report["experiment"] == argv[0]
    assert report["params"]["failed_members"] == [] and report["drift"] < 0.05
    assert report["seed"] == 20240801 and report["ceiling"] == 64.0


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (("experiment", "T1.1", "p=2", "q=4", "alpha=1", "--seed", "-1"), None,
         "--seed must be a non-negative integer, got -1"),
        (("interp", "P4.1", "p=2", "alpha=1", "--seed", "-5"), None,
         "--seed must be a non-negative integer, got -5"),
        (("experiment", "P4.1", "p=2", "alpha=1"), "-3",
         "RISPACES_SEED must be a non-negative integer, got -3"),
    ],
    ids=["experiment-flag", "interp-flag", "environment"],
)
def test_negative_seed_exits_2(monkeypatch, capsys, argv, env, message):
    """numpy refuses a negative seed; it is named before any numerics."""
    monkeypatch.setattr(equivharness, "standard_family", None)
    if env is None:
        monkeypatch.delenv("RISPACES_SEED", raising=False)
    else:
        monkeypatch.setenv("RISPACES_SEED", env)
    code, stdout = run_cli(*argv)
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("ceiling", ["0", "-1", "nan"])
def test_a_ceiling_that_is_not_positive_exits_2(monkeypatch, capsys, ceiling):
    monkeypatch.setattr(equivharness, "standard_family", None)
    code, stdout = run_cli("experiment", "P4.1", "p=2", "alpha=1", "--ceiling", ceiling)
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err == f"error: --ceiling must exceed 0, got {float(ceiling)}\n"


def test_an_infinite_ceiling_is_allowed():
    code, out = run_cli("experiment", "discretization", "lambda=0.5", "q=2", "--ceiling", "inf")
    report = json.loads(out)
    assert code == 0 and report["pass"] and report["ceiling"] is None


@pytest.mark.parametrize("w1, w2, reason", [
    ('{"a":-2,"b":0}', '{"a":0,"b":-1}', "∫_0^t w2 is not in the outer weighted space"),
    ('{"a":-1,"b":0}', '{"a":3,"b":0}', "inner weight does not embed L^p(w2) into L^1"),
], ids=["outer", "embedding"])
def test_space_failing_condition_c2_is_a_bad_spec(capsys, w1, w2, reason):
    """A ggamma spec whose constructor rejects it on condition C2 is refused
    like every other rejected spec: exit 2, nothing on stdout, also inside a
    general couple."""
    space = f'{{"space":"ggamma","p":2,"m":2,"w1":{w1},"w2":{w2}}}'
    couple = f'{{"couple":"general","x0":{space},"x1":{space}}}'
    for args in (("norm", "--space", space), ("kfunc", "--couple", couple)):
        code, out = run_cli(*args, "--fn", '{"kind":"char","a":0.5}')
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: bad space spec: {reason}\n"


def test_ggamma_with_an_a2_minus_one_inner_weight_exits_0():
    code, out = run_cli(
        "norm",
        "--space",
        '{"space":"ggamma","p":2,"m":2,"w1":{"a":-1,"b":0},"w2":{"a":-1,"b":-3}}',
        "--fn", '{"kind":"power_log","gamma":0,"delta":0}',
    )
    assert code == 0
    assert math.isfinite(json.loads(out)["value"])


def test_small_norm_near_the_edge_exponent():
    """Small(1000, 1) of the constant 1 is ∫_0^1 t^{-0.999}(1 - Log t)^{-0.001} dt
    = e^c c^{-s} Γ(s, c) with c = 0.001, s = 0.999: an open-ended weight
    integral whose u-integrand decays only like e^{-u/1000}."""
    code, out = run_cli(
        "norm",
        "--space",
        '{"space":"small","p":1000,"alpha":1}',
        "--fn",
        '{"kind":"power_log","gamma":0,"delta":0}',
    )
    assert code == 0
    value = json.loads(out)["value"]
    assert math.isfinite(value)
    assert value == pytest.approx(993.68295907635, rel=1e-11)


@pytest.mark.parametrize(
    "fn",
    [
        '{"kind":"power_log","gamma":1.5,"delta":0}',
        '{"kind":"char","a":1.5}',
        '{"kind":"steps","breaks":[0,0.5,1],"values":[1,2]}',
        '{"kind":"char","a":null}',
        '{"kind":"steps","breaks":5,"values":[1]}',
    ],
)
def test_rejected_function_model_exits_2(capsys, fn):
    """A model its constructor or its rearrangement rejects is an input error."""
    code, stdout = run_cli("norm", "--space", '{"space":"lebesgue","p":2}', "--fn", fn)
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err.startswith("error: bad function spec: ")


def test_samples_off_unit_mass_exit_2(tmp_path, capsys):
    csv = tmp_path / "samples.csv"
    csv.write_text("value,weight\n3.0,0.25\n1.0,0.5\n")
    fn = json.dumps({"kind": "samples", "path": str(csv)})
    code, stdout = run_cli("norm", "--space", '{"space":"lebesgue","p":1}', "--fn", fn)
    assert code == 2 and stdout == ""
    assert capsys.readouterr().err.startswith("error: bad function spec: weights sum to ")


def test_seed_variable_is_read_only_by_seeded_commands(monkeypatch, capsys):
    """norm takes no seed, so a malformed RISPACES_SEED does not concern it; an
    experiment without --seed reads it and reports it as an input error."""
    monkeypatch.setenv("RISPACES_SEED", "abc")
    code, out = run_cli("norm", "--space", '{"space":"lebesgue","p":2}', "--fn", '{"kind":"char","a":0.25}')
    assert code == 0 and json.loads(out)["value"] == pytest.approx(0.5, abs=1e-12)
    code, out = run_cli("experiment", "discretization", "lambda=1", "q=1")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: RISPACES_SEED must be an integer, got 'abc'\n"
    code, out = run_cli("experiment", "discretization", "lambda=1", "q=1", "--seed", "11")
    assert code == 0 and json.loads(out)["seed"] == 11


NORM = ("norm", "--space", '{"space":"lebesgue","p":2}', "--fn", '{"kind":"char","a":0.25}')
KFUNC = ("kfunc", "--fn", '{"kind":"char","a":0.5}', "--couple", '{"couple":"lp_lq","p":1,"q":2}')


@pytest.mark.parametrize(
    "argv",
    [
        *(("list-experiments", flag, "1") for flag in (
            "--out", "--seed", "--u-max", "--panels", "--k-nodes", "--sup-count", "--ceiling"
        )),
        (*NORM, "--seed", "3"),
        (*NORM, "--k-nodes", "16"),
        (*NORM, "--ceiling", "2"),
        (*KFUNC, "--seed", "3"),
        (*KFUNC, "--ceiling", "2"),
        ("interp", "P4.1", "p=2", "alpha=1", "--ceiling", "2"),
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_flags_a_command_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_bad_space_parameters_exit_2():
    code, _ = run_cli(
        "norm", "--space", '{"space":"grand","p":0.5,"alpha":1}', "--fn", '{"kind":"char","a":0.5}'
    )
    assert code == 2


def test_failed_bracket_exits_3(tmp_path):
    code, _ = run_cli(
        "experiment", "T1.1", "p=2", "q=4", "alpha=1",
        "--ceiling", "1.000001",
        "--panels", "64", "--k-nodes", "16", "--sup-count", "256",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 3


def test_discretization_report_takes_ceiling_and_seed(monkeypatch):
    """The discretization experiment judges against an explicit --ceiling and
    records --seed; without the flags it keeps its own ceiling, 32."""
    monkeypatch.delenv("RISPACES_SEED", raising=False)
    code, out = run_cli("experiment", "discretization", "lambda=0.5", "q=2")
    report = json.loads(out)
    assert code == 0 and report["pass"]
    assert report["ceiling"] == 32.0 and report["seed"] == 20240801
    code, out = run_cli(
        "experiment", "discretization", "lambda=0.5", "q=2", "--seed", "7", "--ceiling", "1.5"
    )
    report = json.loads(out)
    assert report["ceiling"] == 1.5 and report["seed"] == 7
    assert report["max_ratio"] > 1.5 and not report["pass"] and code == 3


def test_discretization_report_records_the_parameters_given(monkeypatch):
    """Under the catalogue's name lambda, and without the defaults filled in."""
    monkeypatch.delenv("RISPACES_SEED", raising=False)
    for argv, given in [((), {}), (("lambda=0.5",), {"lambda": 0.5}),
                        (("lambda=-1", "q=2"), {"lambda": -1.0, "q": 2.0})]:
        code, out = run_cli("experiment", "discretization", *argv)
        params = json.loads(out)["params"]
        assert code == 0 and {k: params[k] for k in ("lambda", "lam", "q") if k in params} == given


def test_list_experiments():
    code, out = run_cli("list-experiments")
    assert code == 0
    assert out.splitlines() == [
        "T1.1                     p q alpha",
        "T3.1                     p q alpha",
        "T1.2                     p q theta r alpha",
        "T3.4                     p q theta r alpha",
        "T5.1                     p q theta r",
        "P4.1                     p alpha",
        "P4.2                     p q alpha",
        "T1.3                     p theta r",
        "T6.2                     p theta r",
        "hardy:thm2.1-first       lam b beta",
        "hardy:thm2.1-second      lam b beta",
        "hardy:thm2.2-first       a alpha",
        "hardy:thm2.2-second      a alpha",
        "discretization           lambda q",
        "prop3.2                  p r eps",
        "lemma3.1+3.3             p q alpha",
        "sup_smoothing:prop3.1    theta r alpha q",
        "sup_smoothing:prop5.1    nu beta q r",
    ]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rispaces.cli", "list-experiments"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and "T1.1" in proc.stdout


def test_samples_csv_roundtrip(tmp_path):
    csv = tmp_path / "samples.csv"
    csv.write_text("value,weight\n3.0,0.25\n1.0,0.75\n")
    code, out = run_cli(
        "norm",
        "--space", '{"space":"lebesgue","p":1}',
        "--fn", json.dumps({"kind": "samples", "path": str(csv)}),
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.5, abs=1e-12)
