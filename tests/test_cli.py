"""CLI surface: outputs, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rispaces.cli import main
from rispaces.config import Resolution
from rispaces.equivharness import hardy_check, standard_family
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


def test_norm_writes_to_out(tmp_path):
    args = ("norm", "--space", '{"space":"lebesgue","p":2}', "--fn", '{"kind":"char","a":0.25}')
    out = tmp_path / "norm.json"
    code, stdout = run_cli(*args, "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text() == run_cli(*args)[1]
    assert json.loads(out.read_text())["value"] == pytest.approx(0.5, abs=1e-12)


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
    assert capsys.readouterr().err == "error: need 1 < p < q < inf\n"


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


def test_experiment_unknown_name():
    code, _ = run_cli("experiment", "T9.9", "p=2")
    assert code == 2


def test_divergent_space_exits_1():
    # the inner-weight membership check detects divergence: a numerical failure
    code, _ = run_cli(
        "norm",
        "--space",
        '{"space":"ggamma","p":2,"m":2,"w1":{"a":-2,"b":0},"w2":{"a":0,"b":-1}}',
        "--fn", '{"kind":"char","a":0.5}',
    )
    assert code == 1


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
