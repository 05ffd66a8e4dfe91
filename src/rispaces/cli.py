"""Command-line surface: norms, K-curves, interpolation identities, experiments.

Subcommands
-----------
norm             evaluate a space norm of a function, print {"space", "value"}
kfunc            write a CSV of t, K_oracle, K_explicit, ratio over a log grid
interp           run one identity over a family; CSV of function_id,lhs,rhs,ratio
experiment       run a named ratio experiment; write the JSON report
list-experiments print the catalog of experiment names and their parameters

Functions, spaces and couples are passed as JSON (inline or @file).  Each
subcommand takes only the flags it reads; the seed of interp and experiment
falls back to the RISPACES_SEED environment variable.  Exit codes: 0 success,
1 numerical failure, 2 configuration error, 3 experiment failed its bracket.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from . import equivharness as harness
from .config import DEFAULT, Resolution
from .errors import BadExponent, BadModel, BadWeights, ConditionC2Failed, HypothesisViolation, NonFiniteInput
from .errors import NonFiniteValue, RispacesError
from .interpolation import HYPOTHESES, THEOREM_IDS, check_params
from .kfunctional import General, GrandGrand, GrandLq, GrandSmallSameP, LpLq, SmallSmall, couple_spaces, k_curve
from .logcalc import LogWeight, UGrid
from .norms import GammaDouble, Grand, Lebesgue, LorentzZygmund, Small, space_norm
from .rearrangement import Char, ExplicitSteps, FunctionModel, PowerLog, Samples, discretize_model


class ConfigError(Exception):
    pass


def _load_json(text: str) -> dict:
    text = text.strip()
    if text.startswith("@"):
        try:
            with open(text[1:], "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {text[1:]!r}: {exc.strerror}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("expected a JSON object")
    return obj


def parse_fn(obj: dict) -> FunctionModel:
    """The function model a decoded spec names; a model its constructor or (for
    steps and samples, which need no grid) its rearrangement rejects is a ConfigError."""
    kind = obj.get("kind")
    try:
        if kind == "power_log":
            return PowerLog(float(obj["gamma"]), float(obj["delta"]))
        if kind == "char":
            return Char(float(obj["a"]))
        if kind == "steps":
            model = ExplicitSteps(*(tuple(map(float, obj[key])) for key in ("breaks", "values")))
        elif kind == "samples":
            rows = []
            with open(obj["path"], "r") as fh:
                header = fh.readline().strip().split(",")
                if header[:2] != ["value", "weight"]:
                    raise ConfigError("sample CSV must have header value,weight")
                for line in fh:
                    if line.strip():
                        v, w = line.strip().split(",")
                        rows.append((float(v), float(w)))
            model = Samples(tuple(rows))
        else:
            raise ConfigError(f"unknown function kind {kind!r}")
        discretize_model(model)
        return model
    except (KeyError, ValueError, TypeError, OSError, BadModel, BadWeights, NonFiniteInput) as exc:
        raise ConfigError(f"bad function spec: {exc}") from exc


# Each spec kind's dataclass, whose fields in order are the spec's keys: a field
# annotated LogWeight is {"a", "b"}, a SpaceSpec a space spec, any other a number.
_SPECS = {
    "space": {
        "lebesgue": Lebesgue,
        "lorentz_zygmund": LorentzZygmund,
        "grand": Grand,
        "small": Small,
        "ggamma": GammaDouble,
    },
    "couple": {
        "lp_lq": LpLq,
        "grand_lq": GrandLq,
        "grand_grand": GrandGrand,
        "small_small": SmallSmall,
        "grand_small_same_p": GrandSmallSameP,
        "general": General,
    },
}


def _field(kind: str, value):
    if kind == "LogWeight":
        return LogWeight(float(value["a"]), float(value["b"]))
    if kind == "SpaceSpec":
        return parse_spec("space", value)
    return float(value)


def parse_spec(what: str, obj):
    """The space or couple (what) a decoded JSON spec names."""
    if not isinstance(obj, dict):
        raise ConfigError("expected a JSON object")
    kind = obj.get(what)
    if not isinstance(kind, str) or kind not in _SPECS[what]:
        raise ConfigError(f"unknown {what} {kind!r}")
    build = _SPECS[what][kind]
    try:
        return build(*(_field(f.type, obj[f.name]) for f in fields(build)))
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError, BadExponent, ConditionC2Failed) as exc:
        raise ConfigError(f"bad {what} spec: {exc}") from exc


def _parse_kv(tokens) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        try:
            out[key] = float(val)
        except ValueError:
            raise ConfigError(f"{key} needs a number, got {val!r}") from None
    return out


def _write_text(path, text: str, mode: str = "w") -> None:
    """text to stdout for no path or "-", else to the file at path, or a ConfigError."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, mode, newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments and the resolution
# ---------------------------------------------------------------------------


def _require_in(model: FunctionModel, space) -> None:
    """Refuse a model whose norm in the space is infinite: the step function
    cut off at u_max would have a finite one."""
    if not harness.model_in_space(model, space):
        raise NonFiniteValue(f"{model} lies outside {space}: its norm there is infinite")


def cmd_norm(args, res: Resolution) -> int:
    if not (args.fn and args.space):
        raise ConfigError("norm needs --fn and --space")
    _require_in(args.fn, args.space)
    f = discretize_model(args.fn, res.u_max, res.panels)
    kind = next(kind for kind, build in _SPECS["space"].items() if type(args.space) is build)
    value = space_norm(f, args.space, res)
    if not math.isfinite(value):
        raise NonFiniteValue(f"{kind} norm is {value!r}")
    _write_text(args.out, json.dumps({"space": kind, "value": value}) + "\n")
    return 0


def cmd_kfunc(args, res: Resolution) -> int:
    if not (args.fn and args.couple):
        raise ConfigError("kfunc needs --fn and --couple")
    _require_in(args.fn, couple_spaces(args.couple)[0])
    f = discretize_model(args.fn, res.u_max, res.panels)
    grid = UGrid(res.u_max, res.k_nodes)
    oracle = k_curve(f, args.couple, grid, "oracle", res)
    try:
        expl = k_curve(f, args.couple, grid, "explicit", res).k_values
    except RispacesError as exc:
        # the oracle curve still goes out; the explicit column stays empty
        msg = " ".join(str(exc).split())
        print(f"explicit K failed: {type(exc).__name__}: {msg}", file=sys.stderr)
        expl = [None] * len(oracle.k_values)
    lines = ["t,K_oracle,K_explicit,ratio"]
    for t, ko, ke in zip(oracle.t_nodes, oracle.k_values, expl):
        ratio = "" if ke in (None, 0.0) or ko == 0.0 else _fmt(ko / ke)
        lines.append(f"{_fmt(t)},{_fmt(ko)},{_fmt(ke)},{ratio}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_interp(args, res: Resolution) -> int:
    params = args.params
    check_params(HYPOTHESES, args.theorem, params)
    if not args.fn:
        family = harness.default_family(params, args.seed)
    else:
        family = harness.FunctionFamily("fn", (("fn", args.fn),))
    lines = ["function_id,lhs,rhs,ratio"]
    for name, lhs, rhs in harness.identity_rows(args.theorem, params, family, res):
        ratio = _fmt(lhs / rhs) if lhs is not None and lhs > 0 and rhs > 0 else ""
        lines.append(f"{name},{_fmt(lhs)},{_fmt(rhs)},{ratio}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_experiment(args, res: Resolution) -> int:
    report = harness.run_experiment(args.theorem, args.params, res, args.seed, args.ceiling)
    _write_text(args.out, report.to_json() + "\n")
    return 0 if report.passed else 3


def cmd_list_experiments(_args, _res: Resolution) -> int:
    for name, params in harness.EXPERIMENTS.items():
        print(f"{name:24s} {' '.join(params)}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


_FLAGS = {
    "--fn": dict(help="function spec JSON or @file"),
    "--space": dict(required=True, help="space spec JSON"),
    "--couple": dict(required=True, help="couple spec JSON"),
    "--out": dict(help="output path (default stdout)"),
    "--seed": dict(type=int, help=f"seed (default: RISPACES_SEED, else {harness.DEFAULT_SEED})"),
    "--u-max": dict(type=float, default=DEFAULT.u_max),
    "--panels": dict(type=int, default=DEFAULT.panels),
    "--sup-count": dict(type=int, default=DEFAULT.sup_count),
    "--k-nodes": dict(type=int, default=DEFAULT.k_nodes),
    "--ceiling": dict(type=float, help="ratio ceiling (default: the experiment's)"),
}
_RUN = ("--out", "--u-max", "--panels", "--sup-count")
_DEEPEST = 1.0 - math.log(sys.float_info.min)  # the deepest grid whose breaks e^{1-u} are normal floats


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads."""
    p = argparse.ArgumentParser(prog="rispaces", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, run, help, *flags):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        return sp

    add("norm", cmd_norm, "evaluate a norm", "--fn", "--space", *_RUN)
    add("kfunc", cmd_kfunc, "sample K curves", "--fn", "--couple", "--k-nodes", *_RUN)
    interp = add("interp", cmd_interp, "identity over a family or one function",
                 "--fn", "--seed", "--k-nodes", *_RUN)
    interp.add_argument("theorem", choices=THEOREM_IDS)
    experiment = add("experiment", cmd_experiment, "run a ratio experiment",
                     "--seed", "--k-nodes", "--ceiling", *_RUN)
    experiment.add_argument("theorem")
    for sp in (interp, experiment):
        sp.add_argument("params", nargs="*", metavar="kv", help="key=value experiment parameters")
    add("list-experiments", cmd_list_experiments, "print the catalog")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    a = vars(args)  # the namespace's own dict: the parsed specs replace their text
    try:
        if "seed" in a:
            source = "--seed"
            if args.seed is None:
                source, env = "RISPACES_SEED", os.environ.get("RISPACES_SEED", str(harness.DEFAULT_SEED))
                try:
                    args.seed = int(env)
                except ValueError:
                    raise ConfigError(f"RISPACES_SEED must be an integer, got {env!r}") from None
            if args.seed < 0:
                raise ConfigError(f"{source} must be a non-negative integer, got {args.seed}")
        if a.get("ceiling") is not None and not args.ceiling > 0.0:
            raise ConfigError(f"--ceiling must exceed 0, got {args.ceiling}")
        floors = {"u_max": 1.0, "panels": 1, "sup_count": 1, "k_nodes": 1}  # the smallest grids
        bad = [k for k in floors if k in a and not a[k] > floors[k]]
        if bad:
            raise ConfigError(f"--{bad[0].replace('_', '-')} must exceed {floors[bad[0]]:g}, got {a[bad[0]]}")
        if a.get("u_max", 1.0) > _DEEPEST:
            raise ConfigError(f"--u-max must not exceed {_DEEPEST:g}, got {args.u_max}")
        res = Resolution(**{k: a[k] for k in floors if k in a})
        if a.get("out") not in (None, "-"):  # an --out that cannot be written is refused before any work
            new = not os.path.lexists(args.out)
            _write_text(args.out, "", "a")
            if new:
                os.remove(args.out)
        for key in ("fn", "space", "couple"):
            if a.get(key):
                obj = _load_json(a[key])
                a[key] = parse_fn(obj) if key == "fn" else parse_spec(key, obj)
        if "params" in a:
            args.params = _parse_kv(args.params)
        return args.run(args, res)
    except (ConfigError, HypothesisViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RispacesError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
