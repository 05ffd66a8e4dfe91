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
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import equivharness as harness
from .config import DEFAULT, DEFAULT_CEILING, Resolution
from .errors import BadExponent, BadModel, BadWeights, HypothesisViolation, NonFiniteInput
from .errors import RispacesError
from .interpolation import THEOREM_IDS, THEOREM_PARAMS, identify_target
from .kfunctional import (
    CoupleSpec,
    General,
    GrandGrand,
    GrandLq,
    GrandSmallSameP,
    LpLq,
    SmallSmall,
    k_curve,
)
from .logcalc import LogWeight, UGrid
from .norms import (
    GammaDouble,
    Grand,
    Lebesgue,
    LorentzZygmund,
    Small,
    SpaceSpec,
    space_norm,
)
from .rearrangement import (
    Char,
    ExplicitSteps,
    FunctionModel,
    PowerLog,
    Samples,
    StepFunction,
    discretize_model,
)

EXPERIMENT_CATALOG = {
    **{tid: " ".join(names) for tid, names in THEOREM_PARAMS.items()},
    **{f"hardy:{which}": " ".join(names) for which, names in harness.HARDY_PARAMS.items()},
    "discretization": "lambda q",
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    fn: Optional[FunctionModel] = None
    space: Optional[SpaceSpec] = None
    couple: Optional[CoupleSpec] = None
    theorem: Optional[str] = None
    params: Optional[dict] = None
    out: Optional[str] = None
    seed: int = harness.DEFAULT_SEED
    res: Resolution = DEFAULT
    ceiling: Optional[float] = None  # --ceiling; None keeps each experiment's own


def _load_json(text: str) -> dict:
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], "r") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("expected a JSON object")
    return obj


def parse_fn(text: str) -> FunctionModel:
    """The function model a spec names; a model its constructor or (for steps
    and samples, which need no grid) its rearrangement rejects is a ConfigError."""
    obj = _load_json(text)
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
    except (KeyError, ValueError, OSError, BadModel, BadWeights, NonFiniteInput) as exc:
        raise ConfigError(f"bad function spec: {exc}") from exc


def parse_space(text: str) -> SpaceSpec:
    obj = _load_json(text)
    kind = obj.get("space")
    try:
        if kind == "lebesgue":
            return Lebesgue(float(obj["p"]))
        if kind == "lorentz_zygmund":
            return LorentzZygmund(float(obj["p"]), float(obj["q"]), float(obj["alpha"]))
        if kind == "grand":
            return Grand(float(obj["p"]), float(obj["alpha"]))
        if kind == "small":
            return Small(float(obj["p"]), float(obj["alpha"]))
        if kind == "ggamma":
            return GammaDouble(
                float(obj["p"]),
                float(obj["m"]),
                LogWeight(float(obj["w1"]["a"]), float(obj["w1"]["b"])),
                LogWeight(float(obj["w2"]["a"]), float(obj["w2"]["b"])),
            )
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError, BadExponent) as exc:
        raise ConfigError(f"bad space spec: {exc}") from exc
    raise ConfigError(f"unknown space {kind!r}")


def parse_couple(text: str) -> CoupleSpec:
    obj = _load_json(text)
    kind = obj.get("couple")
    try:
        if kind == "lp_lq":
            return LpLq(float(obj["p"]), float(obj["q"]))
        if kind == "grand_lq":
            return GrandLq(float(obj["p"]), float(obj["q"]), float(obj["alpha"]))
        if kind == "grand_grand":
            return GrandGrand(float(obj["p"]), float(obj["q"]), float(obj["alpha"]))
        if kind == "small_small":
            return SmallSmall(float(obj["p"]), float(obj["q"]))
        if kind == "grand_small_same_p":
            return GrandSmallSameP(float(obj["p"]))
        if kind == "general":
            return General(parse_space(json.dumps(obj["x0"])), parse_space(json.dumps(obj["x1"])))
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError, BadExponent) as exc:
        raise ConfigError(f"bad couple spec: {exc}") from exc
    raise ConfigError(f"unknown couple {kind!r}")


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


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_norm(cfg: RunConfig) -> int:
    f = discretize_model(cfg.fn, cfg.res.u_max, cfg.res.panels)
    value = space_norm(f, cfg.space, cfg.res)
    payload = {"space": cfg.space.__class__.__name__.lower(), "value": value}
    _write_text(cfg.out, json.dumps(payload) + "\n")
    return 0


def cmd_kfunc(cfg: RunConfig) -> int:
    f = discretize_model(cfg.fn, cfg.res.u_max, cfg.res.panels)
    grid = UGrid(cfg.res.u_max, cfg.res.k_nodes)
    oracle = k_curve(f, cfg.couple, grid, "oracle", cfg.res)
    try:
        explicit = k_curve(f, cfg.couple, grid, "explicit", cfg.res)
        expl = explicit.k_values
    except RispacesError as exc:
        # the oracle curve still goes out; the explicit column stays empty
        msg = " ".join(str(exc).split())
        print(f"explicit K failed: {type(exc).__name__}: {msg}", file=sys.stderr)
        expl = None
    lines = ["t,K_oracle,K_explicit,ratio"]
    for i, t in enumerate(oracle.t_nodes):
        ko = oracle.k_values[i]
        ke = expl[i] if expl is not None else None
        ratio = "" if ke in (None, 0.0) or ko == 0.0 else _fmt(ko / ke)
        lines.append(
            f"{_fmt(t)},{_fmt(ko)},{'' if ke is None else _fmt(ke)},{ratio}"
        )
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_interp(cfg: RunConfig) -> int:
    params = dict(cfg.params)
    family = harness.standard_family(
        q=params.get("q", params.get("p", 4.0)), seed=cfg.seed
    )
    members = family.members if cfg.fn is None else (("fn", cfg.fn),)
    lines = ["function_id,lhs,rhs,ratio"]
    for name, model in members:
        f = discretize_model(model, cfg.res.u_max, cfg.res.panels)
        lhs, rhs = identify_target(
            cfg.theorem,
            f,
            p=params.get("p"),
            q=params.get("q"),
            theta=params.get("theta"),
            r=params.get("r"),
            alpha=params.get("alpha"),
            res=cfg.res,
        )
        ratio = _fmt(lhs / rhs) if lhs > 0 and rhs > 0 else ""
        lines.append(f"{name},{_fmt(lhs)},{_fmt(rhs)},{ratio}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_experiment(cfg: RunConfig) -> int:
    name = cfg.theorem
    params = dict(cfg.params)
    ceiling = DEFAULT_CEILING if cfg.ceiling is None else cfg.ceiling
    if name in THEOREM_IDS:
        report = harness.run_identity_experiment(
            name, params, res=cfg.res, ceiling=ceiling, seed=cfg.seed
        )
    elif name.startswith("hardy:"):
        fam = harness.standard_family(seed=cfg.seed)
        report = harness.hardy_check(
            name.split(":", 1)[1], params, fam, cfg.res, ceiling, cfg.seed
        )
    elif name == "discretization":
        lam = params.get("lambda", params.get("lam", 1.0))
        q = params.get("q", 1.0)
        rng = np.random.default_rng(cfg.seed)
        given = {} if cfg.ceiling is None else {"ceiling": cfg.ceiling}
        reports = []
        for i in range(20):
            m = harness.random_steps(rng, nonincreasing=False)
            h = StepFunction(np.asarray(m.breaks), np.asarray(m.values))
            reports.append(harness.discretization_check(h, lam, q, **given))
        report = reports[0]
        for other in reports[1:]:
            report.members.extend(other.members)
        report = report.finalize()
        report.seed = cfg.seed
    else:
        raise ConfigError(f"unknown experiment {name!r}; see list-experiments")
    _write_text(cfg.out, report.to_json() + "\n")
    return 0 if report.passed else 3


def cmd_list_experiments(_cfg: RunConfig) -> int:
    for name, params in EXPERIMENT_CATALOG.items():
        print(f"{name:24s} {params}")
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


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads."""
    p = argparse.ArgumentParser(prog="rispaces", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help, *flags):
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        return sp

    add("norm", "evaluate a norm", "--fn", "--space", *_RUN)
    add("kfunc", "sample K curves", "--fn", "--couple", "--k-nodes", *_RUN)
    interp = add("interp", "identity over a family or one function",
                 "--fn", "--seed", "--k-nodes", *_RUN)
    interp.add_argument("theorem", choices=THEOREM_IDS)
    experiment = add("experiment", "run a ratio experiment",
                     "--seed", "--k-nodes", "--ceiling", *_RUN)
    experiment.add_argument("theorem")
    for sp in (interp, experiment):
        sp.add_argument("kv", nargs="*", help="key=value experiment parameters")
    add("list-experiments", "print the catalog")
    return p


def _config_from_args(args) -> RunConfig:
    a = vars(args)
    cfg = RunConfig(command=args.command, out=a.get("out"), ceiling=a.get("ceiling"))
    if "seed" in a:
        env = os.environ.get("RISPACES_SEED", str(harness.DEFAULT_SEED))
        try:
            cfg.seed = int(env) if a["seed"] is None else a["seed"]
        except ValueError:
            raise ConfigError(f"RISPACES_SEED must be an integer, got {env!r}") from None
    floors = {"u_max": 1.0, "panels": 1, "sup_count": 1, "k_nodes": 1}  # the smallest grids
    bad = [k for k in floors if k in a and not a[k] > floors[k]]
    if bad:
        raise ConfigError(f"--{bad[0].replace('_', '-')} must exceed {floors[bad[0]]:g}, got {a[bad[0]]}")
    cfg.res = Resolution(**{k: a[k] for k in floors if k in a})
    for key, parse in (("fn", parse_fn), ("space", parse_space), ("couple", parse_couple)):
        if a.get(key):
            setattr(cfg, key, parse(a[key]))
    cfg.theorem = a.get("theorem")
    cfg.params = _parse_kv(a.get("kv") or [])
    return cfg


_COMMANDS = {
    "norm": cmd_norm,
    "kfunc": cmd_kfunc,
    "interp": cmd_interp,
    "experiment": cmd_experiment,
    "list-experiments": cmd_list_experiments,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "norm" and (cfg.fn is None or cfg.space is None):
            raise ConfigError("norm needs --fn and --space")
        if cfg.command == "kfunc" and (cfg.fn is None or cfg.couple is None):
            raise ConfigError("kfunc needs --fn and --couple")
        return _COMMANDS[cfg.command](cfg)
    except (ConfigError, HypothesisViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RispacesError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
