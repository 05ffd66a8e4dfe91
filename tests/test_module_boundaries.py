"""Package modules reach each other only through public, top-level imports,
and import nothing they do not use."""

import ast
from dataclasses import fields
from pathlib import Path

import rispaces
from rispaces.config import Resolution

PACKAGE = Path(rispaces.__file__).parent


def _sibling_imports(tree: ast.Module):
    """(node, imported names, inside a function) for every relative import."""
    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.ImportFrom) and child.level > 0:
                yield child, [a.name for a in child.names], nested
            yield from visit(child, nested)

    yield from visit(tree, False)


def test_no_private_or_function_local_sibling_imports():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, names, in_function in _sibling_imports(tree):
            where = f"{path.name}:{node.lineno}"
            if in_function:
                problems.append(f"{where} imports a sibling module inside a function")
            problems += [f"{where} imports private {n}" for n in names if n.startswith("_")]
    assert not problems, "\n".join(problems)


def _module_imports(tree: ast.Module):
    """(bound name, line) for every module-level import but __future__'s."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _exported(tree: ast.Module):
    """The module's __all__ as a set, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return None


def test_no_unused_module_imports():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | (_exported(tree) or set())
        problems += [
            f"{path.name}:{line} imports {name}, which it neither uses nor lists in __all__"
            for name, line in _module_imports(tree)
            if name not in used
        ]
    assert not problems, "\n".join(problems)


def test_sibling_imports_are_exported():
    """A name one module imports from a sibling is in the sibling's __all__
    (a sibling without __all__ exports every public name)."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    exports = {name: _exported(tree) for name, tree in trees.items()}
    problems = []
    for module, tree in trees.items():
        for node, names, _ in _sibling_imports(tree):
            exported = exports.get(node.module)
            problems += [
                f"{module}.py:{node.lineno} imports {n}, which {node.module}.__all__ leaves out"
                for n in names
                if exported is not None and n not in exported
            ]
    assert not problems, "\n".join(problems)


def test_explicit_forms_reach_integrals_only_through_norms():
    """kfunctional imports no quadrature, supremum search or step-power helper:
    every term of an explicit K-form is a norm of a truncation or a log
    integral that norms owns."""
    tree = ast.parse((PACKAGE / "kfunctional.py").read_text(encoding="utf-8"))
    imported = {name for _, names, _ in _sibling_imports(tree) for name in names}
    assert not imported & {
        "adaptive_quad",
        "log_quad",
        "log_quad_multi",
        "sup_on_interval",
        "sup_on_grid",
        "golden_refine",
        "prefix_power_at",
        "tail_power_at",
    }


def test_no_quadrature_tolerance():
    """Every integral is a closed form or a κ pass, whose panels come from the
    integrand's data: no function takes a rel_tol, no dataclass carries one,
    and logcalc defines no adaptive rule."""
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
                if "rel_tol" in names:
                    problems.append(f"{path.name}:{node.lineno} takes rel_tol")
            elif isinstance(node, ast.ClassDef):
                problems += [
                    f"{path.name}:{item.lineno} {node.name} has a field rel_tol"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and getattr(item.target, "id", None) == "rel_tol"
                ]
    logcalc = ast.parse((PACKAGE / "logcalc.py").read_text(encoding="utf-8"))
    defined = {n.name for n in logcalc.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    if "adaptive_quad" in defined:
        problems.append("logcalc.py defines adaptive_quad")
    assert not problems, "\n".join(problems)
    assert [f.name for f in fields(Resolution)] == ["u_max", "panels", "sup_count", "k_nodes"]
