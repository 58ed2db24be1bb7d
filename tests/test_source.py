"""Source hygiene of the package, read with `ast`: no import binds a name
its module never uses, a star import only republishes a module in
`__init__.py`, no private top-level function or class is left without a
reference, every parameter is read, no tuple-or-list check stands beside
`errors.sequence`, only `linalg` builds a SeedSequence, the exact LP layer
and its walks name no numpy, and the package stays within its line ceiling."""

import ast
import pathlib

import mimo3way

_SRC = pathlib.Path(mimo3way.__file__).parent
_TREES = {path.name: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}

# Most lines the package's modules may total, as `wc -l src/mimo3way/*.py`
# counts them: a change lands at net <= 0 lines, and one granted a line
# allowance raises this by the lines it uses.
SRC_LINE_CEILING = 3_024


def _exported(tree) -> set[str]:
    """The names a module lists in `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _referenced(node) -> set[str]:
    """Every name read under `node`: names, attributes and names imported from a module."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def test_every_imported_name_is_used_or_exported():
    unused = []
    for name, tree in _TREES.items():
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound == "*" and name == "__init__.py":  # test_star_imports_republish_each_name_once
                        continue
                    if bound not in read:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused, f"imported but never used: {unused}"


def test_star_imports_republish_each_name_once():
    # what `from .x import *` binds: x.__all__, else every public name of x
    bound = []
    for node in _TREES["__init__.py"].body:
        if isinstance(node, ast.ImportFrom) and node.names[0].name == "*":
            module = vars(mimo3way)[node.module]
            bound += getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    assert bound, "__init__.py republishes no module"
    assert not set(bound) - set(mimo3way.__all__), f"star-imported, not exported: {set(bound) - set(mimo3way.__all__)}"
    assert len(bound) == len(set(bound)), f"star-imported twice: {sorted({n for n in bound if bound.count(n) > 1})}"


def test_every_private_function_and_class_is_referenced():
    # a reference from inside the definition itself, as a recursive call, does not count
    statements = [(name, stmt) for name, tree in _TREES.items() for stmt in tree.body]
    refs = [_referenced(stmt) for _, stmt in statements]
    orphans = [
        f"{name}:{stmt.name}"
        for (name, stmt), own in zip(statements, refs)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in other for other in refs if other is not own)
    ]
    assert not orphans, f"private definitions nothing references: {orphans}"


def _unread_parameters(name, tree) -> list[str]:
    """Each parameter of a function or lambda under `tree` that its body never
    reads, closures included; `self`, `cls` and a `_`-prefixed name (taken
    only to fit a call) are exempt."""
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p.arg})" for p in params
                       if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")]
    return unread


def test_every_parameter_is_read():
    unread = [p for name, tree in _TREES.items() for p in _unread_parameters(name, tree)]
    assert not unread, f"parameters never read: {unread}"


def test_parameter_check_flags_an_unread_parameter():
    # `_verify` with one more parameter that its body never reads
    tree = ast.parse((_SRC / "schemes.py").read_text())
    verify = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_verify")
    verify.args.kwonlyargs.append(ast.arg("tol"))
    verify.args.kw_defaults.append(ast.Constant(1e-10))
    assert _unread_parameters("schemes.py", tree) == [f"schemes.py:{verify.lineno} _verify(tol)"]
    assert _unread_parameters("", ast.parse("f = lambda x, _y, *z: [x, *z]")) == []
    assert _unread_parameters("", ast.parse("def f(x):\n    def g():\n        return x\n    return g")) == []
    assert _unread_parameters("", ast.parse("def f(x):\n    x = 1\n    return 0")) == [":1 f(x)"]


def _list_or_tuple_checks(name, tree) -> list[str]:
    """Each `isinstance(x, (..., tuple, ..., list, ...))` under `tree`, in
    either order."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2 and isinstance(node.args[1], ast.Tuple)
        and {"tuple", "list"} <= {getattr(e, "id", None) for e in node.args[1].elts}
    ]


def test_one_sequence_rule_in_source():
    # errors.sequence is the one rule for a sequence input: a check of its own
    # for a tuple or list would refuse what the rule takes (a generator, a
    # range, an ndarray)
    checks = [c for name, tree in _TREES.items() for c in _list_or_tuple_checks(name, tree)]
    assert not checks, f"isinstance(..., (tuple, list)) outside errors.sequence: {checks}"
    assert _list_or_tuple_checks("", ast.parse("isinstance(x, (list, Mapping, tuple))")) == [":1"]
    assert _list_or_tuple_checks("", ast.parse("isinstance(x, (tuple, str))\nisinstance(x, list)")) == []


def test_one_home_for_seeding():
    # every seeded stream is spawned in linalg (`generator`, `_gaussians`,
    # and the trial seeds, through its `_states`): a SeedSequence built
    # elsewhere would be a second seeding path beside it
    homes = [name for name, tree in _TREES.items() if "SeedSequence" in _referenced(tree)]
    assert homes == ["linalg.py"], f"SeedSequence named outside linalg: {homes}"
    assert "SeedSequence" in _referenced(ast.parse("int(np.random.SeedSequence(1).generate_state(1)[0])"))


def _names_numpy(node) -> bool:
    """Whether `node` imports numpy or reads the name `np` or `numpy`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import) and any(alias.name.partition(".")[0] == "numpy" for alias in sub.names):
            return True
        if isinstance(sub, ast.ImportFrom) and (sub.module or "").partition(".")[0] == "numpy":
            return True
    return bool({"np", "numpy"} & _referenced(node))


def test_exact_walks_name_no_numpy():
    # the exact LP layer and the bounds import no numpy, the enumerated route
    # builds its rows and walks on plain ints, and the closed-form and
    # broadcast routes build their splits and run their self-checks on them
    # too (the brute-force grid is numpy by design)
    assert [name for name in ("lp.py", "bounds.py") if _names_numpy(_TREES[name])] == []
    defs = {stmt.name: stmt for tree in _TREES.values() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    exact = ("_genie_rows", "_template", "_Walk", "genie_totals", "_broadcast_totals", "_to_integers", "_attains",
             "AntennaSplit", "canonical_split", "optimal_unicast_closed_form", "optimal_broadcast")
    assert [name for name in exact if _names_numpy(defs[name])] == []
    assert _names_numpy(ast.parse("def f():\n    return np.eye(4)"))
    assert _names_numpy(ast.parse("from numpy import eye"))


def test_source_stays_within_its_line_ceiling():
    lines = {path.name: path.read_text().count("\n") for path in _SRC.glob("*.py")}
    assert sum(lines.values()) <= SRC_LINE_CEILING, f"{sum(lines.values())} lines over {SRC_LINE_CEILING}: {lines}"
