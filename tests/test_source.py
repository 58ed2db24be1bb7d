"""Source hygiene of the package, read with `ast`: no import binds a name
its module never uses, and no private top-level function or class is left
without a reference."""

import ast
import pathlib

import mimo3way

_SRC = pathlib.Path(mimo3way.__file__).parent
_TREES = {path.name: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}


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
                    if bound not in read:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused, f"imported but never used: {unused}"


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
