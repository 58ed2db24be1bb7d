"""Statement coverage of src/mimo3way while the Tier-1 suite runs, stdlib only.

    PYTHONPATH=src python tools/linecov.py [--out FILE] [-- PYTEST_ARGS ...]

Runs pytest in this process (by default as Tier-1 runs it, on tests/) under a
`sys.settrace` line tracer that follows only frames whose code lives in
src/mimo3way, then prints every statement that never ran, as
`module.py:line  source`, and a total. `--out` also writes them as JSON.

A statement counts as run when any of its own lines runs: a simple
statement's lines, or a compound statement's header (decorators included).
Docstrings and `global`/`nonlocal` declarations compile to no code and are
not counted. Only this process's main thread is traced (the suite starts no
threads): a statement that runs only in a child process (`python -m
mimo3way.cli`, the demos) is listed as never run.
Tracing slows the suite by about 2-3x; it is a tool, not part of Tier-1.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mimo3way"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]


def statements(source: str) -> dict[int, range]:
    """Each statement's first line, and the lines whose running counts as running it."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
    }
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans[node.lineno] = range(first, max(first, last) + 1)
    return spans


class Collector:
    """Lines run in files under PACKAGE, per file, from a sys.settrace hook."""

    def __init__(self):
        self.lines: dict[str, set[int]] = {}
        self._ours: dict[str, set[int] | None] = {}  # per code file: its line set, or None if not ours

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._ours:
            ours = Path(name).resolve().parent == PACKAGE.resolve() if name.endswith(".py") else False
            self._ours[name] = self.lines.setdefault(Path(name).resolve().name, set()) if ours else None
        lines = self._ours[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def never_run(lines: dict[str, set[int]]) -> dict[str, list[tuple[int, str]]]:
    """Per module of PACKAGE, each statement none of whose own lines ran, with its first source line."""
    missed = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text, ran = source.splitlines(), lines.get(path.name, set())
        missed[path.name] = [(line, text[line - 1].strip()) for line, span in sorted(statements(source).items())
                             if ran.isdisjoint(span)]
    return missed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="also write the never-run statements to this JSON file")
    p.add_argument("pytest_args", nargs="*", help="arguments for pytest (after --); default: Tier-1")
    args = p.parse_args(argv)
    if "mimo3way" in sys.modules:
        raise SystemExit("mimo3way is already imported, so its module-level statements would go untraced")
    import pytest

    with Collector() as collector:
        code = pytest.main(args.pytest_args or TIER1)
    missed = never_run(collector.lines)
    total = sum(len(statements(path.read_text())) for path in PACKAGE.glob("*.py"))
    for module, entries in missed.items():
        for line, text in entries:
            print(f"{module}:{line}  {text}")
    count = sum(map(len, missed.values()))
    print(f"{count} of {total} statements in {PACKAGE.relative_to(ROOT)} never ran (pytest exit {int(code)})")
    if args.out:
        Path(args.out).write_text(json.dumps({"statements": total, "never_run": missed, "pytest_exit": int(code)},
                                             indent=1) + "\n")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
