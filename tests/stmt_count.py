"""Statement counts of top-level classes and functions, or of whole
modules, a size measure that layout does not move:

    python tests/stmt_count.py FILE NAME...
    python tests/stmt_count.py --module FILE...

For each named top-level class or function of the Python source FILE it
prints the name and the number of distinct source lines on which one of
its statements starts, its own ``def`` or ``class`` line included.  With
``--module`` it prints the same count for each whole FILE, its module
level statements included.  A docstring counts 0, a statement spread over
several lines counts 1, and statements that share a line count 1
together.  Either form ends with the total.  It uses the standard
library's ``ast`` alone; pytest does not collect it, as its name does not
start with ``test_``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstrings(tree: ast.AST) -> set:
    """The docstring statements of every module, class and function."""
    return {
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }


def _lines(node: ast.AST, skip: set) -> int:
    """Distinct lines on which a statement of ``node`` starts, the
    docstrings in ``skip`` left out."""
    return len({s.lineno for s in ast.walk(node) if isinstance(s, ast.stmt) and s not in skip})


def module_count(source: str) -> int:
    """Statement lines of a whole module."""
    tree = ast.parse(source)
    return _lines(tree, _docstrings(tree))


def counts(source: str, names) -> dict:
    """{name: statement lines} of the named top-level definitions."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    out = {}
    for node in tree.body:
        name = getattr(node, "name", None)
        if name in names:
            out[name] = _lines(node, skip)
    missing = [name for name in names if name not in out]
    if missing:
        raise KeyError(f"no top-level definition named {', '.join(missing)}")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print("usage: stmt_count.py FILE NAME... | --module FILE...", file=sys.stderr)
        return 2
    if args[0] == "--module":
        found = {path: module_count(Path(path).read_text()) for path in args[1:]}
    else:
        named = counts(Path(args[0]).read_text(), args[1:])
        found = {name: named[name] for name in args[1:]}
    for name, n in found.items():
        print(f"{name} {n}")
    print(f"total {sum(found.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
