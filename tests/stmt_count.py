"""Statement counts of top-level classes and functions, a size measure
that layout does not move:

    python tests/stmt_count.py FILE NAME...

For each named top-level class or function of the Python source FILE it
prints the name and the number of distinct source lines on which one of
its statements starts, its own ``def`` or ``class`` line included.  A
docstring counts 0, a statement spread over several lines counts 1, and
statements that share a line count 1 together.  It uses the standard
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


def counts(source: str, names) -> dict:
    """{name: statement lines} of the named top-level definitions."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    out = {}
    for node in tree.body:
        name = getattr(node, "name", None)
        if name in names:
            out[name] = len(
                {s.lineno for s in ast.walk(node) if isinstance(s, ast.stmt) and s not in skip}
            )
    missing = [name for name in names if name not in out]
    if missing:
        raise KeyError(f"no top-level definition named {', '.join(missing)}")
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print("usage: stmt_count.py FILE NAME...", file=sys.stderr)
        return 2
    found = counts(Path(args[0]).read_text(), args[1:])
    for name in args[1:]:
        print(f"{name} {found[name]}")
    print(f"total {sum(found.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
