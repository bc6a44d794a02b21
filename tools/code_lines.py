"""Count the code, docstring, comment and blank lines of each module.

    python tools/code_lines.py [DIR]

DIR defaults to ``src/qdisc``.  Every line of a ``.py`` file falls in one
class: a docstring line lies in the string that opens a module, class or
function body; a comment line holds only a comment; a blank line holds
only white space; every other line is a code line.  The table lists each
module, then the sum.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count(source: str) -> dict:
    """The number of lines of each kind in one module's source."""
    lines = source.splitlines()
    kind = ["code" if line.strip() else "blank" for line in lines]
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            kind[tok.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            value = getattr(first, "value", None)
            if isinstance(first, ast.Expr) and isinstance(value, ast.Constant) and isinstance(value.value, str):
                for i in range(first.lineno - 1, first.end_lineno):
                    kind[i] = "docstring"
    return {k: kind.count(k) for k in KINDS}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else "src/qdisc")
    rows = [(path.name, count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", {k: sum(row[k] for _, row in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in KINDS) + f"{'lines':>11}")
    for name, row in rows:
        print(f"{name:<{width}}" + "".join(f"{row[k]:>11}" for k in KINDS) + f"{sum(row.values()):>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
