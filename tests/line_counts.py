"""Print each module's code, docstring, comment and blank lines, and the totals.

A line is a docstring line if it lies in a module, class or function
docstring (blank lines in it included), a comment line if a comment is all
it holds, blank if it holds only whitespace, and code otherwise.  So a
change that only drops prose shows as fewer docstring or comment lines, not
as less code.

    python tests/line_counts.py src/foon

The file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(text: str) -> Counter:
    kinds = ["blank" if not line.strip() else "code" for line in text.splitlines()]
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT and token.line.lstrip().startswith("#"):
            kinds[token.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                for index in range(node.body[0].lineno - 1, node.body[0].end_lineno):
                    kinds[index] = "docstring"
    return Counter(kinds)


def main(folder: str) -> None:
    total: Counter = Counter()
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in (*KINDS, "all")))
    for path in sorted(Path(folder).glob("*.py")):
        counts = line_kinds(path.read_text(encoding="utf-8"))
        total += counts
        row = [counts[kind] for kind in KINDS]
        print(f"{path.name:<16}" + "".join(f"{n:>10}" for n in (*row, sum(row))))
    row = [total[kind] for kind in KINDS]
    print(f"{'total':<16}" + "".join(f"{n:>10}" for n in (*row, sum(row))))


if __name__ == "__main__":
    main(sys.argv[1])
