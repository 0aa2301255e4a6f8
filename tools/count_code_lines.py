#!/usr/bin/env python
"""Print the code lines of ``src/``, ``tests/`` and ``benchmarks/``.

A code line is a line that holds at least one code token.  Blank
lines, comment-only lines and docstrings do not count; a statement
split over several lines counts each line it spans, and so does a
multi-line string that is not a docstring.  Docstrings are the string
statements ``ast`` reports as module, class or function docstrings;
every other token comes from ``tokenize``.

Standard library only, so it runs on a bare Python::

    python tools/count_code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

REPO = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks")

#: Tokens that never make a line a code line.
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def count_tree(root: pathlib.Path) -> int:
    """Code lines summed over every ``.py`` file under *root*."""
    return sum(code_lines(path.read_text(encoding="utf-8"))
               for path in sorted(root.rglob("*.py")))


def main() -> int:
    for tree in TREES:
        print("%-11s %7s" % (tree + "/", format(count_tree(REPO / tree),
                                                 ",")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
