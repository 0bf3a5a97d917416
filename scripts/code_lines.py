#!/usr/bin/env python3
"""Print the size of each Python module in a directory as two figures: its
physical lines (what ``wc -l`` counts) and its code lines, the lines that
hold a token other than a comment, leaving out blank lines, comment-only
lines and docstrings (the string that opens a module, class or function
body).  A string that is not a docstring counts on every line it spans.
The last line gives the totals.  Run it as

    python3 scripts/code_lines.py [DIR]

``DIR`` defaults to ``src/nide`` next to this script.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parents[1] / "src" / "nide"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree`` and of every class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in ``source``, as the module docstring defines them."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?", type=Path, default=DEFAULT_DIR)
    args = parser.parse_args(argv)
    paths = sorted(args.directory.glob("*.py"))
    if not paths:
        print(f"error: no Python modules in {args.directory}", file=sys.stderr)
        return 2
    total_lines = total_code = 0
    for path in paths:
        source = path.read_text()
        lines, code = source.count("\n"), code_lines(source)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{lines:6d} {code:6d}  {path.name}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
