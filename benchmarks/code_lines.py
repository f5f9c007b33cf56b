"""Count the code lines and the tokens of each module of a package, and
their totals.

    python benchmarks/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/greendry.  Each line reads: module, code
lines, tokens.  A code line is a line that holds part of a token of code,
as `tokenize` reads the file: blank lines, comments and docstrings (a
string that opens a module, class or function body, as `ast` finds it)
are left out, and a statement over several lines counts each of them.
The tokens are every token `tokenize` reads but comments and the
newlines of blank or continued lines, the count the solver module's
docstring keeps under 4096, where CPython 3.11's parser doubles its token
array.  They are figures for a change to state, not gates.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "greendry"
NOT_PARSED = {tokenize.COMMENT, tokenize.NL}
NOT_CODE = NOT_PARSED | {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                         tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> tuple[int, int]:
    """The number of code lines and of tokens in source."""
    lines, tokens = set(), 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_PARSED:
            tokens += 1
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source))), tokens


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE,
                        help="directory of the modules [default: src/greendry]")
    args = parser.parse_args(argv)
    total_lines = total_tokens = 0
    for path in sorted(args.package.glob("*.py")):
        n, tokens = code_lines(path.read_text(encoding="utf-8"))
        total_lines += n
        total_tokens += tokens
        print(f"{path.name:20s} {n:5d} {tokens:6d}")
    print(f"{'total':20s} {total_lines:5d} {total_tokens:6d}")


if __name__ == "__main__":
    main()
