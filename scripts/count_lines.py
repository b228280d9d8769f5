#!/usr/bin/env python3
"""Line counts of the ``bsca`` package, module by module.

    python3 scripts/count_lines.py [PACKAGE_DIR]

For each module under PACKAGE_DIR (default: ``src/bsca`` of this
checkout) it prints the physical lines and the code lines, then the
totals.  A code line holds at least one token that is not a comment,
and is not part of a docstring (the string that opens a module, class
or function body).  Tokens come from ``tokenize``, docstrings from
``ast``; a token that spans lines, such as a multi-line string,
counts every line it spans.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bsca"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    code = lines - _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", type=Path, default=DEFAULT_PACKAGE)
    args = ap.parse_args(argv)
    total_physical = total_code = 0
    print(f"{'module':<24}{'physical':>10}{'code':>8}")
    for path in sorted(args.package.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<24}{physical:>10}{code:>8}")
    print(f"{'total':<24}{total_physical:>10}{total_code:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
