"""Size of the `solidyn` package, per module and in total.

    python tests/size_report.py [DIR ...]

prints, for each module of DIR (default: src/solidyn of this checkout)
and for all of them together, four counts.  Given several directories
(say `src/solidyn tests`), it prints each one's total and their sum, so
that code moved between them shows as a move.  The counts:

- lines: the line count that `wc -l` gives
- code: the lines that hold a token other than a comment, outside
  docstrings; a token that spans lines (a multi-line string) counts on
  every line it spans
- public: the top-level functions and classes whose names do not start
  with an underscore
- defaults: the parameters that have a default value, over every
  function, method and lambda, nested ones included

The code count comes from the tokenizer, so it is the same on any
machine and Python version that parses the package.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "solidyn"

# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text, tree):
    """Lines holding a token other than a comment, outside docstrings."""
    docs = docstring_lines(tree)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def public_names(tree):
    return sum(1 for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and not node.name.startswith("_"))


def default_count(tree):
    """Parameters with a default value, over every function and lambda."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)))


def module_size(path):
    """(lines, code lines, public names, defaults) of one module."""
    text = path.read_text()
    tree = ast.parse(text)
    return (text.count("\n"), code_lines(text, tree), public_names(tree),
            default_count(tree))


def total(sizes):
    return tuple(map(sum, zip(*sizes)))


def main(argv):
    sources = [Path(arg) for arg in argv] or [SOURCE]
    rows = {}
    for source in sources:
        sizes = {path.name: module_size(path)
                 for path in sorted(source.glob("*.py"))}
        if len(sources) == 1:
            rows = dict(sizes, total=total(sizes.values()))
        else:
            rows[str(source)] = total(sizes.values())
    if len(sources) > 1:
        rows["sum"] = total(rows.values())
    width = max(18, *(len(name) + 2 for name in rows))
    label = "module" if len(sources) == 1 else "directory"
    print(f"{label:<{width}}{'lines':>7}{'code':>7}{'public':>8}"
          f"{'defaults':>10}")
    for name, (lines, code, public, defaults) in rows.items():
        print(f"{name:<{width}}{lines:>7}{code:>7}{public:>8}"
              f"{defaults:>10}")


if __name__ == "__main__":
    main(sys.argv[1:])
