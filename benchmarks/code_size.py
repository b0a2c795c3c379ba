#!/usr/bin/env python
"""Code size of the paper's programs — the repo's analogue of the titled
paper's code-size table (EXPERIMENTS.md, "Code size of the paper's
programs").

One rule: a *code line* is a physical line that carries at least one
token other than a comment, and is not part of a docstring (``ast`` finds
the docstrings, ``tokenize`` the tokens).  Blank lines, comment-only
lines and docstrings do not count, so documenting a function never makes
the program "bigger".

Run:  python benchmarks/code_size.py [REV [FILE ...]]
      (REV: also count each file as of that git revision, e.g. HEAD~1;
      FILE ...: count these instead of the paper's programs — how a
      simplicity PR reports the files it folds, by the same rule)
"""

import ast
import io
import subprocess
import sys
import tokenize

#: the eight program files the paper is about, the stage library they
#: are assembled from, and the home of the striped-layout arithmetic
FILES = [
    "src/repro/sorting/columnsort/csort.py",
    "src/repro/sorting/columnsort/csort4.py",
    "src/repro/sorting/dsort/dsort.py",
    "src/repro/sorting/dsort/pass1.py",
    "src/repro/sorting/dsort/pass2.py",
    "src/repro/sorting/dsort/linear.py",
    "src/repro/sorting/dsort/nowsort.py",
    "src/repro/apps/groupby.py",
    "src/repro/sorting/stages.py",
    "src/repro/pdm/striped.py",
]
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def at_revision(rev: str, path: str) -> str:
    shown = subprocess.run(["git", "show", f"{rev}:{path}"],
                           capture_output=True, text=True)
    return shown.stdout if shown.returncode == 0 else ""  # not there yet


def main(rev=None, *paths) -> None:
    totals = [0, 0]
    for path in paths or FILES:
        try:
            with open(path) as fh:
                now = code_lines(fh.read())
        except FileNotFoundError:  # deleted since REV
            now = 0
        then = code_lines(at_revision(rev, path)) if rev else now
        totals[0] += then
        totals[1] += now
        print(f"{then:6d} {now:6d} {now - then:+6d}  {path}")
    print(f"{totals[0]:6d} {totals[1]:6d} {totals[1] - totals[0]:+6d}  total")


if __name__ == "__main__":
    main(*sys.argv[1:])
