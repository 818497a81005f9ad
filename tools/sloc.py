"""Code lines of the package ``src/nlpg`` and of its tests ``tests/``.

    python tools/sloc.py [REV]

Counts the lines of every ``src/nlpg/*.py`` and every ``tests/*.py`` that hold
code: blank lines, comment-only lines and the docstrings of modules, classes
and functions are left out.  The two counts are printed apart, so that code
moved from the package to the tests shows as such.  It counts this checkout's
working tree and, with REV, also ``src/`` and ``tests/`` at the git revision
REV, which it extracts with ``git archive`` (no network).
"""

import ast
import glob
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src/nlpg", "tests")   # counted apart, each without its subdirectories


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines of ``source`` with a token that is neither comment nor docstring."""
    skip = _docstring_lines(ast.parse(source))
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def count(directory):
    """Code lines of every module directly under ``directory``."""
    total = 0
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += code_lines(fh.read())
    return total


def report(label, root):
    for d in DIRS:
        print(f"{label}: {count(os.path.join(root, d))} code lines in {d}")


def main(argv):
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    if argv:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", argv[0], *DIRS],
                                 capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        with tempfile.TemporaryDirectory() as tmp:
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(tmp)
            report(argv[0], tmp)
    report("working tree", ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
