"""Code lines of the package ``src/nlpg``.

    python tools/sloc.py [REV]

Counts the lines of every ``src/nlpg/*.py`` that hold code: blank lines,
comment-only lines and the docstrings of modules, classes and functions are
left out.  It counts this checkout's working tree and, with REV, also ``src/``
at the git revision REV, which it extracts with ``git archive`` (no network).
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


def count(src):
    """Code lines of every module of the package under ``src``."""
    total = 0
    for path in sorted(glob.glob(os.path.join(src, "nlpg", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += code_lines(fh.read())
    return total


def main(argv):
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    if argv:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", argv[0], "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        with tempfile.TemporaryDirectory() as tmp:
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(tmp)
            print(f"{argv[0]}: {count(os.path.join(tmp, 'src'))} code lines in src/nlpg")
    print(f"working tree: {count(os.path.join(ROOT, 'src'))} code lines in src/nlpg")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
