"""Run tier-1 under a line tracer and print every statement of src/nottingham
that no test executed, as `file:line: statement`, leaving out docstrings,
`def`/`class` lines and imports.  Code that tests run in a subprocess (the
console script) is not traced, so it is listed too.

    python tools/uncovered.py [pytest args]      # default: -q -p no:cacheprovider tests

It exits with pytest's status; the list is for reading, not a gate.
"""
import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = str(ROOT / "src" / "nottingham")
ran = set()         # (filename, line) pairs a line event reached


def local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def tracer(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(PKG) else None


def main(args):
    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    for path in sorted(Path(PKG).glob("*.py")):
        lines = path.read_text().splitlines()
        missed = {node.lineno for node in ast.walk(ast.parse("\n".join(lines)))
                  if isinstance(node, ast.stmt) and not isinstance(node, skip)
                  and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
                  and (str(path), node.lineno) not in ran}
        for n in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
