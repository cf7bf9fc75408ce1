"""List the statements of ``src/entrange`` that a pytest run leaves unrun.

Runs pytest in this process under a ``sys.settrace`` hook that records the
lines executed in the library's modules (threads included) and nothing
else, then prints each statement none of whose header lines ran, as
``module:line  source``, and their count. Standard library only, beside
pytest itself. It gates nothing: it exits 0 whatever it finds, and reports
pytest's own exit status on its last line.

    python tools/unrun.py                  # the tier-1 tests (about 3x slower)
    python tools/unrun.py tests/test_core.py -x

Arguments are handed to pytest; with none, it runs ``-q
--continue-on-collection-errors`` over the configured test paths.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "entrange"


def statements(path: Path) -> dict[int, tuple[int, ...]]:
    """Each statement's first line mapped to its header lines: the whole
    statement for a simple one, the lines before its body for a compound
    one. Docstrings, which run no line, are left out."""
    nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
    docstrings = {id(node.body[0]) for node in nodes
                  if isinstance(getattr(node, "body", None), list) and node.body
                  and _is_docstring(node.body[0])}
    out = {}
    for node in nodes:
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        inner = [getattr(node, f) for f in ("body", "handlers", "orelse", "finalbody", "cases")
                 if isinstance(getattr(node, f, None), list) and getattr(node, f)]
        end = min(block[0].lineno for block in inner) - 1 if inner else node.end_lineno
        out[node.lineno] = tuple(range(node.lineno, max(end, node.lineno) + 1))
    return out


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(LIBRARY) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    # the library from this checkout, for this process and the subprocesses
    # a test starts (those run untraced)
    sys.path.insert(0, str(LIBRARY.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(LIBRARY.parent), os.environ.get("PYTHONPATH"))))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = []
    for path in sorted(LIBRARY.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text().splitlines()
        for first, header in sorted(statements(path).items()):
            if lines.isdisjoint(header):
                unrun.append(f"{path.name}:{first}  {source[first - 1].strip()}")
    print(f"\n{len(unrun)} statements of src/entrange unrun:")
    print("\n".join(unrun))
    print(f"pytest exit status {int(status)}; this report gates nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
