"""List the statements of ``src/entrange`` that a pytest run leaves unrun,
or with ``--branches`` the conditional jumps of which one side never ran.

Runs pytest in this process under a ``sys.settrace`` hook limited to the
library's modules (threads included) and reports what the run missed. It
gates nothing: it exits 0 whatever it finds, and reports pytest's own exit
status on its last line. Standard library only, beside pytest itself.

* By default the hook records the lines executed, and the report lists
  each statement none of whose header lines ran, as ``module:line  source``.
* ``--branches`` traces opcodes instead (``frame.f_trace_opcodes``) and
  records which instruction ran next after each conditional jump: an
  instruction whose name holds ``JUMP`` and ``IF``, or ``FOR_ITER`` (names
  differ across Python 3.10-3.12, the substrings do not). The report lists
  each such jump that ran with one successor never run, as ``module:line
  opname side  source``, where side names the successor that never ran:
  ``jump`` (the target) or ``next`` (the following instruction). A line
  trace cannot see these: the line of a one-sided condition runs. It takes
  about twice as long as the line trace.

    python tools/unrun.py                  # the tier-1 tests (about 3x slower)
    python tools/unrun.py --branches       # the same, by branch (about 6x slower)
    python tools/unrun.py tests/test_core.py -x

Other arguments are handed to pytest; with none, it runs ``-q
--continue-on-collection-errors`` over the configured test paths.
"""

from __future__ import annotations

import ast
import dis
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "entrange"
PREFIX = str(LIBRARY) + "/"


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


def conditional_jumps(code) -> dict[int, tuple[str, int]]:
    """Each conditional jump of ``code`` by offset: its opname and the offset
    of the instruction after it (cache entries, 3.11 on, are skipped)."""
    ins = list(dis.get_instructions(code))
    return {a.offset: (a.opname, b.offset) for a, b in zip(ins, ins[1:])
            if a.opname == "FOR_ITER" or ("JUMP" in a.opname and "IF" in a.opname)}


def line_hook(ran: dict[str, set[int]]):
    """A trace hook that adds each library line run to ``ran[filename]``."""
    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PREFIX):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local
    return hook


def branch_hook(taken: dict):
    """A trace hook that adds, for each conditional jump a library frame
    runs, the offset run next in that frame to ``taken[code][offset]``."""
    jumps: dict = {}

    def hook(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PREFIX):
            return None
        if code not in jumps:
            jumps[code] = conditional_jumps(code)
        at_jump, after = jumps[code], taken.setdefault(code, {})
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        pending = None   # the jump this frame ran last, until the next instruction

        def local(frame, event, arg):
            nonlocal pending
            if event == "opcode":
                at = frame.f_lasti
                if pending is not None:
                    after.setdefault(pending, set()).add(at)
                pending = at if at in at_jump else None
            return local
        return local
    return hook


def unrun_statements(ran: dict[str, set[int]]) -> list[str]:
    unrun = []
    for path in sorted(LIBRARY.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text().splitlines()
        for first, header in sorted(statements(path).items()):
            if lines.isdisjoint(header):
                unrun.append(f"{path.name}:{first}  {source[first - 1].strip()}")
    return unrun


def one_sided(taken: dict) -> list[str]:
    found = []
    for code, after in taken.items():
        line_at = {off: line for start, end, line in code.co_lines()
                   for off in range(start, end, 2)}
        source = Path(code.co_filename).read_text().splitlines()
        for at, (opname, following) in conditional_jumps(code).items():
            went = after.get(at)
            if not went or (following in went and len(went) > 1):
                continue   # never ran, or ran both ways
            line = line_at[at]
            found.append((Path(code.co_filename).name, line, at,
                          f"{opname} {'jump' if following in went else 'next'}",
                          source[line - 1].strip()))
    return [f"{name}:{line}  {what}  {text}" for name, line, _, what, text in sorted(found)]


def main(argv: list[str]) -> int:
    import pytest

    branches = "--branches" in argv
    argv = [a for a in argv if a != "--branches"]
    ran: dict[str, set[int]] = {}
    taken: dict = {}
    hook = branch_hook(taken) if branches else line_hook(ran)

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

    if branches:
        found = one_sided(taken)
        print(f"\n{len(found)} conditional jumps of src/entrange with one side unrun:")
    else:
        found = unrun_statements(ran)
        print(f"\n{len(found)} statements of src/entrange unrun:")
    print("\n".join(found))
    print(f"pytest exit status {int(status)}; this report gates nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
