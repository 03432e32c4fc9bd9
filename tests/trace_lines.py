"""List the statements of src/pspin that neither tier-1 nor the commands run.

Run by hand from the repository root::

    PYTHONPATH=src python tests/trace_lines.py

It runs tier-1 in this process under ``sys.settrace``, then the command lines
of ``tests/test_reach.py`` in a fresh interpreter under the same tracer, and
prints every executable statement of src/pspin that neither of them runs, as
``(module, scope, first line)`` keys; consecutive ones in one block are listed
by the first.  It exits 1 unless those keys are
exactly the keys of ``test_reach.UNRUN_LINES``.  Tests that start pspin in a
subprocess (``python -m pspin``) are not traced, so the lines only they run
are listed too.  pytest does not collect this file: its name does not start
with ``test_``.  Tracing roughly doubles tier-1's wall time.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = os.path.realpath(ROOT / "src" / "pspin")

_hits: dict[str, set[int]] = defaultdict(set)  # realpath -> lines run
_paths: dict[str, str | None] = {}  # co_filename -> realpath inside src/pspin, or None


def _in_package(filename: str) -> str | None:
    path = _paths.get(filename)
    if path is None and filename not in _paths:
        real = os.path.realpath(filename)
        path = _paths[filename] = real if os.path.dirname(real) == PKG else None
    return path


def _global(frame, event, arg):
    path = _in_package(frame.f_code.co_filename)
    if path is None:
        return None
    lines = _hits[path]

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _trace(run):
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        return run()
    finally:
        sys.settrace(None)
        threading.settrace(None)


def statements(path: str, scopes: list[str]) -> list[tuple]:
    """(statement, scope, first line's stripped text, own lines, predecessor)
    for each executable statement of a module; scopes[i] is line i + 1's scope.

    A line belongs to the innermost statement that spans it, so a compound
    statement owns its header lines and not its body.  A statement is
    executable when some line it owns carries bytecode; a function's
    docstring carries none.  The predecessor is the previous executable
    statement of the same block or, for a block's first, the statement
    that holds the block (None at module level).
    """
    source = Path(path).read_text(encoding="utf-8")
    text = source.splitlines()
    code_lines = set()
    todo = [compile(source, path, "exec")]
    while todo:  # nested functions and classes are code constants of their parent
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    owned: dict[ast.stmt, set[int]] = defaultdict(set)
    owner: dict[int, ast.stmt] = {}
    blocks: list[tuple[ast.stmt | None, list[ast.stmt]]] = []

    def walk(node, holder):
        for _, value in ast.iter_fields(node):
            items = value if isinstance(value, list) else [value]
            if items and all(isinstance(v, ast.stmt) for v in items):
                blocks.append((holder, items))
            for item in items:
                if isinstance(item, ast.stmt):
                    start = min([d.lineno for d in getattr(item, "decorator_list", ())]
                                + [item.lineno])
                    for line in range(start, item.end_lineno + 1):
                        owner[line] = item  # pre-order: nested statements overwrite
                    walk(item, item)
                elif isinstance(item, ast.AST):
                    walk(item, holder)

    walk(ast.parse(source), None)
    for line, stmt in owner.items():
        owned[stmt].add(line)
    out = []
    for holder, block in blocks:
        prev = holder
        for stmt in block:
            if owned[stmt] & code_lines:
                first = min(owned[stmt])
                out.append((stmt, scopes[first - 1], text[first - 1].strip(), owned[stmt], prev))
                prev = stmt
    return out


def unrun(hits: dict[str, set[int]], line_scopes) -> list[tuple[str, str, str]]:
    """(module, scope, text) of the statements that no hit line reaches.  A run
    of them in one block, or a block under one of them, is listed by its first."""
    keys = []
    for path in sorted(Path(PKG).glob("*.py")):
        ran = hits.get(str(path), set())
        rows = statements(str(path), line_scopes(path.read_text(encoding="utf-8")))
        missed = {stmt for stmt, _, _, lines, _ in rows if not lines & ran}
        keys += [(path.stem, scope, text) for stmt, scope, text, _, prev in rows
                 if stmt in missed and prev not in missed]
    return sorted(keys)


def _commands_child(commands: list[list[str]]) -> None:
    import contextlib
    import io

    def run():
        from pspin.cli import main

        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    main(argv)
                except SystemExit:
                    pass

    _trace(run)
    print(json.dumps({path: sorted(lines) for path, lines in _hits.items()}))


def _commands_hits(commands: list[list[str]]) -> dict[str, set[int]]:
    src = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PSPIN_OUTPUT_DIR=tmp,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, __file__, "--commands", json.dumps(commands)],
            capture_output=True, text=True, env=env, cwd=tmp, check=True,
        )
    return {path: set(lines) for path, lines in json.loads(proc.stdout).items()}


def main() -> int:
    import pytest

    status = _trace(lambda: pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))
    import test_reach

    for path, lines in _commands_hits(test_reach.commands()).items():
        _hits[path] |= lines
    keys = unrun(_hits, test_reach.line_scopes)
    print(f"\n{len(keys)} statements run by neither tier-1 (exit {int(status)}) nor a command"
          " (a run of them in one block is listed by its first):")
    for key in keys:
        print(f"    {key!r}")
    listed = set(test_reach.UNRUN_LINES)
    missing = sorted(set(keys) - listed)
    stale = sorted(listed - set(keys))
    for title, rows in (("not in UNRUN_LINES", missing), ("listed but now run", stale)):
        if rows:
            print(f"{title}:")
            for key in rows:
                print(f"    {key!r}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--commands"]:
        _commands_child(json.loads(sys.argv[2]))
    else:
        sys.exit(main())
