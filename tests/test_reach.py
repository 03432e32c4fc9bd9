"""What the commands reach: every function in src/pspin serves a command, or is listed.

A fresh interpreter runs README's command lines, the benchmark's cold
commands (``bench/clicold.py``) and a few more in process, under
``sys.setprofile``, and records every ``def`` of ``src/pspin`` it enters.  The
process must be fresh: a cached function that an earlier test already called
would not be entered again.  A function no command enters must be a helper
(equality, hash, repr, str or an exception's constructor) or be listed in
``UNREACHED`` with the reason it stays.  A listed function that a command now
reaches fails the test too, so the list cannot go stale.

Inside the functions, ``UNRUN_LINES`` lists the statements that neither
tier-1 (in process) nor those commands run, each with its reason.
``tests/trace_lines.py`` makes the list by tracing, by hand; tier-1 traces
nothing and only checks that each listed line is still in the source.
"""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from test_bench_bindings import _bench_module

ROOT = Path(__file__).resolve().parents[1]

# a command for what neither README nor the benchmark's cold commands reach:
# the admissible one-point label at integer p >= 2
EXTRA = ["intersect --p 5 --genus 3 --points 1"]

# function -> why it stays although no command enters it
UNREACHED = {
    "correlators.two_point_low_value": "benchmark: p-sweep's two_point_low_value ops",
    "twopoint.two_point_low_orders": "benchmark: under two_point_low_value",
    "twopoint._low_orders": "benchmark: under two_point_low_value",
    "correlators.lagrange_polynomial": "benchmark: p-sweep's general_p_interpolate ops",
    "correlators.general_p_interpolate": "benchmark: p-sweep's general_p_interpolate ops",
    "tautology.TautologyReport.failures": "benchmark: p-sweep's string and dilaton ops",
    "exact.ExactScalar.render": "benchmark: the grade prefactors exact-deep pins",
    "oracle.ai_deriv": "the tests' hook on the quadrature oracle's Ai (airy.py docstring)",
    "cli._warn": "failing commands only: the exit-code tests of test_cli.py",
}

# (module, scope, stripped first line) -> why no command or in-process test
# runs it; a listed statement stands for the rest of its block too
UNRUN_LINES = {
    ("__main__", "<module>", "import sys"):
        "subprocess exit-code test test_console_entry_point",
    ("cli", "_warn", "pass"):
        "subprocess exit-code test test_unwritable_stderr_keeps_exit_code",
    ("cli", "main", "devnull = os.open(os.devnull, os.O_WRONLY)"):
        "subprocess exit-code test test_stdout_on_a_full_device_exits_3",
    ("correlators", "extract_intersections",
     'raise DomainError(f"selection rule violated by {tau}")'): "item 8",
    ("exact", "ExactScalar.__eq__", "return NotImplemented"):
        "protocol: foreign-type NotImplemented",
    ("exact", "ExactScalar.__mul__", "return NotImplemented"):
        "protocol: foreign-type NotImplemented",
    ("exact", "ExactScalar.scale", "return ExactScalar()"): "item 10",
    ("exact", "_factorize", 'raise DomainError(f"cannot factor non-positive integer {n}")'):
        "invariant: its one caller, ExactScalar.rational_power, refuses a base <= 0 first",
    ("moments", "AssembledGrade.__eq__", "return NotImplemented"):
        "protocol: foreign-type NotImplemented",
    ("moments", "MomentEngine.reduce.visit",
     'raise ReductionCycleError(f"closure from {root} exceeds bound")'):
        "invariant: within the tables' caps (p <= 100) one reduction visits at most 503 nodes",
    ("moments", "MomentSymbol.__eq__", "return NotImplemented"):
        "protocol: foreign-type NotImplemented",
}

REASON = re.compile(r"subprocess exit-code test (test_\w+)|protocol: foreign-type NotImplemented"
                    r"|invariant: .+|item (8|10)")

# equality, hash, repr (``record_repr`` included) and str, and exception constructors
HELPER = re.compile(r"\.(__eq__|__hash__|__repr__|__str__|record_repr)$|Error\.__init__$")

_PROBE = r"""
import ast, contextlib, io, json, os, sys

src, commands = sys.argv[1], json.loads(sys.argv[2])
defined = {}  # (file, first line, name) -> module.qualified.name
for fname in sorted(os.listdir(src)):
    if not fname.endswith(".py"):
        continue
    path = os.path.join(src, fname)

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                defined[(path, line, child.name)] = fname[:-3] + "." + prefix + child.name
                walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    with open(path, encoding="utf-8") as fh:
        walk(ast.parse(fh.read()), "")

entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

codes = []
sys.setprofile(profile)
from pspin.cli import main
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
reached = {defined.get((os.path.realpath(f), line, name)) for f, line, name in entered}
print(json.dumps({"defined": sorted(defined.values()), "reached": sorted(reached - {None}),
                  "codes": codes}))
"""


def line_scopes(source: str) -> list[str]:
    """The qualified name of the innermost def or class around each line
    (entry i is line i + 1), "<module>" outside them; a def's own line and
    its decorators belong to the enclosing scope."""
    scopes = ["<module>"] * (source.count("\n") + 1)

    def walk(node, qual):
        for child in ast.iter_child_nodes(node):
            inner = qual
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if qual == "<module>" else f"{qual}.{child.name}"
                scopes[child.lineno:child.end_lineno] = [inner] * (child.end_lineno - child.lineno)
            walk(child, inner)

    walk(ast.parse(source), "<module>")
    return scopes


def _readme_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines()
            if line.startswith("pspin ")]


def commands():
    """README's command lines, the benchmark's cold commands and ``EXTRA``, as argv lists."""
    return (_readme_commands() + [cmd.argv for cmd in _bench_module("clicold").COMMANDS]
            + [shlex.split(line) for line in EXTRA])


def test_unreached_functions_are_listed(tmp_path):
    argvs = commands()
    src = ROOT / "src"
    env = dict(os.environ, PSPIN_OUTPUT_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, os.path.realpath(src / "pspin"), json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(argvs)
    unreached = set(result["defined"]) - set(result["reached"])
    assert sorted(n for n in unreached if n not in UNREACHED and not HELPER.search(n)) == []
    assert sorted(n for n in UNREACHED if n not in unreached) == []


def test_unrun_lines_are_current():
    """Each listed line still stands, once, in its scope, with a reason from the fixed set."""
    tests = "".join(path.read_text(encoding="utf-8") for path in (ROOT / "tests").glob("test_*.py"))
    for (module, scope, text), reason in UNRUN_LINES.items():
        match = REASON.fullmatch(reason)
        assert match, reason
        if match.group(1):
            assert f"def {match.group(1)}(" in tests, reason
        source = (ROOT / "src" / "pspin" / f"{module}.py").read_text(encoding="utf-8")
        lines = zip(source.splitlines(), line_scopes(source))
        assert sum(line.strip() == text and at == scope for line, at in lines) == 1, (module, scope, text)
