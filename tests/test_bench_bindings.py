"""The benchmark's bindings: every pspin name that bench/tracing.py wraps or
reads, every one that bench/ops.py imports or reads off a pspin module, and
every command line of bench/clicold.py.

``Tracer.install`` looks each target up by name, ``cache_counts`` reads
``cache_info`` from the cached ones and the op lists look functions up on
their modules at call time, so a rename or a changed return shape would
otherwise surface only when a benchmark run dies.
"""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from pspin.cli import build_parser
from pspin.exact import ExactScalar
from pspin.moments import MomentSymbol
from pspin.twopoint import grade_contributions


def _bench_module(name):
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(bench)


@pytest.fixture(scope="module")
def tracing():
    return _bench_module("tracing")


def test_targets_resolve(tracing):
    for layer, names in tracing.TARGETS.items():
        module = importlib.import_module(f"pspin.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"pspin.{layer}.{name}"
    spans = {f"{layer}.{name}" for layer, names in tracing.TARGETS.items() for name in names}
    assert set(tracing.COUNTERS) <= spans


def test_cached_expose_cache_info(tracing):
    for name in tracing.CACHED:
        layer, fn_name = name.split(".")
        fn = getattr(importlib.import_module(f"pspin.{layer}"), fn_name)
        info = fn.cache_info()
        assert info.hits >= 0 and info.misses >= 0, name


def test_grade_contributions_shape(tracing):
    result = grade_contributions(3, 2)
    assert result
    for scalar, a_pow, sym in result:
        assert isinstance(scalar, ExactScalar)
        assert isinstance(a_pow, int) and not isinstance(a_pow, bool)
        assert isinstance(sym, MomentSymbol)
    counts = Counter()
    tracing.COUNTERS["twopoint.grade_contributions"](counts, (3, 2), {}, result)
    assert counts["twopoint.contributions"] == len(result)
    assert counts["twopoint.distinct_symbols"] == len({sym for _, _, sym in result})


def test_ops_pspin_names_resolve():
    # every pspin name bench/ops.py imports or reads as <module>.<name> must exist
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "ops.py").read_text())
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "pspin":
            home = importlib.import_module(node.module)
            for alias in node.names:
                if node.module == "pspin":
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"pspin.{alias.name}")
                elif not hasattr(home, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
    assert modules
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert reads
    missing += [f"pspin.{node.value.id}.{node.attr}" for node in reads
                if not hasattr(modules[node.value.id], node.attr)]
    assert missing == []


def test_clicold_commands_parse():
    # a removed or renamed option that a cli-cold command passes fails here
    parser = build_parser()
    commands = _bench_module("clicold").COMMANDS
    assert commands
    for cmd in commands:
        args = parser.parse_args(cmd.argv)
        assert args.command == cmd.argv[0], cmd.label
