"""The package's import graph has no cycle.

Every import of a pspin module counts, relative or absolute, at module level
or inside a function: a lazy import defers a cycle to run time, it does not
remove it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pspin"


def _imported(node) -> set[str]:
    """The pspin modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and (node.module or "").split(".")[0] != "pspin":
            return set()
        module = node.module if node.level else node.module.partition(".")[2]
        if module:
            return {module.split(".")[0]}
        return {alias.name for alias in node.names}  # from . import x
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("pspin.")}
    return set()


def import_graph() -> dict[str, set[str]]:
    """module -> the package modules it imports anywhere in its source."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = set().union(*map(_imported, ast.walk(tree)))
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle as [m0, m1, ..., m0], or [] when the graph has none."""
    state = {}  # module -> "open" while on the depth-first path, "done" after
    path = []

    def visit(node):
        state[node] = "open"
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        path.pop()
        state[node] = "done"
        return []

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return []


def test_package_imports_have_no_cycle():
    graph = import_graph()
    assert graph["cli"] >= {"density", "exact", "oracle"}  # the parse sees the imports
    cycle = find_cycle(graph)
    assert cycle == [], "import cycle: " + " -> ".join(cycle)


def test_exact_imports_no_package_module():
    assert import_graph()["exact"] == set()


def test_cycle_finder():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []
    assert find_cycle({"a": {"a"}}) == ["a", "a"]
