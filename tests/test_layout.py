"""Pins of the package's internal layout, read from its source with `ast`.

`Graph(n, edges, bipartition)` checks edges that come from outside, and
`graph._graph_of_canonical` (with `_graph_plus`, which extends a graph
through it) takes int64 arrays that the package computed and checks
nothing. These tests keep it at that: a change that adds a graph builder,
or lets another module reach a private one, must edit the pins below.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "streammatch"

# the private names each module imports from `.graph`
PRIVATE_GRAPH_IMPORTS = {
    "__init__": set(),
    "analyzer": {"_lacking"},
    "augmenter": {"_graph_of_canonical", "_graph_plus", "_lacking"},
    "bench": {"_graph_of_canonical"},
    "cli": set(),
    "instances": {"_ends_of", "_graph_of_canonical", "_lacking", "_write_edges"},
    "sparsifier": {"_graph_of_canonical", "_graph_plus"},
    "stream": set(),
}

# the private functions of graph.py that make or fill a Graph
GRAPH_BUILDERS = {"_graph_of_canonical", "_graph_plus", "_fill_graph"}
# the ones that another module may name
SHARED_BUILDERS = {"_graph_of_canonical", "_graph_plus"}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _names(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name that node mentions."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def _builders() -> set[str]:
    """Private top-level functions of graph.py that return a Graph, set a
    field of one, or call a function that does."""
    funcs = {f.name: f for f in _tree("graph").body
             if isinstance(f, ast.FunctionDef) and f.name.startswith("_")}
    builders = set()
    for name, f in funcs.items():
        returns = f.returns is not None and ast.unparse(f.returns).strip("'\"") == "Graph"
        sets_field = any(isinstance(t, ast.Attribute)
                         for sub in ast.walk(f) if isinstance(sub, ast.Assign) for t in sub.targets)
        if returns or sets_field:
            builders.add(name)
    while True:
        callers = {name for name, f in funcs.items() if _names(f) & builders} - builders
        if not callers:
            return builders
        builders |= callers


def test_modules_are_the_pinned_ones():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"graph"}
    assert modules == set(PRIVATE_GRAPH_IMPORTS)


def test_private_imports_from_graph_are_pinned():
    for module, pinned in PRIVATE_GRAPH_IMPORTS.items():
        imported = set()
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "graph":
                imported |= {a.name for a in node.names if a.name.startswith("_")}
        assert imported == pinned, module


def test_graph_has_two_ways_to_build_a_graph():
    # Graph.__init__ for outside input, _graph_of_canonical for the
    # package's own arrays; _graph_plus goes through the latter and
    # _fill_graph is their shared last step
    assert _builders() == GRAPH_BUILDERS


def test_no_module_names_another_builder():
    others = GRAPH_BUILDERS - SHARED_BUILDERS
    for module in PRIVATE_GRAPH_IMPORTS:
        assert not _names(_tree(module)) & others, module


def test_analyzer_reads_no_rows():
    # check_edcs tests H against G by sorted edge codes; a verifier that
    # read a graph's `adj` would build all of its rows for that one check
    reads = {node.attr for node in ast.walk(_tree("analyzer")) if isinstance(node, ast.Attribute)}
    assert "adj" not in reads


def test_graph_holds_no_augmenting_path_search():
    # Phase II.B's bounded search lives beside its one caller, `phase2b`
    defined = {f.name for f in _tree("graph").body if isinstance(f, ast.FunctionDef)}
    assert not defined & {"_path1", "_path3", "_path5", "_augmenting_paths"}
