"""sbshare's modules import one another one way only.

The graph is read off the source: each relative import is an edge to
the sbshare module it names, and `from . import name` of a name that is
no module (__version__) is an edge to __init__.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import sbshare
from sbshare import _engine, shamir

PACKAGE = Path(sbshare.__file__).parent


def _targets(node) -> set:
    """The sbshare modules that one relative import names."""
    if not isinstance(node, ast.ImportFrom) or not node.level:
        return set()
    if node.module:
        return {node.module.split(".")[0]}
    return {a.name if (PACKAGE / f"{a.name}.py").is_file() else "__init__" for a in node.names}


def import_graph() -> dict:
    """{module: the sbshare modules it imports}, for every module of the package."""
    return {
        path.stem: set().union(*map(_targets, ast.walk(ast.parse(path.read_text()))))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_the_walk_sees_each_kind_of_import():
    graph = import_graph()
    assert "_engine" in graph["shamir"]  # from . import _engine
    assert "rrsg" in graph["scheme"]  # from .rrsg import ...
    assert "__init__" in graph["cli"]  # from . import __version__
    for path in PACKAGE.glob("*.py"):  # an absolute import would be no edge
        lines = path.read_text().splitlines()
        assert not any(line.startswith(("import sbshare", "from sbshare")) for line in lines), path


def test_the_import_graph_has_no_cycle():
    try:
        TopologicalSorter(import_graph()).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_the_engine_imports_only_the_keystream():
    assert import_graph()["_engine"] == {"rrsg"}


def test_field_policy_is_one_object():
    assert sbshare.FieldPolicy is shamir.FieldPolicy is _engine.FieldPolicy
