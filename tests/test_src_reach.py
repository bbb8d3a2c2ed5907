"""Every module-level function and class in ``src/zspersuasion`` is named
somewhere in the package outside its own definition.  Code that no command
reaches is deleted, or moves to the tests (``tests/reference.py``) when a
test checks the program against it.  The names the benchmark's tracer
wraps (``bench/tracing.py``) are exempt while the tracer lists them, and
so is each name in ``UNREACHED``, for its reason."""

import ast
from pathlib import Path

from test_tracer_targets import TARGETS

SRC = Path(__file__).resolve().parent.parent / "src" / "zspersuasion"

UNREACHED = {
    "beliefs.belief": "the constructor of a belief from any rational-like "
    "values, for library users and the tests",
    "oracle.best_response_scan": "the oracle's one-sender deviation scan, "
    "an entry point that README documents",
}

TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def names_in(tree, skip=None) -> set[str]:
    """Every name read in ``tree``, as a name or an attribute, outside the
    node ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unnamed() -> list[str]:
    """module.name of every module-level function and class that the
    package names nowhere outside its own definition."""
    everywhere = {module: names_in(tree) for module, tree in TREES.items()}
    out = []
    for module, tree in TREES.items():
        elsewhere = set().union(*(v for k, v in everywhere.items() if k != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name not in elsewhere | names_in(tree, skip=node):
                    out.append(f"{module}.{node.name}")
    return out


def test_every_definition_is_named_in_the_package():
    assert sorted(set(unnamed()) - set(TARGETS) - set(UNREACHED)) == []


def test_every_exemption_is_still_needed():
    assert set(UNREACHED) <= set(unnamed())
