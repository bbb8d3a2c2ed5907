"""The package has no runtime dependencies: every module of
``src/zspersuasion`` imports only the standard library and the package
itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zspersuasion"


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    foreign = {
        path.name: sorted(
            imported_modules(path) - set(sys.stdlib_module_names) - {"zspersuasion"}
        )
        for path in modules
    }
    assert all(not names for names in foreign.values()), foreign


def test_the_scan_sees_a_third_party_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("import json\nfrom numpy import array\nfrom . import beliefs\n")
    assert imported_modules(module) - set(sys.stdlib_module_names) == {"numpy"}
