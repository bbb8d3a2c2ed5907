"""The benchmark's tracer (``bench/tracing.py``) wraps package functions by
name.  Every name it lists must resolve, or a traced benchmark run crashes;
the file is read as source, not imported."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from zspersuasion.utilities import PiecewiseAffineUtility

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _constant(name: str):
    """The literal value assigned to a module-level name in tracing.py."""
    for node in ast.parse(TRACING.read_text()).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == name
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACING}")


TARGETS = _constant("TARGETS")


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves(target):
    module_name, attr = target.split(".")
    module = importlib.import_module(f"zspersuasion.{module_name}")
    assert callable(getattr(module, attr, None)), target


@pytest.mark.parametrize("target", sorted(_constant("GENERATORS")))
def test_generator_target_is_a_generator(target):
    assert target in TARGETS
    module_name, attr = target.split(".")
    module = importlib.import_module(f"zspersuasion.{module_name}")
    assert inspect.isgeneratorfunction(getattr(module, attr)), target


def test_utility_call_is_a_method_of_the_class():
    assert callable(vars(PiecewiseAffineUtility).get("__call__"))
