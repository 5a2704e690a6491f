"""The exact kernels mix `int` and `Fraction` arithmetic; a float anywhere
in them would silently make a verdict inexact.  This scans their source."""

import ast
from pathlib import Path

import pytest

import probnext

KERNELS = ("linarith.py", "prokhorov.py", "decide.py")


def _float_uses(source: str) -> list[str]:
    """Each float literal and each call of `float`, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"line {node.lineno}: float(...)")
    return found


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_has_no_floats(name):
    path = Path(probnext.__file__).parent / name
    assert _float_uses(path.read_text()) == []


def test_the_scan_sees_floats():
    assert _float_uses("x = 0.5\ny = float(x)\nz = 1 / 2\n") == [
        "line 1: literal 0.5",
        "line 2: float(...)",
    ]
