"""The runtime imports only the standard library and the package itself."""
import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mzeta"


def foreign_imports(source: str) -> list[str]:
    """The top-level names of the modules source imports that are neither in
    the standard library nor mzeta; relative imports are the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    tops = (name.partition(".")[0] for name in names)
    return [top for top in tops if top not in sys.stdlib_module_names and top != "mzeta"]


def test_guard_sees_every_form_of_import():
    source = (
        "import os, numpy.linalg\n"
        "from sympy import factor\n"
        "from . import poly\n"
        "from mzeta.poly import BiPoly\n"
        "def f():\n"
        "    import scipy\n"
    )
    assert foreign_imports(source) == ["numpy", "sympy", "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_is_standard_library_only(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == [], path
