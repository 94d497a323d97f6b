"""Every budget refusal of the package is raised in one place,
zeta._check_budget, so a change to what a command is charged changes what
it hands that function, not a message or a comparison of its own."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mzeta"


def budget_raises(sources: dict[str, str]) -> list[str]:
    """module.function for each `raise BudgetError` (bare, called, or through
    a module attribute), with the innermost enclosing def; module-level
    raises are listed as module.<module>."""
    found = []

    def visit(module: str, node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name == "BudgetError":
                    found.append(f"{module}.{where}")
            visit(module, child, where)

    for module, source in sources.items():
        visit(module, ast.parse(source), "<module>")
    return found


def test_guard_sees_every_form_of_raise():
    sources = {
        "a": (
            "def _check_budget(size, budget):\n"
            "    if size > budget:\n"
            "        raise BudgetError('too big')\n"
            "class R:\n"
            "    def series(self):\n"
            "        raise BudgetError\n"
            "raise ValueError('other')\n"
        ),
        "b": (
            "def sweep():\n"
            "    def inner():\n"
            "        raise zeta.BudgetError('sweep')\n"
            "    try:\n"
            "        inner()\n"
            "    except zeta.BudgetError:\n"
            "        raise\n"
        ),
    }
    assert budget_raises(sources) == ["a._check_budget", "a.series", "b.inner"]


def test_one_refusal_path():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert budget_raises(sources) == ["zeta._check_budget"]
