"""signed_numerator's Denert side never reaches route B: it is built by
insertion, and route B on 1^n has 2^n states."""
import ast
import pathlib

from test_private_names import referenced_names

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mzeta"


def reached_names(sources: dict[str, str], start: str) -> set[str]:
    """The module-level defs and classes of any source that start reaches by
    reading a name, an attribute or an import, directly or through other
    such defs; a name defined in several sources reaches each definition."""
    defs: dict[str, list[ast.stmt]] = {}
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
    reached, todo = {start}, [start]
    while todo:
        for node in defs.get(todo.pop(), []):
            for name in referenced_names(node) & defs.keys() - reached:
                reached.add(name)
                todo.append(name)
    return reached


def test_guard_follows_calls_across_modules():
    sources = {
        "a": "def top():\n    return b.middle()\ndef _route():\n    return 1\n",
        "b": "class Holder:\n    def middle(self):\n        return a._route()\ndef middle():\n    return Holder\n",
        "c": "def unrelated():\n    return _route()\n",
    }
    assert reached_names(sources, "top") == {"top", "middle", "Holder", "_route"}
    assert "_route" not in reached_names({"a": sources["a"]}, "top")


def test_signed_numerator_never_reaches_route_b():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    reached = reached_names(sources, "signed_numerator")
    assert "_euler_mahonian_rows" in reached
    assert "_denh_exc_numerator" not in reached
