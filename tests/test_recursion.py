"""No function in the package calls itself by name unless its recursion depth
has a bound that valid input cannot push past Python's recursion limit."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mzeta"

# The functions allowed to call themselves, each with the bound on its depth.
BOUNDED: dict[str, str] = {}


def calls_itself(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether the body of fn calls fn's name: bare, or as an attribute of self
    or cls."""
    for sub in ast.walk(fn):
        if not isinstance(sub, ast.Call):
            continue
        f = sub.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (
            isinstance(f, ast.Attribute)
            and f.attr == fn.name
            and isinstance(f.value, ast.Name)
            and f.value.id in ("self", "cls")
        ):
            return True
    return False


def recursive_functions(sources: dict[str, str]) -> list[str]:
    """module.name, with the enclosing classes and functions in the name, of
    each function of the sources that calls itself by name."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and calls_itself(child):
                    found.append(name)
                visit(child, name)
            else:
                visit(child, prefix)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_guard_sees_every_kind_of_self_call():
    source = (
        "def plain(n):\n"
        "    return plain(n - 1) if n else 0\n"
        "def outer(n):\n"
        "    def rec(k):\n"
        "        for _ in rec(k - 1):\n"
        "            yield k\n"
        "    return list(rec(n))\n"
        "def calls_other(n):\n"
        "    return plain(n)\n"
        "class C:\n"
        "    def walk(self, n):\n"
        "        return self.walk(n - 1)\n"
        "    def other(self, obj):\n"
        "        return obj.other(1)\n"
        "    @classmethod\n"
        "    def build(cls, n):\n"
        "        return [cls.build(n - 1)]\n"
    )
    assert recursive_functions({"m": source}) == ["m.plain", "m.outer.rec", "m.C.walk", "m.C.build"]


def test_only_bounded_functions_call_themselves():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sorted(recursive_functions(sources)) == sorted(BOUNDED)
