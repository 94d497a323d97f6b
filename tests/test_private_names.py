"""Every module-level private name in the package is used somewhere in it."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mzeta"


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a def, a class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def referenced_names(node: ast.AST) -> set[str]:
    """The names a statement reads: as a name, as an attribute, or in an import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level private name (a leading underscore,
    not a dunder) that no other module-level statement of any source reads."""
    statements = [
        (module, node, referenced_names(node))
        for module, source in sources.items()
        for node in ast.parse(source).body
    ]
    unused = []
    for module, node, _ in statements:
        for name in defined_names(node):
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(other is not node and name in names for _, other, names in statements):
                unused.append(f"{module}.{name}")
    return unused


def test_guard_sees_every_kind_of_definition():
    sources = {
        "a": (
            "__all__ = ['f']\n"
            "_USED = 1\n"
            "_UNUSED, _PAIR = 2, 3\n"
            "_ANNOTATED: int = 4\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) + _USED\n"
            "class _Unused:\n"
            "    pass\n"
            "def f():\n"
            "    return _PAIR\n"
        ),
        "b": "from .a import _imported\nimport a\nx = a._ANNOTATED\n_imported2 = _imported\n",
    }
    assert unused_private_names(sources) == ["a._UNUSED", "a._recursive", "a._Unused", "b._imported2"]


def test_no_unused_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []
