"""The registry's signed kernels each read a window in one loop of their own:
b_kernel calls no other function of mzeta.signed, and d_kernel only _pairs,
the independent pass behind nsp and the second form of dden."""
import ast
import pathlib

SIGNED = pathlib.Path(__file__).resolve().parent.parent / "src" / "mzeta" / "signed.py"


def module_names(tree: ast.Module) -> set[str]:
    """The module-level defs and classes of a module, and the names it imports
    from its own package."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def kernel_shape(source: str, name: str) -> tuple[int, set[str]]:
    """(loops, calls) of the module-level function name: its for and while
    loops and comprehensions, and the module names it calls, directly or as
    the base of an attribute (Class.method)."""
    tree = ast.parse(source)
    own = module_names(tree)
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)
    loops = sum(
        isinstance(sub, (ast.For, ast.AsyncFor, ast.While, ast.comprehension)) for sub in ast.walk(fn)
    )
    calls = set()
    for sub in ast.walk(fn):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in own:
                calls.add(f"{func.value.id}.{func.attr}")
        elif isinstance(func, ast.Name) and func.id in own:
            calls.add(func.id)
    return loops, calls


def test_guard_sees_loops_and_calls():
    source = (
        "from .other import helper\n"
        "class Named:\n"
        "    pass\n"
        "def _pass(w):\n"
        "    return sum(1 for a in w)\n"
        "def kernel(w):\n"
        "    total = 0\n"
        "    for a in w:\n"
        "        total += a.bit_count()\n"
        "    while total:\n"
        "        total -= 1\n"
        "    return Named._make((helper(w), _pass(w), len(w), [a for a in w]))\n"
    )
    assert kernel_shape(source, "kernel") == (3, {"Named._make", "helper", "_pass"})
    assert kernel_shape(source, "_pass") == (1, set())


def test_b_kernel_is_one_loop_that_calls_nothing_of_its_module():
    assert kernel_shape(SIGNED.read_text(encoding="utf-8"), "b_kernel") == (1, set())


def test_d_kernel_is_one_loop_that_calls_only_the_pair_pass():
    assert kernel_shape(SIGNED.read_text(encoding="utf-8"), "d_kernel") == (1, {"_pairs"})
