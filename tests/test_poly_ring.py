"""UniPoly and BiPoly share one dense-polynomial ring, written once in their
private base class; neither class may hold its own copy of it."""
import pytest

from mzeta.poly import BiPoly, UniPoly, _DensePoly

# The canonical form, the arithmetic and comparison protocol, the int-constant
# rule and exact long division.
RING = (
    "_canonical", "zero", "one", "__bool__", "_operand", "__eq__", "__hash__", "_zip",
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "_div_exact",
)


def test_the_base_holds_the_ring():
    assert [name for name in RING if name not in vars(_DensePoly)] == []


@pytest.mark.parametrize("cls", [UniPoly, BiPoly], ids=lambda cls: cls.__name__)
def test_no_class_copies_the_ring(cls):
    assert [name for name in RING if name in vars(cls)] == []


def test_both_divisions_are_the_base_long_division():
    assert vars(UniPoly)["div_exact"] is vars(BiPoly)["divide_exact"] is vars(_DensePoly)["_div_exact"]
