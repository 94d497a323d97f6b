"""The docstring examples are real: run them."""
import doctest

import mzeta.admissible
import mzeta.multiset
import mzeta.poly
import mzeta.signed
import mzeta.zeta


def test_admissible_doctests():
    failures, tried = doctest.testmod(mzeta.admissible)
    assert tried and not failures


def test_multiset_doctests():
    failures, tried = doctest.testmod(mzeta.multiset)
    assert tried and not failures


def test_poly_doctests():
    failures, tried = doctest.testmod(mzeta.poly)
    assert tried and not failures


def test_signed_doctests():
    failures, tried = doctest.testmod(mzeta.signed)
    assert tried and not failures


def test_zeta_doctests():
    failures, tried = doctest.testmod(mzeta.zeta)
    assert tried and not failures
