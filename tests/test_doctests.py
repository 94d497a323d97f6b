"""The docstring examples are real: run them, in every module of mzeta."""
import doctest
import importlib
import inspect
import pkgutil

import pytest

import mzeta

MODULES = sorted(info.name for info in pkgutil.iter_modules(mzeta.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    module = importlib.import_module(f"mzeta.{name}")
    failures, tried = doctest.testmod(module)
    assert not failures
    # A module whose source shows an example must have run it.
    assert tried or ">>>" not in inspect.getsource(module)
