"""The examples in the package's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import splittings


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(splittings.__path__):
        module = importlib.import_module(f"splittings.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, f"{info.name}: {result}"
        attempted += result.attempted
    assert attempted >= 1
