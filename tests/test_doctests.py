"""The >>> examples in the package's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import tdhom


def test_docstring_examples_pass():
    names = ["tdhom"] + [info.name for info in
                         pkgutil.iter_modules(tdhom.__path__, "tdhom.")]
    failed, attempted = {}, 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed[name] = result.failed
    assert failed == {}, "doctest failures (details above): %s" % failed
    assert attempted, "no docstring example found"
