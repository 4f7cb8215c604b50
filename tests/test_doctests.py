"""The examples in the package's docstrings run and pass.

``testpaths`` names only this directory, so the docstring examples are
collected here, one ``doctest.testmod`` per module of the package.
"""

import doctest
import importlib
import pkgutil

import gaugeworks


def test_every_docstring_example_passes():
    attempted = failed = 0
    for info in pkgutil.walk_packages(gaugeworks.__path__, "gaugeworks."):
        result = doctest.testmod(importlib.import_module(info.name))
        attempted += result.attempted
        failed += result.failed
    assert failed == 0
    assert attempted >= 21  # all of the package's examples: losing one fails here
