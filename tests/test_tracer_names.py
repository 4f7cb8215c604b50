"""Every name the benchmark tracer patches exists where the tracer looks.

``bench/tracer.py`` wraps module functions found by ``getattr`` and class
methods found in the class's own ``__dict__``; a renamed or deleted callable
would otherwise fail only the benchmark's smoke run.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_tracer = _load_tracer()
TRACED = ([(module, attr) for _, module, names in _tracer.LAYERS for attr in names]
          + [(module, attr) for _, module, attr in _tracer.COUNTED])


@pytest.mark.parametrize("module_name, attr", TRACED)
def test_traced_name_exists(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
