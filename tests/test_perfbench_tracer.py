"""Every function the benchmark tracer wraps still exists.

``perfbench/tracer.py`` patches the package from outside, by name.  A
function that leaves the hot path but disappears (or moves) would make
``perfbench/run.py --trace 1`` fail at start-up, long after the change
that removed it.  This test reads the tracer's target list and resolves
each entry the way ``Tracer.install`` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer_module().TARGETS


@pytest.mark.parametrize("family, module_name, path", TARGETS,
                         ids=[f"{m}:{p}" for _, m, p in TARGETS])
def test_tracer_target_resolves(family, module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        target = getattr(module, cls_name).__dict__[attr]
    else:
        target = getattr(module, path)
    assert callable(target)


def test_dispatch_hooks_exist_on_the_executor():
    from repro.runtime.async_pool import AsyncPopulationExecutor

    for attr in _tracer_module().DISPATCH_METHODS:
        assert callable(getattr(AsyncPopulationExecutor, attr))
