"""Every function perfbench's traced run wraps still exists under its name.

``perfbench/tracer.py`` patches the functions its ``LAYERS`` table names
(``module:Class.method`` or ``module:function``) and raises
``LookupError`` for any it cannot find, so renaming or deleting a traced
function breaks only ``perfbench/run.py --trace 1``. This test resolves
every target through the tracer's own ``_resolve``, which only looks
bindings up; nothing is patched.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", _TRACER)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module through sys.modules while the
    # class bodies execute
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracer = _load_tracer()

TARGETS = sorted({target for layer in tracer.LAYERS for target in layer.targets})


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target: str) -> None:
    bindings = tracer._resolve(target)
    assert bindings, target
    for owner, attribute, function in bindings:
        assert vars(owner)[attribute] is function
