"""Every function the benchmark tracer wraps must exist in arithdyn.

``bench/run.py --trace 1`` patches the functions named in
``bench/tracing.py``'s ``TARGETS``; a renamed or deleted function would
break the traced run while every other test still passes.  This test only
reads ``bench/tracing.py``.
"""

import importlib

import pytest
from corpus import trace_targets


@pytest.mark.parametrize(
    "module_name, attribute", [(m, a) for _, m, a in trace_targets()], ids=lambda v: v
)
def test_trace_target_resolves(module_name, attribute):
    owner = importlib.import_module(f"arithdyn.{module_name}")
    *classes, name = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if classes:
        # the tracer patches the class's own attribute, not an inherited one
        assert name in vars(owner), f"{attribute} is not defined on {classes[-1]}"
    assert callable(getattr(owner, name))
