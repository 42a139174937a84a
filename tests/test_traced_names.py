"""The package names the benchmark's tracer patches all exist.

``perfbench/spans.py`` looks up every name in its ``TRACED`` table, and
``search.SearchNode.__init__``, in the package and wraps it; a traced run
stops at the first name that is gone. This test fails first, in the
ordinary test run, when a change deletes or renames one.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import spans
finally:
    sys.path.remove(PERFBENCH)

NAMES = [(module, attr) for module, attr, _ in spans.TRACED] + [("search", "SearchNode.__init__")]


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_name_exists(module, attr):
    owner = importlib.import_module(f"hrcsched.{module}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"hrcsched.{module} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)
