"""The benchmark's traced layers name attributes that exist in facadesim.

`perfbench/workloads.py` wraps these attributes by name in a traced run,
so a rename here would otherwise surface only when `--trace 1` runs.
The module is imported read-only from `perfbench/`; it imports no
facadesim code at import time.
"""

import importlib
import sys
from pathlib import Path

import pytest

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(_PERFBENCH)


@pytest.mark.parametrize(
    "owner,attr", [(o, a) for o, a, _ in workloads._TRACED_FUNCTIONS],
    ids=lambda v: v)
def test_traced_function_resolves(owner, attr):
    module = importlib.import_module(f"facadesim.{owner}")
    assert callable(getattr(module, attr, None)), f"facadesim.{owner}.{attr}"


@pytest.mark.parametrize(
    "owner,cls,attr", [(o, c, a) for o, c, a, _ in workloads._TRACED_METHODS],
    ids=lambda v: v)
def test_traced_method_resolves(owner, cls, attr):
    module = importlib.import_module(f"facadesim.{owner}")
    klass = getattr(module, cls, None)
    assert isinstance(klass, type), f"facadesim.{owner}.{cls}"
    assert callable(getattr(klass, attr, None)), \
        f"facadesim.{owner}.{cls}.{attr}"
