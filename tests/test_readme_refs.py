"""Every `<module>._<name>` that README.md names exists in facadesim,
every `<name>(..., <param>...)` names a facadesim function with that
parameter, and every `<Class>.<attr>` of a facadesim class names an
attribute or dataclass field of it.

README points readers at private cores and parameters by name, so a rename
or a deletion would otherwise leave it naming code that is gone.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import facadesim

_README = Path(__file__).resolve().parents[1] / "README.md"
_REFS = sorted(set(re.findall(r"`(\w+)\.(_\w+)`", _README.read_text())))
_PARAMS = sorted(set(re.findall(r"`(\w+)\(\.\.\., (\w+)[^`]*\)`",
                                _README.read_text())))
_MODULES = [importlib.import_module(f"facadesim.{m.name}")
            for m in pkgutil.iter_modules(facadesim.__path__)
            if m.name != "__main__"]   # importing it runs the CLI


def _classes(name):
    return [getattr(m, name) for m in _MODULES
            if inspect.isclass(getattr(m, name, None))]


_ATTRS = [(name, attr) for name, attr in sorted(set(re.findall(
    r"`([A-Z]\w*)\.(\w+)`", _README.read_text()))) if _classes(name)]


def test_readme_names_private_cores():
    assert _REFS, "no `<module>._<name>` reference found in README.md"


@pytest.mark.parametrize("module,attr", _REFS, ids=lambda v: v)
def test_readme_reference_resolves(module, attr):
    owner = importlib.import_module(f"facadesim.{module}")
    assert hasattr(owner, attr), f"facadesim.{module}.{attr}"


def test_readme_names_parameters():
    assert _PARAMS, "no `<name>(..., <param>...)` reference found in README.md"


@pytest.mark.parametrize("name,param", _PARAMS, ids=lambda v: v)
def test_readme_parameter_exists(name, param):
    functions = [getattr(m, name) for m in _MODULES
                 if inspect.isfunction(getattr(m, name, None))]
    assert functions, f"no facadesim function {name}"
    assert any(param in inspect.signature(f).parameters
               for f in functions), f"{name} has no parameter {param}"


def test_readme_names_class_attributes():
    assert _ATTRS, "no `<Class>.<attr>` reference found in README.md"


@pytest.mark.parametrize("name,attr", _ATTRS, ids=lambda v: v)
def test_readme_class_attribute_exists(name, attr):
    """A dataclass field with no default is no class attribute."""
    assert any(hasattr(c, attr) or (dataclasses.is_dataclass(c) and attr in
                                    {f.name for f in dataclasses.fields(c)})
               for c in _classes(name)), f"{name} has no attribute {attr}"
