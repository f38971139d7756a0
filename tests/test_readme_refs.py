"""Every `<module>._<name>` that README.md names exists in facadesim.

README points readers at private cores by name, so a rename or a deletion
would otherwise leave it naming code that is gone.
"""

import importlib
import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parents[1] / "README.md"
_REFS = sorted(set(re.findall(r"`(\w+)\.(_\w+)`", _README.read_text())))


def test_readme_names_private_cores():
    assert _REFS, "no `<module>._<name>` reference found in README.md"


@pytest.mark.parametrize("module,attr", _REFS, ids=lambda v: v)
def test_readme_reference_resolves(module, attr):
    owner = importlib.import_module(f"facadesim.{module}")
    assert hasattr(owner, attr), f"facadesim.{module}.{attr}"
