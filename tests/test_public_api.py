"""The package's public surface: the README's library example runs as
written, and every submodule's __all__ names only what the module defines."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import pytest

import mdpbandit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert all(math.isfinite(float(word)) for word in printed)


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(mdpbandit.__path__)))
def test_star_import_of_every_submodule(module):
    names = {}
    exec(f"from mdpbandit.{module} import *", names)
    exported = importlib.import_module(f"mdpbandit.{module}").__all__
    assert set(exported) <= set(names)
