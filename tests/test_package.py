"""The package as a user meets it: its exported names and its demos."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import mesonbell

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PUBLIC_MODULES = ["mesonbell"] + [f"mesonbell.{m.name}" for m in pkgutil.iter_modules(mesonbell.__path__)
                                   if not m.name.startswith("_")]


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out, err = capsys.readouterr()
    assert out and err == ""
