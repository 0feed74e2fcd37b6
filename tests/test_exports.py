"""Every exported name resolves, so deletions leave no stale `__all__` entry."""

import importlib
import pkgutil

import pytest

import secrelay

MODULES = ["secrelay"] + [
    f"secrelay.{info.name}"
    for info in pkgutil.iter_modules(secrelay.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
