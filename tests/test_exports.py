"""The public API: every name a module exports resolves in it."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["kempner", "kempner.core", "kempner.table", "kempner.census", "kempner.oracle"]
)
def test_every_exported_name_resolves(module):
    # A name left in __all__ after its definition is deleted breaks
    # `from kempner import *` and every tool that walks the public API.
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
