"""Every name a package exports in ``__all__`` resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["hyporom", "hyporom.fom", "hyporom.rom",
                                    "hyporom.harness"])
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
