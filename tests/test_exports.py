"""Every name a module exports resolves, so a deletion cannot leave an
export behind."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["gkdvlab", "gkdvlab.estimates", "gkdvlab.harness"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
