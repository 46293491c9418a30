import importlib

import pytest

MODULES = ["bounds", "chain", "css", "decoder", "gf2", "product", "soundness", "stab"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"homprod.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
