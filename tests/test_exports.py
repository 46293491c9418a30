import ast
import importlib
import pathlib

import pytest

import homprod

MODULES = ["bounds", "chain", "css", "decoder", "gf2", "product", "soundness", "stab"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"homprod.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so every check in the package is
    # an explicit raise; this fails on any assert that slips in
    package = pathlib.Path(homprod.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
