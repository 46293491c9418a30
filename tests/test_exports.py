import ast
import importlib
import inspect
import pathlib
import tomllib

import pytest

import homprod

MODULES = ["bounds", "chain", "css", "decoder", "gf2", "product", "soundness", "stab"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"homprod.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    # a public function or class a module defines is part of its API
    module = importlib.import_module(f"homprod.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


def test_console_script_resolves_to_cli_main():
    # the `homprod` command pyproject.toml installs; a renamed entry point
    # would only fail once installed
    path = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(path.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"homprod": "homprod.cli:main"}
    module, _, attr = scripts["homprod"].partition(":")
    from homprod import cli

    assert getattr(importlib.import_module(module), attr) is cli.main


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


LAYERS = {"gf2", "chain", "product", "css", "decoder", "soundness", "cli"}


def _benchmark_tree() -> ast.Module:
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _is_layer_name(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in LAYERS
    )


def test_every_name_the_benchmark_calls_resolves():
    # perfbench/workloads.py calls the package as `<module>.<name>` after a
    # `from homprod import <module>`; a renamed or deleted name would only
    # fail there, in a benchmark run, so check each one resolves here
    used = sorted(
        {(node.value.id, node.attr) for node in ast.walk(_benchmark_tree()) if _is_layer_name(node)}
    )
    assert len(used) >= 12
    missing = [
        f"{module}.{name}"
        for module, name in used
        if not hasattr(importlib.import_module(f"homprod.{module}"), name)
    ]
    assert missing == []


def test_every_call_the_benchmark_makes_binds():
    # likewise for each `<module>.<name>(...)` call's arity and keyword
    # names: a changed signature fails here, not in a benchmark run
    calls = [
        node
        for node in ast.walk(_benchmark_tree())
        if isinstance(node, ast.Call) and _is_layer_name(node.func)
    ]
    assert len(calls) >= 14
    unbound = []
    for call in calls:
        module, name = call.func.value.id, call.func.attr
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        obj = getattr(importlib.import_module(f"homprod.{module}"), name)
        try:
            inspect.signature(obj).bind(
                *[None] * len(call.args), **{k.arg: None for k in call.keywords}
            )
        except TypeError as exc:
            unbound.append(f"{module}.{name} at line {call.lineno}: {exc}")
    assert unbound == []
