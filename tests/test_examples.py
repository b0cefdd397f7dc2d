"""Examples cannot rot: each ``examples/*.py`` must compile, and every name
it imports from ``repro`` must exist — checked from the syntax tree, without
running the (slow) examples themselves."""

import ast
import importlib
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles_and_its_repro_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    compile(tree, str(path), "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names if a.name.split(".")[0] == "repro"]
            for name in modules:
                importlib.import_module(name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # a submodule, or missing
                    importlib.import_module(f"{node.module}.{alias.name}")


def test_every_example_is_checked():
    assert len(EXAMPLES) >= 6
