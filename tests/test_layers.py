"""Layering: every package import points down the pipeline, none points up."""

import ast
from pathlib import Path

import belieflab

# the pipeline, bottom first: a module may import only the modules before it
_ORDER = ("signals", "scenarios", "chain", "beliefs", "welfare", "oracle", "cli")


def _relative_imports(module: str) -> set[str]:
    """The package modules a module imports, function-level imports included."""
    tree = ast.parse((Path(belieflab.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else (a.name for a in node.names))
    return names


def test_every_relative_import_names_an_earlier_layer():
    for i, module in enumerate(_ORDER):
        assert _relative_imports(module) <= set(_ORDER[:i]), module
