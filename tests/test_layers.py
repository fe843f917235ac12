"""Layering: every package import points down the pipeline, none points up."""

import ast
from pathlib import Path

import belieflab

# the pipeline, bottom first: a module may import only the modules before it
_ORDER = ("signals", "scenarios", "chain", "beliefs", "welfare", "oracle", "cli")

# the censoring, law and welfare code that the oracle re-derives: it reaches
# none of it, so an agreement is never that code agreeing with itself
_CHECKED_BY_THE_ORACLE = {
    "_censored_masses",
    "log_likelihood_ratio_inverse",
    "censored_transitions",
    "censor_path",
    "_laws",
    "finite_n_distribution",
    "stationary",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((Path(belieflab.__file__).parent / f"{module}.py").read_text())


def _relative_imports(module: str) -> set[str]:
    """The package modules a module imports, function-level imports included."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else (a.name for a in node.names))
    return names


def test_every_relative_import_names_an_earlier_layer():
    for i, module in enumerate(_ORDER):
        assert _relative_imports(module) <= set(_ORDER[:i]), module


def test_the_oracle_reaches_none_of_the_code_it_checks():
    names, from_welfare = set(), []
    for node in ast.walk(_tree("oracle")):
        if isinstance(node, ast.Import):  # the package is reached relatively only
            assert not any(a.name.split(".")[0] == "belieflab" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("belieflab.")
            names.update(a.name for a in node.names)
            if module == "welfare":
                from_welfare += [a.name for a in node.names]
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not names & (_CHECKED_BY_THE_ORACLE | {"welfare"})
    assert set(from_welfare) <= {"ProblemSpec"}
