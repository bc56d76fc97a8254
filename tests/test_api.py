"""The package exports every name the benchmark scripts in perfbench/ use."""

import ast
import pathlib

import pytest

import caterpillar

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _used_names() -> set[str]:
    """Each `cp.<name>` and `from caterpillar import <name>` in perfbench/*.py."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "cp":
                    names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "caterpillar":
                names.update(alias.name for alias in node.names)
    return names


def test_perfbench_uses_package_names():
    assert {"build_model", "CaterpillarError"} <= _used_names()


@pytest.mark.parametrize("name", sorted(_used_names()))
def test_perfbench_name_resolves(name):
    assert hasattr(caterpillar, name), name
