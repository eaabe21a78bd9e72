"""The library's modules use each other only through public names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "covertppm"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_package(module: str | None, level: int) -> bool:
    return level > 0 or (module or "").split(".")[0] == "covertppm"


def private_uses(source: str) -> list[str]:
    """Every ``_``-prefixed name that the source takes from another
    covertppm module: imported by name, or read as an attribute of an
    imported module."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package(node.module, node.level):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                if node.module is None or node.module == "covertppm":
                    modules.add(alias.asname or alias.name)  # from . import codec
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_package(alias.name, 0):
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_checker_sees_both_forms():
    source = "from .levels import _x, y\nfrom . import codec\ncodec._z(codec.w)\n"
    assert private_uses(source) == ["_x", "codec._z"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path.read_text()) == []
