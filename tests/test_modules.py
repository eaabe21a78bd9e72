"""Library-wide properties: the modules use each other only through public
names, and the records that hold arrays compare by identity."""

import ast
import copy
from pathlib import Path

import numpy as np
import pytest

from covertppm.adversary import identity_prefix_code
from covertppm.channels import bsc
from covertppm.codec import BlockResult, TxRecord
from covertppm.polar import PolarLevelCode
from covertppm.ppm import PpmFrame

from conftest import output_from_symbols

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


RECORDS = {
    "Dmc": lambda: bsc(0.1),
    "PolarLevelCode": lambda: PolarLevelCode(ell=8, message=np.array([3, 5, 7])),
    "LinearCode": lambda: identity_prefix_code(8, 4),
    "PpmFrame": lambda: PpmFrame(q=2, positions=np.array([1, 4, 2])),
    "SuperOutput": lambda: output_from_symbols(np.zeros((3, 2), dtype=np.uint8), 0, 2),
    "TxRecord": lambda: TxRecord(level_bits=np.zeros((2, 4), dtype=np.uint8),
                                 messages={1: np.ones(2, dtype=np.uint8)},
                                 extractor_r=np.zeros(3, dtype=np.uint8)),
    "BlockResult": lambda: BlockResult(decoded_bits={1: np.ones(2, dtype=np.uint8)},
                                       block_errors={1: False}, genie_levels=()),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_array_records_compare_and_hash_by_identity(make):
    # a field-wise == would ask an array for one truth value, and hash an array
    x = make()
    twin = copy.deepcopy(x)
    assert x == x
    assert x != twin
    assert hash(x) == hash(x)
    assert len({x, twin}) == 2
