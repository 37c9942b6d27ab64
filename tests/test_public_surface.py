"""The package's public surface: what ``krallhahn`` exports, the members that
left it for ``tests/reference.py``, and the names the README gives."""

import importlib
import re
from pathlib import Path

import pytest

import krallhahn
from krallhahn import casorati, diffops
from krallhahn.diffops import DifferenceOperator
from krallhahn.measures import DiscreteMeasure

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

OPERATOR_ALGEBRA = (
    "zero", "identity", "__add__", "__neg__", "__sub__", "scale", "__mul__", "__rmul__", "compose"
)
RETIRED = [
    (casorati, "casorati_value"),
    (casorati, "casorati_rows"),
    (diffops, "operator_polynomial"),
    *((DifferenceOperator, name) for name in OPERATOR_ALGEBRA),
    (DiscreteMeasure, "scale"),
]


def test_every_exported_name_resolves():
    assert len(set(krallhahn.__all__)) == len(krallhahn.__all__)
    assert [name for name in krallhahn.__all__ if not hasattr(krallhahn, name)] == []


@pytest.mark.parametrize(
    "owner, name", RETIRED, ids=[f"{owner.__name__}.{name}" for owner, name in RETIRED]
)
def test_retired_members_are_gone(owner, name):
    """The operator algebra, the one-point Casorati wrappers and measure
    scaling had no caller in a run; they live on in ``tests/reference.py``."""
    assert not hasattr(owner, name)
    assert name not in krallhahn.__all__ and not hasattr(krallhahn, name)


def _resolve(dotted: str):
    """The object a dotted ``krallhahn.<name>...`` names, each part an
    attribute of the one before or a submodule to import."""
    obj, path = krallhahn, "krallhahn"
    for attr in dotted.split(".")[1:]:
        path += f".{attr}"
        obj = getattr(obj, attr) if hasattr(obj, attr) else importlib.import_module(path)
    return obj


def test_readme_module_names_import():
    names = sorted(set(re.findall(r"\bkrallhahn(?:\.[A-Za-z_]\w*)+", README)))
    assert "krallhahn.casorati" in names
    for dotted in names:
        _resolve(dotted)


def _table_rows():
    """(modules, names) for each row of the README's module table: the
    modules of the first column and the backquoted names of the last."""
    rows = []
    for line in README.splitlines():
        if line.startswith("| `krallhahn."):
            cells = line.strip("|").split(" | ")
            modules = [_resolve(m) for m in re.findall(r"`(krallhahn\.\w+)`", cells[0])]
            rows.append((modules, re.findall(r"`([^`]+)`", cells[-1])))
    return rows


def test_readme_table_names_only_what_each_module_defines():
    """Every name in the table's last column is public and defined in one of
    its row's modules, not only imported there."""
    rows = _table_rows()
    assert len(rows) >= 14 and all(names for _, names in rows)
    for modules, names in rows:
        for name in names:
            assert not name.startswith("_"), name
            owners = [module for module in modules if hasattr(module, name)]
            assert owners, name
            value = getattr(owners[0], name)
            home = getattr(value, "__module__", owners[0].__name__)
            assert home in [module.__name__ for module in modules], name
