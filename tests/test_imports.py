"""Each module of rpencil reads only the public names of the others.

A name that starts with an underscore is private to its module: it may
change without notice, so no other module may import it, either by
``from .module import _name`` or as ``module._name`` on a module it imported.
Likewise only ``ratfunc`` knows how a field element is stored: no other
module reads a RatFunc's ``numer`` or ``denom``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rpencil"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_imports(path):
    """The private names that the module at path reads from other rpencil
    modules, as "module.name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> rpencil module bound by `from . import m`
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "rpencil"):
            continue
        for alias in node.names:
            if node.module:
                if _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
            else:
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_module_imports_no_private_name(module):
    assert _private_imports(SRC / f"{module}.py") == []


def _pair_reads(path):
    """The lines of the module at path that read an attribute numer or denom."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("numer", "denom"))


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "ratfunc"))
def test_module_reads_no_numer_or_denom(module):
    assert _pair_reads(SRC / f"{module}.py") == []
