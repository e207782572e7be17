"""Each module of rpencil reads only the public names of the others.

A name that starts with an underscore is private to its module: it may
change without notice, so no other module may import it, either by
``from .module import _name`` or as ``module._name`` on a module it imported.
Likewise only ``ratfunc`` knows how a field element is stored: no other
module reads a RatFunc's ``numer`` or ``denom``, or reads or writes a
Fraction's slots ``_numerator`` and ``_denominator``; within ``ratfunc``, only
``_fraction`` writes them.  Only ``scalars`` reads a Scalar's slot ``_f``; the
others read its field element as ``Scalar.value``.  A RatFunc has no ``+ - * /`` or unary ``-``: the
field's arithmetic is ``ratfunc``'s five operations, one dispatch on the kind
of operand.  Every module but ``__init__``, which re-exports, reads each name
that its top-level imports bind.  Every private module-level function is
named in ``src`` outside its own body, so no helper stays there for the
tests alone; so is every public function and method, outside ``__init__``
too, except the few listed with their reason; a method counts as named only
where it is read as an attribute.  The rpencil modules that each module
imports are pinned in one table.
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


_SLOTS = ("_numerator", "_denominator")


def _attribute_uses(tree, names):
    """The lines of tree that read or write an attribute in names."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in names)


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


_NOT_RATFUNC = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "ratfunc")


@pytest.mark.parametrize("module", _NOT_RATFUNC)
def test_module_reads_no_numer_or_denom(module):
    assert _attribute_uses(_tree(module), ("numer", "denom")) == []


@pytest.mark.parametrize("module", _NOT_RATFUNC)
def test_module_touches_no_fraction_slots(module):
    tree = _tree(module)
    named = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in _SLOTS]
    assert _attribute_uses(tree, _SLOTS) + named == []


_NOT_SCALARS = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "scalars")


@pytest.mark.parametrize("module", _NOT_SCALARS)
def test_module_reads_no_scalar_slot(module):
    # a Scalar's field element is read through ``Scalar.value``
    assert _attribute_uses(_tree(module), ("_f",)) == []


def test_only_the_fraction_helper_writes_fraction_slots():
    writers = {
        fn.name
        for fn in ast.walk(_tree("ratfunc"))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr in _SLOTS
        and isinstance(node.ctx, ast.Store)
    }
    assert writers == {"_fraction"}


_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__")


def test_ratfunc_defines_no_arithmetic_operator():
    (cls,) = [node for node in _tree("ratfunc").body
              if isinstance(node, ast.ClassDef) and node.name == "RatFunc"]
    # methods, and names bound in the class body such as ``__radd__ = __add__``
    defined = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    defined |= {node.id for node in ast.walk(cls)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    assert sorted(defined.intersection(_OPERATORS)) == []
    assert "__pow__" in defined


def _unread_imports(tree):
    """The names bound by the module's top-level imports that it never reads."""
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


_NOT_INIT = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", _NOT_INIT)
def test_module_reads_every_import(module):
    assert _unread_imports(_tree(module)) == []


def _named(tree, name, skip, attribute_only=False):
    """Whether tree names name as an attribute or, unless attribute_only, as a
    variable, outside the node skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if (isinstance(node, ast.Attribute) and node.attr == name
                or not attribute_only and isinstance(node, ast.Name) and node.id == name):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _uncalled_private_functions(module):
    trees = {p.stem: _tree(p.stem) for p in SRC.glob("*.py")}
    return [
        fn.name
        for fn in trees[module].body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(fn.name)
        and not any(_named(tree, fn.name, fn) for tree in trees.values())
    ]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_private_function_has_a_caller(module):
    assert _uncalled_private_functions(module) == []


# public functions that nothing in src calls, each with its reason
_UNCALLED_PUBLIC = {
    # the tests' reference for the overlap space, and a perfbench/spans.py target
    "linalg.intersect",
    # the tests' reference for the Leibniz rule, and a perfbench/spans.py target
    "poisson.PoissonStructure.bracket",
}


def _uncalled_public_functions(module):
    """The public module-level functions and methods of module-level classes
    that no module but ``__init__``, which re-exports, names outside their
    own body; a method counts as named only as an attribute."""
    trees = {p.stem: _tree(p.stem) for p in SRC.glob("*.py") if p.stem != "__init__"}
    body = trees[module].body

    def public(nodes, prefix, method):
        return [(f"{prefix}.{fn.name}", fn, method) for fn in nodes
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not fn.name.startswith("_")]

    functions = public(body, module, False) + [
        entry for cls in body if isinstance(cls, ast.ClassDef)
        for entry in public(cls.body, f"{module}.{cls.name}", True)
    ]
    return [
        qualname
        for qualname, fn, method in functions
        if qualname not in _UNCALLED_PUBLIC
        and not any(_named(tree, fn.name, fn, method) for tree in trees.values())
    ]


@pytest.mark.parametrize("module", _NOT_INIT)
def test_public_function_has_a_caller(module):
    assert _uncalled_public_functions(module) == []


# the rpencil modules each module imports; a new edge between modules is a
# change of the module map in README.md and shows up here
_DEPENDS = {
    "__init__": {"commpoly", "freealg", "glie", "groebner", "linalg", "poisson",
                 "quadratic", "rmatrix", "scalars", "serialize", "suites"},
    "cli": {"serialize", "suites"},
    "commpoly": {"scalars"},
    "freealg": {"commpoly", "scalars"},
    "glie": {"freealg", "linalg", "poisson", "quadratic", "rmatrix", "scalars"},
    "groebner": {"commpoly", "freealg", "ratfunc", "scalars"},
    "linalg": {"scalars"},
    "poisson": {"commpoly", "scalars"},
    "quadratic": {"commpoly", "freealg", "groebner", "linalg", "poisson", "scalars"},
    "ratfunc": set(),
    "rmatrix": {"commpoly", "linalg", "poisson", "scalars"},
    "scalars": {"ratfunc"},
    "serialize": {"commpoly", "freealg", "glie", "linalg", "poisson", "quadratic",
                  "rmatrix", "scalars"},
    "suites": {"commpoly", "freealg", "glie", "linalg", "poisson", "quadratic",
               "rmatrix", "scalars"},
}


def _package_imports(tree):
    """The rpencil modules that tree imports from, by any import statement."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            dotted = [f"rpencil.{node.module or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("rpencil."))
    return found


def test_every_module_has_pinned_imports():
    assert sorted(_DEPENDS) == sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", sorted(_DEPENDS))
def test_module_imports_match_the_module_map(module):
    assert _package_imports(_tree(module)) == _DEPENDS[module]
