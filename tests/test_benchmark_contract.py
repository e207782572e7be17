"""The benchmark calls rpencil names; each one must still exist.

perfbench/spans.py rebinds the functions and methods listed in its TARGETS
table, and perfbench/child.py calls rpencil directly to build the parse-n4
files (the factories in spec.PARSE_FILES) and to run the microbenchmarks.  A
refactor that removes or renames one of them would only show up when a
benchmark run fails, so all of them are checked here, together with the
positional parameters whose arguments the spans.py counters read.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _perfbench("spans").TARGETS


@pytest.mark.parametrize(
    "span,module,attr,cls", [t[:4] for t in _targets()]
)
def test_span_target_resolves(span, module, attr, cls):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), f"{span}: {module}.{cls or ''}.{attr}"


@pytest.mark.parametrize(
    "factory", sorted({factory for _, factory, _ in _perfbench("spec").PARSE_FILES})
)
def test_parse_file_factory_resolves(factory):
    import rpencil

    assert callable(getattr(rpencil, factory, None)), factory


def _dotted(node):
    """The root name and attribute path of an attribute chain a.b.c."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id if isinstance(node, ast.Name) else None), tuple(reversed(attrs))


def _child_names():
    """Every name child.py reads from rpencil, as "module:attribute.path":
    attribute chains on `rpencil` and on names imported from its modules."""
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    roots = {"rpencil": ("rpencil", ())}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rpencil"):
            roots.update({a.asname or a.name: (node.module, (a.name,)) for a in node.names})
    names = {module + ":" + ".".join(attrs) for module, attrs in roots.values() if attrs}
    for node in ast.walk(tree):
        root, attrs = _dotted(node)
        if attrs and root in roots:
            module, prefix = roots[root]
            names.add(module + ":" + ".".join(prefix + attrs))
    return sorted(names)


@pytest.mark.parametrize("name", _child_names())
def test_child_name_resolves(name):
    module, path = name.split(":")
    owner = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(owner, attr), name
        owner = getattr(owner, attr)


@pytest.mark.parametrize(
    "module,attr,names",
    [("rpencil.linalg", "rref", ["rows", "ncols"]), ("rpencil.serialize", "loads", ["text"])],
)
def test_span_counters_read_named_arguments(module, attr, names):
    # spans.py counts rref cells from args[0] and args[1] and loads bytes
    # from args[0], so these positional parameters must keep their places
    params = list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters)
    assert params[: len(names)] == names
