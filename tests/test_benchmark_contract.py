"""The benchmark's tracer patches rpencil names; each one must still exist.

perfbench/spans.py rebinds the functions and methods listed in its TARGETS
table.  A refactor that removes or renames one of them would only show up
when a traced benchmark run fails, so the table is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "span,module,attr,cls", [t[:4] for t in _targets()]
)
def test_span_target_resolves(span, module, attr, cls):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), f"{span}: {module}.{cls or ''}.{attr}"
