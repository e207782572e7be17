"""Spans and counters recorded from outside rpencil.

Tracer.install() rebinds the public layer functions listed below, in every
rpencil module namespace that holds them, to wrappers that record one span
(name, start, end, parent) per call and count the work the call was given.
Methods are patched on their class.  Private helpers and Scalar operators are
left alone: their cost is the self time of their public caller.  No file
under src/ is edited; spans stay in memory until write() is called.
"""

import functools
import json
import sys
import time
from collections import Counter


def _rref_cells(args, result):
    rows, ncols = args[0], args[1]
    return len(rows) * ncols


def _complete_rules(args, result):
    return len(result.rules)


def _loads_bytes(args, result):
    return len(args[0].encode())


def _dumps_bytes(args, result):
    return len(result.encode())


# (span name, module, attribute, class or None, counter name, counter)
TARGETS = [
    ("linalg.rref", "rpencil.linalg", "rref", None, "linalg.rref.cells", _rref_cells),
    ("linalg.kernel", "rpencil.linalg", "kernel", None, None, None),
    ("linalg.intersect", "rpencil.linalg", "intersect", None, None, None),
    ("groebner.complete", "rpencil.groebner", "complete", None,
     "groebner.complete.rules", _complete_rules),
    ("groebner.words", "rpencil.groebner", "hilbert", None, None, None),
    ("groebner.words", "rpencil.groebner", "filtration_dims", None, None, None),
    ("groebner.normal_form", "rpencil.groebner", "normal_form", None, None, None),
    ("poisson.bracket", "rpencil.poisson", "bracket", "PoissonStructure", None, None),
    ("poisson.is_poisson", "rpencil.poisson", "is_poisson", "PoissonStructure", None, None),
    ("poisson.are_compatible", "rpencil.poisson", "are_compatible", None, None, None),
    ("rmatrix.s_w", "rpencil.rmatrix", "s_w", None, None, None),
    ("rmatrix.eigen_split", "rpencil.rmatrix", "eigen_split", None, None, None),
    ("rmatrix.qybe_check", "rpencil.rmatrix", "qybe_check", None, None, None),
    ("quadratic.certify", "rpencil.quadratic", "certify_flat_graded", None, None, None),
    ("quadratic.certify", "rpencil.quadratic", "certify_flat_filtered", None, None, None),
    ("quadratic.same_ideal", "rpencil.quadratic", "same_ideal", None, None, None),
    ("glie.overlap_space", "rpencil.glie", "overlap_space", None, None, None),
    ("glie.axioms", "rpencil.glie", "check_axiom7", None, None, None),
    ("glie.axioms", "rpencil.glie", "check_axiom8", None, None, None),
    ("serialize.loads", "rpencil.serialize", "loads", None, "serialize.bytes", _loads_bytes),
    ("serialize.dumps", "rpencil.serialize", "dumps", None, "serialize.bytes", _dumps_bytes),
    ("suites.run_suite", "rpencil.suites", "run_suite", None, None, None),
]

SPAN_NAMES = sorted({t[0] for t in TARGETS})


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = []

    def _wrap(self, name, fn, counter_name, counter):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counters[counter_name] += counter(args, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Rebind every target in every loaded rpencil module; returns self."""
        modules = [m for n, m in sys.modules.items()
                   if n == "rpencil" or n.startswith("rpencil.")]
        for name, module, attr, cls, counter_name, counter in TARGETS:
            owner = sys.modules[module]
            if cls is not None:
                klass = getattr(owner, cls)
                setattr(klass, attr,
                        self._wrap(name, getattr(klass, attr), counter_name, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter_name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return self

    def layers(self):
        """{span name: (calls, self seconds, total seconds)}; self = span minus children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {n: [0, 0.0, 0.0] for n in SPAN_NAMES}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - inner
            entry[2] += end - start
        return {n: tuple(v) for n, v in out.items()}

    def write(self, path):
        """Write the spans as JSON lines; a span's id is its line number."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
