"""What the benchmark measures: its workloads, its metrics and their units.

This module is plain data and imports nothing from rpencil, so the parent
process can check BENCHMARK.json against it without loading the program.
"""

import re

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Each workload puts most of its time in a different module of src/rpencil.
# A suite case is (suite, keyword arguments of run_suite); every case also
# receives the benchmark's seed.  parse-n4 runs serialize.loads/dumps over
# generated files instead of suites.
WORKLOADS = {
    "pencil-n3": {
        "why": "Leibniz brackets in poisson with parametric scalar gcds; never"
        " touches groebner or glie, so it is the no-change control for Groebner work",
        "cases": [("pencil-type1", {}), ("pencil-type2", {"n": 3})],
    },
    "quantum-n4": {
        "why": "groebner.complete on specialized constant scalars; the constant"
        " fast path and Groebner work show here, and it never touches poisson",
        "cases": [("quantum-type2", {"n": 4, "degree": 3, "mode": "fast"})],
    },
    "glie-n3": {
        "why": "exact parametric rref and overlap spaces in glie; shows pruning"
        " there and that scalar changes do not regress symbolic values",
        "cases": [("glie", {"n": 3, "mode": "exact"})],
    },
    "parse-n4": {
        "why": "serialize.loads and dumps of canonical files; a scalar"
        " representation that speeds arithmetic but slows str or parse shows here",
        "cases": [],
    },
}

# The workloads BENCHMARK.json gates on.  On a shared 2-vCPU host the speed
# of a vCPU drifts between regimes that last tens of seconds, so a run must
# measure about 50 s to keep the spread of its medians within the bounds, and
# the run budget allows that for two workloads.  These two still measure
# every layer: quantum-n4 traces groebner, rmatrix, quadratic and linalg,
# parse-n4 traces serialize and the scalar parser, and the microbenchmarks
# of every traced run cover poisson, glie, freealg and scalar arithmetic.
# pencil-n3 and glie-n3 stay runnable by name and under --workload all.
GATED = ("quantum-n4", "parse-n4")

# Canonical files of parse-n4: (file name, factory, argument).  The factory
# names are resolved against the rpencil package in the child process;
# "s_w" means s_w(hecke_s(n)).
PARSE_FILES = [
    (f"{factory}-{n}", factory, n)
    for n in (3, 4)
    for factory in ("type2_bracket", "a0q", "jhq", "s_w")
] + [
    ("sd_quadratic-4", "sd_quadratic", 4),
    ("linearized-4", "linearized", 4),
    ("canonical_r_sp-4", "canonical_r_sp", 4),
]

# (name, unit, better, bound).  failed_ratio is not listed: it is zero on a
# correct program, and the result line carries it as attempted and failed.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better).  Counts come from the traced run, *_us and *_ms from
# the microbenchmarks.
PER_LAYER = [
    ("scalars.mul_param_us", "us", "lower"),
    ("scalars.add_param_us", "us", "lower"),
    ("scalars.mul_const_us", "us", "lower"),
    ("scalars.add_const_us", "us", "lower"),
    ("scalars.parse_canonical_us", "us", "lower"),
    ("freealg.word_us", "us", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.kernel.calls", "count", "lower"),
    ("linalg.intersect.calls", "count", "lower"),
    ("linalg.rref_sw3_ms", "ms", "lower"),
    ("groebner.complete.calls", "count", "lower"),
    ("groebner.complete.self_s", "s", "lower"),
    ("groebner.complete.rules", "count", "lower"),
    ("groebner.words.calls", "count", "lower"),
    ("groebner.words.self_s", "s", "lower"),
    ("groebner.normal_form.calls", "count", "lower"),
    ("groebner.complete_a0q3_d4_ms", "ms", "lower"),
    ("poisson.bracket.calls", "count", "lower"),
    ("poisson.is_poisson.self_s", "s", "lower"),
    ("poisson.are_compatible.self_s", "s", "lower"),
    ("poisson.is_poisson_sd3_ms", "ms", "lower"),
    ("rmatrix.s_w.self_s", "s", "lower"),
    ("rmatrix.eigen_split.self_s", "s", "lower"),
    ("rmatrix.qybe_check.self_s", "s", "lower"),
    ("quadratic.certify.self_s", "s", "lower"),
    ("quadratic.same_ideal.calls", "count", "lower"),
    ("glie.overlap_space.calls", "count", "lower"),
    ("glie.overlap_space.self_s", "s", "lower"),
    ("glie.axioms.self_s", "s", "lower"),
    ("glie.overlap_space_type2_3_ms", "ms", "lower"),
    ("serialize.loads.self_s", "s", "lower"),
    ("serialize.dumps.self_s", "s", "lower"),
    ("serialize.bytes", "bytes", "lower"),
    ("suites.run_suite.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Per-layer counters that must repeat exactly between two traced runs.
DETERMINISTIC = [
    name
    for name, _, _ in PER_LAYER
    if name.endswith((".calls", ".cells", ".rules", ".bytes"))
]


def case_label(suite, kwargs):
    """Stable name of one suite case, used as the key of its report digest."""
    return " ".join([suite] + [f"{k}={v}" for k, v in sorted(kwargs.items())])


def check_benchmark_json(data):
    """Problems with BENCHMARK.json measured against this module; [] if none."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(data) != keys:
        return [f"keys are {sorted(data)}, expected {sorted(keys)}"]
    want_workloads = [{"name": n, "why": WORKLOADS[n]["why"]} for n in GATED]
    if data["workloads"] != want_workloads:
        problems.append("workloads differ from spec.GATED")
    got_e2e = [(m.get("name"), m.get("unit"), m.get("better"), m.get("bound"))
               for m in data["end_to_end"]]
    if got_e2e != END_TO_END or any(len(m) != 4 for m in data["end_to_end"]):
        problems.append("end_to_end differs from spec.END_TO_END")
    got_layer = [(m.get("name"), m.get("unit"), m.get("better")) for m in data["per_layer"]]
    if got_layer != PER_LAYER or any(len(m) != 3 for m in data["per_layer"]):
        problems.append("per_layer differs from spec.PER_LAYER")
    if not 1 <= len(END_TO_END) <= 16 or not 1 <= len(PER_LAYER) <= 128:
        problems.append("too many or too few metrics")
    if not 2 <= len(GATED) <= 8:
        problems.append("too many or too few workloads")
    if data["command"] != ["python3", "perfbench/run.py"] or data["paths"] != ["perfbench"]:
        problems.append("command or paths do not name this benchmark")
    if not (isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must be an end-to-end metric with the largest bound")
    if any(bound > 0.25 for *_, bound in END_TO_END):
        problems.append("an end-to-end bound exceeds 0.25")
    names = list(WORKLOADS) + [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad:
        problems.append(f"malformed names: {bad}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if any(len(w["why"]) > 200 or "\n" in w["why"] for w in WORKLOADS.values()):
        problems.append("a workload reason is not one line of at most 200 characters")
    return problems
