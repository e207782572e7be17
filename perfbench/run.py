"""Benchmark of rpencil: four workloads, each sample in a fresh interpreter.

    python3 perfbench/run.py --workload all             # end-to-end metrics
    python3 perfbench/run.py --workload all --trace 1   # per-layer metrics
    python3 perfbench/run.py --workload quantum-n4 --seed 3 --seconds 15 --trace 0

With --trace 0 a run imports rpencil in a few set-up probes, then starts one
sample after another while the next is expected to end within --seconds (at
least two samples), and reports the median of each end-to-end metric.  With
--trace 1 it runs one untraced and two traced samples plus the layer
microbenchmarks, and reports the per-layer metrics.  One child runs at a
time.  Every report is checked byte for byte against perfbench/digests.json
(see README.md).  The last line of stdout is the result JSON; details go to
perfbench/out/.  Exit code 2 means the benchmark could not run.
"""

import argparse
import json
import os
import platform
import select
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
INPUTS = OUT / "parse-inputs"

# The vCPUs of a shared host run at different speeds that drift apart;
# keeping every child on one CPU removes the placement part of the noise.
CPUS = os.sched_getaffinity(0)
CHILD_CPU = max(CPUS)

SETUP_PROBES = 3
MIN_SAMPLES = 2
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (exit code 2)."""


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().split()[:3]


def run_child(request):
    """Run child.py in a fresh interpreter; returns its reply plus measurements.

    CPU time and peak RSS come from the child's rusage; setup_s is the time
    from just before the child is started until its `import rpencil` returned.
    """
    request = dict(request, src=str(SRC))
    start = _clock()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    chunks = []
    fd = proc.stdout.fileno()
    try:
        deadline = start + CHILD_TIMEOUT_S
        while True:
            left = deadline - _clock()
            if left <= 0:
                proc.kill()  # not yet reaped, so the pid cannot have been reused
                break
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchmarkError(f"{request['mode']} child exited with code {proc.returncode}")
    reply = json.loads(b"".join(chunks).decode().splitlines()[-1])
    reply["setup_s"] = reply["imported"] - start
    reply["cpu_s"] = usage.ru_utime + usage.ru_stime
    reply["peak_rss_mb"] = usage.ru_maxrss / 1024
    return reply


def _case_problem(case, expected, reference, files):
    """Why one case failed, or None.

    A case fails when it raised, when its verdict is not pass, when a parse
    round trip changed its text or the file differs from the recorded one, or
    when its report bytes differ from the reference.  Outside the fields that
    depend on the seed, the reference is the digest recorded at seed 0; the
    whole report is compared with `expected`.
    """
    label = case["case"]
    if "error" in case:
        return case["error"]
    if "roundtrip" in case:
        if files.get(label) != reference["files"].get(label):
            return "canonical file differs from the recorded digest"
        return None if case["roundtrip"] else "dumps(loads(text)) != text"
    if case["verdict"] != "pass":
        return f"verdict {case['verdict']}"
    if case["seedless_sha256"] != reference["seedless"].get(label):
        return "report bytes differ from the recorded digest"
    if case["sha256"] != expected.setdefault(label, case["sha256"]):
        return "report bytes differ between samples"
    return None


def _case_failures(samples, seed, reference, files):
    """(attempted, failed, problems) over every case of every sample.

    The whole report must match the digest recorded at seed 0 at that seed,
    else the run's first sample.
    """
    expected = dict(reference["reports"]) if seed == 0 else {}
    cases = [(k, case) for k, s in enumerate(samples) for case in s["cases"]]
    problems = []
    for k, case in cases:
        problem = _case_problem(case, expected, reference, files)
        if problem:
            problems.append(f"sample {k}: {case['case']}: {problem}")
    return len(cases), len(problems), problems


def _end_to_end(base, seconds):
    """Set-up probes, then samples for about `seconds`: (samples, metrics)."""
    setups = [run_child({"mode": "setup"})["setup_s"] for _ in range(SETUP_PROBES)]
    samples, durations = [], []
    began = _clock()
    # Start another sample only while it is expected to end within `seconds`.
    while len(samples) < MIN_SAMPLES or _clock() - began + median(durations) <= seconds:
        start = _clock()
        samples.append(run_child(base))
        durations.append(_clock() - start)
    return samples, {
        "wall_s": median([s["wall_s"] for s in samples]),
        "cpu_s": median([s["cpu_s"] for s in samples]),
        "setup_s": median(setups + [s["setup_s"] for s in samples]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
    }


def _per_layer(base):
    """One untraced and two traced samples plus the microbenchmarks.

    Returns (samples, metrics, counts_repeat, per-case run_suite seconds).
    """
    name = f"{base['workload']}-seed{base['seed']}"
    samples = [run_child(base)] + [
        run_child(dict(base, trace=True, spans_path=str(OUT / f"spans-{name}-{k}.jsonl")))
        for k in (1, 2)
    ]
    traced = samples[1:]
    counts = [_layer_metrics(s) for s in traced]
    metrics = run_child({"mode": "micro"})["metrics"]
    for metric in counts[0]:
        values = [c[metric] for c in counts]
        metrics[metric] = values[0] if metric in spec.DETERMINISTIC else median(values)
    metrics["trace.overhead_ratio"] = median([s["wall_s"] for s in traced]) / samples[0]["wall_s"]
    repeat = all(counts[0][n] == counts[1][n] for n in spec.DETERMINISTIC)
    per_case = {}
    for s in traced:
        for case in s["cases"]:
            if "verdict" in case:
                per_case.setdefault(case["case"], []).append(case["seconds"])
    return samples, metrics, repeat, {c: median(v) for c, v in per_case.items()}


def run_workload(workload, seed, seconds, trace, reference):
    """One run: (metrics with units, attempted, failed, details)."""
    OUT.mkdir(exist_ok=True)
    load_start = _loadavg()
    files = {}
    if not spec.WORKLOADS[workload]["cases"]:
        files = run_child({"mode": "gen", "inputs_dir": str(INPUTS)})["files"]
    base = {"mode": "sample", "workload": workload, "seed": seed,
            "inputs_dir": str(INPUTS), "trace": False}
    details = {}
    if trace:
        samples, metrics, repeat, details["run_suite_s"] = _per_layer(base)
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
    else:
        samples, metrics = _end_to_end(base, seconds)
        units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    attempted, failed, problems = _case_failures(samples, seed, reference, files)
    if trace:
        attempted += 1
        if not repeat:
            failed += 1
            problems.append("counters differ between the two traced samples")
    if set(metrics) != set(units):
        raise BenchmarkError(f"{workload} reported {sorted(metrics)}, expected {sorted(units)}")
    details.update(
        env={
            "cpu_count": os.cpu_count(),
            "affinity": len(CPUS),
            "child_cpu": CHILD_CPU,
            "python": platform.python_version(),
            "sympy": samples[0]["sympy"],
            "ground_types": samples[0]["ground_types"],
            "loadavg_start": load_start,
            "loadavg_end": _loadavg(),
            "seed": seed,
        },
        samples=len(samples) - 1 if trace else len(samples),
        files=files,
        failed_ratio=failed / attempted,
        problems=problems,
    )
    result = {"workload": workload, "trace": trace, "metrics": metrics, "details": details,
              "samples": samples}
    out_file = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    with_units = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return with_units, attempted, failed, details


def _layer_metrics(sample):
    """Per-layer metric values of one traced sample (microbenchmarks excluded)."""
    layers, counters = sample["layers"], sample["counters"]
    out = {}
    for name, _, _ in spec.PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = layers[stem][0]
        elif kind == "self_s":
            out[name] = layers[stem][1]
        elif kind in ("cells", "rules", "bytes"):
            out[name] = counters.get(name, 0)
    out["suites.run_suite.s"] = layers["suites.run_suite"][2]
    return out


def _print_block(workload, seed, trace, metrics, attempted, failed, details):
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload}  seed {seed}  {kind}  samples {details['samples']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for case, secs in details.get("run_suite_s", {}).items():
        print(f"  {'suites.run_suite.s[' + case + ']':32s} {secs:14.6g} s")
    print(f"  {'failed_ratio':32s} {details['failed_ratio']:14.6g}"
          f" ({failed} of {attempted} cases)")
    for problem in details["problems"]:
        print(f"  FAILED {problem}")
    print(f"  env {json.dumps(details['env'], sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        raise BenchmarkError(f"{bench_file} is missing")
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    problems = spec.check_benchmark_json(bench)
    if problems:
        raise BenchmarkError("BENCHMARK.json: " + "; ".join(problems))
    if not (SRC / "rpencil" / "__init__.py").is_file():
        raise BenchmarkError(f"no rpencil sources under {SRC}")
    reference = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    os.sched_setaffinity(0, {CHILD_CPU})  # children inherit it
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    total_attempted = total_failed = 0
    combined = {}
    for workload in names:
        metrics, attempted, failed, details = run_workload(
            workload, args.seed, seconds, bool(args.trace), reference)
        _print_block(workload, args.seed, args.trace, metrics, attempted, failed, details)
        total_attempted += attempted
        total_failed += failed
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{workload}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
