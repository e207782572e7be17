"""One benchmark process: `python3 perfbench/child.py '<request JSON>'`.

run.py starts a fresh interpreter for every sample, because a0q, jhq and
type2_bracket are lru_cached and every `rpencil` invocation pays for them.
The request's "mode" is one of
  setup   import rpencil and exit;
  gen     write the canonical files of parse-n4;
  sample  run one sample of a workload, traced or not;
  micro   run the layer microbenchmarks.
The reply is one JSON line on stdout.  "imported" is the CLOCK_MONOTONIC
reading when `import rpencil` returned, which the parent compares with the
reading it took before starting this process.
"""

import time

import rpencil

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import sympy  # noqa: E402
from sympy.external.gmpy import GROUND_TYPES  # noqa: E402

import spans  # noqa: E402
import spec  # noqa: E402


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def gen(request):
    """Build the parse-n4 objects and write their canonical files."""
    inputs = Path(request["inputs_dir"])
    inputs.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, factory, n in spec.PARSE_FILES:
        if factory == "s_w":
            obj = rpencil.s_w(rpencil.hecke_s(n))
        else:
            obj = getattr(rpencil, factory)(n)
        text = rpencil.serialize.dumps(obj)
        (inputs / f"{name}.json").write_text(text, encoding="utf-8")
        digests[name] = _sha256(text)
    return {"files": digests}


# Report fields that hold the seed or values drawn from it.
SEED_FIELDS = ("seed", "pairs")


def _seedless_sha256(report):
    """Digest of the report without its seed-dependent fields, equal at every seed."""
    report = json.loads(json.dumps(report))
    del report["parameters"]["seed"]
    for check in report["checks"]:
        for field in SEED_FIELDS:
            check["details"].pop(field, None)
    return _sha256(json.dumps(report, sort_keys=True, indent=2))


def _run_suites(workload, seed):
    wall = 0.0
    cases = []
    for suite, kwargs in spec.WORKLOADS[workload]["cases"]:
        label = spec.case_label(suite, kwargs)
        run_suite = rpencil.suites.run_suite  # looked up late so a tracer sees it
        start = time.perf_counter()
        try:
            report = run_suite(suite, seed=seed, **kwargs)
        except Exception as exc:  # a raising case is a failed case
            cases.append({"case": label, "error": f"{type(exc).__name__}: {exc}"})
            continue
        finally:
            seconds = time.perf_counter() - start
            wall += seconds
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        cases.append({"case": label, "seconds": seconds, "verdict": report.get("verdict"),
                      "sha256": _sha256(text), "seedless_sha256": _seedless_sha256(report)})
    return wall, cases


def _run_parse(inputs_dir, seed):
    names = [name for name, _, _ in spec.PARSE_FILES]
    random.Random(seed).shuffle(names)
    texts = {n: (Path(inputs_dir) / f"{n}.json").read_text(encoding="utf-8") for n in names}
    serialize = rpencil.serialize
    wall = 0.0
    cases = []
    for name in names:
        text = texts[name]
        start = time.perf_counter()
        try:
            echoed = serialize.dumps(serialize.loads(text))
        except Exception as exc:  # a file that fails to parse is a failed case
            cases.append({"case": name, "error": f"{type(exc).__name__}: {exc}"})
            continue
        finally:
            seconds = time.perf_counter() - start
            wall += seconds
        cases.append({"case": name, "seconds": seconds, "roundtrip": echoed == text,
                      "sha256": _sha256(text)})
    return wall, cases


def sample(request):
    workload, seed = request["workload"], request["seed"]
    tracer = spans.Tracer().install() if request["trace"] else None
    if spec.WORKLOADS[workload]["cases"]:
        wall, cases = _run_suites(workload, seed)
    else:
        wall, cases = _run_parse(request["inputs_dir"], seed)
    reply = {"wall_s": wall, "cases": cases}
    if tracer is not None:
        reply["layers"] = tracer.layers()
        reply["counters"] = dict(tracer.counters)
        tracer.write(request["spans_path"])
    return reply


def _per_op_us(op, reps, batches=7):
    """Median over batches of the mean time of one call, in microseconds."""
    op()
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            op()
        times.append((time.perf_counter() - start) / reps)
    return statistics.median(times) * 1e6


def _per_call_ms(op, calls=5):
    """Median time of one call after a warm-up call, in milliseconds."""
    op()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        op()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def micro(request):
    """Layer microbenchmarks on fixed inputs (ROADMAP item 1 plus parse and word)."""
    from rpencil.linalg import Mat, rref
    from rpencil.poisson import matrix_generators
    from rpencil.scalars import H, Q, Scalar

    param_a, param_b = Q - 1 / Q, H * (1 + Q * Q)
    const_a, const_b = Scalar(7) / 3, Scalar(2) / 5
    texts = [str(x) for x in (param_a, param_b, const_a, const_b, param_a * param_b)]
    gens = matrix_generators(4)
    sw3 = rpencil.s_w(rpencil.hecke_s(3)).mat
    delta = sw3 - Mat.identity(sw3.nrows)
    a0q3 = list(rpencil.a0q(3).relations)
    sd3 = rpencil.sd_quadratic(3)
    i_minus = rpencil.type2_bracket(3).i_minus

    def parse_all():
        for t in texts:
            Scalar.parse_canonical(t)

    return {"metrics": {
        "scalars.mul_param_us": _per_op_us(lambda: param_a * param_b, 400),
        "scalars.add_param_us": _per_op_us(lambda: param_a + param_b, 400),
        "scalars.mul_const_us": _per_op_us(lambda: const_a * const_b, 400),
        "scalars.add_const_us": _per_op_us(lambda: const_a + const_b, 400),
        "scalars.parse_canonical_us": _per_op_us(parse_all, 10) / len(texts),
        "freealg.word_us": _per_op_us(lambda: rpencil.FreeElement.word(gens, (0, 5)), 400),
        "linalg.rref_sw3_ms": _per_call_ms(lambda: rref(delta.rows, delta.ncols)),
        "groebner.complete_a0q3_d4_ms": _per_call_ms(lambda: rpencil.complete(a0q3, 4)),
        "poisson.is_poisson_sd3_ms": _per_call_ms(sd3.is_poisson),
        "glie.overlap_space_type2_3_ms": _per_call_ms(lambda: rpencil.overlap_space(i_minus)),
    }}


MODES = {"setup": lambda request: {}, "gen": gen, "sample": sample, "micro": micro}


def main():
    request = json.loads(sys.argv[1])
    src = Path(request["src"]).resolve()
    if Path(rpencil.__file__).resolve().parent.parent != src:
        sys.exit(f"rpencil was imported from {rpencil.__file__}, not from {src}")
    reply = MODES[request["mode"]](request)
    reply.update(imported=IMPORTED, sympy=sympy.__version__, ground_types=GROUND_TYPES)
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
