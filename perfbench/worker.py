"""One benchmark process: a set-up probe or a closed loop of queries.

Started by `run.py` in a fresh interpreter, one at a time, and prints one
JSON object on stdout.  Modes:

  setup    reads a pickled warm-up case on stdin, then times `import
           birsphere` plus that one query
  imports  times `import birsphere` and then `import sympy`
  plain    warm-up query, then --rounds whole rounds of timed queries
  traced   the same, with layer spans on
  profile  the same, under cProfile

Every answer of the plain loop is checked by `oracle.py` after the loop;
the traced and profiled loops answer the same inputs, and `run.py` compares
their answer digests with the plain loop's.

Times are CPU time of this process (`CLOCK`), not wall time.  A query is
single-threaded exact arithmetic with no I/O, so the two agree on an idle
machine (the loop reports both); on a shared host, wall time also counts
the time the process waits for a core or the hypervisor gives its core to
another guest.  The speed of a core itself also drifts by up to 20% over
seconds on a shared host, so the set-up probe and the plain loop also time
`reference_work`, a fixed piece of rational arithmetic, next to the
queries; `run.py` uses it to correct for the host's speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pickle
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLOCK = time.process_time
REF_REPEATS = 5  # reference timings before and after a set-up probe
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def reference_work() -> float:
    """CPU time of a fixed sum of rationals in the standard library's
    `fractions` (about 4 ms on the seed commit's host): exact rational
    arithmetic like the package's, but none of the package's code.  The
    garbage collector is off while it runs, so the size of the program's
    heap does not slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = CLOCK()
    total = Fraction(0)
    for k in range(1, 600):
        total += Fraction(1, k * k + 1)
    dt = CLOCK() - t0
    if enabled:
        gc.enable()
    return dt


def _import_birsphere() -> float:
    t0 = CLOCK()
    import birsphere  # noqa: F401  (the package imports every layer)

    return CLOCK() - t0


def setup_probe(workload: str) -> dict:
    blob = sys.stdin.buffer.read()  # read before the clock starts
    ref = [reference_work() for _ in range(REF_REPEATS)]
    import_s = _import_birsphere()
    import workloads

    case = pickle.loads(blob)
    t0 = CLOCK()
    workloads.run_query(workload, case)
    query_s = CLOCK() - t0
    ref += [reference_work() for _ in range(REF_REPEATS)]
    return {"import_s": import_s, "query_s": query_s, "setup_s": import_s + query_s, "ref_s": ref,
            "sympy_loaded": "sympy" in sys.modules}


def import_probe() -> dict:
    import_s = _import_birsphere()
    t0 = CLOCK()
    import sympy  # noqa: F401

    return {"import_birsphere_s": import_s, "import_sympy_s": CLOCK() - t0}


class Profiler:
    """cProfile around each query only; attribution, not timing."""

    def __init__(self):
        import cProfile

        self.prof = cProfile.Profile()

    def __call__(self, fn):
        self.prof.enable()
        try:
            return fn()
        finally:
            self.prof.disable()

    def summary(self, queries: int) -> dict:
        import inspect
        import pstats

        from birsphere import scalars

        labels = {}
        for cls in (scalars.TowerReal, scalars.CoeffScalar):
            for name, fn in vars(cls).items():
                if inspect.isfunction(fn):
                    code = fn.__code__
                    # aliases such as __rmul__ = __mul__ keep the first name
                    labels.setdefault((code.co_filename, code.co_firstlineno), f"{cls.__name__}.{name}")
        stats = pstats.Stats(self.prof).stats
        total = sum(v[2] for v in stats.values()) or 1.0
        modules: dict[str, float] = {}
        arith: dict[str, int] = {}
        rows = []
        for (fname, line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
            if "/birsphere/" in fname:
                mod = "birsphere." + Path(fname).stem
            elif fname.endswith("fractions.py"):
                mod = "fractions"
            elif "/sympy/" in fname:
                mod = "sympy"
            elif fname == "~":
                mod = "builtins"
            else:
                mod = "other"
            modules[mod] = modules.get(mod, 0.0) + tottime
            label = labels.get((fname, line))
            if label:
                arith[label] = ncalls
            rows.append((tottime, ncalls, f"{mod}:{func}:{line}"))
        rows.sort(reverse=True)
        return {
            "queries": queries,
            "total_tottime_s": total,
            "module_self_share": {k: v / total for k, v in sorted(modules.items(), key=lambda kv: -kv[1])},
            "scalar_calls": dict(sorted(arith.items())),
            "top10_tottime": [{"function": f, "calls": n, "tottime_s": t} for t, n, f in rows[:10]],
        }


def loop(args) -> dict:
    import_s = _import_birsphere()
    import workloads

    wl = args.workload
    warm = workloads.warmup_case(wl, 0)
    seen = {workloads.case_key(warm)}

    def ask(case, run=lambda f: f()):
        try:
            return run(lambda: workloads.run_query(wl, case)), None
        except Exception as exc:  # a failed query is counted, not fatal
            return None, f"{case.kind}: raised {type(exc).__name__}: {exc}"

    warm_answer, warm_err = ask(warm)
    sympy_loaded = "sympy" in sys.modules

    tracer = profiler = None
    if args.mode == "traced":
        from tracing import SpanTracer

        tracer = SpanTracer()
        wrapped = tracer.install()
    elif args.mode == "profile":
        profiler = Profiler()

    cases = workloads.timed_cases(wl, args.seed, seen)
    latencies: list[float] = []
    ref: list[float] = []
    wall = 0.0
    # cases and answers are kept as bytes and JSON text, so the heap the
    # garbage collector walks does not grow with the run
    answered: list[tuple[bytes, str, str | None]] = []
    for _ in range(args.rounds * len(workloads.ROUNDS[wl])):
        case = next(cases)
        w0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("query"):
                t0 = CLOCK()
                answer, err = ask(case)
                dt = CLOCK() - t0
        else:
            t0 = CLOCK()
            answer, err = ask(case, profiler) if profiler else ask(case)
            dt = CLOCK() - t0
        wall += time.perf_counter() - w0
        latencies.append(dt)
        if args.mode == "plain":
            ref.append(reference_work())
        answered.append((pickle.dumps(case), json.dumps(answer, sort_keys=True), err))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {"import_s": import_s, "latencies_s": latencies, "ref_s": ref, "wall_s": wall, "peak_rss_kb": peak_rss_kb, "sympy_loaded": sympy_loaded,
           "digests": [hashlib.sha256(text.encode()).hexdigest() for _, text, _ in answered]}
    if tracer is not None:
        out["trace"] = dict(tracer.summary(), wrapped=wrapped)
    if profiler is not None:
        out["profile"] = profiler.summary(len(latencies))

    failures = [err for _, _, err in answered if err is not None]
    out["failures"] = failures
    out["warmup_failure"] = warm_err
    if args.mode != "plain":
        return out
    # the oracle (and with it sympy) is imported only now, so it neither
    # sits between queries nor loads sympy into a workload that never uses it
    import oracle

    for blob, text, err in answered:
        if err is None:
            err = oracle.check(wl, pickle.loads(blob), json.loads(text))
            if err is not None:
                failures.append(err)
    out["warmup_failure"] = warm_err or oracle.check(wl, warm, warm_answer)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("setup", "imports", "plain", "traced", "profile"))
    ap.add_argument("--workload", default="classify-orbit")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=1, help="whole rounds of timed queries")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        out = setup_probe(args.workload)
    elif args.mode == "imports":
        out = import_probe()
    else:
        out = loop(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
