"""The birsphere benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload classify-orbit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the package is imported from ./src).
Every process runs one thread; processes run one after another.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh interpreters, each importing birsphere and answering one warm-up
query), then one closed loop with one client over fresh seeded inputs in
whole rounds: throughput (queries over their summed time), median and p90
latency (over all queries), peak RSS.  Times are CPU time of the worker
process, corrected for the host's speed at the time (see `host_corrected`);
the detail line gives the uncorrected figures and wall time over CPU time.

--trace 1 prints the per-layer metrics: an untraced loop, the same inputs
again with layer spans on (its extra CPU time is the tracing overhead),
and the same inputs again under cProfile and another PYTHONHASHSEED.  All
three must give identical answers.

Each loop runs a fixed number of whole rounds, worked out from --seconds
and the nominal round time of the workload, so every commit answers the
same inputs however fast it is.

Detail (sample counts, answer digest, failures) goes to the second-to-last
stdout line; the last line is the result object.  A wrong answer makes the
exit code 1.  Trace and profile tables are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

SETUP_PROBES = 5
MIN_QUERIES = 100  # p90 with ten samples beyond it
DIGEST_PREFIX = 100  # answers hashed into the run's answer digest
DEADLINE = time.monotonic() + 170  # every run ends within 180 s
# CPU time of worker.reference_work at the host's usual speed (median of
# 8,810 timings in 40 s on a 2-vCPU x86 host, Python 3.11): the speed that
# the reported times are scaled to
REFERENCE_S = 0.0044
REF_WINDOW = 10  # queries on each side whose reference timings scale a query


def _worker(mode: str, args, *extra: str, hash_seed: int = 0, stdin: bytes = b"") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, input=stdin, capture_output=True, cwd=ROOT, env=env,
                          timeout=max(1.0, DEADLINE - time.monotonic()), check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"worker {mode} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def setup_times(args) -> list[dict]:
    """Set-up probes, each in a fresh interpreter with its own warm-up case,
    drawn from a stream disjoint from every timed one."""
    import workloads

    probes = []
    for k in range(SETUP_PROBES):
        blob = pickle.dumps(workloads.warmup_case(args.workload, k))
        probes.append(_worker("setup", args, stdin=blob))
    return probes


def host_corrected(times, ref) -> list[float]:
    """Each time scaled by REFERENCE_S over the median of the reference
    timings taken next to it: up to REF_WINDOW queries on each side.

    On a shared host the speed of a core drifts by up to 20% over seconds,
    and the CPU time of a query moves with it.  The reference work runs the
    same kind of arithmetic right after every query, so its timings measure
    that speed; scaling by them reports each query's time at one fixed
    speed.  A change in the program moves the times, not the reference.
    """
    return [t * REFERENCE_S / statistics.median(ref[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
            for i, t in enumerate(times)]


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _digest(digests) -> str:
    return hashlib.sha256("".join(digests[:DIGEST_PREFIX]).encode()).hexdigest()


def _failures(*runs) -> list[str]:
    out = []
    for run in runs:
        out.extend(run["failures"])
        if run["warmup_failure"]:
            out.append("warm-up " + run["warmup_failure"])
    return out


def rounds(workload: str, seconds: float, min_queries: int = 1) -> int:
    """Whole rounds that take about `seconds` on the seed commit, and at
    least one round and `min_queries` queries."""
    import workloads

    size = len(workloads.ROUNDS[workload])
    return max(round(seconds / workloads.ROUND_SECONDS[workload]), math.ceil(min_queries / size), 1)


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    probes = setup_times(args)
    n_rounds = rounds(args.workload, args.seconds, MIN_QUERIES)
    run = _worker("plain", args, "--rounds", str(n_rounds))
    raw = sorted(run["latencies_s"])
    lat = sorted(host_corrected(run["latencies_s"], run["ref_s"]))
    n = len(lat)
    setup = [p["setup_s"] * REFERENCE_S / statistics.median(p["ref_s"]) for p in probes]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_qps": (n / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * _percentile(lat, 0.9), "ms"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }
    failures = _failures(run)
    detail = {
        "attempted": n,
        "latency_samples": n,
        "rounds": n_rounds,
        "query_time_s": sum(lat),
        "host_speed": REFERENCE_S / statistics.median(run["ref_s"]),
        "uncorrected": {"throughput_qps": n / sum(raw), "latency_p50_ms": 1e3 * statistics.median(raw),
                        "latency_p90_ms": 1e3 * _percentile(raw, 0.9),
                        "setup_s": statistics.median(p["setup_s"] for p in probes)},
        "wall_over_cpu": run["wall_s"] / sum(raw),
        "failed_frac": len(failures) / n,
        "answer_digest": _digest(run["digests"]),
        "digest_over": min(n, DIGEST_PREFIX),
        "setup_probes_s": setup,
        "setup_import_s": [p["import_s"] for p in probes],
    }
    return metrics, detail, failures


def _ms_per_query(ns: float, n: int) -> float:
    return ns / 1e6 / n


def per_layer(args) -> tuple[dict, dict, list[str]]:
    imports = _worker("imports", args)
    # the untraced loop takes a quarter of --seconds; the traced and profiled
    # loops answer exactly the same inputs
    n_rounds = str(rounds(args.workload, args.seconds / 4))
    plain = _worker("plain", args, "--rounds", n_rounds)
    traced = _worker("traced", args, "--rounds", n_rounds)
    prof = _worker("profile", args, "--rounds", n_rounds, hash_seed=1)
    n = len(plain["latencies_s"])
    failures = _failures(plain, traced, prof)
    if not traced["digests"] == prof["digests"] == plain["digests"]:
        failures.append("answers differ between runs or between PYTHONHASHSEED values 0 and 1")

    tr = traced["trace"]
    names, layers = tr["per_name"], tr["per_layer_self_ns"]

    def calls(*keys):
        return sum(names.get(k, {}).get("calls", 0) for k in keys) / n

    def incl_ms(key):
        return _ms_per_query(names.get(key, {}).get("incl_ns", 0), n)

    def self_ms(layer):
        return _ms_per_query(layers.get(layer, 0), n)

    query_ns = names["query"]["incl_ns"]
    hits, misses = tr["lru"].get("sphere.canonical_pattern", [0, 0])
    profile = prof["profile"]
    scalar_calls = profile["scalar_calls"]
    metrics = {
        "projmat.mul.calls": (calls("projmat.ProjMat.__mul__"), "count/query"),
        "projmat.order_ms": (incl_ms("projmat.ProjMat.order"), "ms/query"),
        "projmat.order_share": (names.get("projmat.ProjMat.order", {}).get("incl_ns", 0) / query_ns, "ratio"),
        "sphere.order_ms": (incl_ms("sphere.SphereMap.order"), "ms/query"),
        "poly.sturm_count.calls": (calls("poly.sturm_count"), "count/query"),
        "poly.isolate_ms": (incl_ms("poly.isolate_real_roots_poly"), "ms/query"),
        "poly.gcd.calls": (calls("poly.poly_gcd"), "count/query"),
        "poly.self_ms": (self_ms("poly"), "ms/query"),
        "scalars.sign.calls": (calls("scalars.TowerReal.sign"), "count/query"),
        "scalars.sqrt.calls": (calls("scalars.TowerReal.sqrt", "scalars.CoeffScalar.sqrt"), "count/query"),
        "scalars.self_ms": (self_ms("scalars"), "ms/query"),
        "prof.scalars.tower_mul.calls": (scalar_calls.get("TowerReal.__mul__", 0) / n, "count/query"),
        "prof.scalars.coeff_mul.calls": (scalar_calls.get("CoeffScalar.__mul__", 0) / n, "count/query"),
        "prof.fractions.self_share": (profile["module_self_share"].get("fractions", 0.0), "ratio"),
        "involutions.construct_ms": (incl_ms("involutions.construct_conjugator"), "ms/query"),
        "involutions.verify_ms": (incl_ms("involutions.ConjugacyCertificate.verify"), "ms/query"),
        "involutions.self_ms": (self_ms("involutions"), "ms/query"),
        "sympy.factor.calls": (calls("sympy.factor"), "count/query"),
        "sympy.factor_ms": (incl_ms("sympy.factor"), "ms/query"),
        "setup.import_birsphere_ms": (1e3 * imports["import_birsphere_s"], "ms"),
        "setup.import_sympy_ms": (1e3 * imports["import_sympy_s"] if plain["sympy_loaded"] else 0.0, "ms"),
        "sphere.canonical_pattern.calls": (calls("sphere.canonical_pattern"), "count/query"),
        "sphere.canonical_pattern.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "sphere.self_ms": (self_ms("sphere"), "ms/query"),
        "classify.self_ms": (self_ms("classify"), "ms/query"),
        "etatwist.self_ms": (self_ms("etatwist"), "ms/query"),
        "positivity.self_ms": (self_ms("positivity"), "ms/query"),
        "projmat.self_ms": (self_ms("projmat"), "ms/query"),
        "trace.overhead_ratio": (sum(traced["latencies_s"]) / sum(plain["latencies_s"]), "ratio"),
        "trace.spans": (tr["spans"] / n, "count/query"),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"trace-{stem}.json").write_text(json.dumps(tr, indent=1, sort_keys=True))
    (OUT / f"profile-{stem}.json").write_text(json.dumps(
        dict(profile, note="cProfile attribution only: it slows the run several times over"),
        indent=1, sort_keys=True))
    detail = {
        "attempted": 3 * n,
        "rounds": int(n_rounds),
        "queries_per_loop": n,
        "failed_frac": len(failures) / (3 * n),
        "answer_digest": _digest(plain["digests"]),
        "digest_over": min(n, DIGEST_PREFIX),
        "canonical_pattern_lookups": hits + misses,
        "wrapped_entry_points": tr["wrapped"],
        "profile_top10": profile["top10_tottime"],
    }
    return metrics, detail, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills the running
    # worker and waits for it before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "birsphere" / "__init__.py").is_file():
        sys.stderr.write(f"no birsphere package under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    metrics, detail, failures = (per_layer if args.trace else end_to_end)(args)
    attempted = detail["attempted"]
    detail["failures"] = failures[:10]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
