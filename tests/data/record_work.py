"""Record BENCH_work.json at the repository root: how many times each package
function runs while the benchmark's workloads answer the seeded corpus, a
record of the work that does not depend on the host.

The corpus is record_corpus.py's: each workload of perfbench/workloads.py
answers ROUNDS rounds of its timed cases at SEED, all three in one process, in
the order of `workloads.WORKLOADS`.  reach.py's profile hook (`profiled`) is on
only while `workloads.run_query` answers a case, so drawing the cases is not
counted.  Each call is mapped to its package definition (`named`): methods and
nested functions count under their qualified names, and lambdas,
comprehensions and generator expressions, which are not definitions, do not
count.  Each resumption of a generator counts as a call, as the hook sees it.
The record holds, per workload, the total of its counts and the count of each
function that ran, keyed `module.qualified.name`.

    PYTHONPATH=src python tests/data/record_work.py                  # write BENCH_work.json
    PYTHONPATH=src python tests/data/record_work.py --stdout         # print the record
    PYTHONPATH=src python tests/data/record_work.py --movers OLD.json  # the top movers from OLD.json

tests/test_work_record.py recomputes the record in fresh interpreters under
two PYTHONHASHSEED values and requires each to equal the file.  A change that
moves the work re-records it and lists its top movers.  This counts work; wall
time is the benchmark's.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import reach
import record_corpus

RECORD = Path(__file__).resolve().parents[2] / "BENCH_work.json"


def record() -> dict:
    """{"seed", "rounds", "workloads": {workload: {"total", "calls"}}}."""
    workloads = record_corpus._load("workloads")
    out = {"seed": record_corpus.SEED, "rounds": record_corpus.ROUNDS, "workloads": {}}
    for wl in workloads.WORKLOADS:
        calls = Counter()
        for case in record_corpus.queries(wl):
            with reach.profiled(calls):
                workloads.run_query(wl, case)
        counts = reach.named(calls)
        out["workloads"][wl] = {"total": sum(counts.values()), "calls": dict(sorted(counts.items()))}
    return out


def movers(old: dict, new: dict, top: int = 10) -> list[str]:
    """Per workload, its total and then the `top` functions whose counts
    moved most from record old to record new, as `workload name: old -> new`."""
    lines = []
    for wl in sorted(set(old["workloads"]) | set(new["workloads"])):
        a, b = (r["workloads"].get(wl, {"total": 0, "calls": {}}) for r in (old, new))
        lines.append(f"{wl} total: {a['total']} -> {b['total']}")
        before, after = a["calls"], b["calls"]
        moved = [k for k in sorted(set(before) | set(after)) if before.get(k, 0) != after.get(k, 0)]
        moved.sort(key=lambda k: -abs(after.get(k, 0) - before.get(k, 0)))
        lines += [f"{wl} {k}: {before.get(k, 0)} -> {after.get(k, 0)}" for k in moved[:top]]
    return lines


def dumps(rec: dict) -> str:
    return json.dumps(rec, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--movers"]:
        print("\n".join(movers(json.loads(Path(args[1]).read_text()), record())))
    elif args == ["--stdout"]:
        sys.stdout.write(dumps(record()))
    else:
        RECORD.write_text(dumps(record()))
