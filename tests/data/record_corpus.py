"""Record corpus_digest.json, the pinned answers of
tests/test_corpus.py::test_seeded_corpus_digests.

Each benchmark workload (perfbench/workloads.py) answers ROUNDS rounds of its
timed cases at SEED in process, drawn as perfbench/worker.py draws them: the
warm-up case's key is marked seen first, then `workloads.timed_cases` gives
the inputs and `workloads.run_query` the answers.  A workload's digest is one
SHA-256 over its answers in order, each `json.dumps(answer, sort_keys=True)`
followed by a newline.  perfbench/oracle.py checks every answer, and nothing
is written while one fails.

    PYTHONPATH=src python tests/data/record_corpus.py

Re-record only alongside a bug fix that lists the answers it moves, and
review the diff.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

SEED = 4242
ROUNDS = 2
DIGESTS = Path(__file__).with_name("corpus_digest.json")
PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as the module perfbench_<name>, read only."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def queries(wl: str):
    """The corpus cases of workload wl, in order, drawn one at a time."""
    workloads = _load("workloads")
    seen = {workloads.case_key(workloads.warmup_case(wl, 0))}
    cases = workloads.timed_cases(wl, SEED, seen)
    for _ in range(ROUNDS * len(workloads.ROUNDS[wl])):
        yield next(cases)


def corpus() -> tuple[dict[str, str], list[str]]:
    """({workload: digest}, the oracle's reasons for every wrong answer)."""
    workloads, oracle = _load("workloads"), _load("oracle")
    digests, failures = {}, []
    for wl in workloads.WORKLOADS:
        digest = hashlib.sha256()
        for case in queries(wl):
            text = json.dumps(workloads.run_query(wl, case), sort_keys=True)
            digest.update(text.encode() + b"\n")
            err = oracle.check(wl, case, json.loads(text))
            if err is not None:
                failures.append(f"{wl}: {err}")
        digests[wl] = digest.hexdigest()
    return digests, failures


if __name__ == "__main__":
    digests, failures = corpus()
    if failures:
        sys.exit("\n".join(failures))
    DIGESTS.write_text(json.dumps({"seed": SEED, "rounds": ROUNDS, "digests": digests}, indent=1, sort_keys=True) + "\n")
