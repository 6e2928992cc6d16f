"""The seeded corpus: the benchmark's three workloads, answered in process at
one fixed seed, give answers that the benchmark's oracle accepts and that
hash to the digests in tests/data/corpus_digest.json
(tests/data/record_corpus.py records them)."""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _recorder():
    spec = importlib.util.spec_from_file_location("record_corpus", DATA / "record_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seeded_corpus_digests():
    """Two rounds of each workload at the recorded seed: perfbench/oracle.py
    passes every answer, and each workload's SHA-256 over its answers equals
    the recorded one."""
    recorder = _recorder()
    pinned = json.loads((DATA / "corpus_digest.json").read_text())
    assert (pinned["seed"], pinned["rounds"]) == (recorder.SEED, recorder.ROUNDS)
    digests, failures = recorder.corpus()
    assert not failures
    assert digests == pinned["digests"], f"recomputed digests: {json.dumps(digests, indent=1, sort_keys=True)}"
