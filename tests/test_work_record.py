"""The work record: BENCH_work.json holds the package function calls each
benchmark workload makes over the seeded corpus (tests/data/record_work.py
records it).  Call counts do not depend on the host, so the record is held
exactly; re-record it with a change that moves the work."""

import json
import os
import subprocess
import sys
from pathlib import Path

import birsphere

DATA = Path(__file__).parent / "data"
RECORD = Path(__file__).parent.parent / "BENCH_work.json"


def test_work_record_is_recomputed_under_two_hash_seeds(monkeypatch):
    """record_work.py, run in a fresh interpreter under PYTHONHASHSEED 0 and
    12345, prints the committed record both times; a mismatch names the
    functions whose counts moved most."""
    monkeypatch.syspath_prepend(str(DATA))
    import record_work

    pinned = json.loads(RECORD.read_text())
    src = str(Path(birsphere.__file__).parent.parent)
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, str(DATA / "record_work.py"), "--stdout"], env=env,
                             capture_output=True, text=True, timeout=600, check=True).stdout
        got = json.loads(out)
        assert got == pinned, f"PYTHONHASHSEED={seed}, top movers:\n" + "\n".join(record_work.movers(pinned, got))
