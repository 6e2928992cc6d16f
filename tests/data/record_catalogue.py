"""Re-record entries of catalogue_cli.json, the golden file of
tests/test_classify_cli.py::test_catalogue_golden.

Each command line is split on whitespace, as the golden test splits it, and
run through `birsphere.cli.main`; its exit code and stdout replace the entry
of that line, or add one.  Every other entry stays as it is, so a change that
moves an answer re-records exactly the lines it names.

    PYTHONPATH=src python tests/data/record_catalogue.py "conj builtin:tau builtin:upsilon" ...
    PYTHONPATH=src python tests/data/record_catalogue.py < commands.txt    # one line each

Run it at the commit whose answers are to be pinned, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from birsphere.cli import main

GOLDEN = Path(__file__).with_name("catalogue_cli.json")


def record(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return {"exit": code, "stdout": out.getvalue()}


def run(commands: list[str]) -> None:
    golden = json.loads(GOLDEN.read_text())
    for command in commands:
        golden[" ".join(command.split())] = record(command)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    lines = sys.argv[1:] or [line for line in sys.stdin.read().splitlines() if line.strip()]
    run(lines)
