"""Reach contract: every function definition in the package runs under some
command of tests/data/catalogue_cli.json, or tests/data/reach_allowlist.json
names it with its reason.  The golden file pins what the commands print; this
pins that nothing else is kept without a reason.

A reason is one of three:
- "dunder": a special method the language calls, named with its call;
- "benchmark": perfbench is the only caller, named by one of its functions
  (input generation, the timed query or the answer check);
- "item": an open ROADMAP item will give it a caller, named by its number.
"The tests call it" is not a reason.  Re-record with
`PYTHONPATH=src python tests/data/reach.py`, which prints every definition no
command runs; pin what a command can reach with a golden line
(tests/data/record_catalogue.py), and delete the rest or give it a reason."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import birsphere

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent
ALLOWED = json.loads((DATA / "reach_allowlist.json").read_text())


def test_every_definition_runs_or_has_a_reason():
    """reach.py runs every golden command in a fresh interpreter, with its
    profile hook on before birsphere is imported; the definitions that never
    ran are exactly the allow-list's keys."""
    src = str(Path(birsphere.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(DATA / "reach.py")], env=env, capture_output=True, text=True,
                         timeout=600, check=True).stdout
    unreached = {}
    for line in out.splitlines():
        where, name = line.split(" ", 1)
        unreached[f"{Path(where.partition(':')[0]).stem}.{name}"] = where
    added = sorted(f"{where} {key}" for key, where in unreached.items() if key not in ALLOWED)
    removed = sorted(key for key in ALLOWED if key not in unreached)
    assert not added and not removed, (
        f"run by no golden command and not in reach_allowlist.json (pin, delete or give a reason): {added}; "
        f"in reach_allowlist.json but now run by a golden command (drop the entry): {removed}"
    )


def test_allowlist_reasons():
    """Each entry carries exactly one reason of the three, with its caller
    named: a dunder's name is a dunder, a benchmark reason names a function
    defined in perfbench, and an item reason names an open ROADMAP item."""
    perfbench = {
        node.name
        for path in (ROOT / "perfbench").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    roadmap = (ROOT / "ROADMAP.md").read_text()
    wrong = []
    for key, (kind, why) in ALLOWED.items():
        name = key.rpartition(".")[2]
        if kind == "dunder":
            ok = name.startswith("__") and name.endswith("__")
        elif kind == "benchmark":
            ok = bool(perfbench & set(re.findall(r"\w+", why)))
        elif kind == "item":
            item = re.match(r"item (\d+)", why)
            ok = bool(item) and f"\n{item.group(1)}. **" in roadmap
        else:
            ok = False
        if not ok or "test" in why.lower():
            wrong.append(key)
    assert wrong == []
