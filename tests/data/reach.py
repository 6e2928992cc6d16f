"""List the package's function definitions that no golden command runs.

A profile hook goes on before `birsphere` is imported, so code that runs at
import counts.  Every command line of catalogue_cli.json is then split on
whitespace and run through `birsphere.cli.main` in sorted order, as
tests/test_classify_cli.py::test_catalogue_golden runs them.  Each called code
object is mapped to its definition in the module's AST by its first line (a
decorated definition starts at its first decorator), and each definition that
never ran is printed as `file:line qualified.name`, file relative to the
package.  Lambdas and comprehensions are not definitions.

    PYTHONPATH=src python tests/data/reach.py

tests/test_reach.py compares the printed names with reach_allowlist.json.
record_work.py counts calls with the same hook (`profiled`, `named`).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).with_name("catalogue_cli.json")


def definitions(path: Path) -> dict[int, str]:
    """Map the first line of each function definition in `path` to its
    qualified name: enclosing classes and functions joined by dots."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found[min([child.lineno, *(d.lineno for d in child.decorator_list)])] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


@contextlib.contextmanager
def profiled(calls: Counter):
    """While the block runs, count each Python call event in `calls`, keyed
    by code object.  A generator's every resumption is a call event too."""

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(None)


def package_definitions() -> dict[tuple[Path, int], str]:
    """(file, first line) -> `module.qualified.name` for every function
    definition of the package, files resolved."""
    import birsphere

    package = Path(birsphere.__file__).resolve().parent
    return {
        (path.resolve(), line): f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for line, name in sorted(definitions(path).items())
    }


def named(calls: Counter) -> Counter:
    """The counts of `calls` that belong to package definitions, keyed
    `module.qualified.name`; lambdas and comprehensions are left out."""
    where = package_definitions()
    out = Counter()
    for code, n in calls.items():
        name = where.get((Path(code.co_filename).resolve(), code.co_firstlineno))
        if name is not None:
            out[name] += n
    return out


def unreached() -> list[str]:
    """Run every golden command under a profile hook and return the
    definitions that never ran, as `file:line qualified.name`."""
    with profiled(Counter()) as called:
        from birsphere.cli import main

        for command in sorted(json.loads(GOLDEN.read_text())):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(command.split())

    ran = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in called}
    return [
        f"{path.name}:{line} {name.partition('.')[2]}"
        for (path, line), name in package_definitions().items()
        if (path, line) not in ran
    ]


if __name__ == "__main__":
    print("\n".join(unreached()))
