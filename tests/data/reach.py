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
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
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


def unreached() -> list[str]:
    """Run every golden command under a profile hook and return the
    definitions that never ran, as `file:line qualified.name`."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from birsphere.cli import main

        for command in sorted(json.loads(GOLDEN.read_text())):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(command.split())
    finally:
        sys.setprofile(None)

    import birsphere

    package = Path(birsphere.__file__).resolve().parent
    ran = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in called}
    return [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in sorted(definitions(path).items())
        if (path.resolve(), line) not in ran
    ]


if __name__ == "__main__":
    print("\n".join(unreached()))
