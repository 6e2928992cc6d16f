"""The benchmark's span tracer (perfbench/tracing.py) finds package code by
name; a rename in the package would silently drop its spans and break
`perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    """Every method in tracing.METHODS is in its class's own __dict__, where
    the tracer looks it up.  The tracer spans only public functions defined
    in a layer's own module: construct_conjugator, whose span run.py reads,
    and involution_conjugator, which decide_conjugacy calls under that
    public name, are such functions of the involutions module."""
    for layer, classes in _tracing().METHODS.items():
        module = importlib.import_module(f"birsphere.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for method in methods:
                assert method in cls.__dict__, f"{layer}.{cls_name}.{method}"
    involutions = importlib.import_module("birsphere.involutions")
    for name in ("construct_conjugator", "involution_conjugator"):
        assert getattr(involutions, name).__module__ == involutions.__name__
    classify = importlib.import_module("birsphere.classify")
    assert classify.involution_conjugator is involutions.involution_conjugator


def test_per_layer_metrics_read_called_functions():
    """Every function or method whose span a per-layer metric of
    perfbench/run.py reads (the keys passed to `calls` and `incl_ms`, mapped
    back through tracing.RENAMES) is referenced by a package module other
    than __init__.py: a metric over a function that nothing calls reads 0
    and measures nothing.  The benchmark's own root span `query` and dunder
    methods, which the language calls, are exempt."""
    import ast

    import birsphere

    run = ast.parse((TRACING.parent / "run.py").read_text())
    keys = {
        arg.value
        for node in ast.walk(run)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("calls", "incl_ms")
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }
    assert "poly.isolate_real_roots_poly" in keys
    span_to_key = {name: key for key, (_, name) in _tracing().RENAMES.items()}
    names = {span_to_key.get(key, key).rpartition(".")[2] for key in keys if key != "query"}
    names = {name for name in names if not (name.startswith("__") and name.endswith("__"))}
    referenced = set()
    for path in Path(birsphere.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert sorted(names - referenced) == []
