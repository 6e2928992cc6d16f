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
