"""The benchmark's per-layer tracer still finds every name it wraps.

`bench/layers.py` wraps discoplan functions by name at run time, so renaming
or deleting one of them silently breaks `bench/run.py --trace 1`. Its
counting hooks also call `len()` on some results, which a generator lacks.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

from discoplan import plan, search
from discoplan.oracle import verify_soundness

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


def test_every_traced_name_resolves():
    for modname, entries in _traced().items():
        module = importlib.import_module("discoplan." + modname)
        for attr, _ in entries:
            if "." in attr:
                cls_name, method = attr.split(".")
                assert callable(vars(getattr(module, cls_name)).get(method)), attr
            else:
                assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_verify_soundness_keeps_its_order_cap():
    assert "max_orders" in inspect.signature(verify_soundness).parameters


def test_functions_whose_results_are_counted_return_lists():
    for fn in (
        plan.detect_threats,
        search.refine_causal,
        search.refine_decomposition,
        search.resolve_threat,
    ):
        assert not inspect.isgeneratorfunction(fn), fn.__name__
