"""The benchmark's per-layer tracer still finds every name it wraps.

`bench/layers.py` wraps discoplan functions by name at run time, so renaming
or deleting one of them silently breaks `bench/run.py --trace 1`. Its
counting hooks also call `len()` on some results, which a generator lacks,
and it starts a search node's timer on each `detect_threats` call `solve`
makes.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

from discoplan import plan, search
from discoplan.language import parse_problem
from discoplan.oracle import verify_soundness
from _worlds import load_domain, load_problem

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


def test_solve_calls_detect_threats_once_per_node_for_a_fresh_list(monkeypatch):
    calls = 0
    detect_threats = search.detect_threats

    def counted(p):
        nonlocal calls
        calls += 1
        threats = detect_threats(p)
        again = detect_threats(p)
        assert type(threats) is list and threats == again and threats is not again
        return threats

    monkeypatch.setattr(search, "detect_threats", counted)
    regress, _ = parse_problem(
        "(problem r (domain discourse) (facts (causes c g)) (init (credible c)) (goal (bel g)))",
        "r",
    )
    for problem, config in [
        (load_problem("lucentio.dpp"), search.SearchConfig()),
        (regress, search.SearchConfig(max_depth=2, max_nodes=50)),
    ]:
        calls = 0
        out = search.solve(load_domain("discourse.dpd"), problem, config)
        assert calls == out.stats.nodes_expanded > 1
