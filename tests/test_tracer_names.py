"""The benchmark's tracer wraps package functions by name; every name must still resolve.

``perfbench/tracer.py`` skips a ``FUNCTIONS`` entry that no listed module binds,
so a rename would leave its layer reading 0 while the traced run still passes.
The file is only read here, never changed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from xvamild.mildsolver import apply_mild_map

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_at_a_listed_site(tracer):
    for layer, attr, sites in tracer.FUNCTIONS:
        bound = [site for site in sites if hasattr(importlib.import_module(site), attr)]
        assert bound, f"{layer}: no module of {sites} binds {attr}"


def test_every_traced_method_exists(tracer):
    for layer, site, cls, meth in tracer.METHODS:
        assert callable(getattr(getattr(importlib.import_module(site), cls), meth, None)), (
            f"{layer}: {site}.{cls}.{meth} is gone"
        )


def test_sweep_counter_binds_the_sweep_parameters():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_sweep_nps")
    names = next(
        ast.literal_eval(n.value) for n in ast.walk(fn)
        if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name) and n.targets[0].id == "names"
    )
    assert list(names) == list(inspect.signature(apply_mild_map).parameters)[:8]
