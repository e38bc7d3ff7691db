"""The package's public names, and the names the traced benchmark wraps."""

import importlib.util
from pathlib import Path

import rpqres


def test_every_export_resolves():
    namespace = {}
    exec("from rpqres import *", namespace)
    assert set(rpqres.__all__) <= set(namespace)


def test_every_traced_name_resolves():
    # the traced benchmark run wraps these attributes with getattr, so a
    # name missing here would crash that run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, names in tracing.WRAPPED.items():
        module = getattr(rpqres, module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
