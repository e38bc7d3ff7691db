"""The package's public names, and the names the traced benchmark wraps."""

import ast
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


def test_every_private_helper_has_a_caller():
    # a private top-level function or class that nothing in the package
    # names outside its own definition is dead code
    source = Path(__file__).resolve().parents[1] / "src" / "rpqres"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))}
    helpers = {
        (module, node.name): (node.lineno, node.end_lineno)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            span = helpers.get((module, name))
            if span is None or not span[0] <= node.lineno <= span[1]:
                used.add(name)
    dead = sorted(f"{module}:{name}" for module, name in helpers if name not in used)
    assert not dead, dead
