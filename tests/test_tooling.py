"""The benchmark's span recorder traces names that exist: a change that deletes
or renames a traced function fails here, not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    """perfbench/spans.py as a module, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def unresolved(layer_functions):
    """(module, attribute) pairs that Tracer.install could not find: a function
    in gxelab.<module>, or a method in its class's own __dict__."""
    missing = []
    for module, attribute, _ in layer_functions:
        owner = importlib.import_module(f"gxelab.{module}")
        cls_name, _, name = attribute.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            found = isinstance(cls, type) and name in vars(cls)
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append((module, attribute))
    return missing


def test_traced_names_resolve(monkeypatch):
    spans = load_spans(monkeypatch)
    assert len(spans.LAYER_FUNCTIONS) > 20
    assert unresolved(spans.LAYER_FUNCTIONS) == []


def test_a_missing_name_is_reported():
    assert unresolved([("regress", "no_such_function", None), ("genome", "Pedigree.no_such_method", None),
                       ("genome", "no_such_class.__init__", None), ("regress", "ols", None)]) == [
        ("regress", "no_such_function"), ("genome", "Pedigree.no_such_method"), ("genome", "no_such_class.__init__")]
