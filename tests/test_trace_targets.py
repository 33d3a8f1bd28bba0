"""The benchmark's tracer wraps hamdec functions it looks up by name; a
deleted or renamed one would make ``bench/run.py --trace 1`` fail at start-up.
"""

import importlib
import importlib.util
from pathlib import Path

import hamdec.flows

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for mod_name, attr in targets:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
    assert callable(hamdec.flows.Dinic.max_flow)
