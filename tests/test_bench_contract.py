"""The benchmark's traced layer names must resolve in the library.

`bench/tracing.py` wraps library functions and `MatrixGaussian` methods by
name; a rename would only show up as a failing `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

from matschroed.matpoly import MatrixGaussian

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for layer, names in tracing.LAYERS.items():
        for name in names:
            if layer == "matpoly":
                if not callable(getattr(MatrixGaussian, tracing.METHODS[name], None)):
                    missing.append(f"MatrixGaussian.{tracing.METHODS[name]}")
            elif not callable(getattr(importlib.import_module(f"matschroed.{layer}"), name, None)):
                missing.append(f"matschroed.{layer}.{name}")
    assert not missing, missing
