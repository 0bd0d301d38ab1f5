"""The benchmark's tracer still finds every name it patches.

Tier-1 does not run ``perfbench/tests``, so a rename under ``src/`` could
break the benchmark's traced runs unnoticed.  This test only reads
``perfbench/``: it enters and leaves one ``Tracer`` and checks that the
patched ``Poly.__mul__`` is traced inside and restored afterwards.
"""

import importlib
from pathlib import Path

from shidcone.exactpoly import Poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    mul = Poly.__dict__["__mul__"]
    x = Poly.variable(2, 0)
    with tracer.Tracer("tier1") as t:
        assert Poly.__dict__["__mul__"] is not mul
        assert x * x == Poly.from_terms(2, {(2, 0): 1})
    assert Poly.__dict__["__mul__"] is mul
    assert t.counts["exactpoly.mul_calls"] == 1
