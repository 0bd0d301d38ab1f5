"""The benchmark's tracer still finds every name it patches.

Tier-1 does not run ``perfbench/tests``, so a rename under ``src/`` could
break the benchmark's traced runs unnoticed.  These tests only read
``perfbench/``: one enters and leaves a ``Tracer`` and checks that the
patched ``Poly.__mul__`` is traced inside and restored afterwards; one
checks that a traced rank-3 ``expand`` still reports the determinant DP's
levels, which the tracer takes from the ``fma`` calls made inside
``det_minor_expansion``; one checks that the point-count oracle is still
traced under the name ``charpoly_count``.
"""

import importlib
from pathlib import Path

import shidcone
from shidcone.exactpoly import Poly
from shidcone.oracle import expected_count

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


def test_benchmark_tracer_sees_the_expand_dp_levels(monkeypatch):
    # rank 3 expands the 4 x 4 determinant in one DP, whose cofactor is the
    # 3 x 3 reduced one, so the levels stop at 4
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    metrics = []
    for _ in range(2):
        with tracer.Tracer("tier1") as t:
            report = shidcone.saito_verify(3, method="expand")
        assert workloads.verify_gate(report, 3) == []
        metrics.append(t.metrics())
    first, second = metrics
    assert first["detkernel.level4_nnz"] > 0 and first["detkernel.level5_nnz"] == 0
    assert first["detkernel.fma_term_pairs"] == second["detkernel.fma_term_pairs"] > 0


def test_benchmark_tracer_sees_the_point_count(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    with tracer.Tracer("tier1") as t:
        count = shidcone.charpoly_count(2, 5)
    assert count == expected_count(2, 5)
    assert "oracle.charpoly_count" in {span[0] for span in t.spans}
