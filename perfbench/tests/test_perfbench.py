"""Tests of the benchmark itself, at rank 3.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import shidcone
from shidcone.exactpoly import Poly
from shidcone.shi_basis import basis
from tracer import MODULES, Tracer
from workloads import (
    ORACLE_R3_DIMS,
    ORACLE_R4_COUNT_Q17,
    expected_det_initial,
    verify_gate,
)

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has."""
    for name in MODULES:
        module = importlib.import_module(f"shidcone.{name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def swapped(derivs):
    out = list(derivs)
    out[1], out[2] = out[2], out[1]
    return out


def perturbed(derivs):
    phi = derivs[-1]
    x1 = Poly.variable(phi.nvars, 0)
    coeff_x = (phi.coeff_x[0] + x1**4,) + phi.coeff_x[1:]
    return list(derivs[:-1]) + [dataclasses.replace(phi, coeff_x=coeff_x)]


def doubled(derivs):
    phi = derivs[-1]
    return list(derivs[:-1]) + [dataclasses.replace(phi, coeff_x=tuple(2 * c for c in phi.coeff_x))]


def gate_errors(method, derivs) -> list[str]:
    """What the worker records for one operation on ``derivs``."""
    try:
        report = shidcone.saito_verify(3, method=method, derivs=derivs)
    except ArithmeticError as exc:  # expand cannot factor a wrong column
        return [repr(exc)]
    return verify_gate(report, 3)


@pytest.mark.parametrize("method", ["expand", "certify"])
def test_gate_passes_the_constructed_basis(method):
    assert gate_errors(method, basis(3)) == []


@pytest.mark.parametrize("method", ["expand", "certify"])
@pytest.mark.parametrize("mutate", [swapped, perturbed, doubled])
def test_gate_trips_on_mutated_basis(method, mutate):
    assert gate_errors(method, mutate(basis(3)))


def test_gate_checks_more_than_saito_ok():
    report = shidcone.saito_verify(3)
    wrong = dataclasses.replace(report, det_initial=(0, 8, 0, 0))
    assert wrong.saito_ok and verify_gate(wrong, 3) == ["det_initial is (0, 8, 0, 0)"]


def test_recorded_expectations_match_the_formulas():
    assert ORACLE_R3_DIMS == tuple(shidcone.expected_dim(3, d) for d in range(7))
    assert ORACLE_R4_COUNT_Q17 == shidcone.expected_count(4, 17)
    for ell in (2, 3, 4):
        assert shidcone.saito_verify(ell).det_initial == expected_det_initial(ell)


def traced_counts() -> dict:
    clear_caches()
    with Tracer("test") as tracer:
        report = shidcone.saito_verify(3, method="expand")
    assert verify_gate(report, 3) == []
    return tracer.metrics()


def test_traced_counts_repeat_exactly():
    first, second = traced_counts(), traced_counts()
    for name in (
        "detkernel.fma_term_pairs",
        "exactpoly.mul_term_pairs",
        "exactpoly.division_calls",
        "detkernel.peak_minor_nnz",
    ):
        assert first[name] > 0
    counts = [name for name in first if not name.endswith("_s")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    # rank 3 expands a 3 x 3 and a 4 x 4 determinant
    assert first["detkernel.level4_nnz"] > 0 and first["detkernel.level5_nnz"] == 0


def test_tracer_restores_the_package():
    before = Poly.__mul__, shidcone.saito_verify, shidcone.verify.divides
    with Tracer("test"):
        assert shidcone.verify.divides is not before[2]
    assert (Poly.__mul__, shidcone.saito_verify, shidcone.verify.divides) == before


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench("--workload", "oracle-r3", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }
    assert "failed_ratio 0" in proc.stdout
    env = json.loads(proc.stdout.splitlines()[-2].removeprefix("env "))
    assert env["seed"] == 3 and env["backend"] and env["python"] and env["nproc"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench("--workload", "oracle-r3", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
