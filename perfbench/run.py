"""End-to-end and per-layer benchmark of shidcone.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The package is imported from ``src`` with no
build step, as the tier-1 tests do.  Each operation runs in a fresh
interpreter (``worker.py``), so module caches start cold as they do for a
command-line user.  Operations repeat until ``--seconds`` would be exceeded,
and always at least once.  Every result passes the workload's correctness
gate or its operation counts as failed.

--trace 0 reports the end-to-end metrics, as medians over the operations:
    wall_s       time of one operation, up to its result
    setup_s      import of shidcone plus kernel-backend selection in a fresh
                 interpreter, median of SETUP_PROBES probes
    peak_rss_mb  peak resident set size of the operation's process

--trace 1 runs each operation once untraced and once traced, and reports the
per-layer metrics of ``tracer.PER_LAYER_UNITS`` from the traced run, plus
``trace.overhead_s`` (traced wall_s minus untraced wall_s).  The spans go to
``perfbench/out/spans-<workload>-seed<n>-op<k>.jsonl``.

The workloads have no free input, so the seed is recorded and changes
nothing.  Lines before the last describe the run and its environment.  The
last line is one JSON object with the keys correct, attempted, failed and
metrics.  The exit status is 0 when every operation passed its gate, 1 when
one failed, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "shidcone"
OUT_DIR = HERE / "out"

SETUP_PROBES = 11
# A hung operation is stopped this many seconds into the run, so that a run
# still ends inside three minutes.
RUN_DEADLINE_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def worker(*args: str, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON output."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """Digest of the package source, which names the code measured when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Run:
    """Repeats operations of one workload until the time is up."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.ops: list[dict] = []

    def op(self, *extra: str) -> dict:
        """One gated operation; a crash or a timeout counts as a failure."""
        try:
            rec = worker(
                "run", self.workload, *extra, timeout=max(1.0, self.deadline - perf_counter())
            )
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            rec = {"errors": [str(exc)]}
        self.ops.append(rec)
        return rec

    def repeat(self, step) -> None:
        """Call step() at least once, then again while another one fits."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            step()
            cost = perf_counter() - t0
            if perf_counter() - start + cost > self.seconds or any(
                op["errors"] for op in self.ops
            ):
                return

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["errors"])


def median_of(ops: list[dict], key: str) -> float:
    """Median of ``key`` over the operations that passed their gate, or over
    all of them when none did (the run is then reported as not correct)."""
    values = [op[key] for op in ops if key in op]
    passed = [op[key] for op in ops if key in op and not op["errors"]]
    return statistics.median(passed or values or [0.0])


def end_to_end(run: Run) -> dict[str, float]:
    run.repeat(run.op)
    return {
        "wall_s": median_of(run.ops, "wall_s"),
        "peak_rss_mb": median_of(run.ops, "peak_rss_mb"),
    }


def per_layer(run: Run, names) -> tuple[dict[str, float], list[str]]:
    untraced, traced, spans = [], [], []

    def pair() -> None:
        run_id = f"{run.workload}-seed{run.seed}-op{len(traced)}"
        path = OUT_DIR / f"spans-{run_id}.jsonl"
        untraced.append(run.op())
        traced.append(run.op("--spans", str(path), "--run-id", run_id))
        spans.append(str(path.relative_to(ROOT)))

    run.repeat(pair)
    layers = [{**op.get("metrics", {}), "errors": op["errors"]} for op in traced]
    metrics = {name: median_of(layers, name) for name in names}
    metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    return metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source {PACKAGE} not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    from tracer import PER_LAYER_UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)

    run = Run(args.workload, args.seed, args.seconds)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
    }
    if args.trace:
        metrics, env["spans"] = per_layer(run, PER_LAYER_UNITS)
        units = {**PER_LAYER_UNITS, "trace.overhead_s": "s"}
    else:
        probes = [worker("setup", timeout=60) for _ in range(SETUP_PROBES)]
        metrics = {"setup_s": statistics.median(p["setup_s"] for p in probes)}
        metrics.update(end_to_end(run))
        units = END_TO_END_UNITS
    env["backend"] = sorted({op["backend"] for op in run.ops if "backend" in op})

    attempted, failed = len(run.ops), run.failed
    print(
        f"{args.workload}: {attempted} operations, {failed} failed, "
        f"failed_ratio {failed / attempted:g}"
    )
    walls = " ".join(f"{op['wall_s']:.3f}" for op in run.ops if "wall_s" in op)
    print(f"  operation wall_s{' (untraced, traced, ...)' if args.trace else ''}: {walls}")
    for op in run.ops:
        for error in op["errors"]:
            print(f"  FAILED: {error}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print("env " + json.dumps(env))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
