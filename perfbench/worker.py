"""One measurement in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py setup
        Time ``import shidcone`` plus the kernel-backend selection.
    python3 perfbench/worker.py run WORKLOAD [--spans PATH --run-id ID]
        Run one operation of WORKLOAD and check its result.  With --spans,
        trace it and write the spans to PATH.

``run.py`` starts this script once per measurement, so module caches are
cold and each operation's peak RSS is its own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def backend_name(impl) -> str:
    return f"{impl.__module__}.{impl.__qualname__}"


def measure_setup() -> dict:
    t0 = perf_counter()
    import shidcone  # noqa: F401
    from shidcone.detkernel import get_impl

    impl = get_impl()
    return {"setup_s": perf_counter() - t0, "backend": backend_name(impl)}


def measure_run(workload: str, spans: str | None, run_id: str | None) -> dict:
    from shidcone.detkernel import get_impl
    from tracer import Tracer
    from workloads import WORKLOADS

    op = WORKLOADS[workload]
    out = {"backend": backend_name(get_impl())}
    tracer = Tracer(run_id) if spans is not None else None
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = perf_counter()
            result = op.run()
            out["wall_s"] = perf_counter() - t0
        out["peak_rss_mb"] = peak_rss_mb()
        out["errors"] = op.check(result)
    except Exception:
        # A crash inside the program fails this operation; run.py counts it.
        out["errors"] = [traceback.format_exc()]
    if tracer is not None:
        out["metrics"] = tracer.metrics()
        tracer.write(spans)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p_run = sub.add_parser("run")
    p_run.add_argument("workload")
    p_run.add_argument("--spans", default=None)
    p_run.add_argument("--run-id", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = measure_setup()
    else:
        out = measure_run(args.workload, args.spans, args.run_id)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
