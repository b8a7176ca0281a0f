"""Benchmark for truncdep: Monte Carlo replication throughput and the CLI analysis.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The package is imported from ``src/`` beside this directory; nothing is
installed.  The run repeats whole rounds of its workload until ``--seconds``
have passed, checks the outputs apart from the timed loop, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the package's module boundaries and reports per-layer metrics
instead (see README.md).  Lines before the last one are JSON details:
per-command times, scenario statistics, the digest of the outputs, and
any failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 20230530
SETUP_REPEATS = 9

# A fresh interpreter's import of the package plus its first selection
# call, which builds the quadrature grid.  Public names only.
_SETUP_CODE = """
import os, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import truncdep as td
td.alpha(td.ModelParams(td.CopulaFamily.GUMBEL_BARNETT, 0.08, 0.0), td.StudyDesign(24.0, 3.0))
print(repr(time.perf_counter() - t0), flush=True)
os._exit(0)  # the interpreter's teardown is not set-up time
"""


def _import_truncdep():
    package = SRC / "truncdep"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a truncdep checkout")
    sys.path.insert(0, str(SRC))
    import truncdep

    if Path(truncdep.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported truncdep from {truncdep.__file__}, not {package}")
    return truncdep


def setup_seconds() -> float:
    """Median over SETUP_REPEATS fresh processes, after one that fills the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def measure(workload, seconds: float, min_rounds: int, tracer=None):
    """Whole rounds until ``seconds`` have passed and at least ``min_rounds`` ran."""
    workload.start()
    rounds = []
    t0 = time.perf_counter()
    try:
        while len(rounds) < min_rounds or time.perf_counter() - t0 < seconds:
            rounds.append(workload.run_round(tracer, first_op=sum(map(len, rounds))))
    finally:
        workload.stop()
    return rounds


def _digest(keys) -> str:
    return hashlib.sha256(repr(list(keys)).encode()).hexdigest()[:16]


def _keys(rounds) -> list[tuple]:
    return [o.key for ops in rounds for o in ops]


def _op_seconds(rounds) -> list[float]:
    return [o.seconds for ops in rounds for o in ops]


def run(args) -> dict:
    td = _import_truncdep()
    import workloads

    setup = setup_seconds() if not args.trace else None
    workload = workloads.make(args.workload, td, args.seed, OUT)
    details: dict = {"workload": args.workload, "seed": args.seed}
    failed: set[int] = set()
    messages: list[str] = []
    try:
        # One untimed round first: the process's first-call costs (lazy
        # imports, the quadrature grid, first large allocations) stay out
        # of the loop, and the round is the reference of the determinism check.
        warm = measure(workload, 0.0, 1)
        if args.trace:
            metrics, rounds = _traced(args, td, workload, details, failed, messages)
        else:
            rounds = measure(workload, args.seconds, workload.window)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            op_s = _op_seconds(rounds)
            round_ms = [1e3 * sum(o.seconds for o in ops) for ops in rounds]
            metrics = {
                "setup_s": {"value": setup, "unit": "s"},
                "ops_per_s": {"value": len(op_s) / sum(op_s), "unit": "1/s"},
                "round_ms_p50": {"value": statistics.median(round_ms), "unit": "ms"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            details["rounds"] = len(rounds)
            if len(round_ms) >= 100:
                details["round_ms_p90"] = statistics.quantiles(round_ms, n=10)[-1]
        if _keys(warm) != _keys(rounds[:1]):
            messages.append("round 0 gives other outputs when run a second time")
            failed.update(range(len(warm[0])))
        check_failed, check_msgs = workload.check(rounds)
    finally:
        workload.close()
    failed |= check_failed
    messages += check_msgs
    window = rounds[: workload.window]
    details["digest_window"] = _digest(_keys(window))
    details["digest_all"] = _digest(_keys(rounds))
    details.update(workload.describe(rounds))
    print(json.dumps({"details": details}))
    for msg in messages:
        print(json.dumps({"failed_check": msg}))
    return {
        "correct": not messages,
        "attempted": len(_keys(rounds)),
        "failed": len(failed),
        "metrics": metrics,
    }


def _traced(args, td, workload, details, failed, messages):
    """An untraced pass over the fixed window, then the traced run.

    Counts come from the window, which every run of a seed repeats
    exactly; times come from every traced operation.  The window's
    traced minus untraced time is the tracing overhead.
    """
    import tracer as tr

    plain = measure(workload, 0.0, workload.window)
    # Empty the grid caches so the traced run's first selection call
    # builds the grid again (quad.grid_build_ms).
    for cache in ("domain_grid", "gauss_legendre"):
        clear = getattr(getattr(getattr(td, "_quad", None), cache, None), "cache_clear", None)
        if clear is None:
            messages.append(f"truncdep._quad.{cache} has no cache_clear; quad.grid_build_ms "
                            "would not time a grid build")
        else:
            clear()
    tracer = tr.Tracer()
    # A layer whose hook is gone would read as taking no time at all.
    for name in tracer.install():
        messages.append(f"cannot trace {name}: it is not in the package; update bench/tracer.py")
    try:
        rounds = measure(workload, args.seconds, workload.window, tracer)
    finally:
        tracer.uninstall()
    if _keys(rounds[: workload.window]) != _keys(plain):
        messages.append("traced window gives other outputs than the untraced pass")
        failed.update(range(len(_keys(plain))))
    n_ops = len(_keys(rounds))
    window_ops = range(len(_keys(plain)))
    table = tr.SpanTable(tracer)
    values = tr.per_layer_metrics(table, n_ops, window_ops)
    plain_s = sum(_op_seconds(plain))
    traced_s = sum(_op_seconds(rounds[: workload.window]))
    values["bench.op_ms"] = 1e3 * sum(_op_seconds(rounds)) / n_ops
    values["bench.trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tr.UNITS.items()}
    details["spans"] = tr.span_summary(table, n_ops)
    tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.json")
    return metrics, rounds


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
