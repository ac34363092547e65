#!/usr/bin/env python3
"""Run one cmclab benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload newton-L34 --seed 1 --seconds 40 --trace 0

The workload runs in this one process with a single BLAS thread, set in
the environment before numpy loads.  After the set-up it repeats timed
passes while each is expected to end within ``--seconds`` of the start,
set-up included (at least one pass), and checks every pass against the
workload's oracles.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced ones.  Earlier lines of
standard output hold the environment and per-pass details; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
SPECIAL_UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MiB"}
SUFFIX_UNITS = (("_s", "s"), ("_flops", "flop"), ("_bytes", "bytes"))


def unit_of(metric: str) -> str:
    if metric in SPECIAL_UNITS:
        return SPECIAL_UNITS[metric]
    return next((unit for suffix, unit in SUFFIX_UNITS if metric.endswith(suffix)), "count")


def time_import() -> float:
    """Seconds a fresh interpreter takes to import cmclab and its dependencies."""
    code = (
        "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import cmclab.cli; print(time.perf_counter() - t0)"
    )
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    return float(done.stdout)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run timed passes for ``seconds``, check them; returns the result."""
    import spans
    import workloads

    start = time.perf_counter()  # the whole run, set-up included, fits in ``seconds``
    if not trace:
        import_walls = [time_import() for _ in range(IMPORT_REPEATS)]

    raw = workloads.raw_config(workload, seed, str(OUT / workload.name / "run"))
    tracer = spans.Tracer()
    uninstall = spans.install(tracer) if trace else None
    try:
        setup_walls = []
        for i in range(SETUP_REPEATS):
            tracer.run_id = ("setup", i) if trace else None
            t0 = time.perf_counter()
            config = workloads.setup(workload, raw)
            setup_walls.append(time.perf_counter() - t0)
        untraced, traced, failures = [], [], []
        attempted = 0
        while True:
            is_traced = trace and len(untraced) > len(traced)
            tracer.run_id = len(traced) if is_traced else None
            t0 = time.perf_counter()
            outcome = workloads.run_pass(workload, config)
            wall = time.perf_counter() - t0
            tracer.run_id = None
            (traced if is_traced else untraced).append(wall)
            attempted += workload.ops_per_pass
            failures += workloads.check(workload, config, outcome)
            # another pass only if it should end within the time, as long as
            # there is one pass of each kind
            if (traced or not trace) and time.perf_counter() - start + wall > seconds:
                break
    finally:
        tracer.run_id = None
        if uninstall is not None:
            uninstall()

    if trace:
        per_pass = [spans.layer_metrics(tracer, i) for i in range(len(traced))]
        # counts repeat from pass to pass; a time takes the usual median
        metrics = {
            name: (statistics.median if unit_of(name) == "s" else statistics.median_low)(p[name] for p in per_pass)
            for name in per_pass[0]
        }
        metrics["sphere.basis_s"] = statistics.median(
            spans.span_totals(tracer.spans, ("setup", i))[1]["sphere.basis"] for i in range(SETUP_REPEATS)
        )
        metrics["sphere.basis_bytes"] = workloads.basis_bytes(workload)
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        details = {"traced_pass_s": traced, "untraced_pass_s": untraced,
                   "newton_iters_per_pass": [p["cmc.newton_iters"] for p in per_pass]}
    else:
        metrics = {
            "wall_s": statistics.median(untraced),
            "ops_per_s": workload.ops_per_pass / statistics.median(untraced),
            "setup_s": statistics.median(import_walls) + statistics.median(setup_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details = {"pass_s": untraced, "setup_s": setup_walls, "import_s": import_walls}
    details["fail_frac"] = len(failures) / attempted
    details["failures"] = failures[:5]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
        "details": details,
    }


def _git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    import cmclab

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "cmclab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS + ("CMCLAB_THREADS",)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cmclab": cmclab.__version__,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # before anything imports numpy: one BLAS thread, so Newton counts repeat
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "cmclab" / "__init__.py").is_file():
        print(f"error: cmclab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
