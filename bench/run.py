"""Benchmark entry point.

    python3 bench/run.py --workload {demos,field_train,perception,policy}
        --seed N --seconds S --trace {0,1} [--tiny]

Run from the repository root.  The package is imported from `src/` next
to this directory, with one BLAS/OpenMP thread.  The last line of
standard output is the result:
{"correct", "attempted", "failed", "metrics"}, where the metrics are
every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1).  The line before it records the run environment, sample
counts and the criterion values that are not gated.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("demos", "field_train", "perception", "policy")
# every workload reports these, measured untraced, over its own operation
# (field train step, held-out cloud, scripted demo, policy chunk)
END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "op_ms_p50", "op_ms_p90")


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_partfield():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "partfield" / "__init__.py").is_file():
        fail(f"no partfield sources under {src}")
    sys.path.insert(0, str(src))
    import partfield
    if not Path(partfield.__file__).resolve().is_relative_to(src):
        fail(f"imported partfield from {partfield.__file__}, not from {src}")


def environment():
    import numpy
    import scipy
    git_sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        out = None
    if out is not None and out.returncode == 0:
        top, sha = out.stdout.split()
        if Path(top).resolve() == ROOT:     # not an enclosing repository
            git_sha = sha
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def source_digest():
    """sha256 over src/partfield/*.py, identifying the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "partfield").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared(spec, key, names):
    """name -> unit of the given metrics, as BENCHMARK.json lists them."""
    units = {m["name"]: m["unit"] for m in spec[key]}
    missing = [n for n in names if n not in units]
    if missing:
        fail(f"BENCHMARK.json {key} lacks {missing}")
    return {n: units[n] for n in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (results are not comparable)")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"      # before numpy loads BLAS
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    import_partfield()
    import calibration
    import layers
    import tracing
    import workloads

    if sorted(m["name"] for m in spec["per_layer"]) != sorted(
            list(layers.PER_LAYER) + ["trace.overhead_pct"]):
        fail("BENCHMARK.json per_layer and layers.PER_LAYER disagree")
    if sorted(m["name"] for m in spec["end_to_end"]) != sorted(END_TO_END):
        fail("BENCHMARK.json end_to_end and run.END_TO_END disagree")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(
            workloads.WORKLOADS) or set(WORKLOAD_NAMES) != set(
            workloads.WORKLOADS):
        fail("BENCHMARK.json workloads and workloads.WORKLOADS disagree")
    if args.trace:
        units = declared(spec, "per_layer",
                         [m["name"] for m in spec["per_layer"]])
    else:
        units = declared(spec, "end_to_end", END_TO_END)

    sizes = workloads.TINY if args.tiny else workloads.FULL
    tracer = tracing.Tracer() if args.trace else None
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        ctx = workloads.Context(args.seed, args.seconds, sizes, tracer,
                                Path(tmp))
        run = workloads.WORKLOADS[args.workload](ctx)

    if args.trace:
        metrics, empty = layers.per_layer_metrics(tracer, args.workload)
        if empty:
            fail(f"per-layer metrics with no sample on {args.workload}: "
                 f"{empty}; was a traced function renamed or bypassed?")
        if not ctx.overhead:
            fail("no traced/untraced pair measured")
        metrics["trace.overhead_pct"] = 100.0 * (median(ctx.overhead) - 1.0)
    else:
        metrics = dict(run.metrics)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = ctx.checks
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "wall_s": time.perf_counter() - started,
        "samples": run.samples, "values": run.values,
        "failed_checks": checks.notes, "environment": environment(),
    }
    if args.trace:
        details["overhead_pairs"] = len(ctx.overhead)
    else:
        details["calibration"] = {
            phase: {"kernel": ctx.kernels[phase][0],
                    "window": ctx.kernels[phase][1], "samples": len(times),
                    "slowdown": calibration.slowdown(ctx.kernels[phase][0],
                                                     times)}
            for phase, times in ctx.calibration.items()}
    print(json.dumps({"details": details}))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
