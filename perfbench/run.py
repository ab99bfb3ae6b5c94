#!/usr/bin/env python3
"""ldcc benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload train-planted --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones in BENCHMARK.json; with --trace 1 they are the per-layer
ones, measured from outside the package by tracer.py, and the spans are
written to .perfbench/trace-<workload>-seed<seed>.jsonl.  Lines before the
last one record the environment and the workload's own named metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("train-planted", "query-select", "cli-pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(inherited_threads):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "thread_env_inherited": inherited_threads,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def steal_ticks():
    """(steal, total) CPU ticks of the machine; steal is time the host gave
    this machine's virtual CPUs to someone else."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    # BLAS runs single-threaded, so the only parallelism is the program's
    # own thread pools.  This must happen before numpy is imported.
    inherited = {v: os.environ.get(v) for v in THREAD_VARS}
    for v in THREAD_VARS:
        os.environ[v] = "1"
    if not (SRC / "ldcc" / "__init__.py").is_file():
        print(f"perfbench: no ldcc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import workloads
    from speed import REFERENCE_S, SpeedProbe
    from tracer import Tracer, layer_metrics

    env = environment(inherited)
    # The CLI's --threads defaults to os.cpu_count(); pass it only when that
    # exceeds the cores this process may use.
    threads_arg = ["--threads", str(env["nproc"])] if (env["cpu_count"] or 1) > env["nproc"] else []
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = Tracer() if args.trace else None
    ctx = workloads.RunContext(
        seed=args.seed,
        seconds=args.seconds,
        tracer=tracer,
        work_dir=work_dir,
        store=workloads.DigestStore(OUT / "digests.json", SRC / "ldcc", Path(__file__).parent),
        threads_arg=threads_arg,
        # Traced runs report per-layer wall times, not the bounded metrics.
        probe=SpeedProbe(enabled=not args.trace),
    )
    steal_start = steal_ticks()
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    steal, total = (end - start for end, start in zip(steal_ticks(), steal_start))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = dict(result.named)
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    named["failed_ops_ratio"] = (ctx.failed / max(ctx.attempted, 1), "ratio")
    # Timings on a shared virtual machine move with the host's load; the
    # steal share of the run explains a slow run without being a metric.
    named["steal_ratio"] = (steal / total if total else 0.0, "ratio")
    if ctx.probe.samples:
        # The host's speed over the run, against the reference (speed.py).
        named["host_speed_ratio"] = (REFERENCE_S / statistics.median(ctx.probe.samples), "ratio")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "named_metrics": {k: metric(*v) for k, v in named.items()},
        "operations": len(result.op_seconds),
        **result.extra,
        "problems": ctx.problems,
    }))

    if tracer:
        layers = layer_metrics(tracer)
        layers["cli.threads"] = (result.extra.get("threads", 0), "count")
        traced, plain = result.overhead_pair or (float("nan"), float("nan"))
        layers["trace.overhead_ratio"] = (traced / plain - 1.0, "ratio")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"environment": env, "workload": args.workload, "seed": args.seed})
        print(json.dumps({"per_batch": tracer.batch_table(), "missing_hooks": tracer.missing,
                          "trace_file": str(trace_path.relative_to(ROOT))}))
        metrics = {k: metric(*v) for k, v in layers.items()}
    else:
        op_ms = [1e3 * s for s in result.op_adjusted_seconds]
        metrics = {
            "op_adj_ms_p50": metric(np.percentile(op_ms, 50), "ms"),
            "op_adj_ms_p90": metric(np.percentile(op_ms, 90), "ms"),
            "setup_s": metric(named["setup_s"][0], "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
