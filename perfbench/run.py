#!/usr/bin/env python3
"""segfuse benchmark: a closed-loop client driving the CLI in-process.

One workload, untimed checks included:

    python3 perfbench/run.py --workload chain_upsample --seed 1 \
        --seconds 25 --trace 0

Every workload, each in its own process, with a summary table
(`--trace 1` gives the per-layer report instead):

    python3 perfbench/run.py --all --seed 1 --seconds 25 --trace 0

The last stdout line of a single-workload run is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, timed with no tracing installed; with
`--trace 1` they are the per-layer ones from a separate traced window.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("chain_upsample", "sweep_competition", "refuse_cached_prior")
CHILD_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("op_s_p50", "s"),
              ("peak_rss_mib", "MiB"))
SPAN_SECONDS = (
    "bench.op", "prior.build_prior", "prior.normalize_pixels_array",
    "prior.aggregate_array", "prior.log_prior_array",
    "grid.resize_bilinear_array", "competition.run_sweep",
    "competition.select_competitors", "competition.restrict_to_classes",
    "embeddings.store_from_array", "grid.load_grid", "grid.save_grid",
    "grid.load_label_map", "grid.save_label_map", "fusion.to_logit",
    "fusion.fuse", "fusion.decode", "fusion.write_pgm", "metrics.accumulate",
    "metrics.iou_report", "synth.generate_scene")
SPAN_SELF = ("bench.op", "prior.build_prior", "cli.main")
SPAN_CALLS = ("prior.build_prior", "prior.normalize_pixels_array",
              "prior.aggregate_array", "prior.log_prior_array",
              "grid.resize_bilinear_array")
SETUP_SPANS = ("synth.generate_scene", "prior.build_prior")
COUNTERS = (("grid.bytes_read", "byte"), ("grid.bytes_written", "byte"),
            ("prior.similarity_flops", "flop_computed"),
            ("fusion.background_pixels", "count"),
            ("competition.settings", "count"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a child process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-reps", type=int, default=3,
                        help="input preparations per run (median is used)")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if args.setup_reps < 1:
        parser.error("--setup-reps must be >= 1")
    return args


def blas_info():
    """nproc, numpy and OpenBLAS versions, and OpenBLAS's live thread count."""
    import numpy
    info = {"nproc": len(os.sched_getaffinity(0)), "numpy": numpy.__version__,
            "openblas": "unknown", "blas_threads": -1}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["openblas"] = blas.get("version", "unknown")
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def metric(value, unit):
    return {"value": value, "unit": unit}


def throughput(done, traced):
    """Items per second of op wall time over the ops of one kind."""
    picked = [(elapsed, items) for elapsed, items, t in done if t == traced]
    return sum(items for _, items in picked) / sum(s for s, _ in picked)


def timed_setup(client, workload):
    start = time.perf_counter()
    workload.setup(client.setup_command)
    return time.perf_counter() - start


def end_to_end(client, workload, args, import_s):
    """setup_s = import + cold warm-up op + median of the input preparations.

    Import and the first op are paid once per process, so repeating them
    in-process would only time them warm; scene generation, input writing
    and prior pre-computation are repeated and their median is taken.
    """
    preparations = [timed_setup(client, workload)]
    warm_up, ok = client.run_op(next(workload.ops()))
    if not ok:
        raise RuntimeError(f"warm-up op failed: {client.problems[-1]}")
    preparations += [timed_setup(client, workload)
                     for _ in range(args.setup_reps - 1)]
    done = client.measure(workload.ops(), args.seconds)
    times = [elapsed for elapsed, _, _ in done]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": import_s + warm_up + statistics.median(preparations),
              "items_per_s": throughput(done, False),
              "op_s_p50": statistics.median(times),
              "peak_rss_mib": peak_kib / 1024.0}
    notes = {"op_s_p50": f"n={len(times)}",
             "setup_s": f"preparation median of {len(preparations)}"}
    return {name: metric(values[name], unit) for name, unit in END_TO_END}, notes


def baseline_blas1(args):
    """chain_upsample untraced in a child with one OpenBLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    result = run_child(["--workload", "chain_upsample", "--seed", str(args.seed),
                        "--seconds", "1", "--trace", "0", "--setup-reps", "1"],
                       env)
    m = result["metrics"]
    return m["items_per_s"]["value"], m["op_s_p50"]["value"]


def per_layer(client, workload, args, env_info):
    from spans import Recorder, summarize

    workload.setup(client.setup_command)
    client.run_op(next(workload.ops()))
    recorder = Recorder()
    with recorder.installed():
        with recorder.span("bench.setup", op="setup"):
            workload.setup(client.setup_command)
    # Untraced and traced ops alternate, each kind for about --seconds.
    done = client.measure(workload.ops(), 2 * args.seconds, recorder)
    with recorder.installed():
        recorder.trace_memory = True
        client.run_op(next(workload.ops()), recorder, op_id="memory")
    blas1_items, blas1_op = baseline_blas1(args)

    ops = {i for i, (_, _, traced) in enumerate(done) if traced}
    totals, nesting_errors = summarize(recorder.spans, ops)
    setup_totals, _ = summarize(recorder.spans, ["setup"])
    n = len(ops)
    metrics = {}
    for name in SPAN_SECONDS:
        metrics[f"{name}.s"] = metric(totals.get(name, [0])[0] / n / 1e9, "s")
    for name in SPAN_SELF:
        metrics[f"{name}.self_s"] = metric(
            totals.get(name, [0, 0])[1] / n / 1e9, "s")
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = metric(
            totals.get(name, [0, 0, 0])[2] / n, "count")
    for name in SETUP_SPANS:
        metrics[f"setup.{name}.s"] = metric(
            setup_totals.get(name, [0])[0] / 1e9, "s")
    counted = [recorder.counters.get(op, {}) for op in ops]
    for name, unit in COUNTERS:
        metrics[name] = metric(sum(c.get(name, 0) for c in counted) / n, unit)
    settings = sum(c.get("competition.settings", 0) for c in counted)
    build_calls = totals.get("prior.build_prior", [0, 0, 0])[2]
    metrics["competition.build_prior_calls_per_setting"] = metric(
        build_calls / settings if settings else 0.0, "ratio")
    op_ns = totals.get("bench.op", [0])[0]
    metrics["prior.build_prior.share_of_op"] = metric(
        totals.get("prior.build_prior", [0])[0] / op_ns, "ratio")
    metrics["prior.peak_traced_mib"] = metric(
        recorder.peak_traced.get("memory", 0) / 2**20, "MiB")
    untraced, traced = throughput(done, False), throughput(done, True)
    metrics.update({
        "trace.items_per_s_untraced": metric(untraced, "1/s"),
        "trace.items_per_s_traced": metric(traced, "1/s"),
        "trace.overhead_items_per_s": metric(untraced - traced, "1/s"),
        "trace.spans_per_op": metric(
            sum(1 for s in recorder.spans if s[4] in ops) / n, "count"),
        "trace.span_nesting_errors": metric(nesting_errors, "count"),
        "trace.ops": metric(n, "count"),
        "baseline.blas1.items_per_s": metric(blas1_items, "1/s"),
        "baseline.blas1.op_s_p50": metric(blas1_op, "s"),
        "env.nproc": metric(env_info["nproc"], "count"),
        "env.blas_threads": metric(env_info["blas_threads"], "count"),
    })
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload.name, "seed": args.seed, "env": env_info,
                   "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                   "spans": recorder.spans,
                   "counters": {str(k): v for k, v in recorder.counters.items()}},
                  f)
    return metrics, {"trace": os.path.relpath(trace_path, ROOT)}


def run_workload(args):
    # Cap OpenBLAS at the CPUs this process may use before numpy loads, so
    # the bench never starts more BLAS threads than nproc.
    os.environ.setdefault("OPENBLAS_NUM_THREADS",
                          str(len(os.sched_getaffinity(0))))
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    start = time.perf_counter()
    import segfuse.cli
    import_s = time.perf_counter() - start
    src = os.path.join(ROOT, "src", "segfuse")
    if os.path.dirname(os.path.abspath(segfuse.cli.__file__)) != src:
        raise RuntimeError(f"imported segfuse from {segfuse.cli.__file__}, "
                           f"not from {src}")
    from workloads import WORKLOADS, Client

    env_info = blas_info()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        client = Client(segfuse.cli)
        if args.trace:
            metrics, notes = per_layer(client, workload, args, env_info)
        else:
            metrics, notes = end_to_end(client, workload, args, import_s)
        client.verify(workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(v) for v in client.ops_by_key.values())
    env_line = " ".join(f"{k}={v}" for k, v in env_info.items())
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {env_line}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}{note}")
    print(f"{args.workload} failed_ops_ratio {client.failed / attempted:.6g} "
          f"ratio  ({client.failed}/{attempted})")
    if "trace" in notes:
        print(f"{args.workload} spans written to {notes['trace']}")
    for problem in client.problems[:10]:
        print(f"{args.workload} check FAILED: {problem}")
    if not client.problems:
        print(f"{args.workload} check ok")
    print(json.dumps({"correct": not client.problems and client.failed == 0,
                      "attempted": attempted, "failed": client.failed,
                      "metrics": metrics}))
    return 0


def run_child(extra, env=None):
    """Run one workload in a child process and return its JSON result."""
    cmd = [sys.executable, os.path.abspath(__file__), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args):
    """Every workload in its own process (peak RSS stays per workload)."""
    ok = True
    for name in WORKLOAD_NAMES:
        result = run_child(["--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace),
                            "--setup-reps", str(args.setup_reps)])
        ratio = result["failed"] / result["attempted"]
        for metric_name, m in result["metrics"].items():
            print(f"{name:20s} {metric_name:45s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:20s} {'failed_ops_ratio':45s} {ratio:14.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        print(f"{name:20s} {'check':45s} "
              f"{'ok' if result['correct'] else 'FAILED':>14s}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
