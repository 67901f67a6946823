"""ssmfrac benchmark: one workload per process, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports ``ssmfrac`` from ``src/``, makes the seed's inputs and runs
one untimed warm-up pass. The run then repeats verified passes for about S
seconds. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced passes and reports the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The BLAS thread count is fixed before numpy loads, to min(2, usable CPUs),
and the process starts no other worker threads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("reproduce_planar", "reproduce_forced", "series", "fit_bulk")
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SSMFRAC_THREADS")


# Per-layer metrics and their units, as listed in BENCHMARK.json (which adds
# trace.overhead_s and trace.pass_s); 0 where a workload never reaches the
# layer.
LAYER_METRICS = {
    "dictionary.evaluate.calls": "count",
    "dictionary.evaluate.rows": "count",
    "dictionary.evaluate.self_s": "s",
    "fit.solve.self_s": "s",
    "fit.design_cells": "count",
    "fit.design_bytes": "bytes",
    "fit.condition_number": "1",
    "fit.rhs.calls": "count",
    "fit.rhs.self_s": "s",
    "fit.predict.self_s": "s",
    "dynamics.lambert_w0.calls": "count",
    "dynamics.lambert_w0.self_s": "s",
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.self_s": "s",
    "dynamics.rhs_evals": "count",
    "dynamics.newton.iterations": "count",
    "dynamics.newton.integrations": "count",
    "dynamics.newton.self_s": "s",
    "dynamics.floquet.self_s": "s",
    "normalform.linearize.self_s": "s",
    "normalform.inverse.self_s": "s",
    "normalform.residual.self_s": "s",
    "normalform.pullback.self_s": "s",
    "normalform.terms": "count",
    "normalform.extended2d.self_s": "s",
    "normalform.extended2d.resonant_terms": "count",
    "spectrum.partition.self_s": "s",
    "trajectory.read_csv.self_s": "s",
    "trajectory.read_csv.bytes": "bytes",
    "cli.self_s": "s",
    "spectrum.self_s": "s",
    "dictionary.self_s": "s",
    "fit.self_s": "s",
    "dynamics.self_s": "s",
    "normalform.self_s": "s",
    "trajectory.self_s": "s",
    "trace.spans": "count",
}


def layer_metrics(tracer, pass_ids):
    values = tracer.pass_metrics(pass_ids)
    return {key: (float(values.get(key, 0)), unit)
            for key, unit in LAYER_METRICS.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fix_threads():
    """Cap BLAS and OpenMP threads; call before numpy is imported."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_seconds(env):
    """Seconds to import ssmfrac in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import ssmfrac; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, SRC], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def reference_seconds():
    """Time of a fixed single-threaded computation (interpreter loop, dict
    updates, small numpy operations), timed next to every pass as a
    yardstick for the machine's current speed. BLAS is left out: its
    thread wake-up makes it a poor yardstick."""
    import numpy as np

    start = time.perf_counter()
    x = 0
    for i in range(400_000):
        x += i * i
    table = {}
    for i in range(50_000):
        key = (i % 1000, i % 7)
        table[key] = table.get(key, 0) + i
    v = np.linspace(0.0, 1.0, 20_000)
    for _ in range(50):
        v = np.sqrt(v * v + 1.0) - 1.0
    if not (x > 0 and table and np.isfinite(v).all()):
        raise RuntimeError("reference computation went wrong")
    return time.perf_counter() - start


def upper_quartile(samples):
    """Tail of the pass times. A run makes 3 to 25 passes, too few for any
    percentile at or above the median to have ten samples beyond it, so the
    upper quartile is the tail reported."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def environment(threads, seed):
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            info = deps["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": threads, "seed": seed}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ssmfrac", "__init__.py")):
        print(f"perfbench: no ssmfrac package under {SRC}", file=sys.stderr)
        return 2

    threads = fix_threads()

    # set-up 1: import ssmfrac in fresh interpreters (median of repeats)
    import_times = [import_seconds(dict(os.environ))
                    for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, SRC)
    import ssmfrac  # noqa: F401  (loads numpy after the thread cap)
    import tracing
    import workloads

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = environment(threads, args.seed)
    with open(os.path.join(work_dir, "environment.json"), "w") as fh:
        json.dump(env, fh, indent=2)
    print("environment " + json.dumps(env, sort_keys=True))

    # set-up 2: inputs from the seed (median of repeats), 3: warm-up pass
    wl = workloads.WORKLOADS[args.workload](work_dir, args.seed, reference)
    gen_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.generate_inputs()
        gen_times.append(time.perf_counter() - start)
    warm, _ = wl.run_pass()
    setup_s = statistics.median(import_times) + \
        statistics.median(gen_times) + warm

    tracer = tracing.Tracer() if args.trace else None
    passes, traced_ids = [], []
    attempted = failed = 0
    unexpected, known = [], []
    ref_before = reference_seconds()
    start = time.perf_counter()
    while True:
        i = len(passes)
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.pass_id = i
            traced_ids.append(i)
            elapsed, ops = wl.run_pass(tracer.installed)
            tracer.recover()
        else:
            elapsed, ops = wl.run_pass()
        ref_after = reference_seconds()
        passes.append((elapsed, traced, (ref_before + ref_after) / 2.0))
        ref_before = ref_after
        for op in ops:
            attempted += 1
            if op.ok:
                continue
            failed += 1
            reason = f"{op.name}: {op.error or '; '.join(op.problems)}"
            if wl.known_failure(op):
                known.append(reason)
            else:
                unexpected.append(reason)
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > args.seconds:
            break

    untraced = [e for e, t, _ in passes if not t]
    traced_times = [e for e, t, _ in passes if t]
    reported = {}
    if args.trace:
        metrics = layer_metrics(tracer, traced_ids)
        overhead = (statistics.median(traced_times)
                    - statistics.median(untraced)) if untraced else 0.0
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.pass_s"] = (statistics.median(traced_times), "s")
        tracer.write_csv(os.path.join(work_dir, "spans.csv"))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_ref": (statistics.median(e / r for e, _, r in passes),
                         "ref"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        # Wall-time statistics are printed but not in the JSON line: on a
        # shared 2-vCPU host whose speed swings 0.7x-1.4x over tens of
        # seconds they spread across runs wider than any bound allowed.
        # pass_ref divides each pass by the reference computation timed
        # next to it, which cancels most of that swing (see NOTES.md).
        tail = upper_quartile(untraced)
        reported["pass_s"] = (statistics.median(untraced), "s")
        reported["pass_s_tail"] = (tail, "s")
        reported["pass_s_min"] = (min(untraced), "s")
        reported["reference_s"] = (statistics.median(r for *_, r in passes),
                                   "s")
        n = len(untraced)
        print("pass times (s): " + " ".join(f"{e:.4f}" for e in untraced))
        print(f"pass_s: median of {n} passes; pass_s_tail: p75 of {n}, "
              f"{sum(e > tail for e in untraced)} beyond it; pass_ref: "
              f"median of pass time / reference time")
        print(f"setup_s: import {statistics.median(import_times):.4f} s + "
              f"inputs {statistics.median(gen_times):.4f} s + warm-up pass "
              f"{warm:.4f} s")

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"passes, reference {wl.reference_note()}")
    for reason in sorted(set(known)):
        print(f"known failure: {reason}")
    for reason in sorted(set(unexpected))[:20]:
        print(f"FAILED: {reason}")
    for key, (value, unit) in sorted({**metrics, **reported}.items()):
        print(f"{key} = {value:.6g} {unit}")
    result = {"correct": not unexpected, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({**result, "reported": {
            k: {"value": v, "unit": u} for k, (v, u) in reported.items()}},
            fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
