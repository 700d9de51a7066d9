"""Run one benchmark workload and print its result as the last stdout line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; crossbound is imported from
``src/``.  The workloads are described in ``workloads.py``.

--trace 0  measures the end-to-end metrics.  ``setup_s`` is the median of
           five fresh interpreters, each importing ``crossbound.cli`` and
           building the workload's inputs.  ``peak_rss_mb`` is the peak
           resident set of the last of them after one single-threaded pass
           (a fresh process, so it does not depend on earlier passes).  Then
           one checked warm-up pass, and passes for S seconds, each after a
           run of a fixed pure-Python calibration kernel.  ``wall_ref_s`` is
           the summed pass time over the summed kernel time, times the
           kernel's median time on the reference host: the mean pass time
           at that host's median speed.  Shared hosts drift by 20-30% in
           interpreter speed over seconds; the ratio drifts far less.
           ``throughput_ref_per_s`` is the paths (or evaluator calls) of a
           pass over ``wall_ref_s``.  The record keeps the raw pass times,
           the raw mean ``wall_s`` and every kernel time.
--trace 1  measures the per-layer metrics: untraced passes with the pool
           threads for S/3 seconds, then untraced and traced passes with one
           thread, alternating, for the rest (one thread, so spans nest on
           one thread).  ``trace.overhead_s`` is the traced minus the
           untraced median.  Spans go to ``.bench_out/spans-<workload>.tsv.gz``.

Every pass is checked: against the run's first pass, against the recorded
reference on the default and held-out seeds, and against the workload's
invariants.  Lines before the result are a readable summary and a
``record:`` line with the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 5
MIN_PASSES = 3
# Median seconds of calibration_kernel() on the reference host (2 vCPUs of an
# Intel Xeon under KVM, Python 3.11.7), over 901 runs; the bounds in
# BENCHMARK.json were set there.
CALIBRATION_REF_S = 0.017
# Pool threads for the simulation workloads: at most two, never above nproc.
THREADS = min(2, os.cpu_count() or 1)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply path counts and grid size (smoke tests); "
                         "the reference is checked at 1 only")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--rss-pass", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="record every workload's outputs on its default and "
                         "held-out seeds into reference.json, then exit")
    return ap.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Checked:
    """Runs passes of one workload and checks every one."""

    def __init__(self, wl):
        self.wl = wl
        self.reference = wl.reference()
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.outputs = None

    def one_pass(self, threads: int) -> float:
        gc.collect()
        t0 = time.perf_counter()
        out = self.wl.run_pass(threads)
        elapsed = time.perf_counter() - t0
        plain = self.wl.plain(out)
        msgs = self.wl.check_rows(out)
        if self.first is None:
            self.first = plain
        elif plain != self.first:
            msgs.append("outputs differ from the first pass of the run")
        if self.reference is not None:
            msgs += self.wl.compare(plain, self.reference)
        n = self.wl.checks(out)
        self.attempted += n
        self.failed += min(n, len(msgs))
        self.messages += msgs
        self.outputs = out
        return elapsed

    def measure(self, threads: int, seconds: float, min_passes: int,
                kernels=None) -> list:
        """Pass times for at least `seconds`; with a `kernels` list, the
        calibration kernel is timed into it before every pass."""
        times = []
        start = time.perf_counter()
        while len(times) < min_passes or time.perf_counter() - start < seconds:
            if kernels is not None:
                kernels.append(calibration_kernel())
            times.append(self.one_pass(threads))
        return times


def calibration_kernel() -> float:
    """Seconds for a fixed pure-Python loop that calls no crossbound code:
    the interpreter speed the shared host gives this process right now."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(80_000):
        x = i * 0.5
        acc += abs(x - 3.0) if i & 1 else x / (1.0 + i)
        table[i & 255] = acc
    return time.perf_counter() - t0


@contextlib.contextmanager
def workdir():
    """A directory for the CLI's report files, removed afterwards."""
    path = OUT_DIR / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_probe(args) -> int:
    t0 = time.perf_counter()
    import workloads
    with workdir() as wd:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, wd)
        out = {"setup_s": time.perf_counter() - t0}
        if args.rss_pass:
            wl.run_pass(1)
            out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0


def measure_setup(args) -> tuple:
    """Set-up seconds of SETUP_RUNS fresh interpreters; the last one then
    runs one single-threaded pass and reports its peak RSS (with two
    threads the peak depends on how the workers' allocations overlap)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", repr(args.scale)]
    times = []
    for i in range(SETUP_RUNS):
        proc = subprocess.run(cmd + ["--rss-pass"] * (i == SETUP_RUNS - 1),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=170, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["setup_s"])
    return times, probe["peak_rss_mb"]


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def end_to_end(args, run, setup, rss) -> tuple:
    wl = run.wl
    kernels = []
    times = run.measure(THREADS, args.seconds, MIN_PASSES, kernels)
    wall = sum(times) / len(times)
    # Pass time over calibration-kernel time, summed over the run: the host's
    # interpreter speed drifts by 20-30% over seconds, the ratio much less.
    wall_ref = CALIBRATION_REF_S * sum(times) / sum(kernels)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref_s": (wall_ref, "s"),
        "throughput_ref_per_s": (wl.units() / wall_ref, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    rate = "paths_per_s" if wl.simulates else "evals_per_s"
    summary = {
        "setup_s": statistics.median(setup), "wall_s": wall,
        rate: wl.units() / wall, "peak_rss_mb": rss,
        "error_rate": run.failed / run.attempted,
        "wall_ref_s": wall_ref, "throughput_ref_per_s": wl.units() / wall_ref,
        "setup_samples": setup, "pass_samples": times,
        "pass_quartiles": quartiles(times), "kernel_samples": kernels,
    }
    if not wl.simulates:
        lat = [x for per_pass in wl.latencies[-len(times):] for x in per_pass]
        summary["eval_us_p50"] = 1e6 * statistics.median(lat)
        summary["eval_us_p99"] = 1e6 * percentile(lat, 99)
        summary["eval_samples"] = len(lat)
    return metrics, summary


def per_layer(args, run) -> tuple:
    import tracing
    wl = run.wl
    pooled = (run.measure(THREADS, args.seconds / 3, 2) if wl.simulates
              else [])
    # Untraced and traced passes alternate, so drift hits both alike.
    tracer = tracing.Tracer()
    single, traced = [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds - sum(
            pooled):
        single.append(run.one_pass(1))
        with tracing.traced(tracer, wl):
            traced.append(run.one_pass(1))
    values = tracing.layer_metrics(tracer.spans, len(traced))
    values.update(wl.layer_counts(run.outputs))
    values["presets.parallel_efficiency"] = (
        statistics.median(single) / (THREADS * statistics.median(pooled))
        if wl.simulates else 0.0)
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(single))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.tsv.gz")
    metrics = {name: (values.get(name, 0.0), unit)
               for name, unit in tracing.PER_LAYER_UNITS.items()}
    summary = {"pooled_wall_s": pooled, "single_thread_wall_s": single,
               "traced_wall_s": traced, "spans": len(tracer.spans)}
    return metrics, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "crossbound" / "__init__.py").is_file():
        print(f"error: no crossbound sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)
    import workloads
    if args.write_reference:
        with workdir() as wd:
            workloads.write_reference(wd, THREADS)
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = cls.default_seed
    if args.trace == 0:
        setup, rss = measure_setup(args)
    with workdir() as wd:
        wl = cls(args.seed, args.scale, wd)
        run = Checked(wl)
        run.one_pass(THREADS)                      # warm-up, checked
        inputs = wl.record(run.outputs)
        if args.trace == 0:
            metrics, summary = end_to_end(args, run, setup, rss)
        else:
            metrics, summary = per_layer(args, run)

    record = {
        "workload": wl.name, "seed": args.seed, "default_seed": cls.default_seed,
        "heldout_seed": cls.heldout_seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale, "threads": THREADS,
        **versions(), "inputs": inputs,
        "reference_checked": run.reference is not None,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.messages[:20], "summary": summary,
    }
    print(f"{wl.name} seed={args.seed} trace={args.trace} threads={THREADS} "
          f"checks={run.attempted} failed={run.failed}"
          f"{' (reference checked)' if run.reference is not None else ''}")
    for msg in run.messages[:20]:
        print(f"  FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    for name in ("wall_s", "paths_per_s", "evals_per_s", "eval_us_p50",
                 "eval_us_p99", "error_rate"):
        if name in summary:
            print(f"  {name:42s} {summary[name]:14.6g}")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
