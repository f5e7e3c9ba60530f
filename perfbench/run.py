"""Closed-loop benchmark of cmspaces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src and nowhere else.  One client in one process runs the workload's
operations back to back, each waiting for the previous one, for S
seconds, and checks every output against the package's own contract.

--trace 0 reports the end-to-end metrics; --trace 1 runs half the time
untraced and half traced (see tracer.py) and reports the per-layer
metrics, writing the spans to .bench_out/.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it records the machine and library versions.  Metric names and
units must match BENCHMARK.json, or the run fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify_all", "chart_large", "flow_compose")
# extra set-ups in fresh processes, half before and half after the measured
# ops so that they meet more of the host's load; setup_s is the median
SETUP_PROBES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup(workload: str, seed: int):
    """Import the package from ./src, build the inputs and warm up.

    Returns (workload object, (own seconds, reference seconds)).
    """
    t0 = perf_counter()
    package = SRC / "cmspaces"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {package}")
    import refclock  # loads numpy, which the reference kernel needs

    with refclock.ReferenceClock("small") as clock:
        sys.path.insert(0, str(SRC))
        import cmspaces

        if Path(cmspaces.__file__).resolve().parent != package.resolve():
            raise SystemExit(f"error: imported cmspaces from {cmspaces.__file__}, not {package}")
        import workloads

        wl = workloads.BUILDERS[workload](seed)
    return wl, clock.measure(t0, perf_counter())


def probe_setups(workload: str, seed: int, count: int) -> list:
    """(own, reference) set-up seconds of fresh interpreter processes, one at a time."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


def measure(wl, seconds: float, seed: int, failures: list, tracer=None, first: int = 0):
    """Run ops first, first+1, ... until `seconds` pass; returns each op's (start, end).

    Under a tracer the loop also ends on a whole cycle of the input pool,
    so every input is traced equally often.
    """
    spans = []
    i = first
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            reason = wl.op(i)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            reason = f"{type(exc).__name__}: {exc}"
        spans.append((t0, perf_counter()))
        if reason:
            failures.append(i)
            print(f"FAIL workload={wl.name} op={i} seed={seed}: {reason}", file=sys.stderr)
        i += 1
        if perf_counter() >= deadline and (tracer is None or (i - first) % wl.pool == 0):
            return spans


def p90(times) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def end_to_end(wl, args, first_setup, failures) -> tuple:
    import refclock

    setups = [first_setup] + probe_setups(wl.name, args.seed, SETUP_PROBES // 2)
    with refclock.ReferenceClock(wl.reference) as clock:
        spans = measure(wl, args.seconds, args.seed, failures)
    setups += probe_setups(wl.name, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    own, ref = zip(*(clock.measure(a, b) for a, b in spans))
    print(f"{wl.name}: {len(spans)} ops, {clock.samples()} reference samples; wall "
          f"p50 {statistics.median(own) * 1e3:.3f} ms, p90 {p90(own) * 1e3:.3f} ms, "
          f"{len(own) / sum(own):.4g} ops/s, set-up {statistics.median(s[0] for s in setups):.4f} s",
          file=sys.stderr)
    metrics = {
        "op_p50_refms": (statistics.median(ref) * 1e3, "refms"),
        "op_p90_refms": (p90(ref) * 1e3, "refms"),
        "ops_per_refs": (len(ref) / sum(ref), "1/refs"),
        "setup_s": (statistics.median(s[1] for s in setups), "s"),
    }
    return metrics, len(spans)


def per_layer(wl, args, failures, env) -> tuple:
    import tracer as tracing
    import workloads

    untraced = [b - a for a, b in measure(wl, args.seconds / 2, args.seed, failures)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [b - a for a, b in measure(wl, args.seconds / 2, args.seed, failures,
                                            tracer, first=len(untraced))]
    finally:
        tracer.uninstall()
    ops = range(len(untraced), len(untraced) + len(traced))
    attempted = len(untraced) + len(traced)

    metrics = tracer.per_op_metrics(ops)
    base = statistics.median(untraced)
    metrics["trace_overhead_share"] = ((statistics.median(traced) - base) / base, "ratio")
    if wl.verify_seed is not None:
        suite_ms, failing = workloads.time_suites(wl.verify_seed, tracing.VERIFY_SUITES)
        attempted += len(suite_ms)
        for name in failing:
            failures.append(name)
            print(f"FAIL workload={wl.name} op=suite:{name} seed={args.seed}", file=sys.stderr)
    else:
        suite_ms = dict.fromkeys(tracing.VERIFY_SUITES, 0.0)
    for name, ms in suite_ms.items():
        metrics[f"verify.{name}.ms"] = (ms, "ms")

    print(f"{wl.name}: {len(untraced)} untraced, {len(traced)} traced ops; "
          "inclusive ms per traced op:", file=sys.stderr)
    for name, ms in sorted(tracer.inclusive_ms(ops).items(), key=lambda kv: -kv[1]):
        print(f"  {name:34s} {ms:12.3f}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace_{wl.name}.json.gz",
                {"workload": wl.name, "seed": args.seed, "ops": list(ops), "env": env})
    return metrics, attempted


def blas_threads() -> dict:
    """OpenBLAS pool size of each loaded copy (numpy's and scipy's)."""
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[mod.__name__] = fn()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def check_names(metrics: dict, trace: int) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        raise SystemExit(f"error: metrics {sorted(set(got) ^ set(want))} disagree with "
                         "BENCHMARK.json in name or unit")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the seconds taken and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads OpenBLAS
        os.environ[var] = "1"
    wl, setup_time = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(setup_time))
        return 0
    env = environment()
    failures = []
    if args.trace:
        metrics, attempted = per_layer(wl, args, failures, env)
    else:
        metrics, attempted = end_to_end(wl, args, setup_time, failures)
    check_names(metrics, args.trace)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
