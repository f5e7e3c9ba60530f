"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/collect.py --workloads verify_all,chart_large \
        --seeds 1-10 [--seconds S] [--trace 0|1] [--out perfbench/baseline/NAME.json]

Runs `run.py` once per (workload, seed), one run at a time, and prints per
workload and metric the median and the quartile spread (Q3 - Q1) / median
of the values, with quartiles from statistics.quantiles(values, n=4).
--seconds defaults to run_seconds from BENCHMARK.json.  With --out, writes
every run's result line and stderr (raw wall times, traced inclusive
times), the summary and the recorded environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["env"], proc.stderr


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result, env, log = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "result": result, "stderr": log.splitlines()})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = summarize([r["result"] for r in runs])
        record["env"] = env
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            limit = f" (bound {bound}, a third is {bound / 3:.4f})" if bound else ""
            print(f"  {workload:13s} {name:36s} median {s['median']:.6g}  spread {spread}{limit}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
