"""The three benchmark workloads.

Each workload is built from the run seed alone: `build(seed)` draws the
inputs (the package only ever sees the generated data) and returns a
Workload whose `op(i)` runs operation i and returns None when the output
meets the package's own contract, or a one-line reason when it does not.
Package functions are looked up on their modules at call time, so a tracer
that swaps module bindings sees every call.

Why these three (the README has the full table):
  verify_all    the command users run to certify the paper; dominated by
                ~3,000 small (n <= 6) chart round trips, i.e. per-call
                overhead in linalg.eig, regularity_report and decompose.
  chart_large   to_chart + from_chart at n = 20, the large-n regime where
                the O(n^6) SVD in canonical.orbit_dimension dominates.
  flow_compose  Trotter and bracket ladders, nilpotency degree and trace
                witness at n = 8: sl2, flowcalc and the fingerprints, with
                no call into to_chart, decompose or canonical (the bypass).
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from cmspaces import chart, cli, flowcalc, sl2, variety, verify

VERIFY_RECORDS = 37

CHART_N = 20
FLOW_N = 8
POOL = 8  # distinct inputs per run; ops cycle through them

# the ladders verify's flowcalc suite runs
TROTTER_TIME, TROTTER_STEPS = verify.TROTTER_TIME, verify.TROTTER_STEPS
BRACKET_TIME, BRACKET_STEPS = verify.BRACKET_TIME, verify.BRACKET_STEPS


@dataclass
class Workload:
    name: str
    op: Callable[[int], str | None]
    pool: int = 1
    verify_seed: int | None = None
    reference: str = "small"  # refclock kernel whose work resembles the op's


def _pool_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _fp_error(p, q) -> float:
    """Relative trace-word distance of p from q (verify's flowcalc measure)."""
    fp0 = variety.pair_fingerprint(q)
    fp1 = variety.pair_fingerprint(p)
    return float(np.abs(fp1 - fp0).max() / max(1.0, np.abs(fp0).max()))


def _slope(xs, ys) -> float:
    """Least-squares slope, in plain arithmetic so the harness makes no LAPACK call."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


# ---------------------------------------------------------------------------
# verify_all


def run_verify(seed: int, suites=("all",)) -> str | None:
    """One `cmspaces verify` pass through the CLI entry point, in process."""
    argv = ["verify", "--suite", ",".join(suites), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        return f"exit code {code}: {err.getvalue().strip()}"
    records = json.loads(out.getvalue())["records"]
    bad = [r["name"] for r in records if r["status"] != "pass"]
    if bad:
        return "not passing: " + ", ".join(bad)
    if suites == ("all",) and len(records) != VERIFY_RECORDS:
        return f"{len(records)} records, expected {VERIFY_RECORDS}"
    return None


def time_suites(seed: int, names) -> tuple:
    """Wall ms of each named verify suite, each timed with its own run() call.

    Summing record runtimes instead would double-count the records that
    share one start time (sl2.independence_*, sl2.lower_shear_*,
    flowcalc.bracket_*).  Returns (ms by suite, names of failing suites).
    """
    ms, failing = {}, []
    for name in names:
        t0 = perf_counter()
        summary = verify.run(verify.RunConfig(suites=(name,), seed=seed))["summary"]
        ms[name] = (perf_counter() - t0) * 1e3
        if summary["passed"] != summary["total"]:
            failing.append(name)
    return ms, failing


def build_verify_all(seed: int) -> Workload:
    wl = Workload("verify_all", op=lambda i: run_verify(seed), verify_seed=seed)
    # warm-up: the cheap suites touch eig, normalize, flows and the fits
    reason = run_verify(seed, ("linalg", "canonical", "flowcalc"))
    if reason:
        raise RuntimeError(f"verify_all warm-up failed: {reason}")
    return wl


# ---------------------------------------------------------------------------
# chart_large


def build_chart_large(seed: int) -> Workload:
    inputs = []
    for s in _pool_seeds(seed, POOL):
        c = chart.random_chart_point(CHART_N, 1.0, s)
        g = variety.random_gauge(CHART_N, s ^ 0x5A5A5A5A)
        inputs.append((c, variety.gauge_act_pair(g, chart.from_chart(c))))

    def op(i: int) -> str | None:
        c, scrambled = inputs[i % POOL]
        got = chart.to_chart(scrambled)
        rebuilt = chart.from_chart(got)
        ref = c.vector()
        err = float(np.abs(got.vector() - ref).max() / max(1.0, np.abs(ref).max()))
        if not err <= 1e-8:
            return f"relative coordinate error {err:.3e} > 1e-8"
        if not variety.on_level(rebuilt):
            return "rebuilt pair is off the level set"
        return None

    wl = Workload("chart_large", op=op, pool=POOL, reference="svd")
    _warm_up(wl)
    return wl


# ---------------------------------------------------------------------------
# flow_compose


def _witness_pair(seed: int):
    """Seeded normal-form pair with |tr A| > 0.1, bumping the seed as verify does."""
    for bump in range(10):
        p = chart.from_chart(chart.random_chart_point(FLOW_N, 1.0, seed + 31 * bump))
        if abs(np.trace(p.A)) > 0.1:
            return p
    raise RuntimeError(f"no witness-ready pair near seed {seed}")


def build_flow_compose(seed: int) -> Workload:
    inputs = [_witness_pair(s) for s in _pool_seeds(seed, POOL)]
    E, F = sl2.GEN_E, sl2.GEN_F

    def op(i: int) -> str | None:
        p = inputs[i % POOL]
        target = flowcalc.trotter_target(E, F, TROTTER_TIME, p)
        errs = [max(_fp_error(flowcalc.trotter_flow(E, F, TROTTER_TIME, m, p), target), 1e-300)
                for m in TROTTER_STEPS]
        slope = -_slope([math.log(m) for m in TROTTER_STEPS], [math.log(e) for e in errs])
        target = flowcalc.bracket_target(E, F, BRACKET_TIME, p)
        final = [_fp_error(flowcalc.bracket_flow(E, F, BRACKET_TIME, m, p), target)
                 for m in BRACKET_STEPS][-1]
        degree = flowcalc.lnd_degree("e", "trace_second_sq", p)
        witness = flowcalc.compatible_witness(p)
        if not abs(slope - 1.0) <= 0.3:
            return f"Trotter slope {slope:.3f} not within 0.3 of 1"
        if not final <= 1e-3:
            return f"bracket error {final:.3e} > 1e-3"
        if degree != 2:
            return f"pullback degree {degree}, expected 2"
        if not witness.residual / witness.scale <= 1e-10:
            return f"witness residual {witness.residual / witness.scale:.3e} > 1e-10"
        return None

    wl = Workload("flow_compose", op=op, pool=POOL)
    _warm_up(wl)
    return wl


def _warm_up(wl: Workload) -> None:
    reason = wl.op(0)
    if reason:
        raise RuntimeError(f"{wl.name} warm-up failed: {reason}")


BUILDERS = {
    "verify_all": build_verify_all,
    "chart_large": build_chart_large,
    "flow_compose": build_flow_compose,
}
