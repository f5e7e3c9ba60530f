"""Command-line front end.

Subcommands: gen (seeded on-level points), normalize (bordered normal
form plus regularity report), chart (coordinates both directions), flow
(one-parameter subgroup applied to a seeded chart point), verify (the
self-check suites).  JSON goes to stdout, a short human summary to
stderr.  Exit codes: 0 success, 1 a verify check failed, 2 malformed
input or an input too large to allocate, 3 an internal numerical failure
(the failing operation is named).

Everything random is seeded explicitly; identical invocations print
identical bytes (runtimes in verify reports aside).
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

from .canonical import normalize, regularity_report
from .chart import ChartPoint, from_chart, random_chart_point, to_chart, to_chart_tracked
from .errors import BranchAmbiguityError, CMSpacesError
from .flowcalc import flow_exact
from .jsonio import decode, dumps, encode, encode_cmatrix
from .linalg import DEFAULT_TOL, pair_scale
from .variety import (
    AugmentedPair,
    Representation,
    augment,
    level_deviation,
    level_residual,
    random_point,
)
from .verify import RunConfig, run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3

_FLOW_MAX_STEPS = 1024   # the finest continuation of a flow read


def _parse_tau(text: str) -> complex:
    """Parse 're' or 're,im' into a finite, nonzero level parameter."""
    parts = text.split(",")
    try:
        tau = complex(*map(float, parts)) if len(parts) <= 2 else None
    except ValueError:
        tau = None
    if tau is None:
        raise argparse.ArgumentTypeError(f"tau must be 're' or 're,im', got {text!r}")
    if not (cmath.isfinite(tau) and tau != 0):
        raise argparse.ArgumentTypeError(f"tau must be finite and nonzero, got {text!r}")
    return tau


def _parse_n_range(text: str) -> tuple:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = tuple(range(int(lo), int(hi) + 1))
        elif "," in text:
            values = tuple(int(p) for p in text.split(","))
        else:
            values = (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"sizes must be positive, got {text!r}")
    return values


def _number(text: str, kind, ok, rule: str):
    """kind(text), for kind int or float, if ok holds of it; else the rule, as a parse error."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not ok(value):
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _number(text, int, lambda v: v >= 1, "must be a positive integer")


def _seed_value(text: str) -> int:
    """An RNG seed: numpy's generators take non-negative integers only."""
    return _number(text, int, lambda v: v >= 0, "must be a non-negative integer")


def _finite_float(text: str) -> float:
    return _number(text, float, cmath.isfinite, "must be a finite number")


def _tolerance(text: str) -> float:
    """Parse a tolerance: a positive, finite number (rejects 0, negatives, nan, inf)."""
    return _number(text, float, lambda v: 0.0 < v < float("inf"),
                   "tolerance must be a positive, finite number")


def _read_stdin():
    """The value encoded on stdin; ValueError (exit 2) for anything that does not decode.

    A payload of the right JSON types can still be no valid value (matrices
    of mismatched shapes, a NaN literal); the type's own check raises a
    CMSpacesError there, which is bad input as well.
    """
    text = sys.stdin.read()
    try:
        return decode(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"stdin is not valid JSON: {exc}")
    except CMSpacesError as exc:
        raise ValueError(f"stdin holds no valid value: {type(exc).__name__}: {exc}")


def _as_pair(obj) -> AugmentedPair:
    if isinstance(obj, AugmentedPair):
        return obj
    if isinstance(obj, Representation):
        return augment(obj)
    raise ValueError(f"expected a pair or a quadruple, got {type(obj).__name__}")


def _emit(payload: dict, out_path=None) -> None:
    text = dumps(payload)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_gen(args) -> int:
    r = random_point(args.n, args.k, args.tau, args.seed)
    _emit(encode(r), args.out)
    print(
        f"gen: n={args.n} k={args.k} seed={args.seed} "
        f"level residual {level_residual(r) / pair_scale(r.A, r.B):.3e} (relative)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_normalize(args) -> int:
    obj = _read_stdin()
    p = _as_pair(obj)
    nf, gauge = normalize(p, args.tol)
    report = regularity_report(nf, args.tol)
    payload = {
        "kind": "normalized",
        "pair": encode(nf),
        "gauge": encode_cmatrix(gauge.g),
        "regularity": report.to_dict(),
    }
    _emit(payload, args.out)
    print(
        f"normalize: n={nf.n} regular={report.in_regular_locus} "
        f"strongly_semisimple={report.strongly_semisimple}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_chart(args) -> int:
    obj = _read_stdin()
    if args.invert:
        if not isinstance(obj, ChartPoint):
            raise ValueError(
                f"--invert expects chart-point JSON, got {type(obj).__name__}"
            )
        p = from_chart(obj, args.tol)
        _emit(encode(p), args.out)
        print(
            f"chart --invert: rebuilt pair, level deviation "
            f"{level_deviation(p) / pair_scale(p.A, p.B):.3e} (relative)",
            file=sys.stderr,
        )
        return EXIT_OK
    c = to_chart(_as_pair(obj), args.tol)
    _emit(encode(c), args.out)
    print(f"chart: n={c.n}, 4n+2={4 * c.n + 2} coordinates", file=sys.stderr)
    return EXIT_OK


def _flowed_chart(kind: str, t: float, p: AugmentedPair, before: ChartPoint, tol: float):
    """The chart read of flow_exact(kind, t, p), continued along the flow from before.

    The flowed pairs at the times t i/k, i = 1..k, are read in turn, each
    tracked against the read of the step before, from k = 1 (one tracked
    read).  When a step's branch is ambiguous, k doubles, up to
    _FLOW_MAX_STEPS; past that the error is raised.
    """
    k = 1
    while True:
        try:
            c = before
            for i in range(1, k + 1):
                c = to_chart_tracked(flow_exact(kind, t * (i / k), p), c, tol)
            return c
        except BranchAmbiguityError:
            if k >= _FLOW_MAX_STEPS:
                raise
            k *= 2


def cmd_flow(args) -> int:
    before = random_chart_point(args.n, args.tau, args.seed)
    p = from_chart(before, args.tol)
    q = flow_exact(args.generator, args.t, p)
    after = _flowed_chart(args.generator, args.t, p, before, args.tol)
    payload = {
        "kind": "flow_result",
        "generator": args.generator,
        "t": args.t,
        "before": encode(before),
        "after": encode(after),
        "residuals": {
            "level_before": level_deviation(p) / pair_scale(p.A, p.B),
            "level_after": level_deviation(q) / pair_scale(q.A, q.B),
        },
    }
    _emit(payload, args.out)
    print(
        f"flow: generator={args.generator} t={args.t} "
        f"level deviation after {level_deviation(q) / pair_scale(q.A, q.B):.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = []
    for chunk in args.suite:
        suites.extend(s.strip() for s in chunk.split(",") if s.strip())
    cfg = RunConfig(
        n_values=args.n,
        tau=args.tau,
        seed=args.seed,
        tol=args.tol,
        trials=args.trials,
        suites=tuple(suites) if suites else ("all",),
    )
    report = run(cfg)
    _emit(report, args.out)
    summary = report["summary"]
    print(
        f"verify: {summary['passed']}/{summary['total']} passed, "
        f"{summary['failed']} failed, {summary['errors']} errors, "
        f"{summary['skipped']} skipped",
        file=sys.stderr,
    )
    for rec in report["records"]:
        if rec["status"] == "skipped":
            print(f"  SKIPPED {rec['name']}: no sample in the requested sizes",
                  file=sys.stderr)
        elif rec["status"] != "pass":
            residual = "n/a" if rec["residual"] is None else f"{rec['residual']:.3e}"
            print(
                f"  {rec['status'].upper()} {rec['name']}: residual "
                f"{residual} vs threshold {rec['threshold']:.3e}",
                file=sys.stderr,
            )
    if summary["errors"]:
        return EXIT_NUMERICAL
    if summary["failed"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmspaces",
        description="Matrix models, spectral charts, and flow checks for "
                    "generalized Calogero-Moser phase spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tau", type=_parse_tau, default=complex(1.0),
                       help="level parameter as 're' or 're,im'")
        p.add_argument("--seed", type=_seed_value, default=1, help="RNG seed")
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                       help="numerical tolerance")
        p.add_argument("--out", help="also write the JSON payload to this file")

    g = sub.add_parser("gen", help="seeded point on the level set")
    g.add_argument("--n", type=_positive_int, default=3, help="matrix size")
    common(g)
    g.add_argument("--k", type=int, choices=(1, 2), default=2, help="inner rank")
    g.set_defaults(func=cmd_gen)

    nrm = sub.add_parser("normalize", help="bordered normal form of stdin JSON")
    common(nrm)
    nrm.set_defaults(func=cmd_normalize)

    ch = sub.add_parser("chart", help="chart coordinates of stdin JSON")
    common(ch)
    ch.add_argument("--invert", action="store_true",
                    help="rebuild the pair from chart-point JSON instead")
    ch.set_defaults(func=cmd_chart)

    fl = sub.add_parser("flow", help="one-parameter subgroup applied to a seeded point")
    fl.add_argument("--n", type=_positive_int, default=3, help="matrix size")
    common(fl)
    fl.add_argument("--generator", choices=("e", "f", "h"), required=True,
                    help="lower shear, upper shear, or scaling")
    fl.add_argument("--t", type=_finite_float, default=0.1, help="flow time")
    fl.set_defaults(func=cmd_flow)

    vf = sub.add_parser("verify", help="run self-check suites")
    vf.add_argument("--suite", action="append", default=[],
                    help="suite name or comma list (default: all)")
    vf.add_argument("--n", type=_parse_n_range, default=None,
                    help="sizes to sweep, e.g. 3 or 1..4 or 2,4")
    vf.add_argument("--trials", type=_positive_int, default=None,
                    help="override per-check trial counts")
    common(vf)
    vf.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError as exc:
        print(f"input error: {args.command} needs more memory than is available "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_BAD_INPUT
    except CMSpacesError as exc:
        print(f"numerical failure in {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
