"""Tests for the self-verification harness itself."""

import math
from time import perf_counter

import numpy as np
import pytest

from cmspaces import sl2, verify
from cmspaces.errors import (
    DegenerateSpectrumError,
    NonConvergentError,
    SearchExhaustedError,
    ZeroRowEntryError,
)
from cmspaces.verify import SCHEMA_VERSION, SUITE_NAMES, RunConfig, expand_suites, run


def test_expand_suites_handles_all_and_rejects_unknown():
    assert expand_suites(("all",)) == list(SUITE_NAMES)
    assert expand_suites(("linalg", "chart")) == ["linalg", "chart"]
    with pytest.raises(ValueError):
        expand_suites(("nope",))


def test_single_suite_report_shape():
    report = run(RunConfig(suites=("linalg",), seed=3))
    assert report["schema"] == SCHEMA_VERSION
    names = [rec["name"] for rec in report["records"]]
    assert names == sorted(names)
    assert all(name.startswith("linalg.") for name in names)
    summary = report["summary"]
    assert summary["total"] == len(names)
    assert summary["failed"] == 0 and summary["errors"] == 0
    for rec in report["records"]:
        assert rec["status"] == "pass"
        assert rec["runtime_ms"] >= 0.0


def test_reports_are_seed_deterministic():
    a = run(RunConfig(suites=("variety",), seed=5))
    b = run(RunConfig(suites=("variety",), seed=5))
    ra = [(r["name"], r["residual"]) for r in a["records"]]
    rb = [(r["name"], r["residual"]) for r in b["records"]]
    assert ra == rb


@pytest.mark.parametrize("suite", ["sl2", "flowcalc"])
def test_record_runtimes_do_not_double_count(suite):
    # the records that share work charge it to the first of them only
    t0 = perf_counter()
    report = run(RunConfig(suites=(suite,), seed=2))
    wall_ms = (perf_counter() - t0) * 1000.0
    assert sum(rec["runtime_ms"] for rec in report["records"]) <= wall_ms


def test_every_check_declares_the_records_it_returns():
    # run() names the error records of a raising check after these
    cfg = RunConfig(n_values=(1,), trials=1)
    names = [name for check in verify._CHECKS for name, _, _ in check.records]
    assert sorted(names) == [rec["name"] for rec in run(cfg)["records"]]
    assert len(set(names)) == len(names)
    assert SUITE_NAMES == ("linalg", "variety", "canonical", "chart", "sl2", "flowcalc", "quiver")
    for check in verify._CHECKS:
        assert all(name.startswith(check.suite + ".") for name, _, _ in check.records)


def test_a_non_finite_sample_fails_its_check_wherever_it_sits():
    # max(0.0, nan) is 0.0: a running max would have passed this at residual 0
    for samples in ([0.0, math.nan], [math.nan, 0.0], [1.0, math.inf, 2.0]):
        assert not math.isfinite(verify._fold(samples))
    assert verify._fold([3.0, -math.inf, 1.0]) == -math.inf
    assert verify._fold([3.0, math.inf, 1.0], min) == math.inf
    assert verify._fold([3, 1, 2], min) == 1.0
    rec = verify._record(("x.y", "law", 1.0), verify._Measured(math.nan, "note"), 0.0)
    assert (rec.status, rec.residual) == ("fail", None)
    assert rec.note.startswith("non-finite residual (nan)") and rec.note.endswith("note")
    margin = verify._record(("x.y", "law", 0.0), verify._Measured(1e-3 - math.inf), 0.0)
    assert (margin.status, margin.residual) == ("fail", None)


def test_flow_checks_fingerprint_each_target_once(monkeypatch):
    # one fingerprint stack per base point: the target, then one flow per step count
    original, stacks = verify.pair_fingerprints, []

    def counting(A, B, length=None):
        stacks.append(A.shape[0])
        return original(A, B, length)

    monkeypatch.setattr(verify, "pair_fingerprints", counting)
    cfg = RunConfig(n_values=(1, 2), seed=3)
    verify._check_trotter_rate(cfg)
    verify._check_bracket_limit(cfg)
    # 10 base points per check
    assert stacks == [1 + len(verify.TROTTER_STEPS)] * 10 + [1 + len(verify.BRACKET_STEPS)] * 10


def _status(check):
    (rec,) = verify._run_check(check, RunConfig())
    return rec.status


def _count_eigensolver_calls(monkeypatch):
    counts = {"eig": 0, "eigvals": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_chart_sweeps_make_one_eigensolver_call_per_size(monkeypatch):
    # one stack per size n: the per-trial loops made 100 eig and 100
    # eigvals calls in the Jacobian sweep and 80 eigvals in the gap sweep;
    # the perturbed points are normal forms, so the sweep needs no eig
    counts = _count_eigensolver_calls(monkeypatch)
    assert _status(verify._check_jacobian_rank) == "pass"
    assert counts["eig"] == 0 and counts["eigvals"] <= 5
    counts.update(eig=0, eigvals=0)
    assert _status(verify._check_gap_term_invariance) == "pass"
    assert counts["eigvals"] <= 4


def test_seeded_sweeps_draw_one_stack_per_size(monkeypatch):
    # the level and pair sweeps used to draw 600 and 100 points one seed at a time
    calls = {"random_point": 0, "random_points": 0}
    for name in calls:
        original = getattr(verify, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    assert _status(verify._check_level_condition) == "pass"
    assert calls == {"random_point": 0, "random_points": 12}  # n = 1..6, k = 1, 2
    calls.update(random_points=0)
    assert _status(verify._check_round_trip_pair) == "pass"
    assert calls == {"random_point": 0, "random_points": 5}  # n = 1..5


_POINT_RECORDS = (
    "sl2.independence_rank", "sl2.independence_ratio_margin",
    "sl2.lower_shear_field_match", "sl2.lower_shear_invariance",
    "sl2.trace_component_match", "sl2.slice_tangency",
)


def test_the_sl2_independence_search_runs_once_per_run(monkeypatch):
    # four checks share the points; nothing is kept from one run to the next
    original, calls = verify.find_independence_point, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "find_independence_point", counting)
    cfg = RunConfig(suites=("sl2",), n_values=(1, 2, 3), seed=2)
    run(cfg)
    assert len(calls) == 3
    run(cfg)
    assert len(calls) == 6


def test_a_raising_independence_search_errors_every_check_that_needs_the_points(monkeypatch):
    calls = []

    def boom(*args, **kwargs):
        calls.append(args)
        raise SearchExhaustedError("no point")

    monkeypatch.setattr(verify, "find_independence_point", boom)
    records = {rec["name"]: rec for rec in run(RunConfig(suites=("sl2",), seed=7))["records"]}
    assert len(calls) == 1     # the failed search is not run again for each check
    errored = sorted(name for name, rec in records.items() if rec["status"] == "error")
    assert errored == sorted(_POINT_RECORDS)
    for name in _POINT_RECORDS:
        rec = records.pop(name)
        assert rec["residual"] is None and rec["note"].startswith("SearchExhaustedError at seed 7")
    assert records and all(rec["status"] == "pass" for rec in records.values())


def test_the_sl2_point_checks_read_each_point_once(monkeypatch):
    # one read of the three fields per point, shared by the four checks:
    # 5 reads at n = 1..5, where each check read its own used to make 20
    original, calls = sl2._fields, []

    def counting(gens, *args, **kwargs):
        calls.append(len(gens))
        return original(gens, *args, **kwargs)

    monkeypatch.setattr(sl2, "_fields", counting)
    report = run(RunConfig(suites=("sl2",), seed=1))
    assert report["summary"]["passed"] == report["summary"]["total"]
    assert calls == [3] * 5


def test_a_raising_shared_read_errors_every_check_that_reads_it(monkeypatch):
    # the read of a point's pair fails once; each check that reads it records that error
    find, read = verify.find_independence_point, verify.from_chart
    points, reads = set(), []

    def finding(*args, **kwargs):
        c = find(*args, **kwargs)
        points.add(id(c))
        return c

    def failing_read(c, *args, **kwargs):
        if id(c) in points:
            reads.append(c.n)
            raise NonConvergentError("no pair")
        return read(c, *args, **kwargs)

    monkeypatch.setattr(verify, "find_independence_point", finding)
    monkeypatch.setattr(verify, "from_chart", failing_read)
    records = {rec["name"]: rec for rec in run(RunConfig(suites=("sl2",), seed=7))["records"]}
    assert reads == [1, 2, 3, 4, 5]     # once per point, not once per check
    for name in _POINT_RECORDS:
        rec = records.pop(name)
        assert rec["status"] == "error" and rec["residual"] is None
        assert rec["note"] == "NonConvergentError at seed 7: no pair"
    assert records and all(rec["status"] == "pass" for rec in records.values())


def test_a_field_that_overflows_errors_only_the_checks_that_use_it():
    # at tau = 1e200 the upper-shear field overflows and the lower-shear
    # field does not: the shared read of all three raises, and each check
    # records what its own fields do, as when each read its own
    with np.errstate(all="ignore"):
        records = {rec["name"]: rec
                   for rec in run(RunConfig(suites=("sl2",), seed=1, tau=1e200))["records"]}
    overflow = "NonConvergentError at seed 1: chart tangent overflowed: it has a non-finite entry"
    for name in ("sl2.independence_rank", "sl2.independence_ratio_margin",
                 "sl2.trace_component_match"):
        assert (records[name]["status"], records[name]["note"]) == ("error", overflow)
    for name in ("sl2.lower_shear_field_match", "sl2.lower_shear_invariance",
                 "sl2.slice_tangency"):
        assert records[name]["status"] == "pass"


def test_stacked_trials_come_back_in_trial_order_with_the_first_trials_error():
    sizes = [1, 2, 1, 2, 3]
    calls = []

    def kernel(n, trials):
        calls.append((n, list(trials)))
        return [10 * i + n for i in trials]

    assert verify._per_size(sizes, kernel) == [1, 12, 21, 32, 43]
    assert calls == [(1, [0, 2]), (2, [1, 3]), (3, [4])]   # one call per size

    def failing(n, trials):
        # trial 3 fails alone with one class, trial 2 with another; a stack
        # raises the class its kernel checks first, whatever the trial order
        if 3 in trials:
            raise ZeroRowEntryError(f"trial 3 of {list(trials)}")
        if 2 in trials:
            raise DegenerateSpectrumError(f"trial 2 of {list(trials)}")
        return list(trials)

    for sizes in ([1, 2, 2, 2, 1],    # within one stack
                  [1, 1, 2, 1]):      # the stack of trial 3 is called first
        with pytest.raises(DegenerateSpectrumError, match=r"trial 2 of \[2\]$"):
            verify._per_size(sizes, failing)


def test_grouped_seeded_points_are_the_one_point_draws():
    cfg = RunConfig(seed=4)
    points = verify._seeded_points(cfg, "mom", [1 + i % 5 for i in range(12)])
    for i, r in enumerate(points):
        want = verify.random_point(1 + i % 5, 2, cfg.tau, verify._seed(cfg, "mom", i))
        assert all(np.array_equal(getattr(r, f), getattr(want, f)) for f in "ABvw")


def test_lapack_calls_of_one_verify_pass(monkeypatch):
    # per routine, one default pass at seed 1: eig and its inverse for each
    # normal_form stack (one per size: 5 in the pair round trip, 5 each in
    # the shape and equivalence checks, 10 in the idempotence check) and
    # for the 50 of the eig checks, 20 inv for the gauges random_gauge
    # draws, eigvals for the untracked reads, svd for random_gauge's
    # condition bound and the ranks; the chart Jacobian, the induced
    # fields, the splitting check and the gauge checks make none.  The
    # four pinv of the flow fits are cached for the process, so a pass
    # after the first makes none
    counts = dict.fromkeys(("eig", "eigvals", "inv", "svd", "solve", "lstsq", "pinv"), 0)
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    report = run(RunConfig(seed=1))
    assert report["summary"]["passed"] == report["summary"]["total"]
    pinv = counts.pop("pinv")
    assert pinv in (0, 4)
    assert counts == {"eig": 75, "eigvals": 15, "inv": 95, "svd": 45, "solve": 5, "lstsq": 0}
