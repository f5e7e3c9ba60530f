"""Tests for the self-verification harness itself."""

import math
from time import perf_counter

import numpy as np
import pytest

from cmspaces import verify
from cmspaces.errors import SearchExhaustedError
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
    original, calls = verify.pair_fingerprint, []

    def counting(p, length=None):
        calls.append(p)
        return original(p, length)

    monkeypatch.setattr(verify, "pair_fingerprint", counting)
    cfg = RunConfig(n_values=(1, 2), seed=3)
    verify._check_trotter_rate(cfg)
    verify._check_bracket_limit(cfg)
    # 10 base points per check: one target, then one flow per step count
    assert len(calls) == 10 * (2 + len(verify.TROTTER_STEPS) + len(verify.BRACKET_STEPS))


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


def test_grouped_seeded_points_are_the_one_point_draws():
    cfg = RunConfig(seed=4)
    points = verify._seeded_points(cfg, "mom", [1 + i % 5 for i in range(12)])
    for i, r in enumerate(points):
        want = verify.random_point(1 + i % 5, 2, cfg.tau, verify._seed(cfg, "mom", i))
        assert all(np.array_equal(getattr(r, f), getattr(want, f)) for f in "ABvw")


def test_lapack_calls_of_one_verify_pass(monkeypatch):
    # per routine, one default pass at seed 1: eig and its inverse for each
    # normalization and the eig checks, eigvals for the untracked reads,
    # svd for random_gauge's condition bound and the ranks; the chart
    # Jacobian, the induced fields and the gauge checks make none.  The
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
    assert counts == {"eig": 115, "eigvals": 15, "inv": 140, "svd": 45, "solve": 5, "lstsq": 0}
