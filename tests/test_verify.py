"""Tests for the self-verification harness itself."""

import math
from time import perf_counter

import numpy as np
import pytest

from cmspaces import verify
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
    from cmspaces.verify import _SUITE_RUNNERS

    cfg = RunConfig(n_values=(1,), trials=1)
    declared = sorted(name for suite in SUITE_NAMES for check in _SUITE_RUNNERS[suite](cfg)
                      for name in getattr(check, "func", check).records)
    assert declared == [rec["name"] for rec in run(cfg)["records"]]


def test_a_non_finite_sample_fails_its_check_wherever_it_sits():
    # max(0.0, nan) is 0.0: a running max would have passed this at residual 0
    for samples in ([0.0, math.nan], [math.nan, 0.0], [1.0, math.inf, 2.0]):
        assert not math.isfinite(verify._fold(samples))
    assert verify._fold([3.0, -math.inf, 1.0]) == -math.inf
    assert verify._fold([3.0, math.inf, 1.0], min) == math.inf
    assert verify._fold([3, 1, 2], min) == 1.0
    rec = verify._finish("x.y", "law", math.nan, 1.0, perf_counter(), "note")
    assert (rec.status, rec.residual) == ("fail", None)
    assert rec.note.startswith("non-finite residual (nan)") and rec.note.endswith("note")
    margin = verify._finish("x.y", "law", 1e-3 - math.inf, 0.0, perf_counter())
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
    # eigvals calls in the Jacobian sweep and 80 eigvals in the gap sweep
    counts = _count_eigensolver_calls(monkeypatch)
    assert verify._check_jacobian_rank(RunConfig()).status == "pass"
    assert counts["eig"] <= 5 and counts["eigvals"] <= 5
    counts.update(eig=0, eigvals=0)
    assert verify._check_gap_term_invariance(RunConfig()).status == "pass"
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
    assert verify._check_level_condition(RunConfig()).status == "pass"
    assert calls == {"random_point": 0, "random_points": 12}  # n = 1..6, k = 1, 2
    calls.update(random_points=0)
    assert verify._check_round_trip_pair(RunConfig()).status == "pass"
    assert calls == {"random_point": 0, "random_points": 5}  # n = 1..5
