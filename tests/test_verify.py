"""Tests for the self-verification harness itself."""

from time import perf_counter

import pytest

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
