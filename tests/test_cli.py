"""End-to-end tests of the command line interface."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from cmspaces.chart import from_chart, random_chart_point
from cmspaces.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK, main
from cmspaces.errors import SingularMatrixError
from cmspaces.jsonio import decode, dumps, encode
from cmspaces.variety import AugmentedPair


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict JSON readers do."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _run(capsys, monkeypatch, argv, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects flags by raising
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_is_byte_identical(capsys, monkeypatch):
    argv = ["gen", "--n", "3", "--k", "2", "--tau", "1,0", "--seed", "7"]
    code1, out1, _ = _run(capsys, monkeypatch, argv)
    code2, out2, _ = _run(capsys, monkeypatch, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["kind"] == "representation"


def test_chart_invert_round_trip(capsys, monkeypatch):
    code, quad_json, _ = _run(capsys, monkeypatch, ["gen", "--n", "3", "--seed", "5"])
    assert code == EXIT_OK
    code, chart_json, _ = _run(capsys, monkeypatch, ["chart"], stdin_text=quad_json)
    assert code == EXIT_OK
    code, pair_json, _ = _run(
        capsys, monkeypatch, ["chart", "--invert"], stdin_text=chart_json
    )
    assert code == EXIT_OK
    code, chart2_json, _ = _run(capsys, monkeypatch, ["chart"], stdin_text=pair_json)
    assert code == EXIT_OK
    c1 = decode(json.loads(chart_json))
    c2 = decode(json.loads(chart2_json))
    dev = np.abs(c1.vector() - c2.vector()).max()
    assert dev < 1e-8 * max(1.0, np.abs(c1.vector()).max())


def test_normalize_reports_gauge_and_regularity(capsys, monkeypatch):
    code, quad_json, _ = _run(capsys, monkeypatch, ["gen", "--n", "2", "--seed", "3"])
    code, out, _ = _run(capsys, monkeypatch, ["normalize"], stdin_text=quad_json)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert sorted(payload.keys()) == ["gauge", "kind", "pair", "regularity"]
    assert payload["regularity"]["gauge_regular"] is True
    pair = decode(payload["pair"])
    assert isinstance(pair, AugmentedPair)


def test_flow_reports_small_level_deviation(capsys, monkeypatch):
    code, out, _ = _run(
        capsys,
        monkeypatch,
        ["flow", "--generator", "e", "--t", "0.3", "--n", "2", "--seed", "4"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kind"] == "flow_result"
    assert payload["residuals"]["level_after"] < 1e-9


@pytest.mark.parametrize("generator", ["f", "h"])
@pytest.mark.parametrize("t", ["0.3", "1", "-1"])
def test_a_flow_read_is_continued_along_the_flow(capsys, monkeypatch, generator, t):
    # one tracked read at time t raised BranchAmbiguityError (exit 3) here
    code, out, err = _run(capsys, monkeypatch, ["flow", "--generator", generator, f"--t={t}"])
    assert code == EXIT_OK, err
    assert json.loads(out)["residuals"]["level_after"] < 1e-9


def test_verify_single_suite_passes(capsys, monkeypatch, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, err = _run(
        capsys,
        monkeypatch,
        ["verify", "--suite", "linalg", "--seed", "2", "--out", str(report_path)],
    )
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["schema"].startswith("cmspaces-report/")
    assert report["summary"]["failed"] == 0
    assert report["summary"]["errors"] == 0
    assert all(rec["name"].startswith("linalg.") for rec in report["records"])


def test_exit_codes_for_bad_input(capsys, monkeypatch):
    code, _, err = _run(capsys, monkeypatch, ["chart"], stdin_text='{"kind": "x"}')
    assert code == EXIT_BAD_INPUT
    code, _, _ = _run(capsys, monkeypatch, ["chart"], stdin_text="not json")
    assert code == EXIT_BAD_INPUT
    code, _, _ = _run(capsys, monkeypatch, ["gen", "--n", "0"])
    assert code == EXIT_BAD_INPUT
    code, _, _ = _run(capsys, monkeypatch, ["gen", "--k", "3"])
    assert code == EXIT_BAD_INPUT
    code, _, _ = _run(capsys, monkeypatch, ["verify", "--suite", "nonsense"])
    assert code == EXIT_BAD_INPUT
    # JSON values of the wrong type or length: not an object, a level that
    # is not an [re, im] pair
    pair = json.loads(dumps(encode(from_chart(random_chart_point(2, 1.0, 3)))))
    point = json.loads(dumps(encode(random_chart_point(2, 1.0, 3))))
    for data in ([1, 2], 5, {**pair, "level": 5}, {**pair, "level": [1]},
                 {**point, "level": None}):
        code, out, err = _run(capsys, monkeypatch, ["chart"], stdin_text=json.dumps(data))
        assert code == EXIT_BAD_INPUT, data
        assert out == "" and "input error" in err


@pytest.mark.parametrize("command", ["chart", "normalize"])
def test_valid_json_that_holds_no_valid_pair_is_bad_input(capsys, monkeypatch, command):
    # both raise ShapeMismatchError while decoding, which used to exit 3
    pair = json.loads(dumps(encode(from_chart(random_chart_point(2, 1.0, 3)))))
    nan_pair = json.loads(json.dumps(pair))
    nan_pair["first"][0][0] = [float("nan"), 0.0]
    for data in ({**pair, "second": pair["second"][:2]}, nan_pair):
        code, out, err = _run(capsys, monkeypatch, [command], stdin_text=json.dumps(data))
        assert code == EXIT_BAD_INPUT
        assert out == "" and "input error" in err and "ShapeMismatchError" in err


@pytest.mark.parametrize("suite", ["quiver", "variety"])
def test_verify_rejects_nonpositive_trials(capsys, monkeypatch, suite):
    # -1 used to crash the quiver suite and pass the variety suite on zero samples
    code, out, err = _run(capsys, monkeypatch,
                          ["verify", "--suite", suite, "--trials", "-1"])
    assert code == EXIT_BAD_INPUT
    assert out == "" and "--trials" in err


@pytest.mark.parametrize("suites, sizes, passed, skipped", [
    ("chart", "9", 2, 4),
    ("sl2,flowcalc", "7", 8, 10),
])
def test_verify_skips_checks_without_samples(capsys, monkeypatch, suites, sizes,
                                             passed, skipped):
    # sizes above a check's range leave it nothing to measure; it used to pass
    code, out, err = _run(capsys, monkeypatch,
                          ["verify", "--suite", suites, "--n", sizes])
    assert code == EXIT_OK
    report = _strict_json(out)
    summary = report["summary"]
    assert (summary["passed"], summary["skipped"]) == (passed, skipped)
    assert all(rec["residual"] is None for rec in report["records"]
               if rec["status"] == "skipped")
    assert summary["total"] == passed + skipped
    assert f"{passed}/{passed + skipped} passed" in err
    assert err.count("SKIPPED ") == skipped


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_nonpositive_or_nan_tolerance_is_bad_input(capsys, monkeypatch, tol):
    code, out, err = _run(capsys, monkeypatch, ["verify", "--suite", "canonical", "--tol", tol])
    assert code == EXIT_BAD_INPUT
    assert out == "" and "--tol" in err
    _, quad_json, _ = _run(capsys, monkeypatch, ["gen", "--n", "2", "--seed", "3"])
    code, out, err = _run(capsys, monkeypatch, ["chart", "--tol", tol], stdin_text=quad_json)
    assert code == EXIT_BAD_INPUT
    monkeypatch.setenv("CM_TOL", tol)
    code, out, err = _run(capsys, monkeypatch, ["verify", "--suite", "linalg"])
    assert code == EXIT_BAD_INPUT
    assert out == "" and "CM_TOL" in err


@pytest.mark.parametrize("tau", ["nan", "inf", "0", "1,nan"])
def test_nonfinite_or_zero_tau_is_bad_input(capsys, monkeypatch, tau):
    for command in ("gen", "normalize", "chart", "flow", "verify"):
        extra = ["--generator", "e"] if command == "flow" else []
        code, out, err = _run(capsys, monkeypatch, [command, "--tau", tau, *extra],
                              stdin_text="{}")
        assert code == EXIT_BAD_INPUT, command
        assert out == "" and "--tau" in err


@pytest.mark.parametrize("t", ["800", "-800", "1e308", "-1e308", "inf", "nan"])
def test_a_scaling_flow_time_out_of_range_is_a_typed_error(capsys, monkeypatch, t):
    # cmath.exp's OverflowError once escaped with a traceback and exit 1;
    # a time that is not finite is refused at parse time, as a bad --tau is
    code, out, err = _run(capsys, monkeypatch, ["flow", "--generator", "h", f"--t={t}"])
    assert out == "" and "Traceback" not in err
    if t in ("inf", "nan"):
        assert code == EXIT_BAD_INPUT and "--t: must be a finite number" in err
    else:
        assert code == EXIT_NUMERICAL and len(err.splitlines()) == 1
        assert "ShapeMismatchError: " in err


@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_a_bad_seed_is_bad_input_that_names_the_flag(capsys, monkeypatch, seed):
    # -1 used to reach numpy, whose "expected non-negative integer" named no flag
    for command in ("gen", "flow", "verify"):
        extra = ["--generator", "e"] if command == "flow" else []
        code, out, err = _run(capsys, monkeypatch, [command, "--seed", seed, *extra])
        assert code == EXIT_BAD_INPUT, command
        assert out == "" and "--seed" in err
    code, out, _ = _run(capsys, monkeypatch, ["gen", "--n", "2", "--seed", "0"])
    assert code == EXIT_OK and out


def test_an_input_too_large_for_memory_is_bad_input(capsys, monkeypatch):
    # gen --n 100000 let numpy's _ArrayMemoryError escape as a traceback
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB")

    monkeypatch.setattr("cmspaces.cli.random_point", out_of_memory)
    code, out, err = _run(capsys, monkeypatch, ["gen", "--n", "100000"])
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("input error: gen ") and "MemoryError" in err


@pytest.mark.parametrize("command", ["gen", "flow"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_a_nonpositive_size_is_rejected_at_parse_time(capsys, monkeypatch, command, n):
    # flow --n 0 used to reach the chart sampler and exit 3 as a numerical failure
    extra = ["--generator", "e"] if command == "flow" else []
    code, out, err = _run(capsys, monkeypatch, [command, "--n", n, *extra])
    assert code == EXIT_BAD_INPUT
    assert out == "" and "--n" in err


@pytest.mark.parametrize("sizes", ["0", "-3", "2..1", "x"])
def test_verify_rejects_bad_sizes_at_parse_time(capsys, monkeypatch, sizes):
    code, out, err = _run(capsys, monkeypatch, ["verify", "--suite", "chart", "--n", sizes])
    assert code == EXIT_BAD_INPUT
    assert out == "" and "--n" in err


@pytest.mark.parametrize("suites, overflowed", [
    ("variety,canonical,flowcalc", ["variety.fingerprint_gauge_invariance",
                                    "flowcalc.trotter_rate", "flowcalc.bracket_final_error",
                                    "flowcalc.bracket_monotone"]),
    ("sl2", ["sl2.moment_preservation", "sl2.scaling_probe_margin"]),
])
def test_overflowed_samples_never_pass(capsys, monkeypatch, suites, overflowed):
    # at tau = 1e200 these samples overflow; a running max or min dropped the
    # NaNs and passed the checks at residual 0 or -inf
    with np.errstate(all="ignore"):
        code, out, err = _run(capsys, monkeypatch,
                              ["verify", "--suite", suites, "--tau", "1e200", "--seed", "1"])
    records = {rec["name"]: rec for rec in _strict_json(out)["records"]}
    assert code == EXIT_NUMERICAL
    for name in overflowed:
        assert records[name]["status"] == "fail" and records[name]["residual"] is None
        assert records[name]["note"].startswith("non-finite residual")


def test_an_overflowed_normal_form_is_a_numerical_error(capsys, monkeypatch):
    # at tau = 1e200 the border row that scales the gauge is ~1e195, and the
    # conjugated pair overflows: a numerical failure, not a shape error
    with np.errstate(all="ignore"):
        code, out, _ = _run(capsys, monkeypatch,
                            ["verify", "--suite", "canonical", "--tau", "1e200", "--seed", "1"])
    assert code == EXIT_NUMERICAL
    records = {rec["name"]: rec for rec in _strict_json(out)["records"]}
    for name in ("canonical.normal_form_shape", "canonical.normalize_gauge_equivalence"):
        assert records[name]["status"] == "error"
        assert records[name]["note"].startswith("NonConvergentError at seed 1")
        assert "ShapeMismatchError" not in records[name]["note"]


def test_the_determinant_control_keeps_its_margin_at_huge_tau(capsys, monkeypatch):
    # its samples divide by pair_scale, whose norms no longer overflow at
    # tau = 1e200: the negative control breaks the level there as at tau = 1
    with np.errstate(all="ignore"):
        _, out, _ = _run(capsys, monkeypatch,
                         ["verify", "--suite", "sl2", "--tau", "1e200", "--seed", "1"])
    rec = {r["name"]: r for r in _strict_json(out)["records"]}["sl2.determinant_control_margin"]
    assert rec["status"] == "pass" and -1.0 <= rec["residual"] < -0.1


def test_a_raising_check_leaves_the_rest_of_its_suite(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise SingularMatrixError("injected")

    monkeypatch.setattr("cmspaces.verify.chart_jacobian_stack", boom)
    code, out, err = _run(capsys, monkeypatch,
                          ["verify", "--suite", "chart", "--n", "1,2", "--seed", "4"])
    assert code == EXIT_NUMERICAL
    records = {rec["name"]: rec for rec in _strict_json(out)["records"]}
    assert len(records) == 6
    bad = records.pop("chart.jacobian_rank")
    assert bad["status"] == "error" and bad["residual"] is None
    assert "SingularMatrixError" in bad["note"] and "seed 4" in bad["note"]
    assert all(rec["status"] == "pass" for rec in records.values())
    assert "ERROR chart.jacobian_rank: residual n/a" in err


def test_invert_rejects_a_pair_payload(capsys, monkeypatch):
    code, quad_json, _ = _run(capsys, monkeypatch, ["gen", "--n", "2", "--seed", "6"])
    code, _, err = _run(capsys, monkeypatch, ["chart", "--invert"], stdin_text=quad_json)
    assert code == EXIT_BAD_INPUT


def test_degenerate_input_exits_numerical(capsys, monkeypatch):
    # a repeated block eigenvalue defeats normalization
    p = AugmentedPair(np.eye(3), np.eye(3), 1.0)
    code, _, err = _run(
        capsys, monkeypatch, ["normalize"], stdin_text=dumps(encode(p))
    )
    assert code == EXIT_NUMERICAL


def test_cm_tol_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("CM_TOL", "not-a-number")
    code, _, err = _run(capsys, monkeypatch, ["verify", "--suite", "linalg"])
    assert code == EXIT_BAD_INPUT
    assert "CM_TOL" in err
    monkeypatch.setenv("CM_TOL", "1e-8")
    code, _, _ = _run(capsys, monkeypatch, ["verify", "--suite", "linalg", "--seed", "2"])
    assert code == EXIT_OK


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cmspaces", "gen", "--n", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["kind"] == "representation"


def test_verify_at_huge_tau_prints_no_more_runtime_warnings():
    # a ratchet: numpy's warnings at tau = 1e200 are 13 lines today, and a
    # change that adds one fails here
    proc = subprocess.run(
        [sys.executable, "-m", "cmspaces", "verify", "--suite", "all", "--tau", "1e200"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr.count("RuntimeWarning") <= 13


def test_verify_maps_summaries_to_exit_codes(capsys, monkeypatch):
    def canned(failed, errors):
        return {
            "schema": "cmspaces-report/1",
            "config": {},
            "records": [],
            "summary": {"total": 1, "passed": 1 - failed - errors,
                        "failed": failed, "errors": errors, "skipped": 0},
        }

    monkeypatch.setattr("cmspaces.cli.run", lambda cfg: canned(1, 0))
    code, _, _ = _run(capsys, monkeypatch, ["verify", "--suite", "linalg"])
    assert code == EXIT_CHECK_FAILED
    monkeypatch.setattr("cmspaces.cli.run", lambda cfg: canned(0, 1))
    code, _, _ = _run(capsys, monkeypatch, ["verify", "--suite", "linalg"])
    assert code == EXIT_NUMERICAL


def test_verify_surfaces_internal_errors():
    # an absurdly tight tolerance breaks the solver contracts, which must
    # surface as an error exit, not a silent pass
    proc = subprocess.run(
        [
            sys.executable, "-m", "cmspaces", "verify",
            "--suite", "linalg", "--tol", "1e-30",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_NUMERICAL
    assert "errors" in proc.stderr


@pytest.mark.parametrize("command", ["chart", "normalize"])
def test_stdin_with_a_level_that_is_not_finite_is_bad_input(capsys, monkeypatch, command):
    # a NaN level used to pass decoding and fail the read, exit 3
    pair = json.loads(dumps(encode(from_chart(random_chart_point(2, 1.0, 3)))))
    point = json.loads(dumps(encode(random_chart_point(2, 1.0, 3))))
    for data in ({**pair, "level": [float("nan"), 0.0]}, {**point, "level": [0.0, float("inf")]}):
        code, out, err = _run(capsys, monkeypatch, [command], stdin_text=json.dumps(data))
        assert code == EXIT_BAD_INPUT
        assert out == "" and "not finite" in err
