"""Tests for the self-verification harness itself."""

import dataclasses
import math
from time import perf_counter

import numpy as np
import pytest

from cmspaces import flowcalc, sl2, variety, verify
from cmspaces.chart import (
    chart_jacobian_stack,
    from_chart,
    from_chart_stack,
    random_chart_point,
    random_chart_points,
)
from cmspaces.errors import (
    DegenerateSpectrumError,
    InfeasibleRowError,
    NonConvergentError,
    SearchExhaustedError,
    ZeroRowEntryError,
)
from cmspaces.linalg import matrix_scale, numeric_rank
from cmspaces.variety import random_point, random_points
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
    # one fingerprint stack per size and ladder: the target, then one flow
    # per step count, each at the five base points of the size
    original, stacks = flowcalc.pair_fingerprints, []

    def counting(A, B):
        stacks.append(A.shape[:2])
        return original(A, B)

    monkeypatch.setattr(flowcalc, "pair_fingerprints", counting)
    cfg = RunConfig(n_values=(1, 2), seed=3)
    verify._check_trotter_rate(cfg)
    verify._check_bracket_limit(cfg)
    # sizes n = 1, 2 per check
    assert stacks == [(1 + len(verify.TROTTER_STEPS), 5)] * 2 + [(1 + len(verify.BRACKET_STEPS), 5)] * 2


def test_a_returned_error_errors_its_record_only():
    def check(cfg):
        return [NonConvergentError("no read"), verify._Measured(0.5, "half")]
    check.records = (("x.first", "law", 1.0), ("x.second", "law", 1.0))
    first, second = verify._run_check(check, RunConfig(seed=6))
    assert (first.name, first.status, first.residual) == ("x.first", "error", None)
    assert first.note == "NonConvergentError at seed 6: no read"
    assert first.runtime_ms > 0.0
    assert (second.name, second.status, second.residual, second.note) == (
        "x.second", "pass", 0.5, "half")
    assert second.runtime_ms == 0.0


def _status(check):
    (rec,) = verify._run_check(check, RunConfig())
    return rec.status


def _count_calls(monkeypatch, owner, *names):
    """Counts of the calls to owner's functions of the given names, from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_chart_sweeps_make_one_eigensolver_call_per_size(monkeypatch):
    # one stack per size n: the per-trial loops made 100 eig and 100
    # eigvals calls in the Jacobian sweep and 80 eigvals in the gap sweep;
    # the perturbed points are normal forms, so the sweep needs no eig
    counts = _count_calls(monkeypatch, np.linalg, "eig", "eigvals")
    assert _status(verify._check_jacobian_rank) == "pass"
    assert counts["eig"] == 0 and counts["eigvals"] <= 5
    counts.update(eig=0, eigvals=0)
    assert _status(verify._check_gap_term_invariance) == "pass"
    assert counts["eigvals"] <= 4


def test_jacobian_rank_passes_at_large_tau():
    # central differences of the rebuild read rank deficiencies of 5 and 7
    # at tau = 1e12 (seeds 1 and 2), an artifact of their step
    for seed in (1, 2):
        (rec,) = verify._run_check(verify._check_jacobian_rank, RunConfig(tau=1e12, seed=seed))
        assert (rec.status, rec.residual) == ("pass", 0.0)


def test_jacobian_ranks_agree_with_numeric_rank():
    # the certificate ||J - I||_F <= 1/2 skips the SVD only where it
    # cannot change the count: seeded Jacobians (at tau = 1e12 some are
    # far enough from I to need the SVD), a rank-deficient J and full-rank
    # and deficient Js beyond the certificate's radius
    stacks = [chart_jacobian_stack(random_chart_points(n, tau, range(6)), tau)
              for n in (1, 3) for tau in (1.0, 1e8, 1e12)]
    k = 10
    deficient = np.eye(k, dtype=complex)
    deficient[3, 3] = 0.0                       # ||J - I||_F = 1, rank k - 1
    near = np.eye(k, dtype=complex)
    near[0, 1] = 0.4                            # certified
    stacks.append(np.stack([deficient, near, 2.0 * np.eye(k), np.eye(k) + 0.6,
                            np.diag(np.r_[np.ones(k - 1), 1e-12])]))
    for J in stacks:
        assert np.array_equal(verify._jacobian_ranks(J), numeric_rank(J))
    assert verify._jacobian_ranks(stacks[-1]).tolist() == [k - 1, k, k, k, k - 1]


def test_jacobian_ranks_take_no_svd_for_certified_items(monkeypatch):
    calls = _count_calls(monkeypatch, np.linalg, "svd")
    J = np.stack([np.eye(6) + 1e-3, 3.0 * np.eye(6)]).astype(complex)
    assert verify._jacobian_ranks(J[:1]).tolist() == [6]
    assert calls["svd"] == 0
    assert verify._jacobian_ranks(J).tolist() == [6, 6]
    assert calls["svd"] == 1


def test_seeded_sweeps_draw_one_stack_per_size(monkeypatch):
    # the level and pair sweeps used to draw 600 and 100 points one seed
    # at a time; verify has no one-point draw left
    assert not hasattr(verify, "random_point") and not hasattr(verify, "fingerprint")
    calls = _count_calls(monkeypatch, verify, "random_points")
    assert _status(verify._check_level_condition) == "pass"
    assert calls == {"random_points": 12}  # n = 1..6, k = 1, 2
    calls.update(random_points=0)
    assert _status(verify._check_round_trip_pair) == "pass"
    assert calls == {"random_points": 5}  # n = 1..5


def test_the_per_trial_checks_make_one_call_per_size(monkeypatch):
    # the loops made one draw per trial and bump and one eig, probe or
    # fingerprint per trial; no trial bumps at seed 1
    names = ("random_points", "random_chart_points", "fingerprints", "fixed_point_probe_stack",
             "eig", "eigvals")
    counts = _count_calls(monkeypatch, verify, *names)
    for check, want in (
            (verify._check_scaling_probe, {"random_points": 5, "fixed_point_probe_stack": 5}),
            (verify._check_witness, {"random_chart_points": 4}),
            # its draws, then the words before and after the gauges, per size n = 2..5
            (verify._check_fingerprint_invariance, {"random_points": 4, "fingerprints": 8}),
            (verify._check_eig_reassembly, {"eig": 5}),
            # one eigvals per size of matrix: the pair's first matrix and its block
            (verify._check_scaling_spectra, {"random_chart_points": 3, "eigvals": 6})):
        counts.update(dict.fromkeys(names, 0))
        assert _status(check) == "pass"
        assert counts == {**dict.fromkeys(names, 0), **want}, check.__name__


def _probe_draw(cfg, n, seed):
    r = random_point(n, 2, cfg.tau, seed)
    return r.A, r.B, r.v, r.w


def _witness_draw(cfg, n, seed):
    p = from_chart(random_chart_point(n, cfg.tau, seed), cfg.tol)
    return p.A, p.B


# per bumped check: its seed tag, the size of trial i, the one-point draw
# of its per-trial loop, its stacked points, its test of a draw, its
# sampler and the check
_BUMPED = {
    "probe": ("prb", lambda i: 1 + i % 5, _probe_draw, "_probe_points", "_probe_accepts",
              "random_points", verify._check_scaling_probe),
    "witness": ("wit", lambda i: 1 + i % 4, _witness_draw, "_witness_pairs", "_witness_accepts",
                "random_chart_points", verify._check_witness),
}

# (trial, bump) draws that the test below rejects: trial 1 passes at bump 2,
# trials 6 and 8 at bump 1 (trial 8's bump 2, never drawn, would be
# rejected), and trial 3 never passes
_REJECTED = [(1, 0), (1, 1), (6, 0), (8, 0), (8, 2)] + [(3, b) for b in range(10)]


def _loop_points(cfg, case, trials, accepts):
    """The per-trial loop the bump rounds replace: each trial draws from bump 0 until accepted."""
    tag, size, draw = _BUMPED[case][:3]
    points = []
    for i in trials:
        seed = verify._seed(cfg, tag, i)
        for bump in range(10):
            point = draw(cfg, size(i), seed + 31 * bump)
            if accepts(point[0][None])[0]:
                break
        points.append(point)
    return points


def _rejecting(cfg, case):
    """A test of stacked draws that rejects the draws of _REJECTED and accepts all others."""
    tag, size, draw = _BUMPED[case][:3]
    bad = {draw(cfg, size(i), verify._seed(cfg, tag, i) + 31 * b)[0].tobytes()
           for i, b in _REJECTED}
    return lambda A: np.array([a.tobytes() not in bad for a in A])


@pytest.mark.parametrize("case", sorted(_BUMPED))
def test_bump_rounds_pick_the_points_of_the_per_trial_loop(monkeypatch, case):
    tag, size, _, points_of, test, sampler, _ = _BUMPED[case]
    cfg, trials = RunConfig(seed=3), range(12)
    accepts = _rejecting(cfg, case)
    monkeypatch.setattr(verify, test, accepts)
    counts = _count_calls(monkeypatch, verify, sampler)
    sizes = [size(i) for i in trials]
    got = verify._per_size(sizes, lambda n, t: zip(*getattr(verify, points_of)(cfg, n, t)))
    want = _loop_points(cfg, case, trials, accepts)
    for i, (have, wanted) in enumerate(zip(got, want, strict=True)):
        assert all(np.array_equal(x, y) for x, y in zip(have, wanted, strict=True)), i
    # one draw per size and round: round b draws the trials still rejected
    passes_at = {i: next((b for b in range(10) if (i, b) not in _REJECTED), 9) for i in trials}
    assert counts[sampler] == sum(1 + max(passes_at[i] for i in trials if size(i) == n)
                                  for n in set(sizes))


@pytest.mark.parametrize("case", sorted(_BUMPED))
def test_a_raising_bumped_draw_records_the_first_trials_error(monkeypatch, case):
    # trial 6 raises first in the rounds (bump 0), trial 1 first in trial order (bump 2)
    tag, _, _, _, test, sampler, check = _BUMPED[case]
    cfg = RunConfig(seed=3, trials=12)
    monkeypatch.setattr(verify, test, _rejecting(cfg, case))
    raising = {verify._seed(cfg, tag, i) + 31 * b for i, b in ((1, 2), (3, 5), (6, 0))}
    original = getattr(verify, sampler)

    def draw(*args):
        for seed in args[-1]:
            if seed in raising:
                raise InfeasibleRowError(f"seed {seed}")
        return original(*args)

    monkeypatch.setattr(verify, sampler, draw)
    (rec,) = verify._run_check(check, cfg)
    first = verify._seed(cfg, tag, 1) + 62
    assert (rec.status, rec.note) == ("error", f"InfeasibleRowError at seed 3: seed {first}")


def test_the_bump_tests_are_the_one_point_tests():
    A = np.array([np.diag([1.0, 1j]), np.diag([1.0, 2.0]), np.diag([1.0, -1.0])])
    assert verify._probe_accepts(A).tolist() == [
        bool(abs(np.trace(a @ a)) > 1e-3 * matrix_scale(a) ** 2) for a in A] == [False, True, True]
    assert verify._witness_accepts(A).tolist() == [True, True, False]


@pytest.mark.parametrize("tau", [1.0, 1e8, 0.5 - 2j])
def test_the_array_bump_tests_accept_the_draws_of_the_per_item_tests(tau):
    # 2,000 seeded draws per tau, each size as the checks draw it; the
    # reference is the test of one point, on numpy scalars
    for n in range(1, 6):
        seeds = range(1000 * n, 1000 * n + 400)
        A = random_points(n, 2, tau, seeds)[0]
        traces = np.trace(A @ A, axis1=-2, axis2=-1)
        assert verify._probe_accepts(A).tolist() == [
            bool(abs(t) > 1e-3 * s ** 2) for t, s in zip(traces, matrix_scale(A))]
        A = from_chart_stack(random_chart_points(n, tau, seeds), tau, 1e-9)[0]
        assert verify._witness_accepts(A).tolist() == [
            bool(abs(t) > 0.1) for t in np.trace(A, axis1=-2, axis2=-1)]


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
    streams, = verify._tag_streams(cfg, 12, "mom")
    points = verify._per_size([1 + i % 5 for i in range(12)],
                              lambda n, trials: zip(*verify._points(cfg, n, streams[trials])))
    for i, drawn in enumerate(points):
        want = random_point(1 + i % 5, 2, cfg.tau, verify._seed(cfg, "mom", i))
        assert all(x.tobytes() == getattr(want, f).tobytes() for x, f in zip(drawn, "ABvw"))


def test_lapack_calls_of_one_verify_pass(monkeypatch):
    # per routine, one default pass at seed 1: eig and its inverse for each
    # normal_form stack (one per size: 5 in the pair round trip, 5 each in
    # the shape and equivalence checks, 10 in the idempotence check) and
    # for each stack of the reassembly check (one per size: 5), 4 inv for
    # the gauge stacks random_gauges draws (one per size), eigvals for the
    # untracked reads and the scaling spectra (6: one per size and size of
    # matrix), svd for random_gauges' condition bound (one per size) and
    # the ranks (one per size in the orbit check: 5, where one per point
    # made 15); the chart Jacobian's ranks make none, since every seeded
    # Jacobian has ||J - I||_F <= 1/2 (19 svd when they took one per
    # size), and the induced fields, the splitting check and the gauge
    # checks make none.  The four pinv of the flow fits are cached for the
    # process, so a pass after the first makes none
    counts = _count_calls(monkeypatch, np.linalg, "eig", "eigvals", "inv", "svd", "solve", "lstsq",
                          "pinv")
    # polyfit reaches lstsq through numpy's own import, which the patch above misses
    fits = _count_calls(monkeypatch, np, "polyfit")
    report = run(RunConfig(seed=1))
    assert report["summary"]["passed"] == report["summary"]["total"]
    pinv = counts.pop("pinv")
    assert pinv in (0, 4)
    assert counts == {"eig": 30, "eigvals": 21, "inv": 34, "svd": 14, "solve": 5, "lstsq": 0}
    assert fits == {"polyfit": 0}


def test_seeded_draws_of_one_verify_pass(monkeypatch):
    # no numpy Generator per seed: the 1,705 seeds of a default pass at
    # seed 1 are hashed in 40 calls, each with one PCG64 set to its seeds'
    # states in turn.  One call per check, except one per size in the
    # scaling probe (5) and the witness check (4) and one per independence
    # point (5); a check that draws points and group elements hashes both
    # in its one call, and the bracket sign check hashes only the five
    # seeds it reads
    counts = _count_calls(monkeypatch, np.random, "default_rng", "PCG64")
    hashed, original = [], variety._pcg64_states

    def hashing(seeds):
        hashed.append(len(seeds))
        return original(seeds)

    monkeypatch.setattr(variety, "_pcg64_states", hashing)
    report = run(RunConfig(seed=1))
    assert report["summary"]["passed"] == report["summary"]["total"]
    assert counts == {"default_rng": 0, "PCG64": 40}
    assert (len(hashed), sum(hashed)) == (40, 1705)


def test_the_splitting_record_fails_on_a_wrong_border_defect(monkeypatch):
    # the record measures the splitting law [A, N2] = shift + defect e_n^T
    # itself, so a read whose defect is off by 1e-6 fails it
    original = verify.decompose_stack

    def shifted(*args, **kwargs):
        d = original(*args, **kwargs)
        return dataclasses.replace(d, defect=d.defect + 1e-6)

    monkeypatch.setattr(verify, "decompose_stack", shifted)
    records = {rec["name"]: rec for rec in run(RunConfig(suites=("chart",)))["records"]}
    rec = records["chart.splitting_constraints"]
    assert rec["status"] == "fail" and rec["residual"] > 1e-9


def test_the_normal_form_shape_record_fails_on_a_wrong_gauge(monkeypatch):
    # the record compares the returned gauge's conjugate of A with the
    # snapped form, so a gauge off by 1e-6 fails it
    original = verify.normal_form

    def skewed(*args, **kwargs):
        Ah, Bh, G, Gi = original(*args, **kwargs)
        return Ah, Bh, G * (1.0 + 1e-6), Gi

    monkeypatch.setattr(verify, "normal_form", skewed)
    records = {rec["name"]: rec for rec in run(RunConfig(suites=("canonical",)))["records"]}
    rec = records["canonical.normal_form_shape"]
    assert rec["status"] == "fail" and rec["residual"] > 1e-12


def test_stack_calls_of_one_verify_pass(monkeypatch):
    # one call per size, where the per-trial loops made one per point:
    # the Trotter and bracket ladders at n = 1..3 (30 points, each with its
    # target and 3 flows), the dictionary at n = 1..4 (20 points), the
    # orbit rank, the augment round trip and the equivariance pair route
    # at n = 1..5 (15, 20 and 20 points); the scaling spectra act at
    # n = 1..3 (5 points)
    names = ("ladder_fingerprints", "calibrate_dictionary_stack", "orbit_dimension",
             "project_stack", "act_pair_stack")
    counts = _count_calls(monkeypatch, verify, *names)
    report = run(RunConfig(seed=1))
    assert report["summary"]["passed"] == report["summary"]["total"]
    assert counts == {"ladder_fingerprints": 6, "calibrate_dictionary_stack": 4,
                      "orbit_dimension": 5, "project_stack": 5, "act_pair_stack": 8}


def _spoil_one(original, spoil):
    """original, with spoil applied to its result at the first call only: one item goes wrong."""
    calls = []

    def spoiled(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        return spoil(out) if len(calls) == 1 else out
    return spoiled


def _ladder_off(fp):
    fp = fp.copy()
    fp[1:, 0] = fp[0, 0] + 1.0      # every rung of one point one unit off its target
    return fp


def _flip_one(found):
    resids, admissible = found
    admissible = admissible.copy()
    admissible[-1, 0] = not admissible[-1, 0]
    return resids, admissible


def _one_off(arrays, delta):
    first, *rest = arrays
    first = first.copy()
    first[(-1,) * first.ndim] += delta
    return (first, *rest)


# per restacked record: its check, the stack form it calls and how one item goes wrong
_SPOILED = {
    "flowcalc.trotter_rate": (verify._check_trotter_rate, "ladder_fingerprints", _ladder_off),
    "flowcalc.bracket_final_error": (verify._check_bracket_limit, "ladder_fingerprints",
                                     _ladder_off),
    "quiver.dictionary_consistency": (verify._check_dictionary, "calibrate_dictionary_stack",
                                      _flip_one),
    "canonical.orbit_rank_regular": (verify._check_orbit_rank, "orbit_dimension",
                                     lambda dims: dims - (np.arange(dims.size) == 0)),
    "sl2.equivariance_exact": (verify._check_equivariance, "act_pair_stack",
                               lambda pair: _one_off(pair, 1e-12)),
    "variety.augment_project_roundtrip": (verify._check_augment_roundtrip, "project_stack",
                                          lambda quad: _one_off(quad, 1e-12)),
}


@pytest.mark.parametrize("name", sorted(_SPOILED))
def test_a_restacked_record_fails_when_one_item_of_its_stack_is_wrong(monkeypatch, name):
    # each record still measures the law through the stack form it certifies
    check, stack, spoil = _SPOILED[name]
    records = {rec.name: rec for rec in verify._run_check(check, RunConfig())}
    assert records[name].status == "pass"
    monkeypatch.setattr(verify, stack, _spoil_one(getattr(verify, stack), spoil))
    records = {rec.name: rec for rec in verify._run_check(check, RunConfig())}
    assert records[name].status in ("fail", "error"), records[name]
