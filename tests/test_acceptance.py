"""Acceptance criteria, one test per criterion.

Each test prints one line of the form

    [AC-xx] <criterion>: <measured> vs <required> -> PASS|FAIL

before asserting, so a teed run records the measured margins next to the
pytest verdicts.  Tolerances, sample counts, and time budgets are stated
inline; the asserts use exactly those numbers.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from cmspaces.canonical import normalize
from cmspaces.chart import (
    ChartPoint,
    chart_jacobian,
    decompose,
    from_chart,
    random_chart_point,
    to_chart,
    to_chart_tracked,
)
from cmspaces.flowcalc import (
    bracket_flow,
    bracket_target,
    compatible_witness,
    pair_distance,
    trotter_flow,
    trotter_target,
)
from cmspaces.verify import BRACKET_STEPS, BRACKET_TIME, TROTTER_STEPS, TROTTER_TIME
from cmspaces.linalg import frob, numeric_rank, pair_scale
from cmspaces.sl2 import (
    GEN_E,
    GEN_F,
    GEN_H,
    act_components,
    act_pair,
    analytic_field,
    find_independence_point,
    fixed_point_probe_stack,
    independence_rank,
    numeric_field,
    random_sl2,
    slice_tangency,
)
from cmspaces.variety import (
    AugmentedPair,
    augment,
    calibrate_dictionary,
    level_deviation,
    level_residual,
    pair_fingerprint,
    pair_moment,
    quadruple_block_residual,
    random_point,
    random_quadruples,
)


def _report(tag: str, label: str, measured: str, required: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{tag}] {label}: {measured} vs {required} -> {verdict}", flush=True)
    assert ok, f"{tag} {label}: {measured} vs required {required}"


def test_ac01_seeded_points_sit_on_the_level_set():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for k in (1, 2):
            for seed in range(50):
                r = random_point(n, k, 1.0, 1000 + seed)
                worst = max(worst, level_residual(r) / pair_scale(r.A, r.B))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    _report("AC-01", "seeded level-set residual (n 1..6, k 1..2, 50 seeds)",
            f"worst {worst:.3e}, {elapsed:.2f}s", "1e-12 within 5s", ok)


def test_ac02_commutator_block_identity():
    worst = 0.0
    for n in range(1, 7):   # quadruple i has size 1 + i % 6
        A, B, v, w = random_quadruples(n, 2, 1.0, [2000 + i for i in range(n - 1, 200, 6)])
        worst = max(worst, float((quadruple_block_residual(A, B, v, w) / pair_scale(A, B)).max()))
    _report("AC-02", "commutator block identity (200 quadruples, n <= 6)",
            f"worst {worst:.3e}", "1e-12", worst < 1e-12)


def test_ac03_second_matrix_splitting():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        n = 1 + seed % 5
        p, _ = normalize(augment(random_point(n, 2, 1.0, 3000 + seed)))
        d = decompose(p)
        scale = pair_scale(p.A, p.B)
        gi = np.linalg.inv(d.g)
        checks = [
            frob(d.N1 + d.N2 - p.B),
            frob(d.g @ p.A @ gi - np.diag(d.lamhat)),
            frob(d.g @ d.N2 @ gi - np.diag(d.muhat) - d.S),
            float(np.abs(np.diag(d.S)).max()),
        ]
        worst = max(worst, max(checks) / scale)

    # one-site pair solved by hand, both spectral orderings
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    B = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)
    hand = AugmentedPair(A, B, 1.0)
    d_ref = decompose(hand, lamhat_ref=np.array([1.0, -1.0]))
    hand_dev = max(
        float(np.abs(d_ref.S - np.array([[0.0, 0.5], [-0.5, 0.0]])).max()),
        float(np.abs(d_ref.mu).max()),
        float(np.abs(d_ref.muhat).max()),
        float(np.abs(d_ref.defect).max()),
    )
    d_pkg = decompose(hand)
    hand_dev = max(
        hand_dev, float(np.abs(d_pkg.S - np.array([[0.0, -0.5], [0.5, 0.0]])).max())
    )

    # the off-diagonal term ignores the moments: 20 variations
    base = random_chart_point(3, 1.0, 3100)
    d0 = decompose(from_chart(base), lamhat_ref=base.lamhat)
    rng = np.random.default_rng(3101)
    s_dev = 0.0
    for _ in range(20):
        c = ChartPoint(
            base.lam, base.lamhat,
            base.mu + rng.standard_normal(3) + 1j * rng.standard_normal(3),
            base.muhat + rng.standard_normal(4) + 1j * rng.standard_normal(4),
            base.tau,
        )
        d = decompose(from_chart(c), lamhat_ref=base.lamhat)
        s_dev = max(s_dev, frob(d.S - d0.S) / max(1.0, frob(d0.S)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and hand_dev < 1e-12 and s_dev < 1e-10 and elapsed < 5.0
    _report("AC-03", "second-matrix splitting",
            f"constraints {worst:.3e}, hand case {hand_dev:.3e}, "
            f"moment-independence {s_dev:.3e}, {elapsed:.2f}s",
            "1e-9 / 1e-12 / 1e-10 within 5s", ok)


def test_ac04_chart_round_trips_and_rank():
    t0 = time.perf_counter()
    worst_fwd = 0.0
    worst_bwd = 0.0
    for n in range(1, 6):
        for seed in range(20):
            c = random_chart_point(n, 1.0, 4000 + 20 * n + seed)
            back = to_chart_tracked(from_chart(c), c)
            dev = np.abs(back.vector() - c.vector()).max()
            worst_fwd = max(worst_fwd, dev / max(1.0, np.abs(c.vector()).max()))

            p, _ = normalize(augment(random_point(n, 2, 1.0, 4500 + 20 * n + seed)))
            q = from_chart(to_chart(p))
            f0, f1 = pair_fingerprint(p), pair_fingerprint(q)
            worst_bwd = max(
                worst_bwd, float(np.abs(f0 - f1).max() / max(1.0, np.abs(f0).max()))
            )
    ranks_ok = True
    for n in range(1, 6):
        c = random_chart_point(n, 1.0, 4900 + n)
        if numeric_rank(chart_jacobian(c), tol=1e-6) != 4 * n + 2:
            ranks_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst_fwd < 1e-8 and worst_bwd < 1e-8 and ranks_ok and elapsed < 30.0
    _report("AC-04", "chart round trips and coordinate count (n 1..5, 20 seeds)",
            f"coords {worst_fwd:.3e}, orbits {worst_bwd:.3e}, "
            f"ranks {'full' if ranks_ok else 'deficient'}, {elapsed:.1f}s",
            "1e-8 / 1e-8 / 4n+2 within 30s", ok)


def test_ac05_action_preserves_the_moment():
    worst = 0.0
    for i in range(100):
        n = 1 + i % 5
        r = random_point(n, 2, 1.0, 5000 + i)
        g = random_sl2(5200 + i)
        p = augment(r)
        p0 = pair_moment(p)
        p1 = pair_moment(act_pair(g, p))
        worst = max(worst, frob(p1 - p0) / pair_scale(p.A, p.B))
    # negative control: a determinant-2 matrix must fail visibly
    r = random_point(3, 2, 1.0, 5300)
    broken = act_pair(np.array([[2.0, 0.0], [0.0, 1.0]]), augment(r))
    control = level_deviation(broken) / pair_scale(broken.A, broken.B)
    ok = worst < 1e-10 and control > 1e-3
    _report("AC-05", "unit-determinant action preserves the level (100 elements)",
            f"worst {worst:.3e}, control {control:.3e}",
            "1e-10, control > 1e-3", ok)


def test_ac06_scaling_probe_separates_points():
    smallest = np.inf
    tested = 0
    i = 0
    while tested < 50:
        n = 1 + i % 5
        r = random_point(n, 2, 1.0, 6000 + i)
        i += 1
        if abs(np.trace(r.A @ r.A)) <= 1e-3 * max(1.0, frob(r.A) ** 2):
            continue
        before, _, sep = fixed_point_probe_stack(r.A, r.B, r.v, r.w, 1.0)
        smallest = min(smallest, sep / max(1.0, float(np.abs(before).max())))
        tested += 1
    _report("AC-06", "scaling probe separation (50 points, t = 1)",
            f"smallest {smallest:.3e}", "> 1e-6", smallest > 1e-6)


def test_ac07_independence_certificate():
    ok_all = True
    details = []
    for n in range(1, 6):
        c = find_independence_point(n, 1.0, 7000 + n)
        rank, ratio = independence_rank(c)
        spec_scale = max(1.0, float(np.abs(c.lamhat).max()))

        num_e = numeric_field(GEN_E, c)
        field_dev = float(np.abs(num_e.d_muhat - c.lamhat).max()) / spec_scale
        for blk in (num_e.d_lam, num_e.d_lamhat, num_e.d_mu):
            field_dev = max(field_dev, float(np.abs(blk).max()) / spec_scale)

        comp_dev = 0.0
        for gen in (GEN_F, GEN_H):
            got = numeric_field(gen, c).s_components()
            want = analytic_field(gen, c).d_s
            comp_scale = max(1.0, *(abs(v) for v in want.values()))
            comp_dev = max(
                comp_dev, max(abs(got[k] - want[k]) for k in (1, 2)) / comp_scale
            )

        tan_dev = 0.0
        q = from_chart(c)
        scale = pair_scale(q.A, q.B)
        for gen in (GEN_E, GEN_F, GEN_H):
            r1, r2 = slice_tangency(gen, c)
            tan_dev = max(tan_dev, max(r1, r2) / scale)

        ok = (rank == 3 and ratio > 1e-6 and field_dev < 1e-6
              and comp_dev < 1e-6 and tan_dev < 1e-7)
        ok_all = ok_all and ok
        details.append(f"n={n}: rank {rank}, ratio {ratio:.1e}, field {field_dev:.1e}, "
                       f"components {comp_dev:.1e}, tangency {tan_dev:.1e}")
    _report("AC-07", "three independent fields on the slice (n 1..5)",
            "; ".join(details), "rank 3, ratio > 1e-6, 1e-6 / 1e-6 / 1e-7", ok_all)


def test_ac08_flow_composition_laws():
    t0 = time.perf_counter()
    slopes = []
    bracket_ok = True
    finals = []
    for i in range(5):
        n = 1 + i % 3
        p = from_chart(random_chart_point(n, 1.0, 8000 + i))
        scale = pair_scale(p.A, p.B)

        target = trotter_target(GEN_E, GEN_H, TROTTER_TIME, p)
        errs = [
            pair_distance(trotter_flow(GEN_E, GEN_H, TROTTER_TIME, m, p), target)
            for m in TROTTER_STEPS
        ]
        slopes.append(-np.polyfit(np.log(TROTTER_STEPS), np.log(errs), 1)[0])

        btarget = bracket_target(GEN_E, GEN_F, BRACKET_TIME, p)
        berrs = [
            pair_distance(bracket_flow(GEN_E, GEN_F, BRACKET_TIME, m, p), btarget)
            / scale
            for m in BRACKET_STEPS
        ]
        if not (berrs[0] > berrs[1] > berrs[2]):
            bracket_ok = False
        finals.append(berrs[-1])
    elapsed = time.perf_counter() - t0
    slope_ok = all(0.7 <= s <= 1.3 for s in slopes)
    final_ok = max(finals) < 1e-3
    ok = slope_ok and bracket_ok and final_ok and elapsed < 60.0
    _report("AC-08", "split and commutator composition (5 points, n 1..3)",
            f"slopes {min(slopes):.2f}..{max(slopes):.2f}, "
            f"bracket final {max(finals):.3e}, monotone {bracket_ok}, {elapsed:.1f}s",
            "slope in [0.7, 1.3], final < 1e-3, decreasing, within 60s", ok)


def test_ac09_trace_witness_identities():
    worst = 0.0
    tested = 0
    i = 0
    while tested < 20:
        n = 1 + i % 5
        p = augment(random_point(n, 2, 1.0, 9000 + i))
        i += 1
        if abs(np.trace(p.A)) <= 0.1:
            continue
        rep = compatible_witness(p)
        worst = max(worst, rep.residual)
        tested += 1
    _report("AC-09", "trace witness derivative identities (20 points)",
            f"worst {worst:.3e}", "1e-10", worst < 1e-10)


def test_ac10_dictionary_calibration_is_recorded():
    label_sets = set()
    literal_flags = set()
    for i in range(20):
        n = 1 + i % 4
        rep = calibrate_dictionary(random_point(n, 2, 1.0, 10_000 + i))
        label_sets.add(tuple(sorted(v.label() for v in rep.admissible)))
        literal_flags.add(rep.literal_admissible)
    consistent = len(label_sets) == 1 and len(literal_flags) == 1
    labels = label_sets.pop() if consistent else sorted(label_sets)
    literal = literal_flags.pop() if consistent else None
    _report("AC-10", "dictionary calibration point-independent (20 points)",
            f"admissible {labels}, literal admissible: {literal}",
            "one outcome across all points (membership either way)", consistent)


def test_ac11_full_verification_suite():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cmspaces", "verify", "--suite", "all"],
        capture_output=True,
        text=True,
        timeout=180,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 180.0
    tail = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
    _report("AC-11", "end-to-end verification command",
            f"exit {proc.returncode} in {elapsed:.1f}s ({tail})",
            "exit 0 within 180s", ok)
