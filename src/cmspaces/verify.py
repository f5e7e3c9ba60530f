"""Self-check suites with machine-readable reports.

Each check draws its own seeded inputs, measures a residual, normalizes by
the scale stated in its note, and passes iff residual <= threshold.  Checks
that must EXCEED a floor are phrased as margins (residual = floor - observed,
threshold 0) so the pass rule stays uniform.  A non-finite residual (an
overflowed sample, wherever it sits in the sweep) fails, recorded with no
residual.  A check that sweeps the requested sizes counts its samples;
with none in its range it is recorded as "skipped", with no residual,
never as a pass.  Each check runs on its own: one that raises a package
error is recorded with status "error", no residual, and the exception and
seed in its note, and the other checks of its suite still run; callers
map that to a distinct exit code.  Records sort by name before emission
and reports are deterministic for a fixed config (runtime_ms aside).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import cache, partial
from time import perf_counter

import numpy as np

from .canonical import normal_form, normalize, orbit_dimension
from .chart import (
    chart_jacobian_stack,
    decompose,
    decompose_stack,
    from_chart,
    from_chart_stack,
    random_chart_point,
    to_chart_stack,
)
from .errors import CMSpacesError
from .flowcalc import (
    BRACKET_SIGN,
    bracket_flow,
    bracket_target,
    compatible_witness,
    detect_bracket_sign,
    lnd_degree,
    pair_distance,
    trotter_flow,
    trotter_target,
)
from .linalg import eig, frob, match_to_reference, numeric_rank, solve
from .sl2 import (
    GEN_E,
    GEN_F,
    GEN_H,
    act_components,
    act_pair,
    analytic_field,
    find_independence_point,
    fixed_point_probe,
    independence_rank,
    numeric_field,
    random_sl2,
    slice_tangency,
)
from .variety import (
    AugmentedPair,
    augment,
    augment_stack,
    block_commutator_residual,
    calibrate_dictionary,
    check_gauge,
    fingerprint,
    gauge_act,
    level_residual,
    level_scale,
    matrix_pair_scale,
    pair_fingerprint,
    pair_scale,
    project,
    quadruple_level_residual,
    random_gauge,
    random_point,
    random_points,
    random_quadruple,
    spaced_points,
)

SCHEMA_VERSION = "cmspaces-report/1"

SUITE_NAMES = ("linalg", "variety", "canonical", "chart", "sl2", "flowcalc", "quiver")

# Composition times for the flow checks.  The commutator-square error is
# ~ sinh(t) sqrt(t/steps) (measured and hand-derived from the 2x2 closed
# form), so BRACKET_TIME = 0.01 puts 1024 squares near 1e-4 relative, an
# order under the 1e-3 threshold; larger times (0.25) sit far above it.
TROTTER_TIME = 0.5
TROTTER_STEPS = (16, 64, 256)
BRACKET_TIME = 0.01
BRACKET_STEPS = (64, 256, 1024)


@dataclass(frozen=True)
class RunConfig:
    """Parameters shared by the suites; None fields fall back per check."""

    n_values: tuple | None = None
    k_values: tuple = (1, 2)
    tau: complex = 1.0
    seed: int = 1
    tol: float = 1e-9
    trials: int | None = None
    suites: tuple = ("all",)

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values) if self.n_values else None,
            "k_values": list(self.k_values),
            "tau": [complex(self.tau).real, complex(self.tau).imag],
            "seed": self.seed,
            "tol": self.tol,
            "trials": self.trials,
            "suites": list(self.suites),
        }


@dataclass(frozen=True)
class CheckRecord:
    name: str
    law: str
    status: str
    residual: float | None  # None when nothing was measured
    threshold: float
    runtime_ms: float
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "law": self.law,
            "status": self.status,
            "residual": self.residual,
            "threshold": self.threshold,
            "runtime_ms": round(self.runtime_ms, 3),
            "note": self.note,
        }


def _seed(cfg: RunConfig, tag: str, i: int = 0) -> int:
    return cfg.seed * 10_000_000 + zlib.crc32(tag.encode()) % 1_000_000 + 1000 * i


def _ns(cfg: RunConfig, pinned_max: int) -> list:
    if cfg.n_values:
        return [n for n in cfg.n_values if 1 <= n <= pinned_max]
    return list(range(1, pinned_max + 1))


def _trials(cfg: RunConfig, pinned: int) -> int:
    return cfg.trials if cfg.trials else pinned


def _finish(name: str, law: str, residual: float, threshold: float,
            t0: float, note: str = "", samples: int | None = None) -> CheckRecord:
    if samples == 0:
        status, residual = "skipped", None
        note = "no sample: no requested size is in range; " + note
    elif not math.isfinite(residual):
        status, note = "fail", f"non-finite residual ({residual}), e.g. overflow; " + note
        residual = None
    else:
        status, residual = ("pass" if residual <= threshold else "fail"), float(residual)
    return CheckRecord(name, law, status, residual, float(threshold),
                       (perf_counter() - t0) * 1000.0, note)


def _fold(samples, pick=max) -> float:
    """pick() of the samples, except that a non-finite sample wins wherever it sits.

    A running max or min drops a NaN that comes second (max(0.0, nan) is
    0.0), which would let an overflowed measurement pass.
    """
    samples = list(samples)
    bad = [x for x in samples if not math.isfinite(x)]
    return bad[0] if bad else pick(samples, default=math.nan)


def _trace_word_error(fp, fp0) -> float:
    """Largest deviation of the trace words fp from fp0, relative to max(1, |fp0|)."""
    return float(np.abs(fp - fp0).max() / max(1.0, np.abs(fp0).max()))


def _emits(*names):
    """Declare the record names a check returns; run() names its error records after them."""
    def mark(check):
        check.records = names
        return check
    return mark


# ---------------------------------------------------------------------------
# linalg


@_emits("linalg.eig_reassembly")
def _check_eig_reassembly(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    for size in range(2, 7):
        for i in range(8):
            rng = np.random.default_rng(_seed(cfg, f"eig{size}", i))
            M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            vals, g, _ = eig(M, cfg.tol)
            resid = frob(g @ M @ np.linalg.inv(g) - np.diag(vals)) / max(1.0, frob(M))
            resids.append(resid)
    return _finish("linalg.eig_reassembly", "spectral-factorization-residual",
                   _fold(resids), 1e-12, t0, "relative to max(1, ||M||)")


@_emits("linalg.solve_residual")
def _check_solve(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    for size in range(2, 7):
        rng = np.random.default_rng(_seed(cfg, f"solve{size}"))
        M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        M = M + 1.5 * np.eye(size)
        b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        x = solve(M, b, cfg.tol)
        resids.append(np.linalg.norm(M @ x - b) / np.linalg.norm(b))
    return _finish("linalg.solve_residual", "linear-solve-residual",
                   _fold(resids), 1e-12, t0, "relative to ||b||")


@_emits("linalg.match_permutation")
def _check_matching(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    mismatches = 0
    for i in range(20):
        rng = np.random.default_rng(_seed(cfg, "match", i))
        ref = spaced_points(rng, 5)
        perm = rng.permutation(5)
        noisy = ref[perm] + 1e-8 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        found = match_to_reference(noisy, ref)
        if not np.array_equal(found, np.argsort(perm)):
            mismatches += 1
    return _finish("linalg.match_permutation", "nearest-neighbor-tracking",
                   float(mismatches), 0.0, t0, "count of unrecovered permutations")


def _suite_linalg(cfg: RunConfig) -> list:
    return [_check_eig_reassembly, _check_solve, _check_matching]


# ---------------------------------------------------------------------------
# variety


@_emits("variety.level_condition")
def _check_level_condition(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    trials = _trials(cfg, 50)
    ns = _ns(cfg, 6)
    for n in ns:
        for k in cfg.k_values:
            A, B, v, w = random_points(n, k, cfg.tau,
                                       [_seed(cfg, f"lvl{n}{k}", i) for i in range(trials)])
            resids.extend((quadruple_level_residual(A, B, v, w, cfg.tau)
                           / matrix_pair_scale(A, B)).tolist())
    return _finish("variety.level_condition", "seeded-points-on-level-set",
                   _fold(resids), 1e-12, t0, "relative to max(1, ||A|| ||B||)",
                   samples=len(ns) * len(cfg.k_values) * trials)


@_emits("variety.block_identity")
def _check_block_identity(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    count = _trials(cfg, 200)
    for i in range(count):
        n = 1 + i % 6
        r = random_quadruple(n, 2, cfg.tau, _seed(cfg, "blk", i))
        resids.append(block_commutator_residual(r) / level_scale(r))
    return _finish("variety.block_identity", "pair-commutator-block-forms",
                   _fold(resids), 1e-12, t0, "relative to max(1, ||A|| ||B||)")


@_emits("variety.augment_project_roundtrip")
def _check_augment_roundtrip(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    for i in range(20):
        n = 1 + i % 5
        r = random_quadruple(n, 2, cfg.tau, _seed(cfg, "aug", i))
        back = project(augment(r))
        resids += [np.abs(back.A - r.A).max(), np.abs(back.B - r.B).max(),
                   np.abs(back.v - r.v).max(), np.abs(back.w - r.w).max()]
    return _finish("variety.augment_project_roundtrip", "border-embedding-inverse",
                   _fold(resids), 0.0, t0, "bitwise round trip")


@_emits("variety.fingerprint_gauge_invariance")
def _check_fingerprint_invariance(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    for i in range(20):
        n = 2 + i % 4
        r = random_point(n, 2, cfg.tau, _seed(cfg, "fpg", i))
        g = random_gauge(n, _seed(cfg, "fpgg", i))
        resids.append(_trace_word_error(fingerprint(gauge_act(g, r)), fingerprint(r)))
    return _finish("variety.fingerprint_gauge_invariance", "trace-words-basechange-invariant",
                   _fold(resids), 1e-9, t0, "relative to max(1, |fingerprint|)")


def _suite_variety(cfg: RunConfig) -> list:
    return [
        _check_level_condition,
        _check_block_identity,
        _check_augment_roundtrip,
        _check_fingerprint_invariance,
    ]


# ---------------------------------------------------------------------------
# canonical


def _normalized_point(cfg: RunConfig, n: int, tag: str, i: int):
    r = random_point(n, 2, cfg.tau, _seed(cfg, tag, i))
    p = augment(r)
    nf, g = normalize(p, cfg.tol)
    return p, nf, g


@_emits("canonical.normal_form_shape")
def _check_normal_form_shape(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    for i in range(20):
        n = 1 + i % 5
        _, nf, _ = _normalized_point(cfg, n, "nf", i)
        block = nf.A[:n, :n]
        off = block - np.diag(np.diag(block))
        resids += [np.abs(off).max(), np.abs(nf.A[n, :n] - 1.0).max()]
    return _finish("canonical.normal_form_shape", "diagonal-block-unit-border-row",
                   _fold(resids), 0.0, t0, "exact after snapping")


@_emits("canonical.normalize_gauge_equivalence")
def _check_normalize_equivalence(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    for i in range(20):
        n = 1 + i % 5
        p, nf, _ = _normalized_point(cfg, n, "nfe", i)
        resids.append(_trace_word_error(pair_fingerprint(nf), pair_fingerprint(p)))
    return _finish("canonical.normalize_gauge_equivalence", "normal-form-on-same-orbit",
                   _fold(resids), 1e-8, t0, "relative trace-word deviation")


@_emits("canonical.orbit_rank_regular")
def _check_orbit_rank(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    deficiencies = []
    for i in range(15):
        n = 1 + i % 5
        r = random_point(n, 2, cfg.tau, _seed(cfg, "orb", i))
        deficiencies.append(abs(orbit_dimension(augment(r), cfg.tol) - n * n))
    return _finish("canonical.orbit_rank_regular", "free-basechange-orbit-dimension",
                   _fold(deficiencies), 0.0, t0, "deviation from n^2")


@_emits("canonical.normalize_idempotent")
def _check_normalize_idempotent(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    for i in range(10):
        n = 1 + i % 5
        _, nf, _ = _normalized_point(cfg, n, "nfi", i)
        nf2, _ = normalize(nf, cfg.tol)
        resids += [frob(nf2.A - nf.A), frob(nf2.B - nf.B)]
    return _finish("canonical.normalize_idempotent", "normal-form-fixed-point",
                   _fold(resids), 1e-12, t0, "absolute matrix deviation")


def _suite_canonical(cfg: RunConfig) -> list:
    return [
        _check_normal_form_shape,
        _check_normalize_equivalence,
        _check_orbit_rank,
        _check_normalize_idempotent,
    ]


# ---------------------------------------------------------------------------
# chart


@_emits("chart.splitting_hand_case")
def _check_hand_case(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    B = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=np.complex128)
    p = AugmentedPair(A, B, 1.0)
    d = decompose(p, cfg.tol, lamhat_ref=np.array([1.0, -1.0]))
    S_want = np.array([[0.0, 0.5], [-0.5, 0.0]], dtype=np.complex128)
    resid = _fold([np.abs(d.mu).max(), np.abs(d.defect).max(),
                   np.abs(d.S - S_want).max(), np.abs(d.muhat).max()])
    return _finish("chart.splitting_hand_case", "one-site-splitting-closed-form",
                   resid, 1e-12, t0, "absolute deviation from hand values")


@_emits("chart.splitting_constraints")
def _check_splitting_constraints(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = np.empty((20, 2))
    for n in range(1, 6):
        trials = list(range(n - 1, 20, 5))    # trial i has size 1 + i % 5
        V = np.array([random_chart_point(n, cfg.tau, _seed(cfg, "spl", i)).vector()
                      for i in trials])
        A, B = from_chart_stack(V, n, cfg.tau, cfg.tol)
        d = decompose_stack(A, B, cfg.tau, cfg.tol)
        off = d.g @ d.N2 @ np.linalg.inv(d.g) - d.S
        off[..., np.arange(n + 1), np.arange(n + 1)] -= d.muhat
        resids[trials] = (np.stack([frob(d.N1 + d.N2 - B), frob(off)], axis=-1)
                          / matrix_pair_scale(A, B)[:, None])
    return _finish("chart.splitting_constraints", "second-matrix-splitting",
                   _fold(resids.ravel()), 1e-9, t0, "relative to max(1, ||A|| ||B||)")


@_emits("chart.gap_term_spectral_only")
def _check_gap_term_invariance(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    ns = _ns(cfg, 4)
    for n in ns:
        base = random_chart_point(n, cfg.tau, _seed(cfg, f"gapi{n}"))
        rng = np.random.default_rng(_seed(cfg, f"gapv{n}"))
        moments = []
        for _ in range(20):
            mu = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            muhat = rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)
            moments.append(np.concatenate([base.lam, base.lamhat, mu, muhat]))
        A, B = from_chart_stack(np.array(moments), n, cfg.tau, cfg.tol)
        S = decompose_stack(A, B, cfg.tau, cfg.tol, lamhat_ref=base.lamhat).S
        resids.extend(np.abs(S[1:] - S[0]).max(axis=(-2, -1)))
    return _finish("chart.gap_term_spectral_only", "gap-term-depends-on-spectra-only",
                   _fold(resids), 1e-10, t0, "absolute deviation across moment variations",
                   samples=20 * len(ns))


@_emits("chart.round_trip_coordinates")
def _check_round_trip_coordinates(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    trials = _trials(cfg, 20)
    ns = _ns(cfg, 5)
    for n in ns:
        coords = np.array([random_chart_point(n, cfg.tau, _seed(cfg, f"rtc{n}", i)).vector()
                           for i in range(trials)])
        back = to_chart_stack(*from_chart_stack(coords, n, cfg.tau, cfg.tol), cfg.tau, cfg.tol)
        dev = np.abs(back - coords).max(axis=-1) / np.maximum(1.0, np.abs(coords).max(axis=-1))
        resids.extend(dev)
    return _finish("chart.round_trip_coordinates", "chart-inverse-composition-identity",
                   _fold(resids), 1e-8, t0, "relative to max(1, |coords|)",
                   samples=len(ns) * trials)


@_emits("chart.round_trip_pair")
def _check_round_trip_pair(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    trials = _trials(cfg, 20)
    ns = _ns(cfg, 5)
    for n in ns:
        points = random_points(n, 2, cfg.tau, [_seed(cfg, f"rtp{n}", i) for i in range(trials)])
        A, B, gauge, gauge_inv = normal_form(*augment_stack(*points), cfg.tol)
        check_gauge(gauge, gauge_inv)
        coords = to_chart_stack(A, B, cfg.tau, cfg.tol)
        for a, b, qA, qB in zip(A, B, *from_chart_stack(coords, n, cfg.tau, cfg.tol)):
            resids.append(_trace_word_error(pair_fingerprint(AugmentedPair(qA, qB, cfg.tau)),
                                            pair_fingerprint(AugmentedPair(a, b, cfg.tau))))
    return _finish("chart.round_trip_pair", "rebuilt-pair-on-same-orbit",
                   _fold(resids), 1e-8, t0, "relative trace-word deviation",
                   samples=len(ns) * trials)


@_emits("chart.jacobian_rank")
def _check_jacobian_rank(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    deficiencies = []
    trials = _trials(cfg, 20)
    ns = _ns(cfg, 5)
    for n in ns:
        V = np.array([random_chart_point(n, cfg.tau, _seed(cfg, f"jac{n}", i)).vector()
                      for i in range(trials)])
        J = chart_jacobian_stack(V, n, cfg.tau, cfg.tol)
        deficiencies.extend(np.abs(numeric_rank(J) - (4 * n + 2)).tolist())
    return _finish("chart.jacobian_rank", "chart-coordinate-count",
                   _fold(deficiencies), 0.0, t0, "deviation from 4n+2", samples=len(ns) * trials)


def _suite_chart(cfg: RunConfig) -> list:
    return [
        _check_hand_case,
        _check_splitting_constraints,
        _check_gap_term_invariance,
        _check_round_trip_coordinates,
        _check_round_trip_pair,
        _check_jacobian_rank,
    ]


# ---------------------------------------------------------------------------
# sl2


@_emits("sl2.equivariance_exact")
def _check_equivariance(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    for i in range(20):
        n = 1 + i % 5
        r = random_quadruple(n, 2, cfg.tau, _seed(cfg, "eqv", i))
        g = random_sl2(_seed(cfg, "eqvg", i))
        via_components = augment(act_components(g, r))
        via_pair = act_pair(g, augment(r))
        resids += [np.abs(via_components.A - via_pair.A).max(),
                   np.abs(via_components.B - via_pair.B).max()]
    return _finish("sl2.equivariance_exact", "augmentation-intertwines-action",
                   _fold(resids), 0.0, t0, "bitwise agreement of the two routes")


@_emits("sl2.moment_preservation")
def _check_moment_preservation(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    trials = _trials(cfg, 100)
    for i in range(trials):
        n = 1 + i % 5
        r = random_point(n, 2, cfg.tau, _seed(cfg, "mom", i))
        g = random_sl2(_seed(cfg, "momg", i))
        out = act_components(g, r)
        resids.append(level_residual(out) / level_scale(out))
    return _finish("sl2.moment_preservation", "unit-determinant-preserves-level",
                   _fold(resids), 1e-10, t0, "relative to max(1, ||A|| ||B||)")


@_emits("sl2.determinant_control_margin")
def _check_negative_control(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    bad = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    resids = []
    for i in range(10):
        n = 1 + i % 5
        r = random_point(n, 2, cfg.tau, _seed(cfg, "neg", i))
        out = act_components(bad, r)
        resids.append(level_residual(out) / level_scale(out))
    return _finish("sl2.determinant_control_margin", "non-unimodular-breaks-level",
                   1e-3 - _fold(resids, min), 0.0, t0,
                   "margin: smallest residual must exceed 1e-3; negative passes")


@_emits("sl2.scaling_probe_margin")
def _check_scaling_probe(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    separations = []
    count = _trials(cfg, 50)
    for i in range(count):
        n = 1 + i % 5
        seed = _seed(cfg, "prb", i)
        for bump in range(10):
            r = random_point(n, 2, cfg.tau, seed + 31 * bump)
            if abs(np.trace(r.A @ r.A)) > 1e-3 * max(1.0, frob(r.A) ** 2):
                break
        before, _, sep = fixed_point_probe(r, 1.0)
        separations.append(sep / max(1.0, float(np.abs(before).max())))
    return _finish("sl2.scaling_probe_margin", "scaling-action-moves-invariants",
                   1e-6 - _fold(separations, min), 0.0, t0,
                   "margin: smallest separation must exceed 1e-6; negative passes")


def _independence_points(cfg: RunConfig) -> dict:
    points = {}
    for n in _ns(cfg, 5):
        points[n] = find_independence_point(n, cfg.tau, _seed(cfg, f"ind{n}"), cfg.tol)
    return points


@_emits("sl2.independence_rank", "sl2.independence_ratio_margin")
def _check_independence(cfg: RunConfig, find_points) -> list:
    t0 = perf_counter()
    points = find_points()
    deficiencies, ratios = [], []
    for c in points.values():
        rank, ratio = independence_rank(c, cfg.tol)
        deficiencies.append(3 - rank)
        ratios.append(ratio)
    rec1 = _finish("sl2.independence_rank", "three-fields-independent",
                   _fold(deficiencies), 0.0, t0, "rank deficiency below 3", samples=len(points))
    rec2 = _finish("sl2.independence_ratio_margin", "three-fields-independent",
                   1e-6 - _fold(ratios, min), 0.0, perf_counter(),
                   "margin: smallest/largest singular value must exceed 1e-6", samples=len(points))
    return [rec1, rec2]


@_emits("sl2.lower_shear_field_match", "sl2.lower_shear_invariance")
def _check_lower_shear_match(cfg: RunConfig, find_points) -> list:
    t0 = perf_counter()
    points = find_points()
    full, frozen = [], []
    for c in points.values():
        num = numeric_field(GEN_E, c, cfg.tol)
        ana = analytic_field(GEN_E, c)
        scale = max(1.0, float(np.abs(c.lamhat).max()))
        full.append(np.abs(num.vector() - ana.vector()).max() / scale)
        frozen += [np.abs(num.d_lam).max() / scale, np.abs(num.d_lamhat).max() / scale,
                   np.abs(num.d_mu).max() / scale]
    rec1 = _finish("sl2.lower_shear_field_match", "shear-field-closed-form",
                   _fold(full), 1e-6, t0, "relative to max(1, |spectrum|)", samples=len(points))
    rec2 = _finish("sl2.lower_shear_invariance", "shear-fixes-spectra-and-row-moments",
                   _fold(frozen), 1e-7, perf_counter(), "relative to max(1, |spectrum|)",
                   samples=len(points))
    return [rec1, rec2]


@_emits("sl2.trace_component_match")
def _check_trace_components(cfg: RunConfig, find_points) -> CheckRecord:
    t0 = perf_counter()
    points = find_points()
    resids = []
    for c in points.values():
        for gen in (GEN_F, GEN_H):
            num = numeric_field(gen, c, cfg.tol)
            ana = analytic_field(gen, c).d_s
            got = num.s_components(2)
            scale = max(1.0, *(abs(v) for v in ana.values()))
            resids += [abs(got[k] - ana[k]) / scale for k in (1, 2)]
    return _finish("sl2.trace_component_match", "scaling-and-upper-shear-trace-rates",
                   _fold(resids), 1e-6, t0, "relative to max(1, |component|)", samples=len(points))


@_emits("sl2.slice_tangency")
def _check_slice_tangency(cfg: RunConfig, find_points) -> CheckRecord:
    t0 = perf_counter()
    points = find_points()
    resids = []
    for c in points.values():
        scale = pair_scale(from_chart(c, cfg.tol))
        for gen in (GEN_E, GEN_F, GEN_H):
            resids += [r / scale for r in slice_tangency(gen, c, cfg.tol)]
    return _finish("sl2.slice_tangency", "fields-tangent-to-embedded-slice",
                   _fold(resids), 1e-7, t0, "relative to max(1, ||A|| ||B||)", samples=len(points))


@_emits("sl2.scaling_spectra")
def _check_scaling_spectra(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    for i in range(5):
        n = 1 + i % 3
        c = random_chart_point(n, cfg.tau, _seed(cfg, "hsc", i))
        p = from_chart(c, cfg.tol)
        q = act_pair(GEN_H.exp(0.1), p)
        factor = np.exp(0.1)
        vals_q, _, _ = eig(q.A, cfg.tol)
        want = factor * c.lamhat
        perm = match_to_reference(vals_q, want)
        resids.append(np.abs(vals_q[perm] - want).max())
        block_q = q.A[:n, :n]
        if n > 1:
            vals_b, _, _ = eig(block_q, cfg.tol)
            want_b = factor * c.lam
            perm_b = match_to_reference(vals_b, want_b)
            resids.append(np.abs(vals_b[perm_b] - want_b).max())
        else:
            resids.append(abs(block_q[0, 0] - factor * c.lam[0]))
    return _finish("sl2.scaling_spectra", "joint-exponential-scaling-of-spectra",
                   _fold(resids), 1e-9, t0, "absolute eigenvalue deviation at t=0.1")


def _suite_sl2(cfg: RunConfig) -> list:
    # found by the first check that needs them, and charged to it; when the
    # search raises, every check that needs them records the error
    points = cache(lambda: _independence_points(cfg))
    return [
        _check_equivariance,
        _check_moment_preservation,
        _check_negative_control,
        _check_scaling_probe,
        partial(_check_independence, find_points=points),
        partial(_check_lower_shear_match, find_points=points),
        partial(_check_trace_components, find_points=points),
        partial(_check_slice_tangency, find_points=points),
        _check_scaling_spectra,
    ]


# ---------------------------------------------------------------------------
# flowcalc


def _flow_base_points(cfg: RunConfig, tag: str) -> list:
    points = []
    for n in _ns(cfg, 3):
        for i in range(5):
            c = random_chart_point(n, cfg.tau, _seed(cfg, f"{tag}{n}", i))
            points.append(from_chart(c, cfg.tol))
    return points


@_emits("flowcalc.trotter_rate")
def _check_trotter_rate(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    slopes = []
    points = _flow_base_points(cfg, "tro")
    for p in points:
        fp0 = pair_fingerprint(trotter_target(GEN_E, GEN_F, TROTTER_TIME, p))
        flows = (trotter_flow(GEN_E, GEN_F, TROTTER_TIME, m, p) for m in TROTTER_STEPS)
        errs = [max(_trace_word_error(pair_fingerprint(q), fp0), 1e-300) for q in flows]
        coef = np.polyfit(np.log(TROTTER_STEPS), np.log(errs), 1)
        slopes.append(-float(coef[0]))
    note = "order in 1/steps; measured slopes " + ", ".join(f"{s:.3f}" for s in slopes)
    return _finish("flowcalc.trotter_rate", "split-composition-first-order",
                   _fold(abs(s - 1.0) for s in slopes), 0.3, t0, note, samples=len(points))


@_emits("flowcalc.bracket_final_error", "flowcalc.bracket_monotone")
def _check_bracket_limit(cfg: RunConfig) -> list:
    t0 = perf_counter()
    finals, increases = [], []
    points = _flow_base_points(cfg, "brk")
    for p in points:
        fp0 = pair_fingerprint(bracket_target(GEN_E, GEN_F, BRACKET_TIME, p))
        flows = (bracket_flow(GEN_E, GEN_F, BRACKET_TIME, m, p) for m in BRACKET_STEPS)
        errs = [_trace_word_error(pair_fingerprint(q), fp0) for q in flows]
        finals.append(errs[-1])
        increases += [b - a for a, b in zip(errs, errs[1:])]
    rec1 = _finish("flowcalc.bracket_final_error", "commutator-composition-limit",
                   _fold(finals), 1e-3, t0,
                   f"relative trace-word error at {BRACKET_STEPS[-1]} squares, t={BRACKET_TIME}",
                   samples=len(points))
    rec2 = _finish("flowcalc.bracket_monotone", "commutator-composition-limit",
                   _fold(increases), 0.0, perf_counter(),
                   "largest error increase across the step ladder; negative passes",
                   samples=len(points))
    return [rec1, rec2]


@_emits("flowcalc.bracket_sign_consistency")
def _check_bracket_sign(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    mismatches = 0
    points = _flow_base_points(cfg, "sgn")[:5]
    for p in points:
        if detect_bracket_sign(0.2, 256, p) != -BRACKET_SIGN:
            mismatches += 1
    return _finish("flowcalc.bracket_sign_consistency", "global-bracket-sign",
                   float(mismatches), 0.0, t0,
                   "commutator flow lands on minus the matrix bracket at every point",
                   samples=len(points))


@_emits("flowcalc.commuting_generators")
def _check_commuting_cases(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    c = random_chart_point(2, cfg.tau, _seed(cfg, "comm"))
    p = from_chart(c, cfg.tol)
    scale = pair_scale(p)
    same_trotter = pair_distance(
        trotter_flow(GEN_E, GEN_E, 0.3, 64, p),
        trotter_target(GEN_E, GEN_E, 0.3, p),
    )
    same_bracket = pair_distance(bracket_flow(GEN_E, GEN_E, 0.3, 64, p), p)
    resid = _fold([same_trotter, same_bracket]) / scale
    return _finish("flowcalc.commuting_generators", "commuting-flows-compose-exactly",
                   resid, 1e-12, t0, "relative to max(1, ||A|| ||B||)")


@_emits("flowcalc.shear_pullback_degrees")
def _check_shear_degrees(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    c = random_chart_point(2, cfg.tau, _seed(cfg, "lnd"))
    p = from_chart(c, cfg.tol)
    cases = (
        ("trace_first", 0),
        ("trace_second", 1),
        ("trace_second_sq", 2),
    )
    total = 0
    for obs, want in cases:
        got = lnd_degree("e", obs, p)
        total += 99 if got is None else abs(got - want)
    return _finish("flowcalc.shear_pullback_degrees", "unipotent-flows-polynomial",
                   float(total), 0.0, t0, "sum of degree deviations over hand cases")


@_emits("flowcalc.witness_triple")
def _check_witness(cfg: RunConfig) -> CheckRecord:
    t0 = perf_counter()
    resids = []
    count = _trials(cfg, 20)
    for i in range(count):
        n = 1 + i % 4
        seed = _seed(cfg, "wit", i)
        for bump in range(10):
            c = random_chart_point(n, cfg.tau, seed + 31 * bump)
            p = from_chart(c, cfg.tol)
            if abs(np.trace(p.A)) > 0.1:
                break
        report = compatible_witness(p)
        resids.append(report.residual / report.scale)
    return _finish("flowcalc.witness_triple", "trace-witness-derivative-identities",
                   _fold(resids), 1e-10, t0, "relative to max(1, ||A||, ||B||)")


def _suite_flowcalc(cfg: RunConfig) -> list:
    return [
        _check_trotter_rate,
        _check_bracket_limit,
        _check_bracket_sign,
        _check_commuting_cases,
        _check_shear_degrees,
        _check_witness,
    ]


# ---------------------------------------------------------------------------
# quiver


@_emits("quiver.dictionary_consistency", "quiver.literal_dictionary_recorded")
def _check_dictionary(cfg: RunConfig) -> list:
    t0 = perf_counter()
    count = _trials(cfg, 20)
    label_sets = []
    literal_flags = []
    for i in range(count):
        n = 1 + i % 4
        r = random_point(n, 2, cfg.tau, _seed(cfg, "qvr", i))
        report = calibrate_dictionary(r)
        label_sets.append(tuple(sorted(v.label() for v in report.admissible)))
        literal_flags.append(report.literal_admissible)
    disagreements = sum(1 for s in label_sets if s != label_sets[0])
    note = f"admissible: {list(label_sets[0])}; literal admissible: {literal_flags[0]}"
    rec1 = _finish("quiver.dictionary_consistency", "admissible-conventions-point-independent",
                   float(disagreements), 0.0, t0, note)
    rec2 = _finish("quiver.literal_dictionary_recorded", "printed-dictionary-membership",
                   0.0, 0.0, perf_counter(),
                   f"literal admissible: {all(literal_flags)}")
    return [rec1, rec2]


def _suite_quiver(cfg: RunConfig) -> list:
    return [_check_dictionary]


# ---------------------------------------------------------------------------
# assembly


_SUITE_RUNNERS = {
    "linalg": _suite_linalg,
    "variety": _suite_variety,
    "canonical": _suite_canonical,
    "chart": _suite_chart,
    "sl2": _suite_sl2,
    "flowcalc": _suite_flowcalc,
    "quiver": _suite_quiver,
}


def expand_suites(names) -> list:
    out = []
    for name in names:
        if name == "all":
            out.extend(SUITE_NAMES)
        elif name in SUITE_NAMES:
            out.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}")
    seen = set()
    ordered = []
    for name in out:
        if name not in seen:
            seen.add(name)
            ordered.append(name)
    return ordered


def _run_check(check, cfg: RunConfig) -> list:
    """The records of one check; a package error becomes one error record per declared name."""
    t0 = perf_counter()
    try:
        out = check(cfg)
    except CMSpacesError as exc:
        names = getattr(check, "func", check).records
        note = f"{type(exc).__name__} at seed {cfg.seed}: {exc}"
        return [CheckRecord(name, "check-execution", "error", None, 0.0,
                            (perf_counter() - t0) * 1000.0 if i == 0 else 0.0, note)
                for i, name in enumerate(names)]
    return out if isinstance(out, list) else [out]


def run(cfg: RunConfig) -> dict:
    """Run the selected suites and assemble the report dictionary.

    A check that raises a package error is recorded with status "error"
    rather than aborting its suite or the report.
    """
    records = []
    for name in expand_suites(cfg.suites):
        for check in _SUITE_RUNNERS[name](cfg):
            records.extend(_run_check(check, cfg))
    records.sort(key=lambda r: r.name)
    passed = sum(1 for r in records if r.status == "pass")
    failed = sum(1 for r in records if r.status == "fail")
    errored = sum(1 for r in records if r.status == "error")
    skipped = sum(1 for r in records if r.status == "skipped")
    return {
        "schema": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "records": [r.to_dict() for r in records],
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": failed,
            "errors": errored,
            "skipped": skipped,
        },
    }
