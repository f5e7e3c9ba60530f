"""Self-check suites with machine-readable reports.

Each check is declared once, with `_declare`: one (name, law, threshold)
per record it returns, registered under the suite its record names start
with, in definition order.  The check draws its own seeded inputs and
returns what it measured, one `_Measured` per record: a residual
normalized by the scale stated in its note, and for a sweep over the
requested sizes the sample count.  `_run_check` times it and builds every
record.  A record passes iff residual <= threshold.  Checks that must
EXCEED a floor are phrased as margins (residual = floor - observed,
threshold 0) so the pass rule stays uniform.  A non-finite residual (an
overflowed sample, wherever it sits in the sweep) fails, recorded with no
residual.  A sweep with no sample in its range is recorded as "skipped",
with no residual, never as a pass.  Each check runs on its own: one that
raises a package error is recorded with status "error", no residual, and
the exception and seed in its note, and the other checks of its suite
still run; callers map that to a distinct exit code.  A check may also
return a package error in place of one record's measurement, which
records that one as "error" in the same way.  Records sort by name
before emission and reports are deterministic for a fixed config
(runtime_ms aside).
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .canonical import normal_form, orbit_dimension
from .chart import (
    chart_jacobian_stack,
    decompose,
    decompose_stack,
    from_chart,
    from_chart_stack,
    random_chart_point,
    random_chart_points,
    to_chart_stack,
    unpack,
)
from .errors import CMSpacesError
from .flowcalc import (
    BRACKET_SIGN,
    bracket_flow,
    compatible_witness,
    detect_bracket_sign,
    ladder_fingerprints,
    lnd_degree,
    pair_distance,
    trotter_flow,
    trotter_target,
)
from .linalg import (
    as_finite,
    comm,
    eig,
    eigvals,
    frob,
    gather,
    match_to_reference,
    matrix_scale,
    numeric_rank,
    pair_scale,
    solve,
    value_scale,
)
from .sl2 import (
    GEN_E,
    GEN_F,
    GEN_H,
    GENERATORS,
    ChartTangent,
    act_components_stack,
    act_pair_stack,
    analytic_field,
    coefficients,
    fields_rank,
    find_independence_point,
    fixed_point_probe_stack,
    induced_fields,
    numeric_field,
    random_sl2s,
    slice_rates,
)
from .variety import (
    ALL_DICTIONARY_VARIANTS,
    LITERAL_DICTIONARY,
    AugmentedPair,
    augment_stack,
    calibrate_dictionary_stack,
    complex_uniforms_from,
    fingerprints,
    gauge_act_stack,
    level_shift,
    pair_fingerprints,
    project_stack,
    quadruple_block_residual,
    quadruple_level_residual,
    random_gauges,
    random_points,
    random_quadruples,
    seeded_streams,
    spaced_points,
)

SCHEMA_VERSION = "cmspaces-report/1"

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
    tau: complex = 1.0
    seed: int = 1
    tol: float = 1e-9
    trials: int | None = None
    suites: tuple = ("all",)

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values) if self.n_values else None,
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


class _Measured(NamedTuple):
    """What a check measured for one of its records."""

    residual: float
    note: str = ""
    samples: int | None = None  # set by the sweeps over the requested sizes


_CHECKS = []  # every declared check, in definition (= run) order


def _declare(*records):
    """Declare the (name, law, threshold) of each record a check returns.

    The check is registered under the suite its record names start with.
    """
    def register(check):
        check.records = records
        check.suite = records[0][0].split(".")[0]
        _CHECKS.append(check)
        return check
    return register


def _seed(cfg: RunConfig, tag: str, i: int = 0) -> int:
    return cfg.seed * 10_000_000 + zlib.crc32(tag.encode()) % 1_000_000 + 1000 * i


def _ns(cfg: RunConfig, pinned_max: int) -> list:
    if cfg.n_values:
        return [n for n in cfg.n_values if 1 <= n <= pinned_max]
    return list(range(1, pinned_max + 1))


def _trials(cfg: RunConfig, pinned: int) -> int:
    return cfg.trials if cfg.trials else pinned


def _fold(samples, pick=max) -> float:
    """pick() of the samples, except that a non-finite sample wins wherever it sits.

    A running max or min drops a NaN that comes second (max(0.0, nan) is
    0.0), which would let an overflowed measurement pass.
    """
    samples = list(samples)
    bad = [x for x in samples if not math.isfinite(x)]
    return bad[0] if bad else pick(samples, default=math.nan)


def _trace_word_error(fp, fp0):
    """Largest deviation of the trace words fp from fp0, relative to value_scale(fp0).

    The words run along the last axis, so stacked fingerprints give one
    error per item.
    """
    return np.abs(fp - fp0).max(axis=-1) / value_scale(fp0)


def _per_size(sizes, kernel) -> list:
    """kernel(n, trials) for the trials of each size n, one call per size, in trial order.

    Trial i has size sizes[i]; kernel returns one result per trial it is
    given, in their order.  When a call raises a package error, the
    error raised is that of the first trial, in trial order, whose call
    alone raises: the one a loop over the trials would stop at.
    """
    by_size = {}
    for i, n in enumerate(sizes):
        by_size.setdefault(n, []).append(i)
    results, failing, error = [None] * len(sizes), [], None
    for n, trials in by_size.items():
        try:
            stack = list(kernel(n, trials))
        except CMSpacesError as exc:
            failing, error = failing + trials, error or exc
            continue
        for i, x in zip(trials, stack, strict=True):
            results[i] = x
    for i in sorted(failing):
        kernel(sizes[i], [i])
    if error:
        raise error
    return results


def _tag_streams(cfg: RunConfig, count: int, *tags) -> list:
    """Per tag, the seeded streams of _seed(cfg, tag, i) for i < count, all tags hashed in one call.

    A check draws its seeded inputs from these: item i of a tag's streams
    is trial i's.
    """
    streams = seeded_streams([_seed(cfg, tag, i) for tag in tags for i in range(count)])
    return [streams[range(j * count, (j + 1) * count)] for j in range(len(tags))]


def _points(cfg: RunConfig, n: int, streams):
    """random_points(n, 2, cfg.tau, streams), once every entry is finite.

    A non-finite entry raises ShapeMismatchError, as a Representation of
    the drawn quadruple would.
    """
    return as_finite(*random_points(n, 2, cfg.tau, streams))


def _level_residuals(cfg: RunConfig, A, B, v, w):
    """Level residuals of stacked quadruples at cfg.tau, relative to pair_scale(A, B)."""
    with np.errstate(over="ignore"):    # a scale past the float range is inf, as a float product
        scale = pair_scale(A, B)
    return quadruple_level_residual(A, B, v, w, cfg.tau) / scale


def _bumped(seeds, draw, accepts) -> list:
    """draw(seeds), with each rejected item redrawn at seed + 31 b for b = 1..9 until accepted.

    draw returns arrays stacked over the seeds it is given, and accepts
    takes the first of them and returns a mask over its items.  Round b
    redraws only the items still rejected, so each item is the draw a
    loop over its bumps stops at: the first accepted, or else the one at
    bump 9.
    """
    points = list(draw(seeds))
    todo = np.flatnonzero(~accepts(points[0]))
    for bump in range(1, 10):
        if not todo.size:
            break
        redrawn = draw([seeds[i] + 31 * bump for i in todo])
        for x, y in zip(points, redrawn, strict=True):
            x[todo] = y
        todo = todo[~accepts(redrawn[0])]
    return points


# ---------------------------------------------------------------------------
# linalg


@_declare(("linalg.eig_reassembly", "spectral-factorization-residual", 1e-12))
def _check_eig_reassembly(cfg: RunConfig) -> _Measured:
    sizes = [2 + t // 8 for t in range(40)]     # trial t is the (t % 8)-th of its size
    streams = seeded_streams([_seed(cfg, f"eig{size}", t % 8) for t, size in enumerate(sizes)])

    def residuals(size, trials):    # each M: size x size normals, real then imaginary parts
        Z = np.array([rng.standard_normal((2, size, size)) for rng in streams[trials]])
        M = Z[:, 0] + 1j * Z[:, 1]
        vals, g, ginv = eig(M, cfg.tol)
        R = g @ M @ ginv
        R[..., np.arange(size), np.arange(size)] -= vals
        return frob(R) / matrix_scale(M)

    resids = _per_size(sizes, residuals)
    return _Measured(_fold(resids), f"relative to {matrix_scale.text('M')}")


@_declare(("linalg.solve_residual", "linear-solve-residual", 1e-12))
def _check_solve(cfg: RunConfig) -> _Measured:
    resids, sizes = [], range(2, 7)
    for size, rng in zip(sizes, seeded_streams([_seed(cfg, f"solve{size}") for size in sizes])):
        M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        M = M + 1.5 * np.eye(size)
        b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        x = solve(M, b, cfg.tol)
        resids.append(np.linalg.norm(M @ x - b) / np.linalg.norm(b))
    return _Measured(_fold(resids), "relative to ||b||")


@_declare(("linalg.match_permutation", "nearest-neighbor-tracking", 0.0))
def _check_matching(cfg: RunConfig) -> _Measured:
    mismatches = 0
    for rng in seeded_streams([_seed(cfg, "match", i) for i in range(20)]):
        ref = spaced_points(rng, 5)
        perm = rng.permutation(5)
        noisy = ref[perm] + 1e-8 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        found = match_to_reference(noisy, ref)
        if not np.array_equal(found, np.argsort(perm)):
            mismatches += 1
    return _Measured(float(mismatches), "count of unrecovered permutations")


# ---------------------------------------------------------------------------
# variety


@_declare(("variety.level_condition", "seeded-points-on-level-set", 1e-12))
def _check_level_condition(cfg: RunConfig) -> _Measured:
    resids = []
    trials = _trials(cfg, 50)
    groups = [(n, k) for n in _ns(cfg, 6) for k in (1, 2)]
    streams = _tag_streams(cfg, trials, *(f"lvl{n}{k}" for n, k in groups))
    for (n, k), drawn in zip(groups, streams):
        resids.extend(_level_residuals(cfg, *random_points(n, k, cfg.tau, drawn)))
    return _Measured(_fold(resids), f"relative to {pair_scale.text('A', 'B')}",
                     len(groups) * trials)


@_declare(("variety.block_identity", "pair-commutator-block-forms", 1e-12))
def _check_block_identity(cfg: RunConfig) -> _Measured:
    count = _trials(cfg, 200)
    streams, = _tag_streams(cfg, count, "blk")

    def residuals(n, trials):
        A, B, v, w = random_quadruples(n, 2, cfg.tau, streams[trials])
        return quadruple_block_residual(A, B, v, w) / pair_scale(A, B)

    resids = _per_size([1 + i % 6 for i in range(count)], residuals)
    return _Measured(_fold(resids), f"relative to {pair_scale.text('A', 'B')}")


@_declare(("variety.augment_project_roundtrip", "border-embedding-inverse", 0.0))
def _check_augment_roundtrip(cfg: RunConfig) -> _Measured:
    streams, = _tag_streams(cfg, 20, "aug")

    def deviations(n, trials):
        drawn = random_quadruples(n, 2, cfg.tau, streams[trials])
        back = project_stack(*augment_stack(*drawn))
        return np.stack([np.abs(x - y).max(axis=(-2, -1)) for x, y in zip(back, drawn)], axis=-1)
    resids = np.ravel(_per_size([1 + i % 5 for i in range(20)], deviations))
    return _Measured(_fold(resids), "bitwise round trip")


@_declare(("variety.fingerprint_gauge_invariance", "trace-words-basechange-invariant", 1e-9))
def _check_fingerprint_invariance(cfg: RunConfig) -> _Measured:
    sizes = [2 + i % 4 for i in range(20)]
    point_streams, gauge_streams = _tag_streams(cfg, 20, "fpg", "fpgg")

    def residuals(n, trials):
        drawn = _points(cfg, n, point_streams[trials])
        acted = gauge_act_stack(*random_gauges(n, gauge_streams[trials]), *drawn)
        return _trace_word_error(fingerprints(*acted), fingerprints(*drawn))

    resids = _per_size(sizes, residuals)
    return _Measured(_fold(resids), f"relative to {value_scale.text('fingerprint')}")


# ---------------------------------------------------------------------------
# canonical


def _normalized(cfg: RunConfig, tag: str, count: int, measure) -> list:
    """measure(A, B, *normal_form(A, B)) per trial, in trial order; trial i has size 1 + i % 5.

    (A, B) are the seeded augmented pairs of one size, stacked, with one normal_form
    call per size; measure returns one result per item and raises no package error.
    """
    streams, = _tag_streams(cfg, count, tag)

    def normalized(n, trials):
        A, B = augment_stack(*random_points(n, 2, cfg.tau, streams[trials]))
        return measure(A, B, *normal_form(A, B, cfg.tol))
    return _per_size([1 + i % 5 for i in range(count)], normalized)


@_declare(("canonical.normal_form_shape", "diagonal-block-unit-border-row", 1e-12))
def _check_normal_form_shape(cfg: RunConfig) -> _Measured:
    def deviations(A, B, Ah, Bh, G, Gi):
        conj = A.copy()      # diag(G, 1) A diag(Ginv, 1), before normal_form snaps it
        conj[..., :-1, :] = G @ conj[..., :-1, :]
        conj[..., :, :-1] = conj[..., :, :-1] @ Gi
        return frob(conj - Ah) / matrix_scale(A)
    resids = np.ravel(_normalized(cfg, "nf", 20, deviations))
    return _Measured(_fold(resids), f"gauge conjugate less the form, over {matrix_scale.text('A')}")


@_declare(("canonical.normalize_gauge_equivalence", "normal-form-on-same-orbit", 1e-8))
def _check_normalize_equivalence(cfg: RunConfig) -> _Measured:
    def deviations(A, B, Ah, Bh, *_):
        fp = pair_fingerprints(np.stack([Ah, A]), np.stack([Bh, B]))
        return _trace_word_error(fp[0], fp[1])
    return _Measured(_fold(_normalized(cfg, "nfe", 20, deviations)),
                     "relative trace-word deviation")


@_declare(("canonical.orbit_rank_regular", "free-basechange-orbit-dimension", 0.0))
def _check_orbit_rank(cfg: RunConfig) -> _Measured:
    streams, = _tag_streams(cfg, 15, "orb")

    def deficiencies(n, trials):
        A, _ = augment_stack(*_points(cfg, n, streams[trials]))
        return np.abs(orbit_dimension(A, cfg.tol) - n * n).tolist()
    return _Measured(_fold(_per_size([1 + i % 5 for i in range(15)], deficiencies)),
                     "deviation from n^2")


@_declare(("canonical.normalize_idempotent", "normal-form-fixed-point", 1e-12))
def _check_normalize_idempotent(cfg: RunConfig) -> _Measured:
    # two sweeps, so that a failing first normalization is recorded before
    # a failing second one, wherever their trials sit
    sizes = [1 + i % 5 for i in range(10)]
    forms = _normalized(cfg, "nfi", 10, lambda A, B, Ah, Bh, *_: zip(Ah, Bh))

    def deviations(n, trials):
        Ah, Bh = (np.stack(x) for x in zip(*(forms[i] for i in trials)))
        A2, B2 = normal_form(Ah, Bh, cfg.tol)[:2]
        return np.stack([frob(A2 - Ah), frob(B2 - Bh)], axis=-1)
    return _Measured(_fold(np.ravel(_per_size(sizes, deviations))), "absolute matrix deviation")


# ---------------------------------------------------------------------------
# chart


@_declare(("chart.splitting_hand_case", "one-site-splitting-closed-form", 1e-12))
def _check_hand_case(cfg: RunConfig) -> _Measured:
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    B = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=np.complex128)
    p = AugmentedPair(A, B, 1.0)
    d = decompose(p, cfg.tol, lamhat_ref=np.array([1.0, -1.0]))
    S_want = np.array([[0.0, 0.5], [-0.5, 0.0]], dtype=np.complex128)
    resid = _fold([np.abs(d.mu).max(), np.abs(d.defect).max(),
                   np.abs(d.S - S_want).max(), np.abs(d.muhat).max()])
    return _Measured(resid, "absolute deviation from hand values")


@_declare(("chart.splitting_constraints", "second-matrix-splitting", 1e-9))
def _check_splitting_constraints(cfg: RunConfig) -> _Measured:
    streams, = _tag_streams(cfg, 20, "spl")

    def residuals(n, trials):
        A, B = from_chart_stack(random_chart_points(n, cfg.tau, streams[trials]), cfg.tau, cfg.tol)
        d = decompose_stack(A, B, cfg.tau, cfg.tol)
        law = comm(A, d.N2) - level_shift(n, cfg.tau)   # [A, N2] = shift + defect e_n^T
        law[..., :n, n] -= d.defect
        return np.stack([frob(d.N1 + d.N2 - B), frob(law)], axis=-1) / pair_scale(A, B)[:, None]
    resids = _per_size([1 + i % 5 for i in range(20)], residuals)
    return _Measured(_fold(np.ravel(resids)), f"relative to {pair_scale.text('A', 'B')}")


@_declare(("chart.gap_term_spectral_only", "gap-term-depends-on-spectra-only", 1e-10))
def _check_gap_term_invariance(cfg: RunConfig) -> _Measured:
    resids = []
    ns = _ns(cfg, 4)
    streams = _tag_streams(cfg, 1, *(f"gap{x}{n}" for n in ns for x in "iv"))
    for n, base, variations in zip(ns, streams[0::2], streams[1::2]):
        lam, lamhat, _, _ = unpack(random_chart_points(n, cfg.tau, base)[0])
        # per variation, the doubles of uniform(-1, 1) draws: mu's real and
        # imaginary parts (n each), then muhat's (n + 1 each)
        U = variations.rows(20 * (4 * n + 2)).reshape(20, 4 * n + 2)
        mu = complex_uniforms_from(U[:, :n], U[:, n:2 * n])
        muhat = complex_uniforms_from(U[:, 2 * n:3 * n + 1], U[:, 3 * n + 1:])
        moments = np.concatenate([np.broadcast_to(np.concatenate([lam, lamhat]), (20, 2 * n + 1)),
                                  mu, muhat], axis=-1)
        A, B = from_chart_stack(moments, cfg.tau, cfg.tol)
        S = decompose_stack(A, B, cfg.tau, cfg.tol, lamhat_ref=lamhat).S
        resids.extend(np.abs(S[1:] - S[0]).max(axis=(-2, -1)))
    return _Measured(_fold(resids), "absolute deviation across moment variations", 20 * len(ns))


@_declare(("chart.round_trip_coordinates", "chart-inverse-composition-identity", 1e-8))
def _check_round_trip_coordinates(cfg: RunConfig) -> _Measured:
    resids = []
    trials = _trials(cfg, 20)
    ns = _ns(cfg, 5)
    for n, streams in zip(ns, _tag_streams(cfg, trials, *(f"rtc{n}" for n in ns))):
        coords = random_chart_points(n, cfg.tau, streams)
        back = to_chart_stack(*from_chart_stack(coords, cfg.tau, cfg.tol), cfg.tau, cfg.tol)
        dev = np.abs(back - coords).max(axis=-1) / value_scale(coords)
        resids.extend(dev)
    return _Measured(_fold(resids), f"relative to {value_scale.text('coords')}", len(ns) * trials)


@_declare(("chart.round_trip_pair", "rebuilt-pair-on-same-orbit", 1e-8))
def _check_round_trip_pair(cfg: RunConfig) -> _Measured:
    resids = []
    trials = _trials(cfg, 20)
    ns = _ns(cfg, 5)
    for n, streams in zip(ns, _tag_streams(cfg, trials, *(f"rtp{n}" for n in ns))):
        points = random_points(n, 2, cfg.tau, streams)
        A, B, _, _ = normal_form(*augment_stack(*points), cfg.tol)
        qA, qB = from_chart_stack(to_chart_stack(A, B, cfg.tau, cfg.tol), cfg.tau, cfg.tol)
        fp = pair_fingerprints(np.stack([qA, A]), np.stack([qB, B]))
        resids.extend(_trace_word_error(fp[0], fp[1]))
    return _Measured(_fold(resids), "relative trace-word deviation", len(ns) * trials)


@_declare(("chart.jacobian_rank", "chart-coordinate-count", 0.0))
def _check_jacobian_rank(cfg: RunConfig) -> _Measured:
    deficiencies = []
    trials = _trials(cfg, 20)
    ns = _ns(cfg, 5)
    for n, streams in zip(ns, _tag_streams(cfg, trials, *(f"jac{n}" for n in ns))):
        J = chart_jacobian_stack(random_chart_points(n, cfg.tau, streams), cfg.tau, cfg.tol)
        deficiencies.extend(np.abs(_jacobian_ranks(J) - (4 * n + 2)).tolist())
    return _Measured(_fold(deficiencies), "deviation from 4n+2", len(ns) * trials)


def _jacobian_ranks(J) -> np.ndarray:
    """numeric_rank of each Jacobian in the stack J, with no SVD where a certificate settles it.

    ||J - I||_F <= 1/2 bounds every singular value of J within 1/2 of 1,
    so sigma_min / sigma_max >= 1/3, far above numeric_rank's cutoff:
    such an item has full rank.  Every other item, a non-finite one too,
    goes to numeric_rank.
    """
    k = J.shape[-1]
    with np.errstate(all="ignore"):
        certified = frob(J - np.eye(k)) <= 0.5
    ranks = np.full(J.shape[:-2], k)
    if not certified.all():
        ranks[~certified] = numeric_rank(J[~certified])
    return ranks


# ---------------------------------------------------------------------------
# sl2


@_declare(("sl2.equivariance_exact", "augmentation-intertwines-action", 0.0))
def _check_equivariance(cfg: RunConfig) -> _Measured:
    point_streams, element_streams = _tag_streams(cfg, 20, "eqv", "eqvg")
    elements = random_sl2s(element_streams)

    def deviations(n, trials):
        coeffs = coefficients([elements[i] for i in trials])
        drawn = random_quadruples(n, 2, cfg.tau, point_streams[trials])
        via_components = augment_stack(*act_components_stack(coeffs, *drawn))
        via_pair = act_pair_stack(coeffs, *augment_stack(*drawn))
        return np.stack([np.abs(x - y).max(axis=(-2, -1))
                         for x, y in zip(via_components, via_pair)], axis=-1)
    resids = np.ravel(_per_size([1 + i % 5 for i in range(20)], deviations))
    return _Measured(_fold(resids), "bitwise agreement of the two routes")


@_declare(("sl2.moment_preservation", "unit-determinant-preserves-level", 1e-10))
def _check_moment_preservation(cfg: RunConfig) -> _Measured:
    count = _trials(cfg, 100)
    point_streams, element_streams = _tag_streams(cfg, count, "mom", "momg")

    def residuals(n, trials):
        coeffs = coefficients(random_sl2s(element_streams[trials]))
        points = random_points(n, 2, cfg.tau, point_streams[trials])
        return _level_residuals(cfg, *act_components_stack(coeffs, *points))
    resids = _per_size([1 + i % 5 for i in range(count)], residuals)
    return _Measured(_fold(resids), f"relative to {pair_scale.text('A', 'B')}")


@_declare(("sl2.determinant_control_margin", "non-unimodular-breaks-level", 0.0))
def _check_negative_control(cfg: RunConfig) -> _Measured:
    streams, = _tag_streams(cfg, 10, "neg")

    def residuals(n, trials):   # by the unimodular-breaking element diag(2, 1)
        points = random_points(n, 2, cfg.tau, streams[trials])
        return _level_residuals(cfg, *act_components_stack((2.0, 0.0, 0.0, 1.0), *points))
    resids = _per_size([1 + i % 5 for i in range(10)], residuals)
    return _Measured(1e-3 - _fold(resids, min),
                     "margin: smallest residual must exceed 1e-3; negative passes")


def _probe_accepts(A) -> np.ndarray:
    """The scaling probe's test of its stacked points: |tr A^2| > 1e-3 matrix_scale(A)^2."""
    return np.abs(np.trace(A @ A, axis1=-2, axis2=-1)) > 1e-3 * matrix_scale(A) ** 2


def _probe_points(cfg: RunConfig, n: int, trials) -> list:
    """The scaling probe's points of size n for the given trials, stacked (A, B, v, w).

    Each trial draws random_point(n, 2, tau, seed + 31 b) at its own seed
    for the bumps b = 0..9 until _probe_accepts takes the point, as
    _bumped rounds; a drawn entry that is not finite raises, as the
    one-point draw does.
    """
    return _bumped([_seed(cfg, "prb", i) for i in trials],
                   lambda seeds: as_finite(*random_points(n, 2, cfg.tau, seeds)), _probe_accepts)


@_declare(("sl2.scaling_probe_margin", "scaling-action-moves-invariants", 0.0))
def _check_scaling_probe(cfg: RunConfig) -> _Measured:
    def separations(n, trials):
        before, _, sep = fixed_point_probe_stack(*_probe_points(cfg, n, trials), 1.0)
        # in Python floats: a numpy inf / inf warns
        return [x / y for x, y in zip(sep.tolist(), value_scale(before).tolist())]

    found = _per_size([1 + i % 5 for i in range(_trials(cfg, 50))], separations)
    return _Measured(1e-6 - _fold(found, min),
                     "margin: smallest separation must exceed 1e-6; negative passes")


@_declare(("sl2.independence_rank", "three-fields-independent", 0.0),
          ("sl2.independence_ratio_margin", "three-fields-independent", 0.0),
          ("sl2.lower_shear_field_match", "shear-field-closed-form", 1e-6),
          ("sl2.lower_shear_invariance", "shear-fixes-spectra-and-row-moments", 1e-7),
          ("sl2.trace_component_match", "scaling-and-upper-shear-trace-rates", 1e-6),
          ("sl2.slice_tangency", "fields-tangent-to-embedded-slice", 1e-7))
def _check_independence(cfg: RunConfig) -> list:
    """The six records of the sl2 independence point of each size, each point read once.

    A point's pair is read first, then its three fields with one
    induced_fields call; when that call raises, each field is read alone:
    at extreme scale one overflows where another does not.  A measurement
    (rank, lower shear, trace components, tangency) stops at the first
    point where it raises, and its records hold that package error.
    """
    points = [find_independence_point(n, cfg.tau, _seed(cfg, f"ind{n}"), cfg.tol)
              for n in _ns(cfg, 5)]
    found = [[] for _ in range(6)]  # each record's samples, or the error that stopped it

    def fail(records, exc):
        for i in records:
            found[i] = found[i] if isinstance(found[i], CMSpacesError) else exc

    def measure(records, sample):
        if not isinstance(found[records[0]], CMSpacesError):
            try:
                for i, x in zip(records, sample(), strict=True):
                    found[i] += x
            except CMSpacesError as exc:
                fail(records, exc)

    for c in points:
        try:
            pair = from_chart(c, cfg.tol)
        except CMSpacesError as exc:
            fail(range(6), exc)
            continue
        try:
            fields = induced_fields(c, pair, cfg.tol)
        except CMSpacesError as exc:
            fields = exc
            fail((0, 1), exc)

        def field(gen):
            if isinstance(fields, CMSpacesError):
                return numeric_field(gen, c, cfg.tol)
            return ChartTangent.from_vector(c, fields[GENERATORS.index(gen)])

        def ranks():
            rank, ratio = fields_rank(fields)
            return [3 - rank], [1e-6 - ratio]

        def lower_shear():
            num, scale = field(GEN_E), value_scale(c.lamhat)
            full = np.abs(num.vector() - analytic_field(GEN_E, c).vector()).max() / scale
            return [full], [np.abs(d).max() / scale for d in (num.d_lam, num.d_lamhat, num.d_mu)]

        def trace_components():
            resids = []
            for gen in (GEN_F, GEN_H):
                got = field(gen).s_components()
                ana = analytic_field(gen, c).d_s
                # abs of a Python complex: np.abs rounds differently in the last bit
                scale = value_scale([abs(v) for v in ana.values()])
                resids += [abs(got[k] - ana[k]) / scale for k in (1, 2)]
            return [resids]

        def tangency():
            scale = pair_scale(pair.A, pair.B)
            return [[r / scale for gen in GENERATORS for r in slice_rates(gen, pair)]]

        measure((0, 1), ranks)
        measure((2, 3), lower_shear)
        measure((4,), trace_components)
        measure((5,), tangency)

    notes = ("rank deficiency below 3", "margin: smallest/largest singular value must exceed 1e-6",
             *[f"relative to {value_scale.text('spectrum')}"] * 2,
             f"relative to {value_scale.text('component')}",
             f"relative to {pair_scale.text('A', 'B')}")
    return [x if isinstance(x, CMSpacesError) else _Measured(_fold(x), note, len(points))
            for x, note in zip(found, notes, strict=True)]


@_declare(("sl2.scaling_spectra", "joint-exponential-scaling-of-spectra", 1e-9))
def _check_scaling_spectra(cfg: RunConfig) -> _Measured:
    h, factor = coefficients(GEN_H.exp(0.1)), np.exp(0.1)

    def deviations(vals, want):
        return np.abs(gather(vals, match_to_reference(vals, want), -1) - want).max(axis=-1)

    streams, = _tag_streams(cfg, 5, "hsc")

    def residuals(n, trials):
        V = random_chart_points(n, cfg.tau, streams[trials])
        A, B = as_finite(*from_chart_stack(V, cfg.tau, cfg.tol))
        lam, lamhat, _, _ = unpack(V)
        qA, _ = act_pair_stack(h, A, B)
        full = deviations(eigvals(qA), factor * lamhat)
        block = deviations(eigvals(qA[:, :n, :n]), factor * lam)
        return np.stack([full, block], axis=-1)

    resids = np.ravel(_per_size([1 + i % 3 for i in range(5)], residuals))
    return _Measured(_fold(resids), "absolute eigenvalue deviation at t=0.1")


# ---------------------------------------------------------------------------
# flowcalc


def _flow_ladders(cfg: RunConfig, tag: str, t: float, steps, bracket: bool) -> list:
    """Per base point, the trace-word errors of its ladder's rungs against its target.

    The base points are from_chart of five seeded chart points per size
    n <= 3, one stack per size, all read before any ladder runs; then one
    ladder_fingerprints call per size runs the (GEN_E, GEN_F) ladder at
    time t over the steps.  Trial order; each result has one error per rung.
    """
    ns = _ns(cfg, 3)
    sizes = [n for n in ns for _ in range(5)]
    streams = seeded_streams([_seed(cfg, f"{tag}{n}", i) for n in ns for i in range(5)])

    def pairs(n, trials):
        return zip(*from_chart_stack(random_chart_points(n, cfg.tau, streams[trials]),
                                     cfg.tau, cfg.tol))
    points = _per_size(sizes, pairs)

    def errors(n, trials):
        A, B = (np.stack(x) for x in zip(*(points[i] for i in trials)))
        fp = ladder_fingerprints(GEN_E, GEN_F, t, steps, A, B, bracket)
        return _trace_word_error(fp[1:], fp[0]).T
    return _per_size(sizes, errors)


def _slope(xs, ys) -> float:
    """Least-squares slope of ys on xs, in closed form: no LAPACK call."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


@_declare(("flowcalc.trotter_rate", "split-composition-first-order", 0.3))
def _check_trotter_rate(cfg: RunConfig) -> _Measured:
    slopes = []
    ladders = _flow_ladders(cfg, "tro", TROTTER_TIME, TROTTER_STEPS, bracket=False)
    for errs in ladders:
        errs = np.maximum(errs, 1e-300)
        slopes.append(-_slope([math.log(m) for m in TROTTER_STEPS], [math.log(e) for e in errs]))
    note = "order in 1/steps; measured slopes " + ", ".join(f"{s:.3f}" for s in slopes)
    return _Measured(_fold(abs(s - 1.0) for s in slopes), note, len(ladders))


@_declare(("flowcalc.bracket_final_error", "commutator-composition-limit", 1e-3),
          ("flowcalc.bracket_monotone", "commutator-composition-limit", 0.0))
def _check_bracket_limit(cfg: RunConfig) -> list:
    finals, increases = [], []
    ladders = _flow_ladders(cfg, "brk", BRACKET_TIME, BRACKET_STEPS, bracket=True)
    for errs in ladders:
        finals.append(errs[-1])
        increases.extend(errs[1:] - errs[:-1])
    return [_Measured(_fold(finals), f"relative trace-word error at {BRACKET_STEPS[-1]} "
                                     f"squares, t={BRACKET_TIME}", len(ladders)),
            _Measured(_fold(increases),
                      "largest error increase across the step ladder; negative passes",
                      len(ladders))]


@_declare(("flowcalc.bracket_sign_consistency", "global-bracket-sign", 0.0))
def _check_bracket_sign(cfg: RunConfig) -> _Measured:
    mismatches = 0

    def pairs(n, trials):
        streams, = _tag_streams(cfg, 5, f"sgn{n}")
        A, B = from_chart_stack(random_chart_points(n, cfg.tau, streams[trials]), cfg.tau, cfg.tol)
        return [AugmentedPair(a, b, cfg.tau) for a, b in zip(A, B)]
    # five base points at the first requested size n <= 3, and none when there is none
    points = _per_size(_ns(cfg, 3)[:1] * 5, pairs)
    for p in points:
        if detect_bracket_sign(0.2, 256, p) != -BRACKET_SIGN:
            mismatches += 1
    return _Measured(float(mismatches),
                     "commutator flow lands on minus the matrix bracket at every point",
                     len(points))


@_declare(("flowcalc.commuting_generators", "commuting-flows-compose-exactly", 1e-12))
def _check_commuting_cases(cfg: RunConfig) -> _Measured:
    c = random_chart_point(2, cfg.tau, _seed(cfg, "comm"))
    p = from_chart(c, cfg.tol)
    scale = pair_scale(p.A, p.B)
    same_trotter = pair_distance(
        trotter_flow(GEN_E, GEN_E, 0.3, 64, p),
        trotter_target(GEN_E, GEN_E, 0.3, p),
    )
    same_bracket = pair_distance(bracket_flow(GEN_E, GEN_E, 0.3, 64, p), p)
    return _Measured(_fold([same_trotter, same_bracket]) / scale,
                     f"relative to {pair_scale.text('A', 'B')}")


@_declare(("flowcalc.shear_pullback_degrees", "unipotent-flows-polynomial", 0.0))
def _check_shear_degrees(cfg: RunConfig) -> _Measured:
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
    return _Measured(float(total), "sum of degree deviations over hand cases")


def _witness_accepts(A) -> np.ndarray:
    """The witness check's test of its stacked pairs, |tr A| > 0.1."""
    return np.abs(np.trace(A, axis1=-2, axis2=-1)) > 0.1


def _witness_pairs(cfg: RunConfig, n: int, trials) -> list:
    """The witness check's pairs of size n for the given trials, stacked (A, B).

    Each trial reads from_chart(random_chart_point(n, tau, seed + 31 b))
    at its own seed for the bumps b = 0..9 until _witness_accepts takes
    the pair, as _bumped rounds; a pair entry that is not finite raises,
    as the one-point read does.
    """
    def draw(seeds):
        V = random_chart_points(n, cfg.tau, seeds)
        return as_finite(*from_chart_stack(V, cfg.tau, cfg.tol))
    return _bumped([_seed(cfg, "wit", i) for i in trials], draw, _witness_accepts)


@_declare(("flowcalc.witness_triple", "trace-witness-derivative-identities", 1e-10))
def _check_witness(cfg: RunConfig) -> _Measured:
    def residuals(n, trials):
        reports = [compatible_witness(AugmentedPair(a, b, cfg.tau))
                   for a, b in zip(*_witness_pairs(cfg, n, trials))]
        return [x.residual / x.scale for x in reports]

    resids = _per_size([1 + i % 4 for i in range(_trials(cfg, 20))], residuals)
    return _Measured(_fold(resids), f"relative to {matrix_scale.text('A', 'B')}")


# ---------------------------------------------------------------------------
# quiver


@_declare(("quiver.dictionary_consistency", "admissible-conventions-point-independent", 0.0),
          ("quiver.literal_dictionary_recorded", "printed-dictionary-membership", 0.0))
def _check_dictionary(cfg: RunConfig) -> list:
    count = _trials(cfg, 20)
    streams, = _tag_streams(cfg, count, "qvr")

    def admissible(n, trials):
        drawn = _points(cfg, n, streams[trials])
        return calibrate_dictionary_stack(*drawn, cfg.tau)[1].tolist()
    found = _per_size([1 + i % 4 for i in range(count)], admissible)
    literal = ALL_DICTIONARY_VARIANTS.index(LITERAL_DICTIONARY)
    labels = sorted(var.label() for var, ok in zip(ALL_DICTIONARY_VARIANTS, found[0]) if ok)
    disagreements = sum(1 for x in found if x != found[0])
    note = f"admissible: {labels}; literal admissible: {found[0][literal]}"
    return [_Measured(float(disagreements), note),
            _Measured(0.0, f"literal admissible: {all(x[literal] for x in found)}")]


# ---------------------------------------------------------------------------
# assembly


SUITE_NAMES = tuple(dict.fromkeys(check.suite for check in _CHECKS))


def expand_suites(names) -> list:
    out = []
    for name in names:
        if name == "all":
            out.extend(SUITE_NAMES)
        elif name in SUITE_NAMES:
            out.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}")
    return list(dict.fromkeys(out))


def _record(declared, measured: _Measured, runtime_ms: float) -> CheckRecord:
    """The record of one measurement under its (name, law, threshold)."""
    name, law, threshold = declared
    residual, note, samples = measured
    if samples == 0:
        status, residual = "skipped", None
        note = "no sample: no requested size is in range; " + note
    elif not math.isfinite(residual):
        status, note = "fail", f"non-finite residual ({residual}), e.g. overflow; " + note
        residual = None
    else:
        status, residual = ("pass" if residual <= threshold else "fail"), float(residual)
    return CheckRecord(name, law, status, residual, float(threshold), runtime_ms, note)


def _run_check(check, cfg: RunConfig) -> list:
    """Time one check and build its records, one per declared name.

    The first record carries the check's wall time, the others 0.0.  A
    package error, raised by the check or returned in place of one
    record's measurement, becomes an error record under that name: a
    raised one under each declared name.
    """
    t0 = perf_counter()
    try:
        measured = check(cfg)
    except CMSpacesError as exc:
        measured = [exc] * len(check.records)
    times = [(perf_counter() - t0) * 1000.0] + [0.0] * (len(check.records) - 1)
    if isinstance(measured, _Measured):
        measured = [measured]
    return [CheckRecord(declared[0], "check-execution", "error", None, 0.0, ms,
                        f"{type(m).__name__} at seed {cfg.seed}: {m}")
            if isinstance(m, CMSpacesError) else _record(declared, m, ms)
            for declared, m, ms in zip(check.records, measured, times, strict=True)]


def run(cfg: RunConfig) -> dict:
    """Run the selected suites and assemble the report dictionary.

    A check that raises a package error is recorded with status "error"
    rather than aborting its suite or the report.
    """
    records = [rec for suite in expand_suites(cfg.suites) for check in _CHECKS
               if check.suite == suite for rec in _run_check(check, cfg)]
    records.sort(key=lambda r: r.name)
    status = Counter(r.status for r in records)
    return {
        "schema": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "records": [r.to_dict() for r in records],
        "summary": {
            "total": len(records),
            "passed": status["pass"],
            "failed": status["fail"],
            "errors": status["error"],
            "skipped": status["skipped"],
        },
    }
