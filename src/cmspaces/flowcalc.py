"""Flow composition, bracket tests, nilpotency degree, and witness functions.

The one-parameter subgroups act linearly on pairs, so every flow here is
evaluated by composing 2 x 2 group elements first and acting on the pair
once; the splitting formulas below are statements about the group elements
alone.  Each ladder's element, and each target's, is built once per
(generators, time, steps) and cached, so a ladder costs only its action on
the pair.  ladder_fingerprints runs a whole ladder, its target and every
rung, on a stack of pairs of one size: one broadcast action and one
fingerprint stack.  Lie-Trotter:

    (exp(t E / n) exp(t F / n))^n  ->  exp(t (E + F)),   error O(1/n),

and the commutator square

    M = exp(-s F) exp(-s E) exp(s F) exp(s E),  s = sqrt(t/n),
    M^n -> exp(t [F, E]),                        error O(t^{3/2} / sqrt(n)).

The action is a left action, g . (M, N) = (a M + b N, c M + d N) as rows,
which reverses brackets when pushed to vector fields: the field commutator
of the 'e' and 'f' flows equals minus the field of the matrix bracket
[E, F] = -H, i.e. plus the 'h' field.  BRACKET_SIGN records this once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .errors import IllConditionedFitError, ShapeMismatchError, WitnessVanishesError
from .linalg import (
    all_items,
    any_item,
    as_finite,
    as_square_stack,
    first_failure,
    frob,
    matrix_scale,
    value_scale,
)
from .sl2 import (
    GEN_E,
    GEN_F,
    GEN_H,
    SL2Element,
    SL2Generator,
    act_pair,
    act_pair_stack,
    check_generator,
    coefficients,
    sl2_exp,
)
from .variety import AugmentedPair, is_count, pair_fingerprints

# The pair action is a left action written on row vectors of matrices, so
# pushing generators to vector fields reverses the bracket: the commutator
# of the 'e' and 'f' FLOWS matches exp(+t H), while the matrix bracket is
# [E, F] = -H.  Flows computed here land on BRACKET_SIGN * [E, F].
BRACKET_SIGN: int = -1


def flow_exact(kind: str, t: float, p: AugmentedPair) -> AugmentedPair:
    """One-parameter subgroup flow by its closed-form exponential; SL2Generator checks kind."""
    return act_pair(SL2Generator(kind).exp(t), p)


def _memo(build):
    """build, cached on its generators (sl2.check_generator) and its other arguments as scalars.

    The key is typed, so a float step count never hits the entry of the
    integer it equals and is refused by build.
    """
    cached = lru_cache(maxsize=128, typed=True)(build)
    return wraps(build)(lambda g1, g2, *xs: cached(
        check_generator(g1), check_generator(g2), *(np.asarray(x).item() for x in xs)))


def _check_steps(n_steps) -> None:
    """ValueError unless the step count is an integer >= 1 (variety.is_count)."""
    if not is_count(n_steps):
        raise ValueError(f"need at least one step, as an integer; got {n_steps!r}")


@_memo
def trotter_element(gen1: SL2Generator, gen2: SL2Generator, t: float,
                    n_steps: int) -> SL2Element:
    """(exp((t/n) gen1) exp((t/n) gen2))^n as a single group element; n an integer >= 1."""
    _check_steps(n_steps)
    s = t / n_steps
    return gen1.exp(s).compose(gen2.exp(s)).power(n_steps)


def trotter_flow(gen1: SL2Generator, gen2: SL2Generator, t: float,
                 n_steps: int, p: AugmentedPair) -> AugmentedPair:
    """Split flow toward exp(t (gen1 + gen2)); error O(1/n) in the step count.

    Exact (up to rounding) for every n when the generators commute.
    """
    return act_pair(trotter_element(gen1, gen2, t, n_steps), p)


def trotter_target(gen1: SL2Generator, gen2: SL2Generator, t: float,
                   p: AugmentedPair) -> AugmentedPair:
    """Exact endpoint exp(t (gen1 + gen2)) of the split flow."""
    return act_pair(_exact(gen1, gen2, t, False), p)


@_memo
def bracket_element(gen1: SL2Generator, gen2: SL2Generator, t: float,
                    n_steps: int) -> SL2Element:
    """Commutator-square composition approximating exp(t [gen2, gen1]).

    One square is exp(-s g2) exp(-s g1) exp(s g2) exp(s g1) at
    s = sqrt(t/n); as a flow composition that is (second flow, first flow,
    inverse second, inverse first) applied left to right.  n squares
    compose to the bracket flow at time t, error O(t^{3/2} / sqrt(n)).
    """
    _check_steps(n_steps)
    if t < 0:
        raise ValueError("bracket composition needs t >= 0")
    s = float(np.sqrt(t / n_steps))
    square = (
        gen2.exp(-s)
        .compose(gen1.exp(-s))
        .compose(gen2.exp(s))
        .compose(gen1.exp(s))
    )
    return square.power(n_steps)


def bracket_flow(gen1: SL2Generator, gen2: SL2Generator, t: float,
                 n_steps: int, p: AugmentedPair) -> AugmentedPair:
    """Commutator-square flow; converges to bracket_target as steps grow.

    The identity for every n when the generators commute.
    """
    return act_pair(bracket_element(gen1, gen2, t, n_steps), p)


def bracket_target(gen1: SL2Generator, gen2: SL2Generator, t: float,
                   p: AugmentedPair) -> AugmentedPair:
    """Exact endpoint exp(t [gen2, gen1]) of the commutator flow.

    For (gen1, gen2) the two shears this is exp(t H): the matrix bracket
    of the shears is [lower, upper] = -H, the squares realize the reversed
    bracket, and the flow lands on the scaling subgroup with positive
    weight (BRACKET_SIGN).
    """
    return act_pair(_exact(gen1, gen2, t, True), p)


@_memo
def _exact(gen1: SL2Generator, gen2: SL2Generator, t: float, bracket: bool) -> SL2Element:
    """The targets' element: exp(t [gen2, gen1]) if bracket, else exp(t (gen1 + gen2))."""
    if not np.isfinite(t):      # refused before t multiplies a generator
        raise ShapeMismatchError(f"target time {t} is not finite")
    g1, g2 = gen1.matrix(), gen2.matrix()
    return sl2_exp(t * (g2 @ g1 - g1 @ g2 if bracket else g1 + g2))


def ladder_fingerprints(gen1: SL2Generator, gen2: SL2Generator, t: float, steps, A, B,
                        bracket: bool = False) -> np.ndarray:
    """Pair fingerprints of a flow ladder's target and rungs at the pairs (A, B), in one stack.

    The pairs of one size are stacked over leading axes.  Returns
    (1 + len(steps), ..., words): row 0 holds the target's fingerprints
    (trotter_target, or bracket_target with bracket), row 1 + j those of
    the rung at steps[j] (trotter_flow, or bracket_flow).  Every cached
    element acts on every pair in one broadcast and the whole stack takes
    one pair_fingerprints call, so each item keeps the bits of
    pair_fingerprint of its one-pair call.  A flowed pair with a
    non-finite entry raises ShapeMismatchError, as the one-pair calls do.
    """
    rung = bracket_element if bracket else trotter_element
    elements = [_exact(gen1, gen2, t, bracket), *(rung(gen1, gen2, t, m) for m in steps)]
    coeffs = [z.reshape(len(elements), *(1,) * np.ndim(A)) for z in coefficients(elements)]
    return pair_fingerprints(*as_finite(*act_pair_stack(coeffs, A, B)))


def pair_distance(p: AugmentedPair, q: AugmentedPair) -> float:
    if p.n != q.n:
        raise ShapeMismatchError(f"pairs of sizes {p.n} and {q.n} have no distance")
    return max(frob(p.A - q.A), frob(p.B - q.B))


def detect_bracket_sign(t: float, n_steps: int, p: AugmentedPair) -> int:
    """Which of exp(-+ t H) the (lower, upper) commutator flow approaches.

    Returns +1 if the flow is closer to exp(t H) (the BRACKET_SIGN = -1
    convention: flows realize minus the matrix bracket [E, F] = -H),
    -1 otherwise.  The sign is a global property of the action; callers
    assert it is the same at every base point.
    """
    reached = bracket_flow(GEN_E, GEN_F, t, n_steps, p)
    plus = act_pair(GEN_H.exp(t), p)
    minus = act_pair(GEN_H.exp(-t), p)
    return 1 if pair_distance(reached, plus) <= pair_distance(reached, minus) else -1


# ---------------------------------------------------------------------------
# nilpotency degree of flow pullbacks


_OBSERVABLES = {
    "trace_second": lambda P, Q: Q.trace(axis1=1, axis2=2),
    "trace_first": lambda P, Q: P.trace(axis1=1, axis2=2),
    "trace_second_sq": lambda P, Q: (Q @ Q).trace(axis1=1, axis2=2),
}


@lru_cache(maxsize=None)
def _chebyshev_nodes(count: int, half_width: float) -> np.ndarray:
    """count Chebyshev nodes on [-half_width, half_width], read-only."""
    k = np.arange(count)
    nodes = half_width * np.cos((2 * k + 1) * np.pi / (2 * count))
    nodes.setflags(write=False)
    return nodes


@lru_cache(maxsize=None)
def _fit_projector(count: int, half_width: float, degree: int) -> tuple:
    """(V, pinv(V)) for a degree-`degree` fit at _chebyshev_nodes(count, half_width).

    V is the increasing Vandermonde matrix of the nodes, so pinv(V) @ samples
    are the least-squares coefficients and V @ coeffs the fitted values.
    Built once per key and shared read-only by every call.
    """
    V = np.vander(_chebyshev_nodes(count, half_width), degree + 1, increasing=True)
    proj = np.linalg.pinv(V)
    V.setflags(write=False)
    proj.setflags(write=False)
    return V, proj


@lru_cache(maxsize=None)
def _fit_operator(count: int, half_width: float, degree: int) -> np.ndarray:
    """pinv(V) over V pinv(V) - I of the degree-`degree` fit (_fit_projector), complex, read-only.

    Applied to samples, its first degree + 1 rows give the least-squares
    coefficients and the other count rows the fitted values less the
    samples: the fit and its residual in one product.
    """
    V, proj = _fit_projector(count, half_width, degree)
    op = np.concatenate([proj, V @ proj - np.eye(count)]).astype(np.complex128)
    op.setflags(write=False)
    return op


@lru_cache(maxsize=None)
def _residual_maps(count: int, half_width: float, top: int) -> np.ndarray:
    """The residual rows of _fit_operator for the degrees 0..top, stacked, read-only.

    ((top + 1) count, count): applied to samples, rows d count up to
    (d + 1) count give the degree-d fit's values less the samples, so one
    product holds the residuals of every degree.
    """
    maps = np.concatenate([_fit_operator(count, half_width, d)[d + 1:] for d in range(top + 1)])
    maps.setflags(write=False)
    return maps


def _shear_samples(kind: str, count: int, half_width: float, p: AugmentedPair,
                   observable) -> np.ndarray:
    """observable(first, second) along a shear flow of p at every node, in one broadcast.

    first[i], second[i] have the entries of flow_exact(kind, t_i, p) at the
    nodes t_i = _chebyshev_nodes(count, half_width): the lower shear 'e'
    adds t A to B, the upper shear 'f' adds t B to A.  A flowed matrix that
    is not finite, or samples not of shape (count,), raise
    ShapeMismatchError, and a sample that is not finite
    IllConditionedFitError, so nothing is fitted to an overflow.
    """
    t = _chebyshev_nodes(count, half_width)[:, None, None]
    shape = (count,) + p.A.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "e":
            first, second = np.broadcast_to(p.A, shape), as_square_stack(t * p.A + p.B)
        else:
            first, second = as_square_stack(p.A + t * p.B), np.broadcast_to(p.B, shape)
        samples = observable(first, second)
    if np.shape(samples) != (count,):
        raise ShapeMismatchError(f"an observable gives one sample per time, shape ({count},); "
                                 f"got {np.shape(samples)}")
    if not np.isfinite(samples).all():
        raise IllConditionedFitError("a shear-flow sample is not finite")
    return samples


# the largest degree lnd_degree fits
_D_MAX = 6


def lnd_degree(kind: str, observable, p: AugmentedPair) -> int | None:
    """Least polynomial degree of t -> observable(flow(t, p)), or None.

    observable is 'trace_first', 'trace_second', 'trace_second_sq', or a
    callable f(first, second): it takes the flowed pair at all 8 sample
    times as two stacks of matrices, shape (8, n + 1, n + 1) each, and
    returns one complex sample per time, shape (8,).
    The cubic trace word of the second matrix, for instance, is
    lambda P, Q: (Q @ Q @ Q).trace(axis1=1, axis2=2).

    Only the shear flows 'e' and 'f' are polynomial on trace observables;
    the scaling flow is not, and the fit reports that as None rather than
    a large degree.  Samples at 8 Chebyshev nodes on [-1, 1] and accepts
    the least degree up to 6 whose residual is at most 1e-8 times
    value_scale(samples); an observable of higher degree reads None.  The
    residuals of all degrees come from one product (_residual_maps).  A
    flowed pair or sample that is not finite raises (see _shear_samples).
    """
    if kind not in ("e", "f"):
        raise ValueError("nilpotency degree is defined for the shear flows only")
    if isinstance(observable, str):
        if observable not in _OBSERVABLES:
            raise ValueError(f"unknown observable {observable!r}; known: {sorted(_OBSERVABLES)}")
        observable = _OBSERVABLES[observable]
    count = _D_MAX + 2
    samples = _shear_samples(kind, count, 1.0, p, observable)
    samples = samples / value_scale(samples)
    resid = np.abs(_residual_maps(count, 1.0, _D_MAX) @ samples).reshape(_D_MAX + 1, count)
    passed = np.flatnonzero(resid.max(axis=-1) <= 1e-8)
    return int(passed[0]) if passed.size else None


# ---------------------------------------------------------------------------
# compatible witness


@dataclass(frozen=True)
class WitnessReport:
    """Derivative residuals certifying tr of the second matrix as a witness.

    The function h = tr of the second matrix satisfies: the upper shear
    (which only moves the first matrix) fixes h outright, and along the
    lower shear h moves at exactly first order with derivative tr of the
    first matrix.  upper_shear_residual collects all derivatives along the
    upper shear, lower_shear_value is the first derivative along the lower
    shear, value_residual its deviation from tr of the first matrix, and
    lower_shear_residual the second and higher derivatives there.  A
    report of compatible_witnesses holds arrays over the stack's leading
    axes.
    """

    upper_shear_residual: float
    lower_shear_value: complex
    value_residual: float
    lower_shear_residual: float
    scale: float

    @property
    def residual(self) -> float:
        return np.maximum(np.maximum(self.upper_shear_residual, self.value_residual),
                          self.lower_shear_residual)


@lru_cache(maxsize=None)
def _witness_flows(count: int, half_width: float) -> tuple:
    """(x, y), complex and read-only, such that x A + y B stacks the witness's flowed matrices.

    Each of shape (3, count, 1, 1); at the nodes t of _chebyshev_nodes(count,
    half_width) the three rows give A + t B (the upper shear's first
    matrix), B (its second) and t A + B (the lower shear's second).
    """
    t = _chebyshev_nodes(count, half_width)
    x = np.array([np.ones(count), np.zeros(count), t], dtype=np.complex128)[..., None, None]
    y = np.array([t, np.ones(count), np.ones(count)], dtype=np.complex128)[..., None, None]
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


def compatible_witness(p: AugmentedPair) -> WitnessReport:
    """Certify h = tr(second matrix) against the two shear flows.

    Checks (by exact-flow polynomial fits): the upper shear leaves h
    constant; along the lower shear the first derivative equals tr(first
    matrix) and the second and higher derivatives vanish.  Points where
    |tr(first matrix)| <= 1e-8 * max(matrix_scale(A), matrix_scale(B)) cannot anchor the
    certificate and raise WitnessVanishesError.  The one-pair call of
    compatible_witnesses.
    """
    return compatible_witnesses(p.A, p.B)


def compatible_witnesses(A, B) -> WitnessReport:
    """compatible_witness of the pairs (A, B) stacked over leading axes, as one report of arrays.

    Both shears are sampled at the 6 Chebyshev nodes on [-0.5, 0.5] in one
    broadcast (_witness_flows): the upper shear leaves the second matrix
    alone, so its samples are tr B, though its flowed first matrix A + t B
    is tested too; the lower shear's are tr(t A + B).  Both take a
    degree-4 fit from one product of the cached _fit_operator.  Each item
    keeps the bits of its one-pair call.  Any failing item raises: a
    vanishing anchor WitnessVanishesError, a flowed matrix that is not
    finite ShapeMismatchError, and a sample that is not finite or a fit
    whose residual is above 1e-6 * value_scale(samples), or not finite,
    IllConditionedFitError.
    """
    scale = np.maximum(matrix_scale(A), matrix_scale(B))
    anchor = np.trace(A, axis1=-2, axis2=-1)
    if any_item(np.abs(anchor) <= 1e-8 * scale):
        raise WitnessVanishesError(
            "tr of the first matrix vanishes at this point; the witness "
            "derivative has no signal here"
        )
    count, half_width, degree = 6, 0.5, 4
    x, y = _witness_flows(count, half_width)
    with np.errstate(over="ignore", invalid="ignore"):
        flowed = x * A[..., None, None, :, :] + y * B[..., None, None, :, :]
        as_finite(flowed)
        samples = flowed[..., 1:, :, :, :].trace(axis1=-2, axis2=-1)    # (..., 2, count)
        if not np.isfinite(samples).all():
            raise IllConditionedFitError("a shear-flow sample is not finite")
        fit = samples @ _fit_operator(count, half_width, degree).T
        mag = np.abs(fit)
        resid = np.where(np.isfinite(fit).all(axis=-1), mag[..., degree + 1:].max(axis=-1), np.inf)
    ok = resid <= 1e-6 * value_scale(samples)
    if not all_items(ok):
        raise IllConditionedFitError(
            f"shear pullback of the trace is not polynomial to fit tolerance "
            f"(residual {first_failure(resid, ~ok):.3e})"
        )
    value = fit[..., 1, 1]
    report = (mag[..., 0, 1:degree + 1].max(axis=-1), value, np.abs(value - anchor),
              np.maximum(2.0 * mag[..., 1, 2], mag[..., 1, 3:degree + 1].max(axis=-1)), scale)
    return WitnessReport(*(r[()] for r in report))      # [()]: one pair's 0-d results as scalars
