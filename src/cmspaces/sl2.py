"""The linear SL2 action on augmented pairs and its induced vector fields.

An element ((a, b), (c, d)) with a d - b c = 1 acts on a pair by

    (M, N) -> (a M + b N, c M + d N),

which preserves the level condition (the pair commutator picks up the
factor a d - b c).  On quadruples the same action reads

    (A, B)   -> (a A + b B, c A + d B)
    (v1, v2) -> (a v1 + b v2, c v1 + d v2)
    (w1, w2) -> (d w1 - c w2, -b w1 + a w2)

and commutes with augmentation entry for entry.  Three one-parameter
subgroups generate the action: the lower shear (1, 0; t, 1) adds t M to N,
the upper shear (1, t; 0, 1) adds t N to M, and the diagonal subgroup
scales the pair by (e^t, e^-t).  Their induced vector fields are computed
here both from the chart (the tracked read's closed-form tangent along
the generator's tangent pair) and from the closed-form components the
shear and scaling actions admit.
"""

from __future__ import annotations

from cmath import cosh, exp, sinh, sqrt
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    SearchExhaustedError,
    ShapeMismatchError,
    ZeroPairError,
)
from .chart import (
    ChartPoint,
    from_chart,
    project_to_slice,
    slice_residual,
    tracked_tangent,
    unpack,
)
from .linalg import (
    DEFAULT_TOL,
    any_item,
    as_cmatrix,
    as_finite,
    frob,
    matrix_scale,
    min_gap,
    value_scale,
)
from .variety import (
    AugmentedPair,
    Representation,
    check_size,
    complex_uniforms_from,
    fingerprints,
    is_count,
    seeded_streams,
    spaced_points,
)

# ---------------------------------------------------------------------------
# group elements and generators


@dataclass(frozen=True)
class SL2Element:
    """2 x 2 complex matrix with unit determinant (checked to 1e-12)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        det = self.a * self.d - self.b * self.c
        if not abs(det - 1.0) <= 1e-12:     # a NaN determinant fails too
            raise ShapeMismatchError(f"determinant {det} is not 1")

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=np.complex128)

    def compose(self, other: "SL2Element") -> "SL2Element":
        return SL2Element(*_product(coefficients(self), coefficients(other)))

    def power(self, n: int) -> "SL2Element":
        """n-th power, n >= 1, by binary powering on the four entries; n must be an integer."""
        if not is_count(n):
            raise ValueError(f"need a positive integer power, got {n!r}")
        z, result = coefficients(self), None
        while True:
            n, bit = divmod(n, 2)
            if bit:
                result = z if result is None else _product(result, z)
            if not n:
                return SL2Element(*result)
            z = _product(z, z)


def _product(x: tuple, y: tuple) -> tuple:
    """Entries (a, b, c, d) of the 2 x 2 product x y, in complex scalars."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


@dataclass(frozen=True)
class SL2Generator:
    """Basis generator of the action.

    kind 'e' is the lower-left nilpotent (exponential is the lower shear),
    'f' the upper-right nilpotent (upper shear), 'h' the diagonal generator
    (exponential is the scaling subgroup).  All exponentials are closed
    form; nothing is integrated.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("e", "f", "h"):
            raise ShapeMismatchError(f"unknown generator kind {self.kind!r}")

    def matrix(self) -> np.ndarray:
        return np.array({
            "e": [[0.0, 0.0], [1.0, 0.0]],
            "f": [[0.0, 1.0], [0.0, 0.0]],
            "h": [[1.0, 0.0], [0.0, -1.0]],
        }[self.kind], dtype=np.complex128)

    def exp(self, t: complex) -> SL2Element:
        z = complex(t)
        if self.kind == "e":
            return SL2Element(1.0, 0.0, z, 1.0)
        if self.kind == "f":
            return SL2Element(1.0, z, 0.0, 1.0)
        with _finite("exp(h t) at t", z):
            return SL2Element(exp(z), 0.0, 0.0, exp(-z))


@contextmanager
def _finite(what: str, value):
    """Raise a cmath range or domain error in the block as ShapeMismatchError."""
    try:
        yield
    except (OverflowError, ValueError) as exc:     # cmath: math range or domain error
        raise ShapeMismatchError(f"{what} = {value} is not finite ({exc})") from None


GEN_E = SL2Generator("e")
GEN_F = SL2Generator("f")
GEN_H = SL2Generator("h")


def check_generator(gen) -> SL2Generator:
    """gen, once it is an SL2Generator (its kind string is not); ShapeMismatchError otherwise."""
    if not isinstance(gen, SL2Generator):
        raise ShapeMismatchError(f"expected an SL2Generator, got {type(gen).__name__} {gen!r}")
    return gen


def sl2_exp(X) -> SL2Element:
    """Closed-form exponential of a traceless 2 x 2 matrix.

    For X = ((p, q), (r, -p)) with delta = p^2 + q r,
    exp(X) = cosh(s) I + (sinh(s)/s) X at s = sqrt(delta); the quotient is
    evaluated by series near s = 0.  An exponential past the float range
    raises ShapeMismatchError, as SL2Generator.exp does.
    """
    X = as_cmatrix(X)
    if X.shape != (2, 2):
        raise ShapeMismatchError(f"expected a 2 x 2 matrix, got {X.shape}")
    p, q, r, m = X.ravel().tolist()
    if abs(p + m) > 1e-12 * matrix_scale(X):
        raise ShapeMismatchError("generator must be traceless")
    with _finite("exp(X) at X", X.tolist()):
        delta = p**2 + q * r
        s = sqrt(delta)
        if abs(s) < 1e-6:
            ch = 1.0 + delta / 2.0 + delta**2 / 24.0
            ratio = 1.0 + delta / 6.0 + delta**2 / 120.0
        else:
            ch = cosh(s)
            ratio = sinh(s) / s
        return SL2Element(ch + ratio * p, ratio * q, ratio * r, ch + ratio * m)


def coefficients(g) -> tuple:
    """The entries (a, b, c, d) of SL2 elements, as the action kernels take them.

    g is an SL2Element or a 2 x 2 array, which give four complex scalars,
    or k of them (a sequence, or a (k, 2, 2) array), which give four
    complex (k, 1, 1) arrays: one element per item of a (k, m, m) stack.
    """
    if isinstance(g, SL2Element):
        return g.a, g.b, g.c, g.d
    if isinstance(g, (list, tuple)) and all(isinstance(x, SL2Element) for x in g):
        g = np.array([[x.a, x.b, x.c, x.d] for x in g], dtype=np.complex128).reshape(-1, 2, 2)
    M = np.asarray(g, dtype=np.complex128)
    if M.shape[-2:] != (2, 2) or M.ndim not in (2, 3):
        raise ShapeMismatchError(f"expected SL2 elements or 2 x 2 matrices, got shape {M.shape}")
    if M.ndim == 2:
        return M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    return tuple(M[:, i, j, None, None] for i in (0, 1) for j in (0, 1))


# ---------------------------------------------------------------------------
# the action


def act_pair(g, p: AugmentedPair) -> AugmentedPair:
    """(M, N) -> (a M + b N, c M + d N); accepts any 2 x 2 array as well.

    The one-item call of act_pair_stack.  The carried level parameter is
    unchanged: unit-determinant elements preserve the level set.
    """
    return AugmentedPair(*act_pair_stack(coefficients(g), p.A, p.B), p.tau)


def act_components(g, r: Representation) -> Representation:
    """Component form of the action on k = 2 quadruples.

    Matches act_pair through augmentation entry for entry (same floating
    point operations on both routes).  The one-item call of
    act_components_stack.
    """
    return Representation(*act_components_stack(coefficients(g), r.A, r.B, r.v, r.w), r.tau)


def act_pair_stack(coeffs, A, B):
    """act_pair over pairs (A, B) stacked over leading axes: (a A + b B, c A + d B).

    coeffs = (a, b, c, d), as coefficients returns them: one element's
    entries, or arrays of them that broadcast against the stack.  The one
    place the action is computed; each item keeps the bits of its
    one-item call.  Nothing is checked, so a caller tests the acted
    pairs' entries as it needs.
    """
    a, b, c, d = coeffs
    return a * A + b * B, c * A + d * B


def act_components_stack(coeffs, A, B, v, w):
    """act_components over k = 2 quadruples (A, B, v, w) stacked over leading axes.

    coeffs = (a, b, c, d), as for act_pair_stack, which acts on the
    matrix pair.  Each item keeps the bits of its one-item call.  Raises
    ShapeMismatchError unless v has k = 2 columns.
    """
    if v.shape[-1] != 2:
        raise ShapeMismatchError("the SL2 action needs k = 2")
    a, b, c, d = coeffs
    v1, v2 = v[..., :, 0:1], v[..., :, 1:2]
    w1, w2 = w[..., 0:1, :], w[..., 1:2, :]
    return (
        *act_pair_stack(coeffs, A, B),
        np.concatenate([a * v1 + b * v2, c * v1 + d * v2], axis=-1),
        np.concatenate([d * w1 - c * w2, -b * w1 + a * w2], axis=-2),
    )


def fixed_point_probe_stack(A, B, v, w, t: float):
    """Fingerprints before and after the scaling subgroup at time t, per stacked quadruple.

    The k = 2 quadruples (A, B, v, w) are stacked over leading axes.
    Returns (before, after, separation), with separation the largest
    absolute fingerprint difference of each item.  Pure trace powers
    make the probe sensitive: tr A^m picks up the factor e^{m t}.
    Requires nonzero time; raises ZeroPairError when an item's matrix
    pair is zero, and ShapeMismatchError when an acted quadruple has a
    non-finite entry.
    """
    if t == 0:
        raise ValueError("probe time must be nonzero")
    if any_item(frob(A) + frob(B) == 0.0):
        raise ZeroPairError("the probe needs a nonzero matrix pair")
    acted = as_finite(*act_components_stack(coefficients(GEN_H.exp(t)), A, B, v, w))
    before, after = fingerprints(A, B, v, w), fingerprints(*acted)
    return before, after, np.abs(before - after).max(axis=-1)


# ---------------------------------------------------------------------------
# induced vector fields in chart coordinates


@dataclass(frozen=True)
class ChartTangent:
    """Tangent vector at a chart point.

    Fields read through the chart (numeric_field) fill all four coordinate
    blocks; closed-form fields fill only the components the computation
    determines and leave the rest None (never silently zero).  d_s carries power-sum components
    {k: d s_k}, k = 1, 2, when they are the natural closed form.
    """

    base: ChartPoint
    d_lam: np.ndarray | None = None
    d_lamhat: np.ndarray | None = None
    d_mu: np.ndarray | None = None
    d_muhat: np.ndarray | None = None
    d_s: dict | None = None

    def vector(self) -> np.ndarray:
        """Packed (d_lam, d_lamhat, d_mu, d_muhat); requires all blocks."""
        blocks = (self.d_lam, self.d_lamhat, self.d_mu, self.d_muhat)
        if any(b is None for b in blocks):
            raise ShapeMismatchError("tangent has unspecified coordinate blocks")
        return np.concatenate([np.asarray(b, dtype=np.complex128) for b in blocks])

    def s_components(self) -> dict:
        """Power-sum components d s_k = k sum_j lamhat_j^{k-1} d lamhat_j for k = 1, 2.

        Requires the lamhat block (ShapeMismatchError without it).
        """
        if self.d_lamhat is None:
            raise ShapeMismatchError("the tangent has no lamhat block")
        lh = self.base.lamhat
        return {k: complex(k * np.sum(lh ** (k - 1) * self.d_lamhat)) for k in (1, 2)}

    @classmethod
    def from_vector(cls, base: ChartPoint, d) -> "ChartTangent":
        """The tangent at base with the packed blocks d = (d_lam, d_lamhat, d_mu, d_muhat).

        d is one vector of 4 base.n + 2 values; a stack, or a tangent of
        another size, raises ShapeMismatchError.
        """
        if np.shape(d) != (4 * base.n + 2,):
            raise ShapeMismatchError(
                f"expected one tangent of {4 * base.n + 2} values at a point of size {base.n},"
                f" got shape {np.shape(d)}")
        return cls(base, *unpack(d))


GENERATORS = (GEN_E, GEN_F, GEN_H)


def _fields(gens, c: ChartPoint, p: AugmentedPair, tol: float) -> np.ndarray:
    """Packed induced fields (len(gens), 4n+2) of the generators at c, from one read of c.

    p is c's pair from_chart(c, tol).  At t = 0 the flow of
    X = ((s, q), (r, -s)) moves the pair (A, B) along its tangent pair
    (s A + q B, r A - s B), which one act_pair_stack call builds for every X.
    """
    dA, dB = act_pair_stack(coefficients([check_generator(g).matrix() for g in gens]), p.A, p.B)
    return tracked_tangent(p, dA, dB, c, tol)


def induced_fields(c: ChartPoint, p: AugmentedPair, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The fields of GENERATORS (lower shear, upper shear, scaling) at c, packed (3, 4n+2).

    p is the pair from_chart(c, tol), which the caller holds; c is read
    once for all three.  Row i has the bits of
    numeric_field(GENERATORS[i], c, tol).vector().
    """
    return _fields(GENERATORS, c, p, tol)


def numeric_field(gen: SL2Generator, c: ChartPoint, tol: float = DEFAULT_TOL) -> ChartTangent:
    """Induced field of a one-parameter subgroup, read through the chart at c.

    The field is the derivative of the tracked chart read along the
    generator's tangent pair at from_chart(c), with the pair's gauge part
    removed (chart.tracked_tangent).  It is closed form at the base
    point, so no flowed pair is built or read, and the read's contract
    checks run at c.
    """
    return ChartTangent.from_vector(c, _fields((gen,), c, from_chart(c, tol), tol)[0])


def analytic_field(gen: SL2Generator, c: ChartPoint) -> ChartTangent:
    """Closed-form components of the induced fields.

    Lower shear 'e': the full field is muhat_k' = lamhat_k with all other
    coordinates frozen.  Diagonal 'h': power-sum components
    (s_1, 2 s_2).  Upper shear 'f': power-sum components
    (sum muhat, 2 sum lamhat muhat), valid where mu = 0 (there the second
    matrix has no commuting diagonal part).  Components the closed forms do
    not determine are left None.
    """
    if check_generator(gen).kind == "e":
        n = c.n
        return ChartTangent(
            base=c,
            d_lam=np.zeros(n, dtype=np.complex128),
            d_lamhat=np.zeros(n + 1, dtype=np.complex128),
            d_mu=np.zeros(n, dtype=np.complex128),
            d_muhat=c.lamhat.copy(),
        )
    if gen.kind == "h":
        return ChartTangent(base=c, d_s={1: np.sum(c.lamhat), 2: 2.0 * np.sum(c.lamhat**2)})
    return ChartTangent(
        base=c,
        d_s={1: complex(np.sum(c.muhat)), 2: 2.0 * complex(np.sum(c.lamhat * c.muhat))},
    )


# ---------------------------------------------------------------------------
# independence certificate


def find_independence_point(n: int, tau: complex, seed: int,
                            tol: float = DEFAULT_TOL) -> ChartPoint:
    """Seeded slice point where the three induced fields are independent.

    Looks for coordinates with mu = 0, matching traces (sum lam = sum
    lamhat), vanishing second corner (via project_to_slice), and the
    nondegeneracy |(sum muhat) s_2 - (sum lamhat muhat) s_1| > 0.1 * scale
    with scale = value_scale([|s_1|, |s_2|]).  muhat is resampled inside the
    slice-constraint kernel until the nondegeneracy holds.  Raises
    ShapeMismatchError for n < 1 and SearchExhaustedError after 200 draws
    of the spectra.
    """
    check_size(n)
    rng, = seeded_streams([seed])
    for _ in range(200):
        lam = spaced_points(rng, n)
        lamhat = spaced_points(rng, n + 1) + (0.4 + 0.3j)
        lamhat = lamhat - (np.sum(lamhat) - np.sum(lam)) / (n + 1)
        if min_gap(lamhat) < 0.3 or float(np.abs(lamhat).max()) < 0.1:
            continue
        cross = np.abs(lam[:, None] - lamhat[None, :]).min()
        if cross < 0.05:
            continue
        muhat = rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)
        c = ChartPoint(lam, lamhat, np.zeros(n), muhat, tau)
        s = (np.sum(lamhat), np.sum(lamhat**2))
        scale = value_scale([abs(s[0]), abs(s[1])])
        for _ in range(16):
            c = project_to_slice(c, tol)
            val = np.sum(c.muhat) * s[1] - np.sum(c.lamhat * c.muhat) * s[0]
            if abs(val) > 0.1 * scale:
                return c
            fresh = rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)
            c = ChartPoint(lam, lamhat, np.zeros(n), c.muhat + fresh, tau)
    raise SearchExhaustedError("no nondegenerate slice point within the retry budget")


def slice_tangency(gen: SL2Generator, c: ChartPoint, tol: float = DEFAULT_TOL):
    """Flow derivatives of the two slice functions at a chart point.

    The slice functions (trace mismatch A[n, n] and second corner
    B[n, n]) are invariant under embedded basechange and linear in the
    pair, so their derivatives along the flow at t = 0 are their values
    on the generator's tangent pair at from_chart(c).  Both vanish when
    the field is tangent to the slice at c.  Returns
    (|d trace mismatch|, |d second corner|), slice_rates at c's pair.
    """
    return slice_rates(gen, from_chart(c, tol))


def slice_rates(gen: SL2Generator, p: AugmentedPair):
    """slice_tangency at the pair p = from_chart(c) a caller already holds."""
    d = slice_residual(act_pair(check_generator(gen).matrix(), p))
    return float(abs(d[0])), float(abs(d[1]))


def independence_rank(c: ChartPoint, tol: float = DEFAULT_TOL):
    """Numeric rank of the three induced fields stacked at c.

    Returns fields_rank of the lower-shear, upper-shear and scaling
    fields (induced_fields, from one read of c).
    """
    return fields_rank(induced_fields(c, from_chart(c, tol), tol))


def fields_rank(M):
    """(rank, ratio) of stacked fields M (k, 4n+2).

    ratio is the smallest over the largest singular value; the rank
    counts singular values above 1e-8 times the largest.
    """
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0, 0.0
    rank = int(np.count_nonzero(s > 1e-8 * s[0]))
    return rank, float(s[-1] / s[0])


def random_sl2s(seeds) -> list:
    """random_sl2 at each seed: one SL2Element per seed, in order.

    The first six doubles of each seed's np.random.default_rng stream
    (the seeds hashed in one call, variety.seeded_streams) are the real
    and imaginary parts of the complex uniforms on [-1, 1] that give
    a - 1.5, b and c, in turn.  d = (1 + b c) / a is Python complex arithmetic per
    element, which numpy's complex product and quotient do not round
    alike, and each element checks its own determinant.
    """
    U = seeded_streams(seeds).rows(6)
    z = complex_uniforms_from(U[:, 0::2], U[:, 1::2])
    z[:, 0] += 1.5  # keep the pivot away from zero
    return [SL2Element(a, b, c, (1.0 + b * c) / a) for a, b, c in z.tolist()]


def random_sl2(seed: int) -> SL2Element:
    """Seeded unit-determinant element with moderate entries.

    The one-seed call of random_sl2s.
    """
    return random_sl2s([seed])[0]
