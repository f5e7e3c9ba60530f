"""Matrix models of generalized Calogero-Moser phase spaces.

A point is a quadruple (A, B, v, w): two n x n matrices, an n x k column
block and a k x n row block, with k in {1, 2}.  The level condition

    [A, B] - v w = tau * I_n,   tau != 0,

cuts out the space; the basechange action g.(A, B, v, w) =
(g A g^-1, g B g^-1, g v, w g^-1) is free on that locus and all invariant
data here (moment maps, fingerprints) transform accordingly.

For k = 2 the quadruple embeds into a pair of (n+1) x (n+1) matrices by
writing the inner columns and rows along the border:

    augment(A, B, v, w) = ( [A  v1]   [B  v2] )
                          ( [w2  0] , [-w1 0] )

The pair commutator then carries the level condition in its upper block
and the remaining freedom in its border, which is what the chart and flow
modules exploit.  Corner entries of a general pair are free and play the
role of two extra scalar coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleRowError,
    NonzeroCornerError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .linalg import DEFAULT_TOL, all_items, any_item, as_cmatrix, comm, frob

# ---------------------------------------------------------------------------
# core containers


@dataclass(frozen=True)
class Representation:
    """Quadruple (A, B, v, w) with its level parameter tau.

    The level condition is not enforced at construction; use
    level_residual / on_shell to test it.  Arrays are stored as
    complex128 and should be treated as immutable.
    """

    A: np.ndarray
    B: np.ndarray
    v: np.ndarray
    w: np.ndarray
    tau: complex

    def __post_init__(self):
        A = as_cmatrix(self.A, square=True)
        B = as_cmatrix(self.B, square=True)
        v = as_cmatrix(self.v)
        w = as_cmatrix(self.w)
        n = A.shape[0]
        if B.shape != (n, n):
            raise ShapeMismatchError(f"B must be {n} x {n}, got {B.shape}")
        k = v.shape[1]
        if k not in (1, 2):
            raise ShapeMismatchError(f"inner rank k must be 1 or 2, got {k}")
        if v.shape != (n, k) or w.shape != (k, n):
            raise ShapeMismatchError(
                f"expected v {n} x {k} and w {k} x {n}, got {v.shape}, {w.shape}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "tau", complex(self.tau))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.v.shape[1]


@dataclass(frozen=True)
class AugmentedPair:
    """Two (n+1) x (n+1) matrices extending a quadruple along the border.

    Pairs produced by augment() have zero corners; general pairs carry free
    corner entries (two extra scalar coordinates).  The level parameter tau
    travels with the pair so level predicates and the chart need no side
    channel.
    """

    A: np.ndarray
    B: np.ndarray
    tau: complex

    def __post_init__(self):
        A = as_cmatrix(self.A, square=True)
        B = as_cmatrix(self.B, square=True)
        if A.shape != B.shape:
            raise ShapeMismatchError(f"pair shapes differ: {A.shape}, {B.shape}")
        if A.shape[0] < 2:
            raise ShapeMismatchError("augmented matrices must be at least 2 x 2")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "tau", complex(self.tau))

    @property
    def n(self) -> int:
        return self.A.shape[0] - 1


@dataclass(frozen=True)
class GaugeElement:
    """Invertible n x n basechange, embedded as diag(g, 1) when acting on pairs."""

    g: np.ndarray

    def __post_init__(self):
        g = as_cmatrix(self.g, square=True)
        check_gauge(g)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    def embedded(self) -> np.ndarray:
        n = self.n
        E = np.zeros((n + 1, n + 1), dtype=np.complex128)
        E[:n, :n] = self.g
        E[n, n] = 1.0
        return E


def check_gauge(g, ginv=None) -> None:
    """Raise SingularMatrixError unless every basechange in the stack g is invertible.

    The test GaugeElement applies: smallest singular value above 1e-12
    times max(1, largest).  When the caller holds the exact inverse ginv,
    1 / ||ginv||_F > 1e-12 max(1, ||g||_F) implies that test (the
    smallest singular value is at least 1 / ||ginv||_F and the largest at
    most ||g||_F), so it accepts at once; the SVD runs only when that
    bound is inconclusive, and the accepted set stays the same.
    """
    if ginv is not None and all_items(1.0 / frob(ginv) > 1e-12 * np.maximum(1.0, frob(g))):
        return
    s = np.linalg.svd(g, compute_uv=False)
    if any_item(s[..., -1] <= 1e-12 * np.maximum(1.0, s[..., 0])):
        raise SingularMatrixError("gauge element is numerically singular")


def split_blocks(M):
    """Read an (n+1) square matrix as (block, border column, border row, corner)."""
    M = as_cmatrix(M, square=True)
    return M[:-1, :-1], M[:-1, -1], M[-1, :-1], M[-1, -1]


# ---------------------------------------------------------------------------
# moment maps and the level condition


def moment_map(r: Representation) -> np.ndarray:
    """[A, B] - v w."""
    return comm(r.A, r.B) - r.v @ r.w


def level_scale(r: Representation) -> float:
    return max(1.0, frob(r.A) * frob(r.B))


def level_residual(r: Representation) -> float:
    """Frobenius distance of the moment map from tau * I."""
    return frob(moment_map(r) - r.tau * np.eye(r.n))


def on_shell(r: Representation, tol: float = DEFAULT_TOL) -> bool:
    return level_residual(r) <= tol * level_scale(r)


def level_shift(n: int, tau: complex) -> np.ndarray:
    """diag(tau, ..., tau, -n tau), the traceless shift the pair commutator hits."""
    d = np.full(n, complex(tau), dtype=np.complex128)
    out = np.zeros((n + 1, n + 1), dtype=np.complex128)
    out[np.arange(n), np.arange(n)] = d
    out[n, n] = -d.sum()
    return out


# ---------------------------------------------------------------------------
# gauge action


def gauge_act(g: GaugeElement, r: Representation) -> Representation:
    """(g A g^-1, g B g^-1, g v, w g^-1); the moment map transforms by conjugation."""
    if g.n != r.n:
        raise ShapeMismatchError(f"gauge size {g.n} does not match point size {r.n}")
    gi = g.inv()
    return Representation(
        g.g @ r.A @ gi, g.g @ r.B @ gi, g.g @ r.v, r.w @ gi, r.tau
    )


def gauge_act_pair(g: GaugeElement, p: AugmentedPair) -> AugmentedPair:
    """Conjugate a pair by the embedded basechange diag(g, 1)."""
    if g.n != p.n:
        raise ShapeMismatchError(f"gauge size {g.n} does not match pair size {p.n}")
    E = GaugeElement(g.g).embedded()
    Ei = np.linalg.inv(E)
    return AugmentedPair(E @ p.A @ Ei, E @ p.B @ Ei, p.tau)


# ---------------------------------------------------------------------------
# augmentation


def augment(r: Representation) -> AugmentedPair:
    """Embed a k = 2 quadruple into an (n+1) pair with zero corners."""
    if r.k != 2:
        raise ShapeMismatchError("augmentation needs two inner columns (k = 2)")
    n = r.n
    Ah = np.zeros((n + 1, n + 1), dtype=np.complex128)
    Bh = np.zeros((n + 1, n + 1), dtype=np.complex128)
    Ah[:n, :n] = r.A
    Ah[:n, n] = r.v[:, 0]
    Ah[n, :n] = r.w[1, :]
    Bh[:n, :n] = r.B
    Bh[:n, n] = r.v[:, 1]
    Bh[n, :n] = -r.w[0, :]
    return AugmentedPair(Ah, Bh, r.tau)


def project(p: AugmentedPair, tol: float = DEFAULT_TOL) -> Representation:
    """Invert augment(); both corners must vanish within tol."""
    n = p.n
    scale = max(1.0, frob(p.A), frob(p.B))
    if abs(p.A[n, n]) > tol * scale or abs(p.B[n, n]) > tol * scale:
        raise NonzeroCornerError(
            f"corners ({p.A[n, n]:.3e}, {p.B[n, n]:.3e}) do not vanish at tol {tol:.1e}"
        )
    v = np.column_stack([p.A[:n, n], p.B[:n, n]])
    w = np.vstack([-p.B[n, :n], p.A[n, :n]])
    return Representation(p.A[:n, :n].copy(), p.B[:n, :n].copy(), v, w, p.tau)


def block_commutator_residual(r: Representation) -> float:
    """Deviation of the pair commutator blocks from their closed forms.

    For p = augment(r) the commutator [p.A, p.B] has upper block
    [A, B] - v w, border column A v2 - B v1 and border row w2 B + w1 A.
    Returns the largest block-wise Frobenius deviation; the identity holds
    for arbitrary quadruples, on shell or not.
    """
    p = augment(r)
    K = comm(p.A, p.B)
    n = r.n
    v1, v2 = r.v[:, 0], r.v[:, 1]
    w1, w2 = r.w[0, :], r.w[1, :]
    d_block = frob(K[:n, :n] - (comm(r.A, r.B) - r.v @ r.w))
    d_col = float(np.linalg.norm(K[:n, n] - (r.A @ v2 - r.B @ v1)))
    d_row = float(np.linalg.norm(K[n, :n] - (w2 @ r.B + w1 @ r.A)))
    return max(d_block, d_col, d_row)


def pair_moment(p: AugmentedPair) -> np.ndarray:
    """Upper n x n block of the pair commutator; equals the moment map for augmented points."""
    n = p.n
    return comm(p.A, p.B)[:n, :n]


def pair_scale(p: AugmentedPair) -> float:
    return matrix_pair_scale(p.A, p.B)


def matrix_pair_scale(A, B):
    """max(1, ||A||_F ||B||_F), over the trailing axes of stacked matrices."""
    return np.maximum(1.0, frob(A) * frob(B))


def level_deviation(p: AugmentedPair, tau: complex | None = None) -> float:
    """How far the pair commutator leaves the shifted border space.

    The deviation from the level shift must be supported on the border
    column and border row only; returns the larger of the block norm and
    the corner magnitude of what remains.
    """
    return commutator_level_deviation(comm(p.A, p.B), p.tau if tau is None else tau)


def commutator_level_deviation(K, tau: complex):
    """level_deviation from the pair commutator K = [A, B], over stacked trailing axes."""
    n = K.shape[-1] - 1
    D = K - level_shift(n, tau)
    return np.maximum(frob(D[..., :n, :n]), np.abs(D[..., n, n]))


def on_level(p: AugmentedPair, tol: float = DEFAULT_TOL, tau: complex | None = None) -> bool:
    """True when the pair commutator sits in the shifted border space."""
    return bool(level_deviation(p, tau) <= tol * pair_scale(p))


# ---------------------------------------------------------------------------
# quiver form of the moment map


def quiver_moment(A, B, X1, X2, Y1, Y2):
    """Moment map in framed-quiver coordinates.

    Returns the pair ([A, B] + X1 Y2 - X2 Y1, Y1 . X2 - Y2 . X1) with the
    X's as columns and the Y's as rows.
    """
    A = as_cmatrix(A, square=True)
    B = as_cmatrix(B, square=True)
    X1, X2, Y1, Y2 = (np.asarray(z, dtype=np.complex128).ravel() for z in (X1, X2, Y1, Y2))
    nu1 = comm(A, B) + np.outer(X1, Y2) - np.outer(X2, Y1)
    nu2 = complex(Y1 @ X2 - Y2 @ X1)
    return nu1, nu2


@dataclass(frozen=True)
class DictionaryVariant:
    """One sign / index-swap variant of the printed quadruple-to-quiver dictionary.

    The family is the 16 combinations of: negate the first X slot, swap
    which inner column feeds X1 vs X2, negate the first Y slot, swap which
    inner row feeds Y1 vs Y2.  The printed dictionary itself is
    (X1, X2, Y1, Y2) = (-v1, v2, w1, w2).
    """

    flip_x: bool
    swap_x: bool
    flip_y: bool
    swap_y: bool

    def apply(self, r: Representation):
        c0, c1 = (1, 0) if self.swap_x else (0, 1)
        r0, r1 = (1, 0) if self.swap_y else (0, 1)
        X1 = -r.v[:, c0] if self.flip_x else r.v[:, c0]
        X2 = r.v[:, c1]
        Y1 = -r.w[r0, :] if self.flip_y else r.w[r0, :]
        Y2 = r.w[r1, :]
        return X1, X2, Y1, Y2

    def label(self) -> str:
        sx = "-" if self.flip_x else "+"
        sy = "-" if self.flip_y else "+"
        cx = ("v2", "v1") if self.swap_x else ("v1", "v2")
        cy = ("w2", "w1") if self.swap_y else ("w1", "w2")
        return f"X=({sx}{cx[0]},+{cx[1]}) Y=({sy}{cy[0]},+{cy[1]})"


LITERAL_DICTIONARY = DictionaryVariant(flip_x=True, swap_x=False, flip_y=False, swap_y=False)

ALL_DICTIONARY_VARIANTS = tuple(
    DictionaryVariant(fx, sx, fy, sy)
    for fx in (False, True)
    for sx in (False, True)
    for fy in (False, True)
    for sy in (False, True)
)


@dataclass(frozen=True)
class DictionaryReport:
    """Outcome of calibrating the quiver dictionary on one on-shell point."""

    admissible: tuple
    literal_admissible: bool
    residuals: dict


def calibrate_dictionary(r: Representation, tol: float = 1e-9) -> DictionaryReport:
    """Find which dictionary variants land in the expected quiver fiber.

    A variant is admissible when it maps the on-shell quadruple to the fiber
    over (tau * I_n, -n tau).  An empty admissible tuple is reported, not
    raised, so callers can record the outcome.
    """
    if r.k != 2:
        raise ShapeMismatchError("dictionary calibration needs k = 2")
    n = r.n
    scale = level_scale(r)
    target1 = r.tau * np.eye(n)
    target2 = -n * r.tau
    admissible = []
    residuals = {}
    for var in ALL_DICTIONARY_VARIANTS:
        nu1, nu2 = quiver_moment(r.A, r.B, *var.apply(r))
        resid = max(frob(nu1 - target1), abs(nu2 - target2))
        residuals[var.label()] = resid
        if resid <= tol * scale:
            admissible.append(var)
    return DictionaryReport(
        admissible=tuple(admissible),
        literal_admissible=LITERAL_DICTIONARY in admissible,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# seeded constructions


def spaced_points(rng: np.random.Generator, count: int, spacing: float = 1.0,
                  jitter: float = 0.15, origin_radius: float = 0.5) -> np.ndarray:
    """Complex values on a jittered line; pairwise gaps at least spacing - 2*sqrt(2)*jitter."""
    base = (np.arange(count) - (count - 1) / 2.0) * spacing
    jit = rng.uniform(-jitter, jitter, count) + 1j * rng.uniform(-jitter, jitter, count)
    shift = rng.uniform(-origin_radius, origin_radius) + 1j * rng.uniform(
        -origin_radius, origin_radius
    )
    return base + jit + shift


def _complex_uniform(rng: np.random.Generator, shape, half_width: float = 1.0) -> np.ndarray:
    return rng.uniform(-half_width, half_width, shape) + 1j * rng.uniform(
        -half_width, half_width, shape
    )


def random_point(n: int, k: int, tau: complex, seed: int,
                 row_floor: float = 0.3, max_tries: int = 32) -> Representation:
    """Seeded on-shell point with diagonal A and well-separated spectrum.

    Construction: draw distinct diagonal entries for A (gaps >= 0.5), draw v
    with rows bounded away from zero, pick each column of w as the least-norm
    solution of (v w)_ii = -tau plus a seeded kernel offset, then read the
    off-diagonal entries of B from the level condition and seed its diagonal.
    The result satisfies the level condition to rounding.
    """
    if complex(tau) == 0:
        raise ValueError("the level parameter tau must be nonzero")
    if k not in (1, 2):
        raise ShapeMismatchError(f"inner rank k must be 1 or 2, got {k}")
    if n < 1:
        raise ShapeMismatchError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    tau = complex(tau)

    lam = spaced_points(rng, n)
    v = np.empty((n, k), dtype=np.complex128)
    for i in range(n):
        for attempt in range(max_tries + 1):
            if attempt == max_tries:
                raise InfeasibleRowError(f"no admissible inner row for index {i}")
            row = _complex_uniform(rng, k)
            if np.linalg.norm(row) >= row_floor:
                v[i] = row
                break

    w = np.empty((k, n), dtype=np.complex128)
    for i in range(n):
        vi = v[i]
        base = -tau * vi.conj() / float(np.linalg.norm(vi) ** 2)
        if k == 2:
            kernel = np.array([-vi[1], vi[0]])  # vi . kernel == 0 exactly
            base = base + _complex_uniform(rng, ()) * 0.7 * kernel
        w[:, i] = base

    C = v @ w
    B = np.diag(_complex_uniform(rng, n))
    denom = lam[:, None] - lam[None, :]
    np.fill_diagonal(denom, 1.0)
    off = C / denom
    np.fill_diagonal(off, 0.0)
    B = B + off
    A = np.diag(lam)
    return Representation(A, B, v, w, tau)


def random_quadruple(n: int, k: int, tau: complex, seed: int) -> Representation:
    """Unconstrained seeded quadruple; the level condition generally fails."""
    rng = np.random.default_rng(seed)
    return Representation(
        _complex_uniform(rng, (n, n)),
        _complex_uniform(rng, (n, n)),
        _complex_uniform(rng, (n, k)),
        _complex_uniform(rng, (k, n)),
        tau,
    )


def random_gauge(n: int, seed: int, cond_bound: float = 100.0,
                 max_tries: int = 32) -> GaugeElement:
    """Seeded invertible basechange with bounded condition number."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        g = _complex_uniform(rng, (n, n)) + 1.2 * np.eye(n)
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] <= cond_bound:
            return GaugeElement(g)
    raise SingularMatrixError("could not draw a well conditioned gauge element")


# ---------------------------------------------------------------------------
# trace-word fingerprints


def _word_length(length, default: int) -> int:
    L = default if length is None else int(length)
    if L < 1:
        raise ShapeMismatchError(f"fingerprint length must be positive, got {L}")
    return L


def _power_ladder(M: np.ndarray, L: int) -> np.ndarray:
    """I, M, ..., M^L as one (L+1, ..., m, m) array, by doubling: ceil(log2 L) products."""
    P = np.empty((L + 1, *M.shape), dtype=np.complex128)
    P[0], P[1] = np.eye(M.shape[-1]), M
    k = 1
    while k < L:
        P[k + 1:2 * k + 1] = P[1:min(k, L - k) + 1] @ P[k]
        k *= 2
    return P


def _trace_table(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """T[i, j] = tr(P_i Q_j) for two stacks of m x m matrices, as one product."""
    m = P.shape[-1]
    return P.reshape(len(P), m * m) @ Q.swapaxes(-1, -2).reshape(len(Q), m * m).T


def _antidiagonals(T: np.ndarray, first: int, last: int, edges: bool) -> list:
    """T[i, t - i] for t = first..last, i ascending, one array per t; without edges 0 < i < t."""
    lo, flipped = int(not edges), T[:, ::-1]
    return [flipped.diagonal(len(T) - 1 - t)[lo:t + 1 - lo] for t in range(first, last + 1)]


def fingerprint(r: Representation, length: int | None = None) -> np.ndarray:
    """Gauge-invariant trace-word vector of a quadruple.

    Fixed enumeration over the alphabet (A, B, C) with C = v w: pure powers
    of A and B up to `length`, powers of C up to min(length, 4), mixed words
    tr(A^i B^j) with i + j <= length, and bordered words tr(A^i B^j C) with
    i + j <= length - 2.  Default length is 2 n.  Conjugation-invariant
    because every word is a trace of conjugation-covariant products.
    """
    L = _word_length(length, 2 * r.n)
    C = r.v @ r.w
    P = _power_ladder(np.stack([r.A, r.B]), L)
    T, bordered = _trace_table(P[:, 0], P[:, 1]), _trace_table(P[:L - 1, 0], P[:L - 1, 1] @ C)
    return np.concatenate([
        T[1:, 0], T[0, 1:], _power_ladder(C, min(L, 4))[1:].trace(axis1=1, axis2=2),
        *_antidiagonals(T, 2, L, edges=False), *_antidiagonals(bordered, 1, L - 2, edges=True)])


def pair_fingerprint(p: AugmentedPair, length: int | None = None) -> np.ndarray:
    """Trace words of a pair: tr A^i, tr B^j, then tr(A^i B^j) by i + j <= length (default 2 n)."""
    L = _word_length(length, 2 * p.n)
    P = _power_ladder(np.stack([p.A, p.B]), L)
    T = _trace_table(P[:, 0], P[:, 1])
    return np.concatenate([T[1:, 0], T[0, 1:], *_antidiagonals(T, 2, L, edges=False)])
