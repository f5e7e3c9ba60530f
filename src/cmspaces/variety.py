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
role of two extra scalar coordinates; the basechange acts on pairs by
conjugation with embed(g) = diag(g, 1), which fixes both.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InfeasibleRowError,
    NonzeroCornerError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .linalg import (
    DEFAULT_TOL,
    all_items,
    any_item,
    as_cmatrix,
    as_square_stack,
    comm,
    frob,
    matrix_scale,
    pair_scale,
    row_norms,
    value_scale,
)

# ---------------------------------------------------------------------------
# core containers


@dataclass(frozen=True)
class Representation:
    """Quadruple (A, B, v, w) with its level parameter tau.

    The level condition is not enforced at construction; use
    level_residual to test it.  Arrays are stored as
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
            raise ShapeMismatchError(f"expected v {n} x {k} and w {k} x {n}, got {v.shape}, {w.shape}")
        for name, value in zip("ABvw", (A, B, v, w)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "tau", check_level(self.tau))

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
        object.__setattr__(self, "tau", check_level(self.tau))

    @property
    def n(self) -> int:
        return self.A.shape[0] - 1


@dataclass(frozen=True)
class GaugeElement:
    """Invertible n x n basechange, embedded as diag(g, 1) when acting on pairs.

    It holds g and its inverse ginv.  A caller that already holds the
    inverse (canonical.normalize does) passes it, and it is kept as given
    once ||g ginv - I||_F <= 1e-8 ||g||_F ||ginv||_F, which any computed
    inverse meets (ShapeMismatchError otherwise); without one it is
    computed here, once.  Either way check_gauge(g, ginv) runs once,
    which needs no SVD unless its norm bound is inconclusive.
    """

    g: np.ndarray
    ginv: np.ndarray | None = None

    def __post_init__(self):
        g = as_cmatrix(self.g, square=True)
        if self.ginv is None:
            try:
                ginv = np.linalg.inv(g)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError("gauge element is singular") from exc
        else:
            ginv = as_cmatrix(self.ginv, square=True)
            if ginv.shape != g.shape:
                raise ShapeMismatchError(f"inverse shape {ginv.shape} does not match {g.shape}")
            if not frob(g @ ginv - np.eye(g.shape[0])) <= 1e-8 * frob(g) * frob(ginv):
                raise ShapeMismatchError("ginv is not the inverse of g")
        check_gauge(g, ginv)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "ginv", ginv)

    @property
    def n(self) -> int:
        return self.g.shape[0]


def embed(g) -> np.ndarray:
    """diag(g, 1) of each basechange in the stack g, over leading axes."""
    n = g.shape[-1]
    E = np.zeros(g.shape[:-2] + (n + 1, n + 1), dtype=np.complex128)
    E[..., :n, :n] = g
    E[..., n, n] = 1.0
    return E


def check_gauge(g, ginv) -> None:
    """Raise SingularMatrixError unless every basechange in the stack g is invertible.

    The invertibility test: smallest singular value above 1e-12 times
    value_scale of the singular values.  With ginv the exact inverse,
    1 / ||ginv||_F > 1e-12 matrix_scale(g) implies that test (the
    smallest singular value is at least 1 / ||ginv||_F and the largest
    at most ||g||_F), so it accepts at once; the SVD runs only when that
    bound is inconclusive, and the accepted set stays the same.
    """
    if all_items(1.0 / frob(ginv) > 1e-12 * matrix_scale(g)):
        return
    s = np.linalg.svd(g, compute_uv=False)
    if any_item(s[..., -1] <= 1e-12 * value_scale(s)):
        raise SingularMatrixError("gauge element is numerically singular")


# ---------------------------------------------------------------------------
# moment maps and the level condition


def level_residual(r: Representation) -> float:
    """Frobenius distance of the moment map from tau * I."""
    return float(quadruple_level_residual(r.A, r.B, r.v, r.w, r.tau))


def quadruple_level_residual(A, B, v, w, tau):
    """level_residual over the trailing axes of stacked quadruples."""
    return frob(comm(A, B) - v @ w - tau * np.eye(A.shape[-1]))


def level_shift(n: int, tau: complex) -> np.ndarray:
    """diag(tau, ..., tau, -n tau), the traceless shift the pair commutator hits.

    Read-only, and built once per (n, tau) in a process.
    """
    return _level_shift(int(n), complex(tau))


@lru_cache(maxsize=64)
def _level_shift(n: int, tau: complex) -> np.ndarray:
    d = np.full(n, tau, dtype=np.complex128)
    out = np.zeros((n + 1, n + 1), dtype=np.complex128)
    out[np.arange(n), np.arange(n)] = d
    out[n, n] = -d.sum()
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# gauge action


def gauge_act(g: GaugeElement, r: Representation) -> Representation:
    """(g A g^-1, g B g^-1, g v, w g^-1); the moment map transforms by conjugation.

    The one-item call of gauge_act_stack.
    """
    if g.n != r.n:
        raise ShapeMismatchError(f"gauge size {g.n} does not match point size {r.n}")
    return Representation(*gauge_act_stack(g.g, g.ginv, r.A, r.B, r.v, r.w), r.tau)


def gauge_act_stack(g, ginv, A, B, v, w):
    """gauge_act of the quadruples (A, B, v, w) by the basechanges g with inverses ginv, stacked.

    Over leading axes; each item takes the products of its one-item call.
    """
    return g @ A @ ginv, g @ B @ ginv, g @ v, w @ ginv


def gauge_act_pair(g: GaugeElement, p: AugmentedPair) -> AugmentedPair:
    """Conjugate a pair by the embedded basechange diag(g, 1)."""
    if g.n != p.n:
        raise ShapeMismatchError(f"gauge size {g.n} does not match pair size {p.n}")
    E, Ei = embed(g.g), embed(g.ginv)
    return AugmentedPair(E @ p.A @ Ei, E @ p.B @ Ei, p.tau)


# ---------------------------------------------------------------------------
# augmentation


def augment(r: Representation) -> AugmentedPair:
    """Embed a k = 2 quadruple into an (n+1) pair with zero corners."""
    if r.k != 2:
        raise ShapeMismatchError("augmentation needs two inner columns (k = 2)")
    return AugmentedPair(*augment_stack(r.A, r.B, r.v, r.w), r.tau)


def augment_stack(A, B, v, w):
    """The matrices of augment() for stacked k = 2 quadruples, over leading axes."""
    n = A.shape[-1]
    Ah = np.zeros(A.shape[:-2] + (n + 1, n + 1), dtype=np.complex128)
    Bh = np.zeros_like(Ah)
    Ah[..., :n, :n] = A
    Ah[..., :n, n] = v[..., :, 0]
    Ah[..., n, :n] = w[..., 1, :]
    Bh[..., :n, :n] = B
    Bh[..., :n, n] = v[..., :, 1]
    Bh[..., n, :n] = -w[..., 0, :]
    return Ah, Bh


def project(p: AugmentedPair, tol: float = DEFAULT_TOL) -> Representation:
    """Invert augment(); both corners must vanish within tol.

    The one-pair call of project_stack.
    """
    return Representation(*project_stack(p.A, p.B, tol), p.tau)


def project_stack(A, B, tol: float = DEFAULT_TOL):
    """The quadruples (A, B, v, w) that the pairs (A, B), stacked over leading axes, augment.

    Both corners of every pair must vanish within tol times the larger
    matrix_scale of its two matrices; the first pair whose corners do not
    raises NonzeroCornerError, with the message of its one-pair call.
    """
    n = A.shape[-1] - 1
    scale = np.maximum(matrix_scale(A), matrix_scale(B))
    a, b = A[..., n, n], B[..., n, n]
    bad = (np.abs(a) > tol * scale) | (np.abs(b) > tol * scale)
    if any_item(bad):
        i = np.flatnonzero(bad)[0]
        raise NonzeroCornerError(
            f"corners ({np.ravel(a)[i]:.3e}, {np.ravel(b)[i]:.3e}) do not vanish at tol {tol:.1e}"
        )
    v = np.stack([A[..., :n, n], B[..., :n, n]], axis=-1)
    w = np.stack([-B[..., n, :n], A[..., n, :n]], axis=-2)
    return A[..., :n, :n].copy(), B[..., :n, :n].copy(), v, w


def quadruple_block_residual(A, B, v, w):
    """Deviation of the pair commutator blocks from their closed forms, per stacked quadruple.

    For k = 2 quadruples stacked over leading axes, the commutator of
    their augmented pairs has upper block [A, B] - v w, border column
    A v2 - B v1 and border row w2 B + w1 A.  Returns the largest
    block-wise Frobenius deviation per item; the identity holds for
    arbitrary quadruples, on shell or not.
    """
    n = A.shape[-1]
    Ah, Bh = augment_stack(A, B, v, w)
    K = comm(Ah, Bh)
    v1, v2 = v[..., :, 0:1], v[..., :, 1:2]
    w1, w2 = w[..., 0:1, :], w[..., 1:2, :]
    d_block = frob(K[..., :n, :n] - (comm(A, B) - v @ w))
    d_col = row_norms(K[..., :n, n] - (A @ v2 - B @ v1)[..., 0])
    d_row = row_norms(K[..., n, :n] - (w2 @ B + w1 @ A)[..., 0, :])
    return np.maximum(np.maximum(d_block, d_col), d_row)


def pair_moment(p: AugmentedPair) -> np.ndarray:
    """Upper n x n block of the pair commutator; equals the moment map for augmented points."""
    n = p.n
    return comm(p.A, p.B)[:n, :n]


def level_deviation(p: AugmentedPair) -> float:
    """How far the pair commutator leaves the shifted border space.

    The deviation from the level shift must be supported on the border
    column and border row only; returns the larger of the block norm and
    the corner magnitude of what remains.
    """
    return commutator_level_deviation(comm(p.A, p.B), p.tau)


def commutator_level_deviation(K, tau: complex):
    """level_deviation from the pair commutator K = [A, B], over stacked trailing axes."""
    n = K.shape[-1] - 1
    D = K - level_shift(n, tau)
    return np.maximum(frob(D[..., :n, :n]), np.abs(D[..., n, n]))


def on_level(p: AugmentedPair, tol: float = DEFAULT_TOL) -> bool:
    """True when the pair commutator sits in the shifted border space."""
    return bool(level_deviation(p) <= tol * pair_scale(p.A, p.B))


# ---------------------------------------------------------------------------
# quiver form of the moment map


def quiver_moment(A, B, X1, X2, Y1, Y2):
    """Moment map in framed-quiver coordinates.

    Returns the pair ([A, B] + X1 Y2 - X2 Y1, Y1 . X2 - Y2 . X1) with the
    X's as columns and the Y's as rows.  The vectors (..., n) may be
    stacked over leading axes that broadcast with those of A and B
    (..., n, n); nu1 and nu2 then gain them.
    """
    A, B = as_square_stack(A), as_square_stack(B)
    X1, X2, Y1, Y2 = (np.asarray(z, dtype=np.complex128) for z in (X1, X2, Y1, Y2))
    nu1 = comm(A, B) + X1[..., :, None] * Y2[..., None, :] - X2[..., :, None] * Y1[..., None, :]
    nu2 = (Y1[..., None, :] @ X2[..., :, None] - Y2[..., None, :] @ X1[..., :, None])[..., 0, 0]
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

    def apply(self, v, w):
        """(X1, X2, Y1, Y2) of the inner blocks v (..., n, 2) and w (..., 2, n), stacked."""
        c0, c1 = (1, 0) if self.swap_x else (0, 1)
        r0, r1 = (1, 0) if self.swap_y else (0, 1)
        X1 = -v[..., :, c0] if self.flip_x else v[..., :, c0]
        X2 = v[..., :, c1]
        Y1 = -w[..., r0, :] if self.flip_y else w[..., r0, :]
        Y2 = w[..., r1, :]
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


def calibrate_dictionary(r: Representation) -> DictionaryReport:
    """Find which dictionary variants land in the expected quiver fiber.

    A variant is admissible when it maps the on-shell quadruple to the fiber
    over (tau * I_n, -n tau), within 1e-9 * pair_scale(A, B).  An empty
    admissible tuple is reported, not raised, so callers can record the
    outcome.  The one-quadruple call of calibrate_dictionary_stack.
    """
    resids, admissible = calibrate_dictionary_stack(r.A, r.B, r.v, r.w, r.tau)
    admissible = tuple(var for var, ok in zip(ALL_DICTIONARY_VARIANTS, admissible) if ok)
    return DictionaryReport(
        admissible=admissible,
        literal_admissible=LITERAL_DICTIONARY in admissible,
        residuals=dict(zip((var.label() for var in ALL_DICTIONARY_VARIANTS), resids.tolist())),
    )


def calibrate_dictionary_stack(A, B, v, w, tau):
    """calibrate_dictionary of k = 2 quadruples (A, B, v, w) stacked over leading axes.

    Returns (residuals, admissible), each (..., 16) along
    ALL_DICTIONARY_VARIANTS: every variant of every quadruple goes
    through one quiver_moment stack, and each item keeps the bits of its
    one-quadruple call.
    """
    if v.shape[-1] != 2:
        raise ShapeMismatchError("dictionary calibration needs k = 2")
    n, tau = A.shape[-1], complex(tau)
    scale = pair_scale(A, B)
    slots = zip(*(var.apply(v, w) for var in ALL_DICTIONARY_VARIANTS))
    X1, X2, Y1, Y2 = (np.stack(slot, axis=-2) for slot in slots)     # (..., 16, n) each
    nu1, nu2 = quiver_moment(A[..., None, :, :], B[..., None, :, :], X1, X2, Y1, Y2)
    # abs of a Python complex: np.abs rounds differently in the last bit
    dist2 = np.array([abs(z) for z in (nu2 - (-n * tau)).ravel().tolist()]).reshape(nu2.shape)
    resids = np.maximum(frob(nu1 - tau * np.eye(n)), dist2)
    return resids, resids <= 1e-9 * np.asarray(scale)[..., None]


# ---------------------------------------------------------------------------
# seeded streams
#
# np.random.default_rng(seed) is a PCG64 (O'Neill 2014) seeded by numpy's
# SeedSequence: the seed's 32-bit words, little end first, are hashed into
# a pool of four words, and the pool into four 64-bit words (s0, s1, q0,
# q1).  With s = s0 s1 and q = q0 q1 read as 128-bit integers, the
# generator starts at inc = 2 q + 1 and state = (inc + s) M + inc, mod
# 2^128, M being PCG64's multiplier: its two LCG steps from 0.
# seeded_streams hashes a whole stack of seeds in one vectorized pass of
# that hash and sets one PCG64 to each seed's state in turn.

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875     # the entropy mixing's hash constant
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED     # the state output's
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, count: int) -> tuple:
    """(xor, multiplier) uint32 columns of count hashmix calls whose hash constant starts at init.

    At call t the constant is init mult^t mod 2^32: the call XORs it in,
    steps it, and multiplies by the stepped constant.
    """
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


_OUTPUT_STEPS = _hash_steps(_INIT_B, _MULT_B, 8)


@lru_cache(maxsize=None)
def _mixing_steps(words: int) -> tuple:
    """(xor, multiplier) columns of SeedSequence's hashmix calls on a seed of `words` >= 4 words.

    In turn: the four calls that fill the pool; for each pool word s, the
    three that mix it into the other words, listed from word s + 1 on
    (the order _pcg64_states rotates the pool in); and four per word past
    the fourth.
    """
    xor, mult = _hash_steps(_INIT_A, _MULT_A, 4 * words)

    def at(t):
        return xor[list(t)], mult[list(t)]

    rounds = [at([4 + 3 * s + d - (d > s) for d in ((s + 1) % 4, (s + 2) % 4, (s + 3) % 4)])
              for s in range(4)]
    return at(range(4)), rounds, [at(range(4 * j, 4 * j + 4)) for j in range(4, words)]


def _hashmix(x, steps):
    xor, mult = steps
    x = (x ^ xor) * mult
    return x ^ (x >> _XSHIFT)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def _pcg64_states(seeds: list) -> list:
    """The PCG64 (state, inc) np.random.default_rng(seed) starts from, for each int seed >= 0.

    numpy's SeedSequence hash on uint32 arrays, one row per pool word and
    one column per seed.  A seed of up to four words hashes as its words
    padded with zeros; each word past the fourth mixes into every pool
    word, in the columns of the seeds that have it.
    """
    if any(s < 0 for s in seeds):
        raise ValueError("expected non-negative integer")
    lens = np.array([(s.bit_length() + 31) // 32 for s in seeds], dtype=int)
    words = max(4, int(lens.max(initial=0)))
    E = np.frombuffer(b"".join(s.to_bytes(4 * words, "little") for s in seeds),
                      dtype="<u4").reshape(len(seeds), words).T
    first, rounds, extra = _mixing_steps(words)
    pool = _hashmix(E[:4], first)
    for steps in rounds:    # word s is row 0 of the pool, rotated one row per round
        pool = np.concatenate([_mix(pool[1:], _hashmix(pool[0], steps)), pool[:1]])
    for j, steps in enumerate(extra, 4):
        pool = np.where(lens > j, _mix(pool, _hashmix(E[j], steps)), pool)
    out = _hashmix(np.concatenate([pool, pool]), _OUTPUT_STEPS)
    states = []
    for s0, s1, q0, q1 in np.ascontiguousarray(out.T, dtype="<u4").view("<u8").tolist():
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        states.append((((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


@dataclass(frozen=True)
class SeededStreams:
    """The np.random.default_rng streams of a stack of seeds, from one hash (seeded_streams).

    Iterating gives one Generator, set to each seed's start in turn, so
    the i-th item draws bit for bit what default_rng of the i-th seed
    draws.  The streams of one hash share one PCG64 (bits): draw from
    each item before the next is asked for, or any other of these streams
    is drawn from.  Indexing with a sequence of positions gives the
    streams of those seeds, without hashing them again.
    """

    states: list    # the PCG64 (state, inc) of each seed
    bits: np.random.PCG64

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, index) -> SeededStreams:
        return SeededStreams([self.states[i] for i in index], self.bits)

    def __iter__(self):
        gen = np.random.Generator(self.bits)
        for state, inc in self.states:
            self.bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
            yield gen

    def rows(self, count: int) -> np.ndarray:
        """(len, count) doubles: row i is default_rng(seed i).random(count).

        A longer row of a stream starts with its shorter ones.
        """
        U = np.empty((len(self), count))
        for row, gen in zip(U, self):
            gen.random(out=row)
        return U


def seeded_streams(seeds) -> SeededStreams:
    """The streams of the seeds, non-negative integers, from one hash of them all.

    SeededStreams pass as they are, so a caller that hashed a check's
    seeds once hands the samplers the streams of each stack.
    """
    if isinstance(seeds, SeededStreams):
        return seeds
    return SeededStreams(_pcg64_states([operator.index(s) for s in seeds]), np.random.PCG64(0))


# ---------------------------------------------------------------------------
# seeded constructions


def is_count(n) -> bool:
    """True for an integer n >= 1, a Python or numpy one; a float of integral value is none."""
    return isinstance(n, (int, np.integer)) and n >= 1


def check_size(n: int) -> None:
    """Raise ShapeMismatchError unless the size n a sampler is asked for is a count (is_count)."""
    if not is_count(n):
        raise ShapeMismatchError(f"n must be a positive integer, got {n!r}")


def check_level(tau) -> complex:
    """tau as a complex, for every container, sampler and rebuild; ShapeMismatchError unless finite."""
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise ShapeMismatchError(f"the level parameter tau = {tau} is not finite")
    return tau


def spaced_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Complex values on a jittered line; pairwise gaps at least 1 - 2 sqrt(2) 0.15 > 0.57."""
    return spaced_points_from(rng.random(2 * count + 2))


def spaced_points_from(u):
    """spaced_points from its 2 count + 2 drawn doubles, over the leading axes of u.

    They are count real and count imaginary jitters, then the real and
    imaginary shift: unit spacing, jitter within 0.15 and a shift within
    0.5 in each part.
    """
    count = u.shape[-1] // 2 - 1
    base = np.arange(count) - (count - 1) / 2.0
    jit = complex_uniforms_from(u[..., :count], u[..., count:2 * count], 0.15)
    shift = complex_uniforms_from(u[..., -2:-1], u[..., -1:], 0.5)
    return base + jit + shift


def complex_uniforms_from(re, im, half_width: float = 1.0):
    """Complex uniforms on the square of half_width from the doubles Generator.random drew.

    Bit for bit what Generator.uniform(-half_width, half_width) makes of
    the same doubles, low + (high - low) * u, for each part.
    """
    low, high = -half_width, half_width
    return (low + (high - low) * re) + 1j * (low + (high - low) * im)


# an inner row of random_point is redrawn while its norm is below _ROW_FLOOR,
# at most _MAX_TRIES times in a row
_ROW_FLOOR = 0.3
_MAX_TRIES = 32


def random_point(n: int, k: int, tau: complex, seed: int) -> Representation:
    """Seeded on-shell point with diagonal A and well-separated spectrum.

    Construction: draw distinct diagonal entries for A (gaps >= 0.5), draw v
    with rows bounded away from zero, pick each column of w as the least-norm
    solution of (v w)_ii = -tau plus a seeded kernel offset, then read the
    off-diagonal entries of B from the level condition and seed its diagonal.
    The result satisfies the level condition to rounding.  The one-seed
    call of random_points.
    """
    A, B, v, w = random_points(n, k, tau, [seed])
    return Representation(A[0], B[0], v[0], w[0], tau)


def _inner_rows(u, k: int):
    """Complex rows from blocks of 2k doubles: k real parts, then k imaginary parts."""
    u = u.reshape(u.shape[:-1] + (u.shape[-1] // (2 * k), 2, k))
    return complex_uniforms_from(u[..., 0, :], u[..., 1, :])


def _replay_rows(u, n: int, k: int):
    """The inner rows of rejecting seeds by the per-row rejection loop, and the doubles after them.

    u has one row per seed: its stream after the spectrum, long enough for
    n (_MAX_TRIES + 1) blocks of 2k doubles and 2nk more.  A seed's row i
    is its i-th block whose norm reaches _ROW_FLOOR; all seeds are scanned
    as one array.  When a run of _MAX_TRIES rejected blocks comes before a
    seed's n-th taken one, the loop gives up on the row it was drawing;
    n (_MAX_TRIES + 1) blocks hold either n taken ones or such a run.  The
    first seed, in order, that gives up raises InfeasibleRowError.
    """
    blocks = _inner_rows(u[:, :2 * k * n * (_MAX_TRIES + 1)], k)
    ok = row_norms(blocks) >= _ROW_FLOOR
    count = np.minimum(ok.sum(axis=-1), n)
    taken = np.argsort(~ok, axis=-1, kind="stable")[:, :n]    # the first n taken blocks, in order
    gaps = np.diff(taken, axis=-1, prepend=-1) - 1
    short = (gaps >= _MAX_TRIES) & (np.arange(n) < count[:, None])
    gives_up = np.flatnonzero(short.any(axis=-1) | (count < n))
    if gives_up.size:
        s = gives_up[0]
        index = np.argmax(short[s]) if short[s].any() else count[s]
        raise InfeasibleRowError(f"no admissible inner row for index {index}")
    end = 2 * k * (taken[:, -1:] + 1)
    return (np.take_along_axis(blocks, taken[..., None], axis=1),
            np.take_along_axis(u, end + np.arange(2 * n * k), axis=1))


def random_points(n: int, k: int, tau: complex, seeds):
    """Seeded on-shell points, one per seed, stacked: (A, B, v, w) with leading axis len(seeds).

    Item i is random_point(n, k, tau, seeds[i]), from the stream of
    np.random.default_rng(seeds[i]); the seeds are hashed in one call
    (seeded_streams).  Each seed's spectrum, its inner rows as if none
    were rejected and the doubles after them are the first doubles of its
    stream, and the arithmetic runs over the whole stack.  The seeds that
    reject a row replay the per-row rejection loop on longer rows of their
    streams, all in one array scan, each consuming its stream as one row
    at a time would; the first seed to exhaust _MAX_TRIES raises
    InfeasibleRowError.
    """
    tau = check_level(tau)
    if tau == 0:
        raise ValueError("the level parameter tau must be nonzero")
    if k not in (1, 2):
        raise ShapeMismatchError(f"inner rank k must be 1 or 2, got {k}")
    check_size(n)
    streams = seeded_streams(seeds)
    # per seed: the spectrum (spaced_points), n blocks of 2k row doubles,
    # then (k = 2) n kernel coefficients as (real, imaginary) pairs and
    # the diagonal of B (n real, n imaginary)
    head, body = 2 * n + 2, 2 * n * k
    U = streams.rows(head + body + 2 * n * k)

    v, tail = _inner_rows(U[:, head:head + body], k), U[:, head + body:]
    norms = row_norms(v)
    rejecting = np.flatnonzero((norms < _ROW_FLOOR).any(axis=-1))
    if rejecting.size:
        longer = streams[rejecting.tolist()].rows(head + body * (_MAX_TRIES + 2))
        v[rejecting], tail[rejecting] = _replay_rows(longer[:, head:], n, k)
        norms[rejecting] = row_norms(v[rejecting])
    lam = spaced_points_from(U[:, :head])

    # the squared row norms go through libm pow, as a Python float power
    # does; an array square (x * x) rounds differently in about 0.08% of
    # values, and the seeded points are defined by pow
    sq = np.array([x ** 2 for x in norms.ravel().tolist()]).reshape(norms.shape)
    w = -tau * v.conj() / sq[..., None]
    if k == 2:
        coeff = complex_uniforms_from(tail[:, 0:2 * n:2], tail[:, 1:2 * n:2])
        kernel = np.stack([-v[..., 1], v[..., 0]], axis=-1)  # v_i . kernel_i == 0 exactly
        w = w + (coeff * 0.7)[..., None] * kernel
    w = np.ascontiguousarray(w.swapaxes(-1, -2))
    d = tail[:, -2 * n:]

    idx = np.arange(n)
    A = np.zeros((len(U), n, n), dtype=np.complex128)
    A[:, idx, idx] = lam
    B = np.zeros_like(A)
    B[:, idx, idx] = complex_uniforms_from(d[:, :n], d[:, n:])
    denom = lam[:, :, None] - lam[:, None, :]
    denom[:, idx, idx] = 1.0
    off = (v @ w) / denom
    off[:, idx, idx] = 0.0
    return A, B + off, v, w


def random_quadruples(n: int, k: int, tau: complex, seeds):
    """Seeded quadruples, one per seed, stacked: (A, B, v, w) with leading axis len(seeds).

    The quadruples are unconstrained: the level condition generally
    fails.  The first doubles of each seed's np.random.default_rng stream
    (seeded_streams, one hash for the stack) give the uniforms on [-1, 1]
    of A, B, v and w in turn, each block its real parts and then its
    imaginary parts.  The draw does not depend on tau.
    """
    if k not in (1, 2):
        raise ShapeMismatchError(f"inner rank k must be 1 or 2, got {k}")
    check_size(n)
    shapes = [(n, n), (n, n), (n, k), (k, n)]
    sizes = [rows * cols for rows, cols in shapes]
    U = seeded_streams(seeds).rows(2 * sum(sizes))
    parts = np.split(U, np.cumsum(np.repeat(sizes, 2))[:-1], axis=-1)
    return tuple(complex_uniforms_from(re, im).reshape(len(U), *shape)
                 for re, im, shape in zip(parts[0::2], parts[1::2], shapes))


# random_gauge draws up to _GAUGE_TRIES matrices per seed for one whose
# condition number is at most 100
_GAUGE_TRIES = 32


def _gauge_tries(u, n: int):
    """The tries g = Z + 1.2 I from rows of 2 n^2 doubles, and whether each is kept.

    Z takes the real parts, then the imaginary parts, of complex uniforms
    on [-1, 1].  A try is kept when its condition number s_max / s_min,
    by one SVD stack, is at most 100.
    """
    m = n * n
    Z = complex_uniforms_from(u[..., :m], u[..., m:]).reshape(*u.shape[:-1], n, n)
    g = Z + 1.2 * np.eye(n)
    s = np.linalg.svd(g, compute_uv=False)
    cond = np.divide(s[..., 0], s[..., -1], out=np.full(s.shape[:-1], np.inf),
                     where=s[..., -1] > 0)
    return g, cond <= 100.0


def random_gauges(n: int, seeds):
    """random_gauge of size n at each seed, stacked: (g, ginv) with leading axis len(seeds).

    Each seed's tries are the rows of 2 n^2 doubles of its
    np.random.default_rng stream in turn (seeded_streams, one hash for the
    stack); the first try of every seed takes one SVD stack, and a seed
    whose first is rejected scans a longer row of its stream.  The first
    seed with no kept try raises SingularMatrixError.  The inverses are
    one inv stack, and check_gauge passes by their norm bound.
    """
    check_size(n)
    streams = seeded_streams(seeds)
    g, kept = _gauge_tries(streams.rows(2 * n * n), n)
    rejected = np.flatnonzero(~kept)
    if rejected.size:
        longer = streams[rejected.tolist()].rows(_GAUGE_TRIES * 2 * n * n)
        tries, kept = _gauge_tries(longer.reshape(rejected.size, _GAUGE_TRIES, 2 * n * n), n)
        for s, gs, ok in zip(rejected, tries, kept):
            if not ok.any():
                raise SingularMatrixError("could not draw a well conditioned gauge element")
            g[s] = gs[np.argmax(ok)]
    ginv = np.linalg.inv(g)
    check_gauge(g, ginv)
    return g, ginv


def random_gauge(n: int, seed: int) -> GaugeElement:
    """Seeded invertible basechange with condition number at most 100, in 32 draws.

    The one-seed call of random_gauges.
    """
    g, ginv = random_gauges(n, [seed])
    return GaugeElement(g[0], ginv[0])


# ---------------------------------------------------------------------------
# trace-word fingerprints


def _power_ladder(L: int, *mats) -> np.ndarray:
    """I, M, ..., M^L of each M in mats as (..., len(mats), L+1, m, m); one product per doubling.

    The leading axes and the mats run along one flat ladder axis, so every
    operand of a product is a plain slice of it; each item keeps the bits
    of its one-item ladder.
    """
    m = mats[0].shape[-1]
    P = np.empty((*mats[0].shape[:-2], len(mats), L + 1, m, m), dtype=np.complex128)
    for i, M in enumerate(mats):
        P[..., i, 1, :, :] = M
    F = P.reshape(-1, L + 1, m, m)
    F[:, 0] = _identity(m)
    R = F.reshape(len(F), (L + 1) * m, m)     # the powers stacked as rows: a view of P
    k = 1
    while k < L:
        h = min(k, L - k)
        np.matmul(R[:, m:(h + 1) * m], F[:, k], out=R[:, (k + 1) * m:(k + h + 1) * m])
        k *= 2
    return P


@lru_cache(maxsize=None)
def _identity(m: int) -> np.ndarray:
    """The complex m x m identity, read-only, built once per size in a process."""
    eye = np.eye(m, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def _trace_table(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """T[..., i, j] = tr(P_i Q_j) for two stacks of m x m matrices along axis -3, one product per item."""
    m = P.shape[-1]
    Qt = Q.swapaxes(-1, -2).reshape(*Q.shape[:-2], m * m)
    return P.reshape(*P.shape[:-2], m * m) @ Qt.swapaxes(-1, -2)


def _antidiagonals(T: np.ndarray, first: int, last: int, edges: bool) -> list:
    """T[i, t - i] for t = first..last, i ascending, one array per t; without edges 0 < i < t."""
    lo, flipped = int(not edges), T[:, ::-1]
    return [flipped.diagonal(len(T) - 1 - t)[lo:t + 1 - lo] for t in range(first, last + 1)]


def fingerprint(r: Representation) -> np.ndarray:
    """Gauge-invariant trace-word vector of a quadruple.

    Fixed enumeration over the alphabet (A, B, C) with C = v w, at word
    length L = 2 n: pure powers of A and B up to L, powers of C up to
    min(L, 4), mixed words tr(A^i B^j) with i + j <= L, and bordered words
    tr(A^i B^j C) with i + j <= L - 2.  Conjugation-invariant because
    every word is a trace of conjugation-covariant products.  The
    one-quadruple call of fingerprints.
    """
    return fingerprints(r.A, r.B, r.v, r.w)


def fingerprints(A, B, v, w) -> np.ndarray:
    """fingerprint of the quadruples (A, B, v, w) stacked over leading axes: (..., words).

    The stack goes through the same power ladders and trace-table
    products as one quadruple, so each item keeps the bits of its
    one-quadruple call.
    """
    n = A.shape[-1]
    L = 2 * n
    C = (v @ w).reshape(-1, 1, n, n)
    P = _power_ladder(L, A, B).reshape(-1, 2, L + 1, n, n)
    PA, PB = P[:, 0], P[:, 1]
    T = _trace_table(PA, PB)
    bordered = _trace_table(PA[:, :L - 1], PB[:, :L - 1] @ C)
    pure_C = _power_ladder(min(L, 4), C)[:, 0, 0, 1:].trace(axis1=-2, axis2=-1)
    table = np.concatenate([T.reshape(len(T), -1), pure_C, bordered.reshape(len(T), -1)], axis=-1)
    return table.take(_word_index(L, True), axis=-1).reshape(*A.shape[:-2], -1)


@lru_cache(maxsize=None)
def _word_index(L: int, bordered: bool) -> np.ndarray:
    """Positions of pair_fingerprint's words (fingerprint's with bordered), in order, in the table.

    The table is the (L+1) x (L+1) trace table flattened, then with bordered
    the min(L, 4) traces of the powers of C and the bordered table flattened.
    """
    T = np.arange((L + 1) ** 2).reshape(L + 1, L + 1)
    pure_C = T.size + np.arange(min(L, 4) if bordered else 0)
    table = T.size + pure_C.size + np.arange((L - 1) ** 2).reshape(L - 1, L - 1)
    index = np.concatenate([T[1:, 0], T[0, 1:], pure_C, *_antidiagonals(T, 2, L, edges=False),
                            *(_antidiagonals(table, 1, L - 2, edges=True) if bordered else ())])
    index.setflags(write=False)
    return index


def pair_fingerprint(p: AugmentedPair) -> np.ndarray:
    """Trace words of a pair: tr A^i, tr B^j, then tr(A^i B^j) by i + j <= L, at L = 2 n.

    The one-pair call of pair_fingerprints.
    """
    return pair_fingerprints(p.A, p.B)


def pair_fingerprints(A, B) -> np.ndarray:
    """pair_fingerprint of the pairs (A, B) stacked over leading axes: (..., words).

    The stack goes through the same power ladder and trace-table
    products as one pair, so each item keeps the bits of its one-pair
    call.
    """
    m = A.shape[-1]
    L = 2 * (m - 1)
    P = _power_ladder(L, A, B).reshape(-1, 2, L + 1, m, m)
    T = _trace_table(P[:, 0], P[:, 1])
    return T.reshape(*A.shape[:-2], -1).take(_word_index(L, False), axis=-1)
