"""Spectral coordinates on the augmented-pair space.

Around a strongly semisimple pair (M, N) in bordered normal form the
second matrix splits uniquely as N = N1 + N2 where N1 = diag(mu, 0)
commutes with the block of M and the commutator [M, N2] equals the level
shift plus a border-column term.  Writing g for the diagonalizer of M,
the conjugate g N2 g^-1 is a diagonal part diag(muhat) plus an
off-diagonal part S that is a function of the level parameter and the two
spectra alone.  The resulting coordinates

    lam  (n)    eigenvalues of the block,
    lamhat (n+1) eigenvalues of the full matrix,
    mu   (n)    diagonal of the commuting part,
    muhat (n+1) diagonal of the conjugated remainder,

count 4 n + 2 and invert in closed form: the border column of M is a ratio
of spectral products, the corner is the trace mismatch, the border-column
defect solves a small linear system, and S is recovered entrywise from the
gaps of lamhat.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DefectSystemError,
    DegenerateConstraintError,
    DegenerateSpectrumError,
    EigenMismatchError,
    LevelConditionError,
    NotNormalizedError,
    NotStronglySemisimpleError,
    ShapeMismatchError,
)
from .canonical import normal_form, simple_gap
from .linalg import (
    DEFAULT_TOL,
    all_items,
    any_item,
    arrowhead_frame,
    as_square_stack,
    comm,
    eigvals,
    first_failure,
    frob,
    match_to_reference,
    min_gap,
    normalize_frame,
    reorder,
)
from .variety import (
    AugmentedPair,
    check_gauge,
    commutator_level_deviation,
    level_shift,
    matrix_pair_scale,
    spaced_points,
    split_blocks,
)

# Every kernel below works over the trailing axes of its arrays, so one
# call evaluates a whole stack of points and a 2-d input stays 2-d.  The
# public functions on ChartPoint and AugmentedPair go through the same
# kernels with one point; every contract check is made per item, and the
# first failing item raises.

# ---------------------------------------------------------------------------
# border projections


def _embed_border_col(m: np.ndarray) -> np.ndarray:
    n = m.shape[-1]
    out = np.zeros(m.shape[:-1] + (n + 1, n + 1), dtype=np.complex128)
    out[..., :n, n] = m
    return out


def _unpack(V, n: int):
    """(lam, lamhat, mu, muhat) of packed coordinates (..., 4n+2), checked finite."""
    V = np.asarray(V, dtype=np.complex128)
    if V.ndim == 0 or V.shape[-1] != 4 * n + 2:
        raise ShapeMismatchError(f"expected {4 * n + 2} packed coordinates, got {np.shape(V)}")
    if not np.isfinite(V).all():
        raise ShapeMismatchError("chart coordinates contain non-finite entries")
    return V[..., :n], V[..., n : 2 * n + 1], V[..., 2 * n + 1 : 3 * n + 1], V[..., 3 * n + 1 :]


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class ChartPoint:
    """Spectral coordinates (lam, lamhat, mu, muhat) at level tau."""

    lam: np.ndarray
    lamhat: np.ndarray
    mu: np.ndarray
    muhat: np.ndarray
    tau: complex

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.complex128).ravel()
        lamhat = np.asarray(self.lamhat, dtype=np.complex128).ravel()
        mu = np.asarray(self.mu, dtype=np.complex128).ravel()
        muhat = np.asarray(self.muhat, dtype=np.complex128).ravel()
        n = lam.size
        if n < 1 or lamhat.size != n + 1 or mu.size != n or muhat.size != n + 1:
            raise ShapeMismatchError(
                f"coordinate sizes ({lam.size}, {lamhat.size}, {mu.size}, {muhat.size})"
                " must be (n, n+1, n, n+1)"
            )
        for name, arr in (("lam", lam), ("lamhat", lamhat), ("mu", mu), ("muhat", muhat)):
            if not np.isfinite(arr).all():
                raise ShapeMismatchError(f"{name} contains non-finite entries")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lamhat", lamhat)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "muhat", muhat)
        object.__setattr__(self, "tau", complex(self.tau))

    @property
    def n(self) -> int:
        return self.lam.size

    def vector(self) -> np.ndarray:
        """Coordinates packed as (lam, lamhat, mu, muhat)."""
        return np.concatenate([self.lam, self.lamhat, self.mu, self.muhat])

    @classmethod
    def from_vector(cls, vec, n: int, tau: complex) -> "ChartPoint":
        return cls(*_unpack(np.ravel(vec), n), tau)


@dataclass(frozen=True)
class Decomposition:
    """Split N = N1 + N2 of the second matrix at a normal-form pair.

    N1 = diag(mu, 0) commutes with the block of the first matrix; the
    commutator [M, N2] is the level shift plus the border column `defect`;
    g diagonalizes M with spectrum lamhat, and g N2 g^-1 = diag(muhat) + S
    with S off-diagonal.
    """

    mu: np.ndarray
    muhat: np.ndarray
    lamhat: np.ndarray
    defect: np.ndarray
    g: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    S: np.ndarray


# ---------------------------------------------------------------------------
# reading coordinates off a pair


def _normal_form_test(A, tol: float):
    n = A.shape[-1] - 1
    scale = np.maximum(1.0, frob(A))
    off = A[..., :n, :n].copy()
    off[..., np.arange(n), np.arange(n)] = 0.0
    return (frob(off) <= tol * scale) & (np.abs(A[..., n, :n] - 1.0).max(axis=-1) <= tol * scale)


def is_normal_form(p: AugmentedPair, tol: float = DEFAULT_TOL) -> bool:
    """Diagonal block and unit border row, within tol * max(1, ||M||)."""
    return bool(_normal_form_test(p.A, tol))


def decompose(p: AugmentedPair, tol: float = DEFAULT_TOL, lamhat_ref=None) -> Decomposition:
    """Split the second matrix of a normal-form pair.

    mu is read off the border row of the pair commutator, N1 = diag(mu, 0),
    N2 is the remainder, and the border-column defect comes from [M, N2].
    Requires normal form, strong semisimplicity and the level condition.
    When lamhat_ref is given the spectrum of M is ordered by matching to it
    instead of the package sort.

    In normal form strong semisimplicity reduces to the two spectral gaps.
    The diagonal block is its own eigenbasis and the border row y' is all
    ones, so by the eigenbasis criterion of canonical no padded
    eigenvector survives and the stabilizer is trivial.  Both gaps use
    the threshold tol * max(1, ||.||_F) that canonical.simple_gap and the
    eigenbasis test share.  A double full eigenvalue is a Jordan block
    (the unit row makes M nonderogatory) that rounding splits by about
    sqrt(eps), above that threshold, so the full gap is also compared
    with the threshold times the largest eigenvalue condition number
    kappa_j = ||g_j|| ||ginv_j|| of the frame, which such a split drives
    to about 1 / sqrt(eps).  Any gap failing raises
    NotStronglySemisimpleError.

    Only the eigenvalues of M come from an eigensolver.  M is an
    arrowhead, so its frame is linalg.arrowhead_frame of the block
    diagonal and those values, checked by its residual
    ||g M g^-1 - diag(lamhat)|| (EigenMismatchError beyond
    1e3 * tol * max(1, max |lamhat|)) and rescaled to linalg.eig's
    convention, which g and S follow.
    """
    return _decompose(p.A, p.B, p.tau, tol, lamhat_ref)


def _decompose(A, B, tau, tol: float, lamhat_ref=None) -> Decomposition:
    """decompose for the pairs (A, B) stacked over leading axes."""
    n = A.shape[-1] - 1
    if not all_items(_normal_form_test(A, max(tol, 1e-12))):
        raise NotNormalizedError("pair is not in bordered normal form")
    idx = np.arange(n)
    block = A[..., :n, :n]
    lam = block[..., idx, idx]
    block_gap = min_gap(lam)
    bad = ~simple_gap(block_gap, block, tol)
    if any_item(bad):
        raise NotStronglySemisimpleError(
            f"block spectrum not simple: gap {first_failure(block_gap, bad):.3e}")
    lamhat = eigvals(A)
    full_gap = min_gap(lamhat)
    # the plain gap first: the frame divides by the differences of lamhat
    bad = ~simple_gap(full_gap, A, tol)
    if any_item(bad):
        raise NotStronglySemisimpleError(
            f"full spectrum not simple: gap {first_failure(full_gap, bad):.3e}")
    g, ginv = arrowhead_frame(lam, lamhat)
    kappa = (np.linalg.norm(g, axis=-1) * np.linalg.norm(ginv, axis=-2)).max(axis=-1)
    bad = ~simple_gap(full_gap, A, tol * kappa)
    if any_item(bad):
        raise NotStronglySemisimpleError(
            f"full spectrum not simple: gap {first_failure(full_gap, bad):.3e} at "
            f"eigenvalue condition number {first_failure(kappa, bad):.3e}")
    _check_frame(A, lamhat, g, ginv, tol)
    g, ginv = normalize_frame(g, ginv)
    K = comm(A, B)
    scale = matrix_pair_scale(A, B)
    if not all_items(commutator_level_deviation(K, tau) <= max(tol, 1e-12) * 1e3 * scale):
        raise LevelConditionError("pair commutator leaves the shifted border space")

    mu = K[..., n, :n].copy()
    N1 = np.zeros_like(A)
    N1[..., idx, idx] = mu
    N2 = B - N1

    K2 = comm(A, N2)
    defect = K2[..., :n, n].copy()
    resid = frob(K2 - level_shift(n, tau) - _embed_border_col(defect))
    bad = resid > 1e-9 * scale
    if any_item(bad):
        raise LevelConditionError(
            f"split residual {first_failure(resid, bad):.3e} exceeds contract "
            f"at scale {first_failure(scale, bad):.3e}"
        )

    if lamhat_ref is not None:
        lamhat, g, ginv = reorder(lamhat, g, ginv, match_to_reference(lamhat, lamhat_ref))
    S = g @ N2 @ ginv
    full = np.arange(n + 1)
    muhat = S[..., full, full]
    S[..., full, full] = 0.0
    return Decomposition(mu=mu, muhat=muhat, lamhat=lamhat, defect=defect,
                         g=g, N1=N1, N2=N2, S=S)


def to_chart_stack(A, B, tau: complex, tol: float = DEFAULT_TOL,
                   ref: ChartPoint | None = None) -> np.ndarray:
    """Packed chart coordinates (..., 4n+2) of the pairs (A, B) stacked over leading axes.

    to_chart without ref, to_chart_tracked with it.  Without ref the
    pairs are normalized unless every one is in normal form already.
    """
    A, B = as_square_stack(A), as_square_stack(B)
    if A.shape != B.shape or A.shape[-1] < 2:
        raise ShapeMismatchError(f"pair shapes {A.shape}, {B.shape} differ or are below 2 x 2")
    n = A.shape[-1] - 1
    if ref is not None or not all_items(_normal_form_test(A, max(tol, 1e-12))):
        A, B, gauge, gauge_inv = normal_form(A, B, tol, None if ref is None else ref.lam)
        check_gauge(gauge, gauge_inv)
    d = _decompose(A, B, tau, tol, None if ref is None else ref.lamhat)
    lam = A[..., np.arange(n), np.arange(n)]
    return np.concatenate([lam, d.lamhat, d.mu, d.muhat], axis=-1)


def to_chart(p: AugmentedPair, tol: float = DEFAULT_TOL) -> ChartPoint:
    """Chart coordinates of a pair, normalizing first when needed.

    Both spectra come out in the package ordering; mu follows the ordering
    of lam and muhat the ordering of lamhat.
    """
    return ChartPoint.from_vector(to_chart_stack(p.A, p.B, p.tau, tol), p.n, p.tau)


def to_chart_tracked(p: AugmentedPair, ref: ChartPoint, tol: float = DEFAULT_TOL) -> ChartPoint:
    """Chart coordinates with both spectra matched to a reference point.

    Used for continuation along flows: the lam ordering follows ref.lam and
    the lamhat ordering follows ref.lamhat, so finite differences see a
    single analytic branch.  Raises BranchAmbiguityError when matching is
    not injective at the reference gaps.
    """
    return ChartPoint.from_vector(to_chart_stack(p.A, p.B, p.tau, tol, ref), p.n, p.tau)


# ---------------------------------------------------------------------------
# rebuilding a pair from coordinates


def _border_column(lam: np.ndarray, lamhat: np.ndarray) -> np.ndarray:
    """x_i = -prod_j (lam_i - lamhat_j) / prod_{l != i} (lam_i - lam_l)."""
    num = np.prod(lam[..., :, None] - lamhat[..., None, :], axis=-1)
    diffs = lam[..., :, None] - lam[..., None, :]
    # a unit factor in place of l = i leaves each product bit-identical
    n = lam.shape[-1]
    diffs[..., np.arange(n), np.arange(n)] = 1.0
    return -num / np.prod(diffs, axis=-1)


def _solve_defect(K, b, tol: float):
    """Least-squares solution m of K m = b, from the one SVD the rank test takes.

    K is (n+1) x n per item.  Raises DefectSystemError when K has rank
    below n or the residual is out of contract.
    """
    n = K.shape[-1]
    U, s, Vh = np.linalg.svd(K, full_matrices=False)
    if any_item(np.count_nonzero(s > 1e-9 * s[..., :1], axis=-1) < n):
        raise DefectSystemError("defect system is rank deficient")
    coef = (np.conj(np.swapaxes(U, -1, -2)) @ b[..., None])[..., 0] / s
    m = (np.conj(np.swapaxes(Vh, -1, -2)) @ coef[..., None])[..., 0]
    resid = np.linalg.norm((K @ m[..., None])[..., 0] - b, axis=-1)
    bad = resid > max(tol, 1e-12) * 1e3 * np.maximum(1.0, np.linalg.norm(b, axis=-1))
    if any_item(bad):
        raise DefectSystemError(
            f"defect system inconsistent, residual {first_failure(resid, bad):.3e}")
    return m


def _check_frame(A, lamhat, g, ginv, tol: float) -> None:
    """Raise EigenMismatchError unless g A ginv = diag(lamhat) within 1e3 * tol * max(1, max |lamhat|)."""
    R = g @ A @ ginv
    full = np.arange(A.shape[-1])
    R[..., full, full] -= lamhat
    resid = frob(R)
    bound = 1e3 * tol * np.maximum(1.0, np.abs(lamhat).max(axis=-1))
    bad = ~(resid <= bound)
    if any_item(bad):
        raise EigenMismatchError(
            f"frame residual {first_failure(resid, bad):.3e} exceeds "
            f"{first_failure(bound, bad):.3e}"
        )


def _chart_frame(lam, lamhat, tau: complex, tol: float):
    """First matrix, its diagonalizer in lamhat's order and the spectral data of the inverse maps.

    Returns (Ah, g, ginv, defect, S).  Ah is the arrowhead with spectra
    (lam, lamhat) and (g, ginv) its closed-form frame
    (linalg.arrowhead_frame), in the given order by construction and not
    unit-normalized: the defect, S, the rebuilt second matrix and
    project_to_slice's kappa do not change under a diagonal rescaling of
    the frame.  The frame residual is the contract check
    (EigenMismatchError beyond 1e3 * tol * max(1, max |lamhat|)).  The
    defect solves the diagonal system diag(g (shift + border_col(defect))
    g^-1) = 0 by least squares; S is the off-diagonal quotient by the
    lamhat gaps.
    """
    n = lam.shape[-1]
    scale = np.maximum(1.0, np.abs(lamhat).max(axis=-1))
    if any_item((min_gap(lam) <= tol * scale) | (min_gap(lamhat) <= tol * scale)):
        raise DegenerateSpectrumError("chart coordinates need simple spectra")

    idx = np.arange(n)
    Ah = np.zeros(lam.shape[:-1] + (n + 1, n + 1), dtype=np.complex128)
    Ah[..., idx, idx] = lam
    Ah[..., :n, n] = _border_column(lam, lamhat)
    Ah[..., n, :n] = 1.0
    Ah[..., n, n] = np.sum(lamhat, axis=-1) - np.sum(lam, axis=-1)

    g, ginv = arrowhead_frame(lam, lamhat)
    _check_frame(Ah, lamhat, g, ginv, tol)

    g_shift = g * np.diagonal(level_shift(n, tau))   # g @ shift, the shift being diagonal
    # diagonal of g (shift + border_col(m)) g^-1 must vanish; linear in m
    K = g[..., :, :n] * ginv[..., n, :, None]   # K[j, i] = g[j, i] * ginv[n, j]
    b = -(g_shift * np.swapaxes(ginv, -1, -2)).sum(axis=-1)
    m = _solve_defect(K, b, tol)

    # the border column m e_n^T contributes the rank-one (g[:, :n] m) ginv[n, :]
    R = g_shift @ ginv + (g[..., :, :n] @ m[..., None]) * ginv[..., n:, :]
    full = np.arange(n + 1)
    gaps = lamhat[..., :, None] - lamhat[..., None, :]
    gaps[..., full, full] = 1.0
    S = R / gaps
    S[..., full, full] = 0.0
    return Ah, g, ginv, m, S


def from_chart_stack(V, n: int, tau: complex, tol: float = DEFAULT_TOL):
    """from_chart for packed coordinates V of shape (..., 4n+2); returns the matrices (A, B)."""
    lam, lamhat, mu, muhat = _unpack(V, n)
    Ah, g, ginv, _, S = _chart_frame(lam, lamhat, tau, tol)
    full = np.arange(n + 1)
    S[..., full, full] = muhat          # S is off-diagonal: this is diag(muhat) + S
    Bh = ginv @ S @ g
    Bh[..., full[:n], full[:n]] += mu
    return Ah, Bh


def from_chart(c: ChartPoint, tol: float = DEFAULT_TOL) -> AugmentedPair:
    """Rebuild the normal-form pair with the given chart coordinates.

    The output satisfies the level condition, its block spectrum is lam,
    its full spectrum is lamhat (in the given order, which need not be
    sorted), and to_chart inverts it up to the package eigenvalue ordering.
    """
    A, B = from_chart_stack(c.vector(), c.n, c.tau, tol)
    return AugmentedPair(A, B, c.tau)


# ---------------------------------------------------------------------------
# the embedded slice


def slice_residual(p: AugmentedPair):
    """(trace mismatch, second corner); both vanish on the embedded slice."""
    block, _, _, _ = split_blocks(p.A)
    return (
        complex(np.trace(p.A) - np.trace(block)),
        complex(p.B[p.n, p.n]),
    )


def project_to_slice(c: ChartPoint, tol: float = DEFAULT_TOL) -> ChartPoint:
    """Minimal muhat correction putting the rebuilt pair on the slice.

    The second corner is affine in muhat with coefficient vector
    kappa_j = ginv[n, j] g[j, n] (the kappa sum to one, so the constraint
    is never empty); the correction is the least-norm solution of
    kappa . muhat + s0 = 0.  lam, lamhat, mu are untouched.
    """
    n = c.n
    _, g, ginv, _, S = _chart_frame(c.lam, c.lamhat, c.tau, tol)
    kappa = ginv[n, :] * g[:, n]
    s0 = complex((ginv @ S @ g)[n, n])
    nrm2 = float(np.linalg.norm(kappa) ** 2)
    if nrm2 <= tol:
        raise DegenerateConstraintError("slice constraint has no usable gradient")
    resid = complex(kappa @ c.muhat + s0)
    muhat = c.muhat - kappa.conj() * (resid / nrm2)
    return replace(c, muhat=muhat)


# ---------------------------------------------------------------------------
# seeded chart points and the chart Jacobian


def random_chart_point(n: int, tau: complex, seed: int) -> ChartPoint:
    """Seeded chart point with sorted, well-separated spectra.

    lam and lamhat are sorted in the package ordering so round trips through
    from_chart / to_chart compare coordinates directly.
    """
    if complex(tau) == 0:
        raise ValueError("the level parameter tau must be nonzero")
    rng = np.random.default_rng(seed)
    lam = spaced_points(rng, n)
    lamhat = spaced_points(rng, n + 1) + (0.45 + 0.35j)
    lam = lam[np.lexsort((lam.imag, lam.real))]
    lamhat = lamhat[np.lexsort((lamhat.imag, lamhat.real))]
    mu = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    muhat = rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)
    return ChartPoint(lam, lamhat, mu, muhat, tau)


def _central_difference(f, step: float) -> np.ndarray:
    """(f(step) - f(-step)) / (2 step), the quotient of the numeric field derivatives."""
    return (f(step) - f(-step)) / (2.0 * step)


def chart_jacobian(c: ChartPoint, tol: float = DEFAULT_TOL, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of to_chart(from_chart(.)) at c.

    Tracked coordinates keep one analytic branch, so on the chart domain
    this is numerically the identity and its rank certifies the coordinate
    count 4 n + 2.  All 2 (4 n + 2) perturbed points go through the
    chart as one stack.
    """
    base = c.vector()
    dim = base.size
    steps = step * np.eye(dim)
    A, B = from_chart_stack(np.concatenate([base + steps, base - steps]), c.n, c.tau, tol)
    back = to_chart_stack(A, B, c.tau, tol, ref=c)
    return ((back[:dim] - back[dim:]) / (2.0 * step)).T
