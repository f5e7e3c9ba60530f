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
from .canonical import normalize, simple_gap
from .linalg import DEFAULT_TOL, comm, eig, frob, match_to_reference, min_gap
from .variety import (
    AugmentedPair,
    level_shift,
    on_level,
    pair_scale,
    spaced_points,
    split_blocks,
)

# ---------------------------------------------------------------------------
# border projections


def _embed_border_col(m: np.ndarray) -> np.ndarray:
    n = m.size
    out = np.zeros((n + 1, n + 1), dtype=np.complex128)
    out[:n, n] = m
    return out


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
        v = np.asarray(vec, dtype=np.complex128).ravel()
        if v.size != 4 * n + 2:
            raise ShapeMismatchError(f"expected {4 * n + 2} packed coordinates, got {v.size}")
        return cls(v[:n], v[n : 2 * n + 1], v[2 * n + 1 : 3 * n + 1], v[3 * n + 1 :], tau)


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


def is_normal_form(p: AugmentedPair, tol: float = DEFAULT_TOL) -> bool:
    """Diagonal block and unit border row, within tol * max(1, ||M||)."""
    block, _, row, _ = split_blocks(p.A)
    scale = max(1.0, frob(p.A))
    off = block - np.diag(np.diag(block))
    return frob(off) <= tol * scale and np.abs(row - 1.0).max() <= tol * scale


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
    eigenbasis test share; the unit row gives ||M||_F >= 1, so the full
    gap is the one linalg.eig already tests.  Either gap failing raises
    NotStronglySemisimpleError.
    """
    n = p.n
    if not is_normal_form(p, max(tol, 1e-12)):
        raise NotNormalizedError("pair is not in bordered normal form")
    block = split_blocks(p.A)[0]
    block_gap = min_gap(np.diag(block))
    if not simple_gap(block_gap, block, tol):
        raise NotStronglySemisimpleError(f"block spectrum not simple: gap {block_gap:.3e}")
    try:
        lamhat, g, ginv = eig(p.A, tol)
    except DegenerateSpectrumError as exc:
        raise NotStronglySemisimpleError(f"full spectrum not simple: {exc}") from exc
    if not on_level(p, max(tol, 1e-12) * 1e3):
        raise LevelConditionError("pair commutator leaves the shifted border space")

    K = comm(p.A, p.B)
    mu = K[n, :n].copy()
    N1 = np.zeros((n + 1, n + 1), dtype=np.complex128)
    N1[np.arange(n), np.arange(n)] = mu
    N2 = p.B - N1

    K2 = comm(p.A, N2)
    defect = K2[:n, n].copy()
    resid = frob(K2 - level_shift(n, p.tau) - _embed_border_col(defect))
    if resid > 1e-9 * pair_scale(p):
        raise LevelConditionError(
            f"split residual {resid:.3e} exceeds contract at scale {pair_scale(p):.3e}"
        )

    if lamhat_ref is not None:
        perm = match_to_reference(lamhat, lamhat_ref)
        lamhat, g, ginv = lamhat[perm], g[perm, :], ginv[:, perm]
    conj = g @ N2 @ ginv
    muhat = np.diag(conj).copy()
    S = conj - np.diag(muhat)
    return Decomposition(mu=mu, muhat=muhat, lamhat=lamhat, defect=defect,
                         g=g, N1=N1, N2=N2, S=S)


def to_chart(p: AugmentedPair, tol: float = DEFAULT_TOL) -> ChartPoint:
    """Chart coordinates of a pair, normalizing first when needed.

    Both spectra come out in the package ordering; mu follows the ordering
    of lam and muhat the ordering of lamhat.
    """
    if not is_normal_form(p, max(tol, 1e-12)):
        p, _ = normalize(p, tol)
    lam = np.diag(split_blocks(p.A)[0]).copy()
    d = decompose(p, tol)
    return ChartPoint(lam, d.lamhat, d.mu, d.muhat, p.tau)


def to_chart_tracked(p: AugmentedPair, ref: ChartPoint, tol: float = DEFAULT_TOL) -> ChartPoint:
    """Chart coordinates with both spectra matched to a reference point.

    Used for continuation along flows: the lam ordering follows ref.lam and
    the lamhat ordering follows ref.lamhat, so finite differences see a
    single analytic branch.  Raises BranchAmbiguityError when matching is
    not injective at the reference gaps.
    """
    p, _ = normalize(p, tol, lam_ref=ref.lam)
    lam = np.diag(split_blocks(p.A)[0]).copy()
    d = decompose(p, tol, lamhat_ref=ref.lamhat)
    return ChartPoint(lam, d.lamhat, d.mu, d.muhat, p.tau)


# ---------------------------------------------------------------------------
# rebuilding a pair from coordinates


def _border_column(lam: np.ndarray, lamhat: np.ndarray) -> np.ndarray:
    """x_i = -prod_j (lam_i - lamhat_j) / prod_{l != i} (lam_i - lam_l)."""
    num = np.prod(lam[:, None] - lamhat[None, :], axis=1)
    diffs = lam[:, None] - lam[None, :]
    # a unit factor in place of l = i leaves each product bit-identical
    np.fill_diagonal(diffs, 1.0)
    return -num / np.prod(diffs, axis=1)


def _chart_frame(c: ChartPoint, tol: float):
    """First matrix, matched diagonalizer and spectral data shared by the inverse maps.

    Returns (Ah, g, ginv, defect, S).  The defect solves the diagonal
    system diag(g (shift + border_col(defect)) g^-1) = 0 by least squares;
    S is the off-diagonal quotient by the lamhat gaps.
    """
    n = c.n
    scale = max(1.0, float(np.abs(c.lamhat).max()))
    if min_gap(c.lam) <= tol * scale or min_gap(c.lamhat) <= tol * scale:
        raise DegenerateSpectrumError("chart coordinates need simple spectra")

    corner = np.sum(c.lamhat) - np.sum(c.lam)
    x = _border_column(c.lam, c.lamhat)
    Ah = np.zeros((n + 1, n + 1), dtype=np.complex128)
    Ah[np.arange(n), np.arange(n)] = c.lam
    Ah[:n, n] = x
    Ah[n, :n] = 1.0
    Ah[n, n] = corner

    vals, g0, ginv0 = eig(Ah, tol)
    perm = match_to_reference(vals, c.lamhat)
    dev = float(np.abs(vals[perm] - c.lamhat).max())
    if dev > 1e3 * tol * scale:
        raise EigenMismatchError(
            f"reconstructed spectrum deviates from lamhat by {dev:.3e}"
        )
    g, ginv = g0[perm, :], ginv0[:, perm]

    shift = level_shift(n, c.tau)
    # diagonal of g (shift + border_col(m)) g^-1 must vanish; linear in m
    K = g[:, :n] * ginv[n, :][:, None]          # K[j, i] = g[j, i] * ginv[n, j]
    b = -np.diag(g @ shift @ ginv)
    m, *_ = np.linalg.lstsq(K, b, rcond=None)
    resid = float(np.linalg.norm(K @ m - b))
    sing = np.linalg.svd(K, compute_uv=False)
    if sing[0] == 0 or np.count_nonzero(sing > 1e-9 * sing[0]) < n:
        raise DefectSystemError("defect system is rank deficient")
    if resid > max(tol, 1e-12) * 1e3 * max(1.0, float(np.linalg.norm(b))):
        raise DefectSystemError(f"defect system inconsistent, residual {resid:.3e}")

    R = g @ (shift + _embed_border_col(m)) @ ginv
    gaps = c.lamhat[:, None] - c.lamhat[None, :]
    np.fill_diagonal(gaps, 1.0)
    S = R / gaps
    np.fill_diagonal(S, 0.0)
    return Ah, g, ginv, m, S


def from_chart(c: ChartPoint, tol: float = DEFAULT_TOL) -> AugmentedPair:
    """Rebuild the normal-form pair with the given chart coordinates.

    The output satisfies the level condition, its block spectrum is lam,
    its full spectrum is lamhat (in the given order, which need not be
    sorted), and to_chart inverts it up to the package eigenvalue ordering.
    """
    n = c.n
    Ah, g, ginv, _, S = _chart_frame(c, tol)
    N2 = ginv @ (np.diag(c.muhat) + S) @ g
    Bh = N2.copy()
    Bh[np.arange(n), np.arange(n)] += c.mu
    return AugmentedPair(Ah, Bh, c.tau)


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
    _, g, ginv, _, S = _chart_frame(c, tol)
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
    """(f(step) - f(-step)) / (2 step), the quotient every numeric derivative uses."""
    return (f(step) - f(-step)) / (2.0 * step)


def chart_jacobian(c: ChartPoint, tol: float = DEFAULT_TOL, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of to_chart(from_chart(.)) at c.

    Tracked coordinates keep one analytic branch, so on the chart domain
    this is numerically the identity and its rank certifies the coordinate
    count 4 n + 2.
    """
    base = c.vector()
    dim = base.size
    J = np.empty((dim, dim), dtype=np.complex128)
    for idx in range(dim):
        def coords(s: float) -> np.ndarray:
            v = base.copy()
            v[idx] += s
            moved = ChartPoint.from_vector(v, c.n, c.tau)
            return to_chart_tracked(from_chart(moved, tol), c, tol).vector()

        J[:, idx] = _central_difference(coords, step)
    return J
