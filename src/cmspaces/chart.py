"""Spectral coordinates on the augmented-pair space.

Around a strongly semisimple pair (M, N) in bordered normal form the
second matrix splits uniquely as N = N1 + N2 where N1 = diag(mu, 0)
commutes with the block of M and the commutator [M, N2] equals the level
shift plus a border-column term.  Writing g for the diagonalizer of M,
the conjugate g N2 g^-1 is a diagonal part diag(muhat) plus an
off-diagonal part S of the level parameter and lamhat alone: in the
frame of linalg.arrowhead_frame, S_jk = tau / (lamhat_k - lamhat_j).
The resulting coordinates

    lam  (n)    eigenvalues of the block,
    lamhat (n+1) eigenvalues of the full matrix,
    mu   (n)    diagonal of the commuting part,
    muhat (n+1) diagonal of the conjugated remainder,

count 4 n + 2 and invert in closed form: the border column of M is a ratio
of spectral products, the corner is the trace mismatch, and S is the
off-diagonal of the Calogero-Moser Lax matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateConstraintError,
    DegenerateSpectrumError,
    EigenMismatchError,
    LevelConditionError,
    NonConvergentError,
    NotNormalizedError,
    NotStronglySemisimpleError,
    ShapeMismatchError,
)
from .canonical import normal_form_at_scale, simple_gap
from .linalg import (
    DEFAULT_TOL,
    MATCH_GUARD,
    all_items,
    any_item,
    arrowhead_frame,
    arrowhead_with_frame,
    as_square_stack,
    comm,
    diagonal_view,
    eigvals,
    first_failure,
    frob,
    gather,
    match_to_reference,
    matrix_scale,
    min_gap,
    normalize_frame,
    reorder,
    row_norms,
    sort_order,
    value_scale,
)
from .variety import (
    AugmentedPair,
    check_level,
    check_size,
    commutator_level_deviation,
    complex_uniforms_from,
    level_shift,
    seeded_streams,
    spaced_points_from,
)

# Every kernel below works over the trailing axes of its arrays, so one
# call evaluates a whole stack of points and a 2-d input stays 2-d.  The
# public functions on ChartPoint and AugmentedPair go through the same
# kernels with one point; every contract check is made per item, and the
# first failing item raises.

# ---------------------------------------------------------------------------
# packed coordinates and references


def unpack(V):
    """(lam, lamhat, mu, muhat) of packed coordinates (..., 4n+2), n >= 1, checked finite."""
    V = np.asarray(V, dtype=np.complex128)
    size = V.shape[-1] if V.ndim else 0
    n = (size - 2) // 4
    if n < 1 or size != 4 * n + 2:
        raise ShapeMismatchError(f"expected 4n+2 packed coordinates, n >= 1, got {V.shape}")
    if not np.isfinite(V).all():
        raise ShapeMismatchError("chart coordinates contain non-finite entries")
    return V[..., :n], V[..., n : 2 * n + 1], V[..., 2 * n + 1 : 3 * n + 1], V[..., 3 * n + 1 :]


# ---------------------------------------------------------------------------
# containers

_PARTS = ("lam", "lamhat", "mu", "muhat")      # a ChartPoint's coordinates, packed in this order


@dataclass(frozen=True)
class ChartPoint:
    """Spectral coordinates (lam, lamhat, mu, muhat) at level tau."""

    lam: np.ndarray
    lamhat: np.ndarray
    mu: np.ndarray
    muhat: np.ndarray
    tau: complex

    def __post_init__(self):
        parts = [np.asarray(getattr(self, name), dtype=np.complex128).ravel() for name in _PARTS]
        sizes = tuple(part.size for part in parts)
        n = sizes[0]
        if n < 1 or sizes != (n, n + 1, n, n + 1):
            raise ShapeMismatchError(f"coordinate sizes {sizes} must be (n, n+1, n, n+1)")
        for name, part in zip(_PARTS, parts):
            if not np.isfinite(part).all():
                raise ShapeMismatchError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, part)
        object.__setattr__(self, "tau", check_level(self.tau))

    @property
    def n(self) -> int:
        return self.lam.size

    def vector(self) -> np.ndarray:
        """Coordinates packed as (lam, lamhat, mu, muhat)."""
        return np.concatenate([self.lam, self.lamhat, self.mu, self.muhat])

    @classmethod
    def from_vector(cls, vec, tau: complex) -> "ChartPoint":
        """The point at level tau with the packed coordinates vec, one vector of 4n+2 values.

        unpack validates vec, once: a stack or any other length raises
        ShapeMismatchError.
        """
        if np.ndim(vec) != 1:
            raise ShapeMismatchError(f"expected one vector of 4n+2 coordinates, got {np.shape(vec)}")
        point = object.__new__(cls)
        for name, part in zip(_PARTS, unpack(vec)):
            object.__setattr__(point, name, part)
        object.__setattr__(point, "tau", check_level(tau))
        return point


@dataclass(frozen=True)
class Decomposition:
    """Split N = N1 + N2 of the second matrix at a normal-form pair.

    N1 = diag(mu, 0) commutes with the block of the first matrix; the
    commutator [M, N2] is the level shift plus the border column `defect`;
    g diagonalizes M with spectrum lamhat, ginv is its inverse (the
    eigenvector columns), and g N2 ginv = diag(muhat) + S with S
    off-diagonal.
    """

    mu: np.ndarray
    muhat: np.ndarray
    lamhat: np.ndarray
    defect: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    S: np.ndarray


# ---------------------------------------------------------------------------
# reading coordinates off a pair


def _normal_form_test(A, tol: float, scale):
    """Per item: is A in bordered normal form, within max(tol, 1e-12) * scale?

    scale is matrix_scale(A), which the caller takes once per read.  The
    border row is tested first, and the block's off-diagonal norm only
    when some item's row passes.
    """
    tol = max(tol, 1e-12)
    n = A.shape[-1] - 1
    ok = np.abs(A[..., n, :n] - 1.0).max(axis=-1) <= tol * scale
    if not ok.any():
        return ok
    off = A[..., :n, :n].copy()
    diagonal_view(off)[...] = 0.0
    return ok & (frob(off) <= tol * scale)


def _scale_of(norm):
    """max(1, norm) of Frobenius norms already taken: linalg.value_scale of each as one value."""
    return value_scale(np.asarray(norm)[..., None])


def _reference(ref, lead: tuple, size: int) -> np.ndarray:
    """ref as complex (..., size), its leading axes broadcasting to lead without enlarging it.

    One reference for every item or one per item (or per group of items);
    any other shape raises ShapeMismatchError.
    """
    ref = np.asarray(ref, dtype=np.complex128)
    outer = ref.shape[:-1]
    if (ref.ndim == 0 or ref.shape[-1] != size or len(outer) > len(lead)
            or any(r not in (1, m) for r, m in zip(outer[::-1], lead[::-1]))):
        raise ShapeMismatchError(
            f"reference of shape {ref.shape} does not serve pairs of leading shape {lead}"
            f" with {size} values each")
    return ref


def decompose(p: AugmentedPair, tol: float = DEFAULT_TOL, lamhat_ref=None) -> Decomposition:
    """Split the second matrix of a normal-form pair.

    mu is read off the border row of the pair commutator, N1 = diag(mu, 0),
    N2 is the remainder, and the border-column defect comes from [M, N2].
    Requires normal form (NotNormalizedError, tested here and not again
    in decompose_stack), strong semisimplicity and the level condition.
    When lamhat_ref is given the spectrum of M is ordered by matching to it
    instead of the package sort; a lamhat_ref that is not n + 1 values
    raises ShapeMismatchError.

    In normal form strong semisimplicity reduces to the two spectral gaps.
    The diagonal block is its own eigenbasis and the border row y' is all
    ones, so by the eigenbasis criterion of canonical no padded
    eigenvector survives and the stabilizer is trivial.  Both gaps use
    the threshold tol * matrix_scale(.) that canonical.simple_gap and the
    eigenbasis test share, the full gap scaled once more by the largest
    eigenvalue condition number kappa_j = ||g_j|| ||ginv_j|| of the
    frame, floored at 1.  A double full eigenvalue is a Jordan block (the
    unit row makes M nonderogatory) that rounding splits by about
    sqrt(eps), above the plain threshold, but such a split drives kappa
    to about 1 / sqrt(eps), and an exactly repeated value makes kappa
    non-finite; either way the one scaled test refuses it.  Since
    kappa_j >= |g_j . ginv_j| = 1 the scaled test implies the plain one.
    Any gap failing raises NotStronglySemisimpleError.

    Only the eigenvalues of M can come from an eigensolver, and only
    without lamhat_ref.  With it they are the roots of M's secular
    equation, continued from the reference by Newton steps; an item
    whose roots are not certified falls back to the eigensolver, and
    the checks below are the same either way.  M is an arrowhead, so
    its frame is linalg.arrowhead_frame of the block diagonal and those
    values, checked by its residual
    ||g M g^-1 - diag(lamhat)|| (EigenMismatchError beyond
    1e3 * tol * value_scale(lamhat)) and rescaled to linalg.eig's
    convention, which g and S follow.
    """
    if not _normal_form_test(p.A, tol, matrix_scale(p.A)):
        raise NotNormalizedError("pair is not in bordered normal form")
    if lamhat_ref is not None:
        lamhat_ref = _reference(lamhat_ref, (), p.n + 1)
    return decompose_stack(p.A, p.B, p.tau, tol, lamhat_ref)


def decompose_stack(A, B, tau: complex, tol: float = DEFAULT_TOL,
                    lamhat_ref=None) -> Decomposition:
    """decompose for the pairs (A, B) stacked over leading axes.

    Every field of the Decomposition gains the same leading axes.  The
    pairs must be in normal form already, and lamhat_ref, when given,
    (..., n + 1) with leading axes that broadcast to the pairs' without
    enlarging them: one reference for all items or one per item.  The
    callers make both true (decompose and to_chart_stack test them,
    from_chart_stack builds normal forms), so neither is tested again.
    The read itself is _read's; this rescales its frame and forms S.  A
    tau that is not finite raises ShapeMismatchError before any work.
    """
    tau = check_level(tau)
    lamhat, g, ginv, mu, N1, N2, defect = _read(A, B, tau, tol, lamhat_ref, frob(A))
    g, ginv = normalize_frame(g, ginv)
    if lamhat_ref is not None:
        lamhat, g, ginv = reorder(lamhat, g, ginv, match_to_reference(lamhat, lamhat_ref))
    S = g @ N2 @ ginv
    muhat = diagonal_view(S).copy()
    diagonal_view(S)[...] = 0.0
    return Decomposition(mu=mu, muhat=muhat, lamhat=lamhat, defect=defect,
                         g=g, ginv=ginv, N1=N1, N2=N2, S=S)


def _read(A, B, tau: complex, tol: float, lamhat_ref, norm_A):
    """Every check of a chart read of normal-form pairs, in order, and the pieces it reads.

    norm_A is frob(A), taken once per read.  In turn: the block gap, the
    full spectrum (eigvals, or the tracked roots with lamhat_ref), the
    kappa-scaled full gap, the frame residual, the level condition and
    the split residual; see decompose for each.  Returns
    (lamhat, g, ginv, mu, N1, N2, defect) with lamhat in the order it was
    computed in and (g, ginv) the frame as linalg.arrowhead_frame builds
    it, in lamhat's order and not unit-normalized.
    """
    n = A.shape[-1] - 1
    lam = A.diagonal(axis1=-2, axis2=-1)[..., :n]
    block_gap = min_gap(lam)
    bad = ~simple_gap(block_gap, A[..., :n, :n], tol)
    if any_item(bad):
        raise NotStronglySemisimpleError(
            f"block spectrum not simple: gap {first_failure(block_gap, bad):.3e}")
    lamhat = eigvals(A) if lamhat_ref is None else _tracked_lamhat(A, lam, lamhat_ref)
    full_gap = min_gap(lamhat)
    # a repeated value of lamhat makes the frame, and so kappa, non-finite
    with np.errstate(all="ignore"):
        g, ginv = arrowhead_frame(lam, lamhat)
        kappa = np.maximum(1.0, (row_norms(g) * row_norms(np.swapaxes(ginv, -1, -2))).max(axis=-1))
    # canonical.simple_gap(full_gap, A, tol * kappa), with A's scale taken once
    bad = ~(full_gap > tol * kappa * _scale_of(norm_A))
    if any_item(bad):
        raise NotStronglySemisimpleError(
            f"full spectrum not simple: gap {first_failure(full_gap, bad):.3e} at "
            f"eigenvalue condition number {first_failure(kappa, bad):.3e}")
    _check_frame(A, lamhat, g, ginv, tol)
    K = comm(A, B)
    scale = _scale_of(norm_A * frob(B))     # pair_scale(A, B)
    if not all_items(commutator_level_deviation(K, tau) <= max(tol, 1e-12) * 1e3 * scale):
        raise LevelConditionError("pair commutator leaves the shifted border space")

    mu = K[..., n, :n].copy()
    N1 = np.zeros(A.shape, dtype=np.complex128)
    diagonal_view(N1)[..., :n] = mu
    N2 = B - N1

    # [A, N2] = K - [A, N1], and [A, N1]_ij = A_ij (d_j - d_i) for N1 = diag(d)
    d = np.diagonal(N1, axis1=-2, axis2=-1)
    R = K - A * (d[..., None, :] - d[..., :, None]) - level_shift(n, tau)
    defect = R[..., :n, n].copy()
    R[..., :n, n] = 0.0
    resid = frob(R)
    bad = resid > 1e-9 * scale
    if any_item(bad):
        raise LevelConditionError(
            f"split residual {first_failure(resid, bad):.3e} exceeds contract "
            f"at scale {first_failure(scale, bad):.3e}"
        )
    return lamhat, g, ginv, mu, N1, N2, defect


# Newton steps a tracked read takes at most before it stops its item
_SECULAR_STEPS = 8


def _tracked_lamhat(A, lam, ref):
    """Full spectra of normal-form first matrices, continued from the references ref.

    A normal form is the arrowhead [[diag(lam), x], [y^T, a]], whose
    full spectrum is the roots of the secular equation

        f(z) = z - a - sum_i x_i y_i / (z - lam_i)

    (its characteristic polynomial over prod_i (z - lam_i)).  Newton
    steps z -= f / f' start from the reference, O(n^2) per item and
    step over the whole stack.  An item stops once its residual |f| is
    within the rounding of evaluating f, or once a step no longer
    shrinks.  It keeps its roots, in the reference's order, only when
    they are certified: its block is exactly diagonal (else f is not
    its characteristic equation), every root is finite with |f| at
    rounding level, and each lies within MATCH_GUARD times the
    reference gap of its own reference entry, which keeps the roots
    pairwise distinct.  Every other item gets eigvals, in the package
    ordering.  Each item's result depends on that item alone.  ref is
    a complex array of the shape decompose_stack states for lamhat_ref.
    """
    n = lam.shape[-1]
    shape = lam.shape[:-1] + (n + 1,)
    lam = np.ascontiguousarray(lam)
    w = A[..., :n, n] * A[..., n, :n]
    a = A[..., n, n][..., None]
    z = np.array(np.broadcast_to(ref, shape))
    # evaluating f at z rounds by about (n + 4) eps times the sum of its
    # term sizes; twice that is rounding level
    rounding = 2 * (n + 4) * np.finfo(np.float64).eps
    prev = np.full(lam.shape[:-1], np.inf)
    with np.errstate(all="ignore"):      # a pole hit is a non-finite root, certified below
        for step in range(_SECULAR_STEPS + 1):
            r = 1.0 / (z[..., :, None] - lam[..., None, :])
            t = w[..., None, :] * r
            f = z - a - t.sum(axis=-1)
            settled = np.isfinite(f) & (
                np.abs(f) <= rounding * (np.abs(z) + np.abs(a) + np.abs(t).sum(axis=-1)))
            dz = f / (1.0 + (t * r).sum(axis=-1))
            size = np.abs(dz).max(axis=-1)
            go = ~settled.all(axis=-1) & (size < prev) & (step < _SECULAR_STEPS)
            if not go.any():
                break
            z = np.where(go[..., None], z - dz, z)
            prev = np.where(go, size, prev)
        ok = (np.count_nonzero(A[..., :n, :n], axis=(-2, -1)) == np.count_nonzero(lam, axis=-1))
        ok &= (settled & (np.abs(z - ref) <= MATCH_GUARD * min_gap(ref)[..., None])).all(axis=-1)
    if not ok.all():
        z[~ok] = eigvals(A[~ok])
    return z


def to_chart_stack(A, B, tau: complex, tol: float = DEFAULT_TOL, ref=None) -> np.ndarray:
    """Packed chart coordinates (..., 4n+2) of the pairs (A, B) stacked over leading axes.

    to_chart without ref, to_chart_tracked with it.  ref holds packed
    reference coordinates (..., 4n+2) whose leading axes broadcast to the
    pairs' without enlarging them, so one reference serves every item or
    each item has its own; any other shape raises ShapeMismatchError
    before any work.  The pairs are normalized unless every one is in
    normal form already, so the normal form is tested once per read.
    The last step orders lam and mu together: matched to ref's
    lam, or in the package ordering without ref.  A tau that is not
    finite raises ShapeMismatchError before any work.
    """
    tau = check_level(tau)
    A, B = as_square_stack(A), as_square_stack(B)
    if A.shape != B.shape or A.shape[-1] < 2:
        raise ShapeMismatchError(f"pair shapes {A.shape}, {B.shape} differ or are below 2 x 2")
    n = A.shape[-1] - 1
    lam_ref = lamhat_ref = None
    if ref is not None:
        lam_ref, lamhat_ref, _, _ = unpack(_reference(ref, A.shape[:-2], 4 * n + 2))
    norm_A = frob(A)
    scale = _scale_of(norm_A)
    if not all_items(_normal_form_test(A, tol, scale)):
        A, B, _, _ = normal_form_at_scale(A, B, tol, scale)
        norm_A = frob(A)
    lamhat, g, ginv, mu, _, N2, _ = _read(A, B, tau, tol, lamhat_ref, norm_A)
    # muhat_j = (g N2 ginv)_jj, which a diagonal rescaling of the frame leaves alone
    muhat = ((g @ N2) * np.swapaxes(ginv, -1, -2)).sum(axis=-1)
    if ref is not None:
        perm = match_to_reference(lamhat, lamhat_ref)
        lamhat, muhat = gather(lamhat, perm, -1), gather(muhat, perm, -1)
    lam = A.diagonal(axis1=-2, axis2=-1)[..., :n]
    perm = sort_order(lam) if ref is None else match_to_reference(lam, lam_ref)
    lam, mu = gather(lam, perm, -1), gather(mu, perm, -1)
    return np.concatenate([lam, lamhat, mu, muhat], axis=-1)


def to_chart(p: AugmentedPair, tol: float = DEFAULT_TOL) -> ChartPoint:
    """Chart coordinates of a pair, normalizing first when needed.

    Both spectra come out in the package ordering, whatever the order of a
    normal form's diagonal; mu follows lam's ordering and muhat lamhat's.
    """
    return ChartPoint.from_vector(to_chart_stack(p.A, p.B, p.tau, tol), p.tau)


def to_chart_tracked(p: AugmentedPair, ref: ChartPoint, tol: float = DEFAULT_TOL) -> ChartPoint:
    """Chart coordinates with both spectra matched to a reference point.

    Used for continuation along flows: the lam ordering follows ref.lam and
    the lamhat ordering follows ref.lamhat, so finite differences see a
    single analytic branch.  Raises BranchAmbiguityError when matching is
    not injective at the reference gaps.
    """
    return ChartPoint.from_vector(to_chart_stack(p.A, p.B, p.tau, tol, ref.vector()), p.tau)


# ---------------------------------------------------------------------------
# the tangent of a read


def _read_tangent(A, B, d: Decomposition, dA, dB, E) -> np.ndarray:
    """Packed tangents (..., k, 4n+2) of the read of normal-form pairs along k tangents each.

    (A, B) are normal-form pairs (..., n+1, n+1) and d their
    decomposition.  (dA, dB) are tangents (..., k, n+1, n+1) whose first
    matrix keeps the normal form: its off-diagonal block and border row
    vanish.  The read is differentiated at its base point by the
    first-order formulas for simple eigenvalues and their eigenvectors
    (Stewart & Sun, Matrix Perturbation Theory, 1990, ch. IV-V).  With
    E = g dA ginv, which the caller gives (it knows dA's structure),

        dlam = diag(dA)[:n],  dlamhat = diag(E),
        dmu = ([dA, B] + [A, dB])[n, :n],
        dmuhat = diag(g dN2 ginv) + diag(C M - M C),

    where dN2 = dB - diag(dmu, 0), M = g N2 ginv = diag(muhat) + S, and
    C_jk = E_jk / (lamhat_j - lamhat_k) off the diagonal is the frame's
    first-order rotation.  The diagonals of C and M drop out of the last
    term, which is sum_k (E_jk S_kj + S_jk E_kj) / (lamhat_j - lamhat_k).
    lam and mu follow the diagonal of A, lamhat and muhat the order of d.
    A tangent with a non-finite entry (at extreme scale the products
    overflow) raises NonConvergentError.
    """
    n = A.shape[-1] - 1
    idx, full = np.arange(n), np.arange(n + 1)
    A, B = A[..., None, :, :], B[..., None, :, :]
    g, ginv, S = d.g[..., None, :, :], d.ginv[..., None, :, :], d.S[..., None, :, :]
    lamhat = d.lamhat[..., None, :]
    with np.errstate(all="ignore"):     # an overflow is refused below
        # row n of [dA, B] + [A, dB]
        dK = dA[..., n:, :] @ B - B[..., n:, :] @ dA + A[..., n:, :] @ dB - dB[..., n:, :] @ A
        dmu = dK[..., 0, :n]
        ginv_t = np.swapaxes(ginv, -1, -2)
        dmuhat = (((g @ dB) * ginv_t).sum(axis=-1)
                  - (g[..., :n] * ginv_t[..., :n] * dmu[..., None, :]).sum(axis=-1))
        gaps = lamhat[..., :, None] - lamhat[..., None, :]
        gaps[..., full, full] = 1.0     # the numerator's diagonal is 0, as S's is
        T = E * np.swapaxes(S, -1, -2)
        dmuhat += ((T + np.swapaxes(T, -1, -2)) / gaps).sum(axis=-1)
    out = np.concatenate([dA[..., idx, idx], E[..., full, full], dmu, dmuhat], axis=-1)
    if not np.isfinite(out).all():
        raise NonConvergentError("chart tangent overflowed: it has a non-finite entry")
    return out


def tracked_tangent(p: AugmentedPair, dA, dB, ref: ChartPoint,
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Derivative of to_chart_tracked(., ref) at the normal-form pair p along tangents (dA, dB).

    dA and dB stack k tangent matrices at p, (k, n+1, n+1); the result
    is (k, 4n+2), packed like ChartPoint.vector.  p is read once, with
    every check of the read, and the derivative is closed form
    (_read_tangent).  A tangent generally leaves the normal form, which
    the read restores by a basechange, so its gauge part is removed
    first: the block X with

        X_jk = dA_jk / (lam_j - lam_k)  (j != k),
        X_kk = dA[n, k] - sum_{j != k} X_jk,

    embedded as Y = diag(X, 0), turns (dA, dB) into
    (dA + [Y, A], dB + [Y, B]), whose first matrix has a vanishing
    off-diagonal block and border row.  Raises NotNormalizedError when p
    is not in normal form and ShapeMismatchError when the sizes differ.
    """
    n = p.n
    dA, dB = as_square_stack(dA), as_square_stack(dB)
    if dA.ndim != 3 or dA.shape != dB.shape or dA.shape[-1] != n + 1 or ref.n != n:
        raise ShapeMismatchError(
            f"tangents {dA.shape}, {dB.shape} and a reference of size {ref.n}"
            f" do not serve a pair of size {n}")
    if not _normal_form_test(p.A, tol, matrix_scale(p.A)):
        raise NotNormalizedError("pair is not in bordered normal form")
    d = decompose_stack(p.A, p.B, p.tau, tol, ref.lamhat)
    idx = np.arange(n)
    lam = p.A[idx, idx]
    gaps = lam[:, None] - lam[None, :]
    gaps[idx, idx] = 1.0
    Y = np.zeros_like(dA)
    with np.errstate(all="ignore"):     # _read_tangent refuses an overflow
        X = dA[:, :n, :n] / gaps
        X[:, idx, idx] = 0.0
        X[:, idx, idx] = dA[:, n, :n] - X.sum(axis=-2)
        Y[:, :n, :n] = X
        dA, dB = dA + Y @ p.A - p.A @ Y, dB + Y @ p.B - p.B @ Y
        E = d.g[None] @ dA @ d.ginv[None]
    T = _read_tangent(p.A, p.B, d, dA, dB, E)
    perm = match_to_reference(lam, ref.lam)
    d_lam, d_lamhat, d_mu, d_muhat = unpack(T)
    return np.concatenate([d_lam[:, perm], d_lamhat, d_mu[:, perm], d_muhat], axis=-1)


# ---------------------------------------------------------------------------
# rebuilding a pair from coordinates


def _check_frame(A, lamhat, g, ginv, tol: float) -> None:
    """Raise EigenMismatchError unless g A ginv = diag(lamhat) within 1e3 * tol * value_scale(lamhat)."""
    R = g @ A @ ginv
    diagonal_view(R)[...] -= lamhat
    resid = frob(R)
    bound = 1e3 * tol * value_scale(lamhat)
    bad = ~(resid <= bound)
    if any_item(bad):
        raise EigenMismatchError(
            f"frame residual {first_failure(resid, bad):.3e} exceeds "
            f"{first_failure(bound, bad):.3e}"
        )


def _chart_frame(lam, lamhat, tau: complex, tol: float):
    """First matrix, its diagonalizer in lamhat's order and the off-diagonal term S.

    Returns (Ah, g, ginv, S).  Ah is the arrowhead with spectra
    (lam, lamhat) and (g, ginv) its closed-form frame
    (linalg.arrowhead_frame), in the given order by construction and not
    unit-normalized: S, the rebuilt second matrix and project_to_slice's
    kappa do not change under a diagonal rescaling of the frame.  Ah and
    the frame come from one set of spectral products
    (linalg.arrowhead_with_frame).  The frame residual is the contract check
    (EigenMismatchError beyond 1e3 * tol * value_scale(lamhat)).

    S is the Calogero-Moser Lax matrix's off-diagonal (Wilson, Invent.
    Math. 133, 1998), S_jk = tau / (lamhat_k - lamhat_j): the level
    condition gives S_jk (lamhat_j - lamhat_k) = P_jk - P_jj for
    P = g shift g^-1, and row n of ginv is all ones (every right
    eigenvector ends in 1), so P = tau I - (n+1) tau g[:, n] 1^T.  One
    matrix of differences lamhat_j - lamhat_k serves S and the gap test.
    """
    scale = value_scale(lamhat)
    gaps = lamhat[..., :, None] - lamhat[..., None, :]
    dist = np.abs(gaps)
    diagonal_view(dist)[...] = np.inf
    if any_item((min_gap(lam) <= tol * scale) | (dist.min(axis=(-2, -1)) <= tol * scale)):
        raise DegenerateSpectrumError("chart coordinates need simple spectra")

    Ah, g, ginv = arrowhead_with_frame(lam, lamhat)
    _check_frame(Ah, lamhat, g, ginv, tol)

    diagonal_view(gaps)[...] = 1.0
    S = -check_level(tau) / gaps
    diagonal_view(S)[...] = 0.0
    return Ah, g, ginv, S


def _rebuild_tangent(A, g, ginv, X, lamhat):
    """Tangents (dA, dB), (..., 4n+2, n+1, n+1), of the rebuild along a unit step of each coordinate.

    (g, ginv) is _chart_frame's frame of A and X = diag(muhat) + S.  A step
    moves dA's diagonal by dlam, its corner by sum(dlamhat) - sum(dlam) and
    x_i by sum_j (dlamhat_j - dlam_i) ginv[i, j]
    - x_i sum_{l != i} (dlam_i - dlam_l) / (lam_i - lam_l).  With E = g dA ginv,
    first-order perturbation (Stewart & Sun, ch. IV-V) gives the rotation
    C_jk = E_jk / (lamhat_k - lamhat_j), C_kk = -sum_{j != k} C_jk (row n of
    ginv stays all ones), and dB = ginv (dS + C X - X C) g.  S depends on
    lamhat alone (_chart_frame), so dS = -S o dG / G = X o dG o H with
    G_jk = lamhat_j - lamhat_k and H = 1 / -G off the diagonal.  E is
    g[:, m] ginv[m, :] + (g dA[:, n]) 1^T for lam_m and e_j 1^T for
    lamhat_j, so C = e_j h^T - diag(h), h row j of H.
    """
    n = A.shape[-1] - 1
    idx, full, k = np.arange(n), np.arange(n + 1), 2 * n + 1
    lam, x = np.ascontiguousarray(A[..., idx, idx]), A[..., :n, n]     # C order: see arrowhead_frame
    dA, dB = np.zeros((2,) + lam.shape[:-1] + (4 * n + 2, n + 1, n + 1), dtype=np.complex128)
    dA[..., idx, idx, idx], dA[..., :n, n, n] = 1.0, -1.0    # dlam_m's diagonal and corner
    dA[..., n:k, :, n] = np.swapaxes(ginv, -1, -2)
    dlamhat, gT = np.eye(k, n + 1, -n), np.swapaxes(g, -1, -2)
    with np.errstate(all="ignore"):     # _read_tangent refuses an overflow
        R = 1.0 / (lam[..., :, None] - lam[..., None, :])
        R[..., idx, idx] = 0.0
        dA[..., :n, :n, n] = -R * x[..., None, :]
        dA[..., idx, idx, n] = -ginv[..., :n, :].sum(axis=-1) - x * R.sum(axis=-1)
        H = -1.0 / (lamhat[..., :, None] - lamhat[..., None, :])
        H[..., full, full] = 0.0
        C = (((dA[..., :n, :, n] @ gT)[..., None] + gT[..., :n, :, None] * ginv[..., :n, None, :])
             * H[..., None, :, :])
        C[..., full, full] = -C.sum(axis=-2)
        CX = np.concatenate([C @ X[..., None, :, :], -H[..., :, :, None] * X[..., None, :, :]], -3)
        CX[..., n + full, full, :] += H @ X
        XC = np.concatenate([X[..., None, :, :] @ C, H[..., :, None, :] * (
            np.swapaxes(X, -1, -2)[..., :, :, None] - X[..., None, :, :])], -3)
        dS = X[..., None, :, :] * (dlamhat[:, :, None] - dlamhat[:, None, :]) * H[..., None, :, :]
        dB[..., :k, :, :] = ginv[..., None, :, :] @ (dS + CX - XC) @ g[..., None, :, :]
        dB[..., k + idx, idx, idx] = 1.0     # mu_k adds E_kk; muhat_j adds the projector below
        dB[..., 3 * n + 1:, :, :] = np.swapaxes(ginv, -1, -2)[..., :, :, None] * g[..., :, None, :]
    return dA, dB


def _rebuild(V, tau: complex, tol: float):
    """from_chart_stack's (A, B), _chart_frame's (g, ginv), X = diag(muhat) + S and lamhat."""
    lam, lamhat, mu, muhat = unpack(V)
    Ah, g, ginv, X = _chart_frame(lam, lamhat, tau, tol)
    diagonal_view(X)[...] = muhat       # S is off-diagonal: this is diag(muhat) + S
    Bh = ginv @ X @ g
    diagonal_view(Bh)[..., :-1] += mu
    return Ah, Bh, g, ginv, X, lamhat


def from_chart_stack(V, tau: complex, tol: float = DEFAULT_TOL):
    """from_chart for packed coordinates V of shape (..., 4n+2); returns the matrices (A, B)."""
    return _rebuild(V, tau, tol)[:2]


def from_chart(c: ChartPoint, tol: float = DEFAULT_TOL) -> AugmentedPair:
    """Rebuild the normal-form pair with the given chart coordinates.

    The output satisfies the level condition, its block spectrum is lam,
    its full spectrum is lamhat (in the given order, which need not be
    sorted), and to_chart inverts it up to the package eigenvalue ordering.
    """
    A, B = from_chart_stack(c.vector(), c.tau, tol)
    return AugmentedPair(A, B, c.tau)


# ---------------------------------------------------------------------------
# the embedded slice


def slice_residual(p: AugmentedPair):
    """The two slice functions (A[n, n], B[n, n]), the pair's corners.

    The first is the trace mismatch tr A - tr(block of A); both are
    invariant under embedded basechange and vanish on the embedded slice.
    """
    return complex(p.A[p.n, p.n]), complex(p.B[p.n, p.n])


def project_to_slice(c: ChartPoint, tol: float = DEFAULT_TOL) -> ChartPoint:
    """Minimal muhat correction putting the rebuilt pair on the slice.

    Row n of ginv is all ones, so the second corner
    (ginv (diag(muhat) + S) g)[n, n] is (muhat + 1^T S) . kappa with
    kappa_j = g[j, n] (the kappa sum to one, so the constraint is never
    empty); the correction is its least-norm zero in muhat.  lam, lamhat,
    mu are untouched.
    """
    _, g, _, S = _chart_frame(c.lam, c.lamhat, c.tau, tol)
    kappa = g[:, c.n]
    nrm2 = float(np.linalg.norm(kappa) ** 2)
    if nrm2 <= tol:
        raise DegenerateConstraintError("slice constraint has no usable gradient")
    resid = complex((c.muhat + S.sum(axis=0)) @ kappa)
    return replace(c, muhat=c.muhat - kappa.conj() * (resid / nrm2))


# ---------------------------------------------------------------------------
# seeded chart points and the chart Jacobian


def random_chart_points(n: int, tau: complex, seeds) -> np.ndarray:
    """Packed coordinates (len(seeds), 4n+2) of seeded chart points, one per seed.

    Item i is random_chart_point(n, tau, seeds[i]).vector().  The first
    8n + 8 doubles of each seed's np.random.default_rng stream (the seeds
    hashed in one call, variety.seeded_streams) are those the one-point
    construction draws in turn: the two spaced spectra, then the real
    and imaginary parts of mu and of muhat.  The arithmetic runs over the
    whole stack.
    """
    if check_level(tau) == 0:
        raise ValueError("the level parameter tau must be nonzero")
    check_size(n)
    cuts = np.cumsum([2 * n + 2, 2 * n + 4, n, n, n + 1])
    U = seeded_streams(seeds).rows(8 * n + 8)
    u_lam, u_lamhat, mu_re, mu_im, muhat_re, muhat_im = np.split(U, cuts, axis=-1)
    lam = spaced_points_from(u_lam)
    lamhat = spaced_points_from(u_lamhat) + (0.45 + 0.35j)
    return np.concatenate([gather(lam, sort_order(lam), -1),
                           gather(lamhat, sort_order(lamhat), -1),
                           complex_uniforms_from(mu_re, mu_im),
                           complex_uniforms_from(muhat_re, muhat_im)], axis=-1)


def random_chart_point(n: int, tau: complex, seed: int) -> ChartPoint:
    """Seeded chart point with sorted, well-separated spectra.

    lam and lamhat are sorted in the package ordering so round trips through
    from_chart / to_chart compare coordinates directly.  The one-seed call
    of random_chart_points.
    """
    return ChartPoint.from_vector(random_chart_points(n, tau, [seed])[0], tau)


def chart_jacobian_stack(V, tau: complex, tol: float = DEFAULT_TOL) -> np.ndarray:
    """chart_jacobian at the base points V (..., 4n+2); returns (..., 4n+2, 4n+2).

    Each base point is rebuilt once and read once, with every check of the
    read.  In the read's frame a lam or lamhat step's E is one or two outer
    products, and a mu or muhat step's is zero.
    """
    A, B, g, ginv, X, lamhat = _rebuild(V, tau, tol)
    n, k = A.shape[-1] - 1, A.shape[-1] * 2 - 1
    d = decompose_stack(A, B, tau, tol, lamhat)
    dA, dB = _rebuild_tangent(A, g, ginv, X, lamhat)
    E, gT = np.zeros_like(dA), np.swapaxes(d.g, -1, -2)
    with np.errstate(all="ignore"):     # _read_tangent refuses an overflow
        E[..., :k, :, :] = (dA[..., :k, :, n] @ gT)[..., None] * d.ginv[..., None, n:, :]
        E[..., :n, :, :] += gT[..., :n, :, None] * d.ginv[..., :n, None, :]
    return np.swapaxes(_read_tangent(A, B, d, dA, dB, E), -1, -2)


def chart_jacobian(c: ChartPoint, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Jacobian of to_chart(from_chart(.)) at c, the read tracked against c.

    Closed form, by first-order perturbation of the simple spectra and
    frames of the rebuild and the read, so on the chart domain it is the
    identity up to rounding; its rank certifies the coordinate count 4n+2.
    """
    return chart_jacobian_stack(c.vector(), c.tau, tol)
