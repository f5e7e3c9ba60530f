"""Dense complex linear algebra kernel.

Every other module goes through these wrappers instead of calling numpy
directly, so the conventions fixed here are uniform across the package:

* eigenvalues are sorted lexicographically by (real part, imaginary part);
* eigenvector columns (the columns of `ginv`, the inverse of the
  returned diagonalizer `g`) have unit 2-norm and their first significant
  entry is rotated to be real and positive.

The second convention pins the remaining phase freedom, which makes every
quantity computed from a diagonalizer reproducible bit for bit on
identical input.  Tolerances are relative to the Frobenius norm of the
input; `DEFAULT_TOL` is used when the caller does not pass one.

The arrowhead matrices of the chart have their frame in closed form
(`arrowhead_frame`): no eigensolver, no inverse, and the order of the
given spectrum.  That frame is not unit-normalized.  Quantities that do
not change under a diagonal rescaling of the frame (the rebuild in
chart.from_chart) use it as it is; chart.decompose, whose frame and
off-diagonal term are public, rescales it to the convention above with
`normalize_frame`.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    BranchAmbiguityError,
    DegenerateSpectrumError,
    NonConvergentError,
    ShapeMismatchError,
    SingularMatrixError,
)

DEFAULT_TOL = 1e-9

# entries below this fraction of the column norm do not anchor the phase
_PHASE_FLOOR = 1e-8


def as_cmatrix(M, square: bool = False) -> np.ndarray:
    """Validate and return M as a finite complex128 2-d array."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d array, got ndim={A.ndim}")
    if square and A.shape[0] != A.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got {A.shape}")
    if not np.isfinite(A).all():
        raise ShapeMismatchError("matrix contains non-finite entries")
    return A


def as_square_stack(M) -> np.ndarray:
    """Validate and return M as finite complex128 square matrices over its trailing axes."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ShapeMismatchError(f"expected square matrices, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ShapeMismatchError("matrix contains non-finite entries")
    return A


# plain norms outside [_NORM_FLOOR, _NORM_CEIL] are recomputed: below the
# floor the squared entries that make them up are subnormal, above the
# ceiling (or NaN) they overflowed
_NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))
_NORM_CEIL = float(np.finfo(np.float64).max)


def frob(M):
    """Frobenius norm: a float for one matrix, an array over the leading axes of a stack.

    The plain norm squares the entries, so it overflows once they pass
    about 1e154 and loses its digits, down to 0, once they all fall below
    about 1e-154.  Such items of finite input are recomputed as
    s ||M / s|| with s the power of two at their largest entry magnitude:
    exact scaling, so an item that needed none keeps its value bit for
    bit.  The common path pays one range test.
    """
    M = np.asarray(M)
    if M.ndim <= 2:
        nrm = float(np.linalg.norm(M))
        if _NORM_FLOOR <= nrm <= _NORM_CEIL or (nrm == 0.0 and not M.any()):
            return nrm
        return float(_rescaled_norm(M, None, nrm))
    nrm = np.linalg.norm(M, axis=(-2, -1))
    if ((nrm >= _NORM_FLOOR) & (nrm <= _NORM_CEIL)).all():
        return nrm
    return _rescaled_norm(M, (-2, -1), nrm)


def _rescaled_norm(M, axes, nrm):
    """frob's recomputation of the plain norms nrm; non-finite input keeps them."""
    if not np.isfinite(M).all():
        return nrm
    s = np.ldexp(1.0, np.frexp(np.abs(M).max(axis=axes, keepdims=True))[1])
    return s.reshape(np.shape(nrm)) * np.linalg.norm(M / s, axis=axes)


def any_item(bad) -> bool:
    """True when a flag is set for any item of a stack (one item: a plain bool test)."""
    return bool(bad.any()) if isinstance(bad, np.ndarray) else bool(bad)


def all_items(ok) -> bool:
    """True when a flag is set for every item of a stack."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def first_failure(values, bad) -> float:
    """The entry of values (broadcast against bad) at the first True of bad, for a message."""
    return float(np.broadcast_to(values, np.shape(bad)).ravel()[np.flatnonzero(bad)[0]])


def min_gap(values):
    """Smallest pairwise distance within a set of complex numbers.

    The set runs along the last axis; a stack of sets gives an array of gaps.
    """
    v = np.asarray(values, dtype=np.complex128)
    k = v.shape[-1]
    if k < 2:
        return np.full(v.shape[:-1], np.inf)[()]
    d = np.abs(v[..., :, None] - v[..., None, :])
    d[..., np.arange(k), np.arange(k)] = np.inf
    return d.min(axis=(-2, -1))


def gather(a: np.ndarray, idx: np.ndarray, axis: int) -> np.ndarray:
    """Entries idx of each item of a stack along axis -1 or -2 (np.take_along_axis).

    idx has the shape of a without the other matrix axis.  One index
    vector goes through np.take, many times cheaper than take_along_axis,
    so a single matrix pays nothing for the stack support.
    """
    if idx.ndim == 1:
        return np.take(a, idx, axis=axis)
    if a.ndim > idx.ndim:
        idx = np.expand_dims(idx, -2 if axis == -1 else -1)
    return np.take_along_axis(a, idx, axis=axis)


def _sort_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((values.imag, values.real), axis=-1)


def _normalize_columns(V: np.ndarray):
    """Unit columns with the first significant entry rotated real positive.

    Returns them with the column factors c (shape (..., 1, n)) for which
    V * c equals them up to rounding.
    """
    nrm = np.linalg.norm(V, axis=-2)
    if (nrm == 0.0).any():
        raise NonConvergentError("eigensolver produced a zero eigenvector")
    W = V / nrm[..., None, :]
    mags = np.abs(W)
    significant = mags > _PHASE_FLOOR
    # first significant entry per column, or the largest when none is
    k = np.where(significant.any(axis=-2), np.argmax(significant, axis=-2),
                 np.argmax(mags, axis=-2))
    anchor = np.take_along_axis(W, k[..., None, :], axis=-2)
    phase = np.conj(anchor) / np.abs(anchor)
    return W * phase, phase / nrm[..., None, :]


def normalize_frame(g, ginv):
    """A spectral frame rescaled to the package convention for eigenvector columns.

    The columns of ginv become unit vectors with their first significant
    entry real positive, and the rows of g take the inverse factors, so
    the pair stays mutually inverse.  O(n^2) per item.
    """
    ginv, c = _normalize_columns(ginv)
    return g / np.swapaxes(c, -1, -2), ginv


def _leave_one_out(D: np.ndarray) -> np.ndarray:
    """P[..., i, j] = prod_{k != j} D[..., i, k], as prefix times suffix products.

    No entry is divided out, so a zero factor leaves every other product
    intact.
    """
    ones = np.ones(D.shape[:-1] + (1,), dtype=D.dtype)
    prefix = np.cumprod(np.concatenate([ones, D[..., :-1]], axis=-1), axis=-1)
    suffix = np.cumprod(np.concatenate([ones, D[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
    return prefix * suffix


def _offdiagonal_products(v: np.ndarray) -> np.ndarray:
    """prod_{l != i} (v_i - v_l) for each i, along the last axis."""
    d = v[..., :, None] - v[..., None, :]
    k = v.shape[-1]
    d[..., np.arange(k), np.arange(k)] = 1.0
    return np.prod(d, axis=-1)


def arrowhead_frame(lam, lamhat):
    """Closed-form spectral frame (g, ginv) of the arrowhead with spectra (lam, lamhat).

    The arrowhead is [[diag(lam), x], [1^T, a]] with block spectrum lam
    (n) and full spectrum lamhat (n+1), both simple; x and a are fixed by
    the two spectra.  Column j of ginv is the right eigenvector for
    lamhat_j,

        ginv[l, j] = prod_{k != j} (lam_l - lamhat_k) / prod_{m != l} (lam_l - lam_m),

    with last entry 1; row j of g is the left eigenvector

        w_j[m] = prod_{l != m} (lamhat_j - lam_l),  w_j[n] = prod_l (lamhat_j - lam_l),

    divided by its pairing w_j . v_j = prod_{k != j} (lamhat_j - lamhat_k)
    (the derivative of the characteristic polynomial at lamhat_j).  So
    g = ginv^-1 and g A ginv = diag(lamhat) in lamhat's order, in O(n^2)
    per item, with no eigensolver and no inverse.  Every leave-one-out
    product is a prefix times a suffix product, never a quotient, so a
    border entry x_l = 0 (lamhat_j = lam_l) is an ordinary point.

    The frame is neither unit-normalized nor phase-fixed (see
    normalize_frame).  It is homogeneous, so it is evaluated at lam / s,
    lamhat / s with s a power of two at the spectral scale (exact
    scaling, and the products stay clear of overflow) and mapped back by
    diag(s, ..., s, 1).  Stacks run over leading axes.
    """
    lam = np.asarray(lam, dtype=np.complex128)
    lamhat = np.asarray(lamhat, dtype=np.complex128)
    n = lam.shape[-1]
    top = np.maximum(np.abs(lam).max(axis=-1), np.abs(lamhat).max(axis=-1))
    s = np.ldexp(1.0, np.frexp(top)[1])[..., None]
    lam, lamhat = lam / s, lamhat / s

    ginv = np.ones(lam.shape[:-1] + (n + 1, n + 1), dtype=np.complex128)
    ginv[..., :n, :] = (_leave_one_out(lam[..., :, None] - lamhat[..., None, :])
                        / _offdiagonal_products(lam)[..., :, None])
    E = lamhat[..., :, None] - lam[..., None, :]
    W = np.empty_like(ginv)
    W[..., :n] = _leave_one_out(E)
    W[..., n] = np.prod(E, axis=-1)
    g = W / _offdiagonal_products(lamhat)[..., :, None]

    ginv[..., :n, :] *= s[..., None]
    g[..., :n] /= s[..., None]
    return g, ginv


def eigvals(M):
    """Eigenvalues of a matrix, or of each item of a stack, in the package ordering.

    Values only: no eigenvectors and no checks on the spectrum.  Raises
    NonConvergentError when the backend fails.
    """
    A = as_square_stack(M)
    try:
        vals = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NonConvergentError(f"eigensolver failed: {exc}") from exc
    return gather(vals, _sort_order(vals), -1)


def eig(M, tol: float = DEFAULT_TOL):
    """Diagonalize a matrix with simple spectrum.

    Returns the spectral frame (values, g, ginv): values sorted by the
    package ordering, ginv the normalized eigenvectors as columns and g its
    inverse, with g @ M @ ginv equal to diag(values) within
    1e2 * tol * ||M||_F.  A caller that reorders the spectrum by perm
    uses reorder(), which keeps g and ginv mutually inverse.
    Raises DegenerateSpectrumError when the smallest eigenvalue gap is
    at most tol * ||M||_F, NonConvergentError when the backend fails or
    the reassembly residual is out of contract.

    M may be a stack of matrices over leading axes; every item gets the
    same treatment and checks as a single matrix, and the first failing
    item raises.
    """
    A = as_square_stack(M)
    try:
        vals, vecs = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NonConvergentError(f"eigensolver failed: {exc}") from exc
    norm = frob(A)
    gap = min_gap(vals)
    bad = gap <= tol * norm
    if any_item(bad):
        raise DegenerateSpectrumError(
            f"eigenvalue gap {first_failure(gap, bad):.3e} at or below "
            f"{tol * first_failure(norm, bad):.3e}"
        )
    order = _sort_order(vals)
    vals = gather(vals, order, -1)
    vecs, _ = _normalize_columns(gather(vecs, order, -1))
    try:
        g = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergentError("eigenvector matrix is singular") from exc
    R = g @ A @ vecs
    idx = np.arange(A.shape[-1])
    R[..., idx, idx] -= vals
    resid = frob(R)
    bad = resid > 1e2 * tol * norm + 1e-300
    if any_item(bad):
        raise NonConvergentError(
            f"diagonalization residual {first_failure(resid, bad):.3e} exceeds contract "
            f"at norm {first_failure(norm, bad):.3e}"
        )
    return vals, g, vecs


def reorder(vals, g, ginv, perm):
    """Spectral frame with its spectrum permuted by perm along the last axis.

    values[perm], g[perm, :] and ginv[:, perm] for each item of a stack;
    the pair (g, ginv) stays mutually inverse.
    """
    return gather(vals, perm, -1), gather(g, perm, -2), gather(ginv, perm, -1)


def solve(M, rhs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve M @ X = rhs and verify the residual against tol * ||rhs||."""
    A = as_cmatrix(M, square=True)
    b = np.asarray(rhs, dtype=np.complex128)
    vector_rhs = b.ndim == 1
    B = b[:, None] if vector_rhs else b
    if B.shape[0] != A.shape[0]:
        raise ShapeMismatchError(f"rhs rows {B.shape[0]} do not match matrix {A.shape}")
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    resid = frob(A @ X - B)
    if resid > tol * max(frob(B), 1e-300):
        raise SingularMatrixError(
            f"solve residual {resid:.3e} exceeds {tol:.1e} * ||rhs||"
        )
    return X[:, 0] if vector_rhs else X


def numeric_rank(M, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above tol times the largest one."""
    A = as_cmatrix(M)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def comm(A, B) -> np.ndarray:
    """Commutator A @ B - B @ A, over the trailing axes of stacked matrices."""
    A = as_square_stack(A)
    B = as_square_stack(B)
    if A.shape != B.shape:
        raise ShapeMismatchError(f"commutator needs equal shapes, got {A.shape}, {B.shape}")
    return A @ B - B @ A


def match_to_reference(values, ref, guard: float = 0.45) -> np.ndarray:
    """Permutation aligning a spectrum with a reference ordering.

    Returns perm such that values[perm[j]] is the entry matched to ref[j]
    (optimal assignment).  Raises BranchAmbiguityError when the largest
    matched displacement exceeds `guard` times the smallest reference gap,
    i.e. when the continuation is no longer trustworthy.

    Spectra run along the last axis.  values may be a stack, matched item
    by item; ref is one spectrum for all items or one per item, and each
    item gets its own assignment and guard.
    """
    v = np.asarray(values, dtype=np.complex128)
    r = np.asarray(ref, dtype=np.complex128)
    if v.ndim == 0 or r.ndim == 0 or v.shape[-1] != r.shape[-1]:
        raise ShapeMismatchError("value and reference counts differ")
    cost = np.abs(v[..., None, :] - r[..., :, None])
    perm = np.empty(v.shape, dtype=int)
    for item in product(*map(range, v.shape[:-1])):
        rows, cols = linear_sum_assignment(cost[item])
        perm[item + (rows,)] = cols
    if v.shape[-1]:
        dev = np.abs(gather(v, perm, -1) - r).max(axis=-1)
        gap = min_gap(r)
        bad = np.isfinite(gap) & (dev > guard * gap)
        if any_item(bad):
            raise BranchAmbiguityError(
                f"matched displacement {first_failure(dev, bad):.3e} exceeds "
                f"{guard} * gap {first_failure(gap, bad):.3e}"
            )
    return perm
