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
"""

from __future__ import annotations

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


def frob(M) -> float:
    return float(np.linalg.norm(M))


def min_gap(values) -> float:
    """Smallest pairwise distance within a set of complex numbers."""
    v = np.asarray(values, dtype=np.complex128).ravel()
    if v.size < 2:
        return np.inf
    d = np.abs(v[:, None] - v[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def _sort_order(values: np.ndarray) -> np.ndarray:
    return np.lexsort((values.imag, values.real))


def _normalize_columns(V: np.ndarray) -> np.ndarray:
    """Unit columns with the first significant entry rotated real positive."""
    nrm = np.linalg.norm(V, axis=0)
    if (nrm == 0.0).any():
        raise NonConvergentError("eigensolver produced a zero eigenvector")
    W = V / nrm
    mags = np.abs(W)
    significant = mags > _PHASE_FLOOR
    # first significant entry per column, or the largest when none is
    k = np.where(significant.any(axis=0), np.argmax(significant, axis=0),
                 np.argmax(mags, axis=0))
    anchor = W[k, np.arange(W.shape[1])]
    return W * (np.conj(anchor) / np.abs(anchor))


def eig(M, tol: float = DEFAULT_TOL):
    """Diagonalize a matrix with simple spectrum.

    Returns the spectral frame (values, g, ginv): values sorted by the
    package ordering, ginv the normalized eigenvectors as columns and g its
    inverse, with g @ M @ ginv equal to diag(values) within
    1e2 * tol * ||M||_F.  A caller that reorders the spectrum by perm
    takes g[perm, :] and ginv[:, perm], which stay mutually inverse.
    Raises DegenerateSpectrumError when the smallest eigenvalue gap is
    at most tol * ||M||_F, NonConvergentError when the backend fails or
    the reassembly residual is out of contract.
    """
    A = as_cmatrix(M, square=True)
    try:
        vals, vecs = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NonConvergentError(f"eigensolver failed: {exc}") from exc
    norm = frob(A)
    gap = min_gap(vals)
    if gap <= tol * norm:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {gap:.3e} at or below {tol * norm:.3e}"
        )
    order = _sort_order(vals)
    vals = vals[order]
    vecs = _normalize_columns(vecs[:, order])
    try:
        g = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergentError("eigenvector matrix is singular") from exc
    resid = frob(g @ A @ vecs - np.diag(vals))
    if resid > 1e2 * tol * norm + 1e-300:
        raise NonConvergentError(
            f"diagonalization residual {resid:.3e} exceeds contract at norm {norm:.3e}"
        )
    return vals, g, vecs


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
    """Commutator A @ B - B @ A."""
    A = as_cmatrix(A, square=True)
    B = as_cmatrix(B, square=True)
    if A.shape != B.shape:
        raise ShapeMismatchError(f"commutator needs equal shapes, got {A.shape}, {B.shape}")
    return A @ B - B @ A


def match_to_reference(values, ref, guard: float = 0.45) -> np.ndarray:
    """Permutation aligning a spectrum with a reference ordering.

    Returns perm such that values[perm[j]] is the entry matched to ref[j]
    (optimal assignment).  Raises BranchAmbiguityError when the largest
    matched displacement exceeds `guard` times the smallest reference gap,
    i.e. when the continuation is no longer trustworthy.
    """
    v = np.asarray(values, dtype=np.complex128).ravel()
    r = np.asarray(ref, dtype=np.complex128).ravel()
    if v.shape != r.shape:
        raise ShapeMismatchError("value and reference counts differ")
    cost = np.abs(v[None, :] - r[:, None])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(r.size, dtype=int)
    perm[rows] = cols
    if r.size:
        dev = float(np.abs(v[perm] - r).max())
        gap = min_gap(r)
        if np.isfinite(gap) and dev > guard * gap:
            raise BranchAmbiguityError(
                f"matched displacement {dev:.3e} exceeds {guard} * gap {gap:.3e}"
            )
    return perm
