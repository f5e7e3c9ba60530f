"""Dense complex linear algebra kernel.

Eigenvalues and diagonalizers are taken through these wrappers, so the
conventions fixed here are uniform across the package:

* eigenvalues are sorted lexicographically by (real part, imaginary part);
* `eig`'s eigenvector columns (the columns of `ginv`, the inverse of the
  returned diagonalizer `g`) are LAPACK's unit columns, their phases as
  LAPACK leaves them;
* a public frame pins that phase with `normalize_frame`: unit columns,
  the first significant entry of each real and positive.  That makes a
  frame reproducible bit for bit on identical input.  Only
  chart.decompose's frame is public; no package result read from `eig`
  depends on the phases (the bordered normal form's unit-row scaling
  undoes them, the regularity predicates read only magnitudes).

Tolerances here are relative to the Frobenius norm of the input, and
elsewhere to `matrix_scale`, `pair_scale` or `value_scale`;
`DEFAULT_TOL` is used when the caller does not pass one.  Calls that no
convention here governs go to numpy directly: `np.linalg.inv` and `svd`
in `variety` (gauge elements), `svd` in `sl2` (the rank of the induced
fields), `pinv` in `flowcalc` (the fit projectors) and `norm` in `chart`
(the slice projection) and in `verify`.  The chart read's kappa, which
only sets a threshold, takes its row and column norms from `row_norms`,
not from `np.linalg.norm`.

The arrowhead matrices of the chart, built from their two spectra, have
their frame in closed form (`arrowhead_frame`): no eigensolver, no
inverse, and the order of the given spectrum.  `arrowhead_with_frame`
gives the matrix and its frame from one set of spectral products.  That
frame is not unit-normalized.  Quantities that do not change under a
diagonal rescaling of the frame (the rebuild in chart.from_chart and the
diagonal muhat of chart.to_chart) use it as it is; chart.decompose
rescales it with `normalize_frame`.  An arrowhead's full spectrum
is the set of roots of its secular equation, so the chart read
(chart._read) tracked against a reference takes it by Newton steps from
it and calls `eigvals` only for an item those steps do not certify.
"""

from __future__ import annotations

import numpy as np

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
    return as_finite(A)[0]


def as_square_stack(M) -> np.ndarray:
    """Validate and return M as finite complex128 square matrices over its trailing axes."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ShapeMismatchError(f"expected square matrices, got shape {A.shape}")
    return as_finite(A)[0]


def as_finite(*arrays) -> tuple:
    """The arrays as given, once every entry of each is finite; ShapeMismatchError otherwise."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ShapeMismatchError("matrix contains non-finite entries")
    return arrays


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
    s ||M / s|| with s the power of two at or below their largest entry
    magnitude (one above it would overflow for entries from 2^1023 up):
    exact scaling, so an item that needed none keeps its value bit for
    bit.  The common path pays one range test.  Each item of a stack gets
    the bits of its one-item call, whatever the stack's memory layout.
    """
    M = np.asarray(M)
    if M.ndim <= 2:
        nrm = _plain_norm(M.ravel())
        if _NORM_FLOOR <= nrm <= _NORM_CEIL or (nrm == 0.0 and not M.any()):
            return nrm
        return float(_rescaled_norm(M, False, nrm))
    nrm = row_norms(M.reshape(M.shape[:-2] + (M.shape[-2] * M.shape[-1],)))
    if ((nrm >= _NORM_FLOOR) & (nrm <= _NORM_CEIL)).all():
        return nrm
    return _rescaled_norm(M, True, nrm)


def _plain_norm(x) -> float:
    """np.linalg.norm of the vector x, bit for bit: the same dot products, without its wrapper."""
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return float(np.sqrt(re.dot(re) + im.dot(im)))
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    return float(np.sqrt(x.dot(x)))


def row_norms(x):
    """np.linalg.norm of each vector along the last axis, bit for bit.

    The one-vector norm is the square root of the dot products of the
    real and imaginary parts; np.vecdot makes the same dot products,
    where norm(axis=-1) rounds differently.
    """
    if not np.iscomplexobj(x):
        x = np.asarray(x, dtype=np.float64)
        return np.sqrt(np.vecdot(x, x))
    re, im = x.real, x.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _rescaled_norm(M, stacked, nrm):
    """frob's recomputation of the plain norms nrm out of range.

    Only the items out of range are recomputed, each as its one-item call
    would be; an item with a non-finite entry keeps its plain norm.
    """
    if not stacked:
        if not np.isfinite(M).all():
            return nrm
        s = np.ldexp(1.0, np.frexp(np.abs(M).max())[1] - 1)
        return s * _plain_norm((M / s).ravel())
    redo = ~((nrm >= _NORM_FLOOR) & (nrm <= _NORM_CEIL)) & np.isfinite(M).all(axis=(-2, -1))
    X = M[redo]
    s = np.ldexp(1.0, np.frexp(np.abs(X).max(axis=(-2, -1), keepdims=True))[1] - 1)
    nrm[redo] = s.reshape(-1) * row_norms((X / s).reshape(len(X), M.shape[-2] * M.shape[-1]))
    return nrm


def matrix_scale(M):
    """max(1, ||M||_F) over the leading axes of a stack, like frob; NaN for a NaN norm."""
    return np.maximum(1.0, frob(M))


def pair_scale(A, B):
    """max(1, ||A||_F ||B||_F) over the leading axes of stacked pairs; NaN for a NaN norm."""
    return np.maximum(1.0, frob(A) * frob(B))


def value_scale(x):
    """max(1, max |x|) along the last axis of x; NaN when an entry is NaN."""
    return np.maximum(1.0, np.abs(x).max(axis=-1))


# One item gives a numpy scalar, so ~ negates a comparison with it.  A text is
# the formula a note states, over named operands (several: the largest scale).
matrix_scale.text = lambda *names: f"max(1, {', '.join(f'||{m}||' for m in names)})"
pair_scale.text = lambda a, b: f"max(1, ||{a}|| ||{b}||)"
value_scale.text = lambda x: f"max(1, |{x}|)"


def any_item(bad) -> bool:
    """True when a flag is set for any item of a stack (one item: a plain bool test)."""
    return bool(bad.any()) if isinstance(bad, np.ndarray) else bool(bad)


def all_items(ok) -> bool:
    """True when a flag is set for every item of a stack."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def first_failure(values, bad) -> float:
    """The entry of values (broadcast against bad) at the first True of bad, for a message."""
    return float(np.broadcast_to(values, np.shape(bad)).ravel()[np.flatnonzero(bad)[0]])


def diagonal_view(X: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each square matrix in the C-contiguous stack X.

    A strided slice of the flattened matrices, so writing through it costs
    no index arrays.  X must be C-contiguous (ValueError otherwise).
    """
    k = X.shape[-1]
    return X.reshape(X.shape[:-2] + (k * k,), copy=False)[..., :: k + 1]


def min_gap(values):
    """Smallest pairwise distance within a set of complex numbers.

    The set runs along the last axis; a stack of sets gives an array of gaps.
    """
    v = np.asarray(values, dtype=np.complex128)
    if v.shape[-1] < 2:
        return np.full(v.shape[:-1], np.inf)[()]
    d = np.abs(v[..., :, None] - v[..., None, :])
    diagonal_view(d)[...] = np.inf
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


def sort_order(values: np.ndarray) -> np.ndarray:
    """Indices that put values in the package ordering, along the last axis."""
    return np.lexsort((values.imag, values.real), axis=-1)


def _normalize_columns(V: np.ndarray):
    """Unit columns with the first significant entry rotated real positive.

    Returns them with the column factors c (shape (..., 1, n)) for which
    V * c equals them up to rounding.
    """
    nrm = np.sqrt(np.add.reduce((V.conj() * V).real, axis=-2))    # np.linalg.norm(V, axis=-2)
    if (nrm == 0.0).any():
        raise NonConvergentError("spectral frame has a zero eigenvector column")
    W = V / nrm[..., None, :]
    # first significant entry per column: a unit column of m entries has
    # one of size at least 1 / sqrt(m), far above _PHASE_FLOOR
    k = (np.abs(W) > _PHASE_FLOOR).argmax(axis=-2)
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
    k = D.shape[-1]
    runs = np.empty(D.shape[:-1] + (2, k), dtype=D.dtype)    # prefix and reversed suffix factors
    runs[..., 0] = 1.0
    runs[..., 0, 1:] = D[..., :-1]
    runs[..., 1, 1:] = D[..., :0:-1]
    runs.cumprod(axis=-1, out=runs)
    return runs[..., 0, :] * runs[..., 1, ::-1]


def _offdiagonal_products(v: np.ndarray) -> np.ndarray:
    """prod_{l != i} (v_i - v_l) for each i, along the last axis."""
    d = v[..., :, None] - v[..., None, :]
    diagonal_view(d)[...] = 1.0
    return d.prod(axis=-1)


def arrowhead_frame(lam, lamhat):
    """Closed-form spectral frame (g, ginv) of the arrowhead with spectra (lam, lamhat).

    The arrowhead [[diag(lam), x], [1^T, a]] has block spectrum lam (n)
    and full spectrum lamhat (n+1), both simple.  Column j of ginv is
    the right eigenvector for lamhat_j,

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
    return _arrowhead_parts(lam, lamhat, False)[1:]


def arrowhead_with_frame(lam, lamhat):
    """(A, g, ginv): the arrowhead with spectra (lam, lamhat) and arrowhead_frame's frame of it.

    The two spectra fix the border column and the corner of
    A = [[diag(lam), x], [1^T, a]]:

        x_i = -prod_j (lam_i - lamhat_j) / prod_{l != i} (lam_i - lam_l),
        a = sum(lamhat) - sum(lam).

    x is homogeneous of degree 2, so it is evaluated at the frame's
    spectral scale s and multiplied back by s^2: the same bits as the
    formula above, barring overflow and underflow.  One set of spectral
    products serves the matrix and the frame, for the chart's rebuild.
    """
    return _arrowhead_parts(lam, lamhat, True)


def _arrowhead_parts(lam, lamhat, matrix: bool):
    """(A, g, ginv): the arrowhead and its frame from one set of spectral products.

    The one kernel of arrowhead_frame and arrowhead_with_frame; A is None
    unless matrix is set.  Both parts read the differences
    lam_i - lamhat_j and the products prod_{l != i} (lam_i - lam_l),
    formed once at arrowhead_frame's scale s.
    """
    # C-ordered, so that each item of a stack rounds as its one-item call
    lam = np.ascontiguousarray(lam, dtype=np.complex128)
    lamhat = np.ascontiguousarray(lamhat, dtype=np.complex128)
    n = lam.shape[-1]
    top = np.maximum(np.abs(lam).max(axis=-1), np.abs(lamhat).max(axis=-1))
    s = np.ldexp(1.0, np.frexp(top)[1])[..., None]
    lam_s, lamhat_s = lam / s, lamhat / s
    D = lam_s[..., :, None] - lamhat_s[..., None, :]
    P = _offdiagonal_products(lam_s)

    A = None
    if matrix:
        A = np.zeros(lam.shape[:-1] + (n + 1, n + 1), dtype=np.complex128)
        diagonal_view(A)[..., :n] = lam
        A[..., :n, n] = -D.prod(axis=-1) / P * s * s
        A[..., n, :n] = 1.0
        A[..., n, n] = lamhat.sum(axis=-1) - lam.sum(axis=-1)
    ginv = np.ones(lam.shape[:-1] + (n + 1, n + 1), dtype=np.complex128)
    ginv[..., :n, :] = _leave_one_out(D) / P[..., :, None]
    E = np.negative(np.swapaxes(D, -1, -2), order="C")     # lamhat_j - lam_m, exactly
    W = np.empty_like(ginv)
    W[..., :n] = _leave_one_out(E)
    W[..., n] = E.prod(axis=-1)
    g = W / _offdiagonal_products(lamhat_s)[..., :, None]
    ginv[..., :n, :] *= s[..., None]
    g[..., :n] /= s[..., None]
    return A, g, ginv


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
    return gather(vals, sort_order(vals), -1)


def eig(M, tol: float = DEFAULT_TOL):
    """Diagonalize a matrix with simple spectrum.

    Returns the spectral frame (values, g, ginv): values sorted by the
    package ordering, ginv LAPACK's unit eigenvectors as columns, their
    phases as LAPACK leaves them (normalize_frame pins them), and g its
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
    order = sort_order(vals)
    vals = gather(vals, order, -1)
    vecs = gather(vecs, order, -1)
    try:
        g = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergentError("eigenvector matrix is singular") from exc
    R = g @ A @ vecs
    diagonal_view(R)[...] -= vals
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


def numeric_rank(M, tol: float = DEFAULT_TOL):
    """Number of singular values above tol times the largest one.

    An int for one matrix; for a stack over leading axes, an int array
    from one SVD call.
    """
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim < 2:
        raise ShapeMismatchError(f"expected matrices, got ndim={A.ndim}")
    as_finite(A)
    if 0 in A.shape[-2:]:
        rank = np.zeros(A.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(A, compute_uv=False)
        rank = np.count_nonzero(s > tol * s[..., :1], axis=-1)
    return int(rank) if A.ndim == 2 else rank


def comm(A, B) -> np.ndarray:
    """Commutator A @ B - B @ A, over the trailing axes of stacked matrices."""
    A = as_square_stack(A)
    B = as_square_stack(B)
    if A.shape != B.shape:
        raise ShapeMismatchError(f"commutator needs equal shapes, got {A.shape}, {B.shape}")
    return A @ B - B @ A


# below 1/2, so no value is within MATCH_GUARD * gap of two references
MATCH_GUARD = 0.45


def match_to_reference(values, ref) -> np.ndarray:
    """Permutation aligning a spectrum with a reference ordering.

    Returns perm such that values[perm[j]] is the entry nearest to ref[j].
    Raises BranchAmbiguityError when such a displacement exceeds
    MATCH_GUARD times the smallest reference gap (the continuation is no
    longer trustworthy), when the reference repeats an entry, or when an
    entry is not finite.  Within the guard perm is the unique optimal
    assignment: any other one moves some reference by more than gap / 2.

    Spectra run along the last axis.  values may be a stack, matched item
    by item; ref broadcasts against its leading axes (one spectrum for all
    items, one per item, or one per group of items), and each item gets
    its own guard.
    """
    v = np.asarray(values, dtype=np.complex128)
    r = np.asarray(ref, dtype=np.complex128)
    if v.ndim == 0 or r.ndim == 0 or v.shape[-1] != r.shape[-1]:
        raise ShapeMismatchError("value and reference counts differ")
    if not v.shape[-1]:
        return np.empty(v.shape, dtype=int)
    if not (np.isfinite(v).all() and np.isfinite(r).all()):
        raise BranchAmbiguityError("spectrum or reference has non-finite entries")
    gap = min_gap(r)
    if any_item(gap == 0):
        raise BranchAmbiguityError("reference has a repeated entry (gap 0): no branch to continue")
    cost = np.abs(v[..., None, :] - r[..., :, None])
    perm = cost.argmin(axis=-1)
    dev = cost.min(axis=-1).max(axis=-1)
    bad = dev > MATCH_GUARD * gap
    if any_item(bad):
        raise BranchAmbiguityError(
            f"matched displacement {first_failure(dev, bad):.3e} exceeds "
            f"{MATCH_GUARD} * gap {first_failure(gap, bad):.3e}"
        )
    return perm
