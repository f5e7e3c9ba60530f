"""Regularity predicates and reduction to the bordered normal form.

An augmented matrix M = [[A, x], [y, c]] is brought to the form with A
diagonal (eigenvalues in the package ordering) and the border row y equal
to all ones.  Existence of that form needs two open conditions: the block
A must have simple spectrum, and no eigenvector of A, padded with a zero,
may stay an eigenvector of M.

Both are read in the block eigenbasis.  With g A g^-1 = diag(lam), the
conjugate of M by diag(g, 1) has border column x' = g x and border row
y' = y g^-1.  The padded eigenvector (g^-1 e_i, 0) moves by exactly y'_i,
so the eigenvector condition is "every |y'_i| > thr".  A stabilizer xi of
the embedded basechange commutes with diag(lam), so it is diagonal, and
the border of [diag(xi, 0), M] gives xi_i x'_i = 0 = y'_i xi_i: the
stabilizer dimension is #{i : |x'_i| <= thr and |y'_i| <= thr} and the
orbit dimension is n^2 minus that.  The eigenvector condition therefore
implies a trivial stabilizer, and it alone cuts out the regular locus
used by the chart.  Every border entry is compared with the one threshold
thr = tol * linalg.matrix_scale(M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    NonConvergentError,
    ShapeMismatchError,
    ZeroRowEntryError,
)
from .linalg import (
    DEFAULT_TOL,
    any_item,
    as_square_stack,
    diagonal_view,
    eig,
    eig_unphased,
    eigvals,
    matrix_scale,
    min_gap,
    numeric_rank,
)
from .variety import AugmentedPair, GaugeElement, check_gauge


def simple_gap(gap: float, M, tol: float) -> bool:
    """True when an eigenvalue gap of M exceeds tol * matrix_scale(M).

    The one statement of "simple spectrum" that every regularity test
    compares its gap against.  Stacks of gaps and matrices give arrays.
    """
    return gap > tol * matrix_scale(M)


def _eigenbasis_border(A, tol: float, scale):
    """Block spectral frame of A and its border read in that frame.

    Returns (lam, g, ginv, x', y', thr): g block ginv = diag(lam), the
    border column x' = g col, the border row y' = row ginv, and the
    threshold thr = tol * scale, scale = matrix_scale(A), at or below
    which a border entry counts as zero.  Raises DegenerateSpectrumError
    when the block spectrum is not simple.  A may be a stack over
    leading axes.
    """
    lam, g, ginv = eig(A[..., :-1, :-1], tol)
    x = (g @ A[..., :-1, -1:])[..., 0]
    y = (A[..., -1:, :-1] @ ginv)[..., 0, :]
    return lam, g, ginv, x, y, tol * scale


def conjugation_operator(M) -> np.ndarray:
    """Matrix of xi -> [diag(xi, 0), M] on the embedded basechange algebra.

    Columns run over the n^2 elementary matrices of the block algebra in
    row-major order; rows are the flattened (n+1)^2 output entries.  In
    row-major vectorization X M - M X is (I kron M^T - M kron I) vec(X),
    restricted here to the columns of the block entries.  Those entries
    are built by broadcast products, the very products np.kron takes, so
    a stack of matrices M over leading axes gives a stack of operators.
    """
    M = as_square_stack(M)
    n = M.shape[-1] - 1
    eye = np.eye(n + 1, dtype=np.complex128)
    # entry [..., i, j, k, l]: output entry (i, j), block entry (k, l)
    op = (eye[:, None, :n, None] * M.swapaxes(-1, -2)[..., None, :, None, :n]
          - M[..., :, None, :n, None] * eye[None, :, None, :n])
    return op.reshape(*M.shape[:-2], (n + 1) ** 2, n * n)


def orbit_dimension(M, tol: float = DEFAULT_TOL):
    """Dimension of the embedded-basechange orbit through M (numeric rank).

    An independent certificate of the eigenbasis stabilizer count; it
    costs an SVD of an (n+1)^2 x n^2 matrix.  An int for one matrix (or
    pair); for a stack over leading axes, an int array from one SVD call.
    """
    if isinstance(M, AugmentedPair):
        M = M.A
    return numeric_rank(conjugation_operator(M), tol)


@dataclass(frozen=True)
class RegularityReport:
    """Regularity diagnostics for an augmented pair."""

    block_regular_semisimple: bool
    full_regular_semisimple: bool
    gauge_regular: bool
    eigenvector_condition: bool
    orbit_dim: int
    min_gap: float

    @property
    def in_regular_locus(self) -> bool:
        return self.gauge_regular and self.eigenvector_condition

    @property
    def strongly_semisimple(self) -> bool:
        return (
            self.in_regular_locus
            and self.block_regular_semisimple
            and self.full_regular_semisimple
        )

    def to_dict(self) -> dict:
        return {
            "block_regular_semisimple": self.block_regular_semisimple,
            "full_regular_semisimple": self.full_regular_semisimple,
            "gauge_regular": self.gauge_regular,
            "eigenvector_condition": self.eigenvector_condition,
            "in_regular_locus": self.in_regular_locus,
            "strongly_semisimple": self.strongly_semisimple,
            "orbit_dim": self.orbit_dim,
            "min_gap": self.min_gap,
        }


def regularity_report(p: AugmentedPair, tol: float = DEFAULT_TOL) -> RegularityReport:
    """Evaluate all regularity predicates at once (no exceptions for failures).

    With a simple block the eigenvector condition and the orbit dimension
    are read in the block eigenbasis.  Without one no eigenbasis exists:
    the eigenvector condition is false and the orbit dimension comes from
    orbit_dimension.
    """
    block = p.A[:-1, :-1]
    try:
        lam, _, _, x, y, thr = _eigenbasis_border(p.A, tol, matrix_scale(p.A))
        block_ok = bool(simple_gap(min_gap(lam), block, tol))
    except DegenerateSpectrumError:
        lam, block_ok = eigvals(block), False
    block_gap = min_gap(lam)
    if block_ok:
        evec_ok = bool((np.abs(y) > thr).all())
        dim = p.n * p.n - int(np.count_nonzero((np.abs(x) <= thr) & (np.abs(y) <= thr)))
    else:
        evec_ok, dim = False, orbit_dimension(p.A, tol)
    full_gap = min_gap(eigvals(p.A))
    return RegularityReport(
        block_regular_semisimple=block_ok,
        full_regular_semisimple=bool(simple_gap(full_gap, p.A, tol)),
        gauge_regular=dim == p.n * p.n,
        eigenvector_condition=evec_ok,
        orbit_dim=dim,
        min_gap=float(min(block_gap, full_gap)),
    )


def normal_form(A, B, tol: float = DEFAULT_TOL):
    """Bordered normal form of the pairs (A, B), stacked over leading axes.

    Returns (Ah, Bh, G, Ginv): the conjugates of A and B by
    variety.embed(G) = diag(G, 1), the basechange G itself and its exact
    inverse.  See normalize for the contract; the block spectrum comes
    out in the package ordering.  Any failing item raises.  A gauge or
    conjugate with a non-finite entry (the border row scales G, so at
    extreme scale it overflows) raises NonConvergentError, and a
    numerically singular G raises SingularMatrixError: normal_form checks
    its own gauge with variety.check_gauge(G, Ginv), so callers do not
    check it again.

    The conjugation is built blockwise, never through diag(G, 1) itself.
    With A = [[A11, a], [r, c]], G = diag(y') g and Ginv = g^-1 diag(y')^-1
    for the block frame g A11 g^-1 = diag(lam) and y' = r g^-1:

        Ah = [[diag(lam), G a], [1^T, c]],
        Bh = [[G B11 Ginv, G b], [b'^T Ginv, B[n, n]]]

    with b and b' the border column and row of B.  Ah's block and unit
    row are exact, not conjugated and snapped.
    """
    return normal_form_at_scale(A, B, tol, matrix_scale(A))


def normal_form_at_scale(A, B, tol: float, scale):
    """normal_form for a caller that has taken scale = matrix_scale(A) already.

    The chart's read takes it for its own normal-form test, so the
    border threshold tol * scale costs no second norm.  The block frame
    keeps LAPACK's unit columns unphased (linalg.eig_unphased):
    a phase c_j on column j of g^-1 multiplies y'_j by c_j and row j of
    g by 1 / c_j, so G and Ginv do not depend on it.  Pairs of unequal
    shapes, or not square, or below 2 x 2, raise ShapeMismatchError.
    """
    if A.ndim < 2 or not A.shape[-2] == A.shape[-1] >= 2 or np.shape(B) != A.shape:
        raise ShapeMismatchError(f"pair shapes {A.shape}, {np.shape(B)} differ or are below 2 x 2")
    n = A.shape[-1] - 1
    lam, g1, g1inv = eig_unphased(A[..., :n, :n], tol)
    y = (A[..., n:, :n] @ g1inv)[..., 0, :]
    if any_item(np.abs(y).min(axis=-1) <= tol * scale):
        raise ZeroRowEntryError(
            "a border-row entry vanishes on the eigenbasis; no unit-row form"
        )
    G = y[..., :, None] * g1
    Gi = g1inv / y[..., None, :]
    Ah = np.zeros(A.shape, dtype=np.complex128)
    diagonal_view(Ah)[..., :n] = lam
    Ah[..., :n, n:] = G @ A[..., :n, n:]
    Ah[..., n, :n] = 1.0
    Ah[..., n, n] = A[..., n, n]
    Bh = np.array(B, dtype=np.complex128)
    Bh[..., :n, :] = G @ Bh[..., :n, :]
    Bh[..., :, :n] = Bh[..., :, :n] @ Gi
    if not all(np.isfinite(X).all() for X in (Ah, Bh, G, Gi)):
        raise NonConvergentError(
            "normal form overflowed: the gauge or the conjugated pair is not finite"
        )
    check_gauge(G, Gi)
    return Ah, Bh, G, Gi


def normalize(p: AugmentedPair, tol: float = DEFAULT_TOL):
    """Conjugate a pair into the bordered normal form.

    Returns (pair, gauge) with the first matrix of the output pair having a
    diagonal block in the package eigenvalue ordering, border row exactly
    one, and the corner preserved.  The same basechange is applied to the
    second matrix.  Raises ZeroRowEntryError when a transformed border-row
    entry vanishes (the form does not exist), DegenerateSpectrumError when
    the block spectrum is not simple, NonConvergentError when the result
    overflows, SingularMatrixError when the gauge is singular.

    Idempotent: a pair already in normal form comes back unchanged up to
    rounding, with gauge near the identity.
    """
    Ah, Bh, G, Ginv = normal_form(p.A, p.B, tol)
    return AugmentedPair(Ah, Bh, p.tau), GaugeElement(G, Ginv)
