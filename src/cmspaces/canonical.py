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
thr = tol * max(1, ||M||_F).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBlockError, DegenerateSpectrumError, ZeroRowEntryError
from .linalg import (
    DEFAULT_TOL,
    any_item,
    as_cmatrix,
    eig,
    frob,
    gather,
    match_to_reference,
    min_gap,
    numeric_rank,
    reorder,
)
from .variety import AugmentedPair, GaugeElement, split_blocks


def simple_gap(gap: float, M, tol: float) -> bool:
    """True when an eigenvalue gap of M exceeds tol * max(1, ||M||_F).

    The one statement of "simple spectrum" that every regularity test
    compares its gap against.  Stacks of gaps and matrices give arrays.
    """
    return gap > tol * np.maximum(1.0, frob(M))


def _eigenbasis_border(A, tol: float):
    """Block spectral frame of A and its border read in that frame.

    Returns (lam, g, ginv, x', y', thr): g block ginv = diag(lam), the
    border column x' = g col, the border row y' = row ginv, and the
    threshold thr = tol * max(1, ||A||_F) at or below which a border entry
    counts as zero.  Raises DegenerateSpectrumError when the block
    spectrum is not simple.  A may be a stack over leading axes.
    """
    lam, g, ginv = eig(A[..., :-1, :-1], tol)
    x = (g @ A[..., :-1, -1:])[..., 0]
    y = (A[..., -1:, :-1] @ ginv)[..., 0, :]
    return lam, g, ginv, x, y, tol * np.maximum(1.0, frob(A))


def conjugation_operator(M) -> np.ndarray:
    """Matrix of xi -> [diag(xi, 0), M] on the embedded basechange algebra.

    Columns run over the n^2 elementary matrices of the block algebra in
    row-major order; rows are the flattened (n+1)^2 output entries.  In
    row-major vectorization X M - M X is (I kron M^T - M kron I) vec(X),
    restricted here to the columns of the block entries.
    """
    M = as_cmatrix(M, square=True)
    m = M.shape[0]
    eye = np.eye(m, dtype=np.complex128)
    block_cols = (np.arange(m - 1)[:, None] * m + np.arange(m - 1)).ravel()
    return (np.kron(eye, M.T) - np.kron(M, eye))[:, block_cols]


def orbit_dimension(M, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the embedded-basechange orbit through M (numeric rank).

    An independent certificate of the eigenbasis stabilizer count; it
    costs an SVD of an (n+1)^2 x n^2 matrix.
    """
    if isinstance(M, AugmentedPair):
        M = M.A
    return numeric_rank(conjugation_operator(M), tol)


def in_regular_locus(p: AugmentedPair, tol: float = DEFAULT_TOL) -> bool:
    """No padded eigenvector of the block survives: every |y'_i| > thr.

    This implies a trivial stabilizer (module docstring), and it holds
    exactly when normalize finds a unit-row form.  Raises
    DegenerateBlockError when the block spectrum is not simple, where the
    predicate is undefined.
    """
    try:
        *_, y, thr = _eigenbasis_border(p.A, tol)
    except DegenerateSpectrumError as exc:
        raise DegenerateBlockError(
            "padded-eigenvector test undefined: block spectrum is not simple"
        ) from exc
    return bool((np.abs(y) > thr).all())


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
    block = split_blocks(p.A)[0]
    try:
        lam, _, _, x, y, thr = _eigenbasis_border(p.A, tol)
        block_ok = bool(simple_gap(min_gap(lam), block, tol))
    except DegenerateSpectrumError:
        lam, block_ok = np.linalg.eigvals(block), False
    block_gap = min_gap(lam)
    if block_ok:
        evec_ok = bool((np.abs(y) > thr).all())
        dim = p.n * p.n - int(np.count_nonzero((np.abs(x) <= thr) & (np.abs(y) <= thr)))
    else:
        evec_ok, dim = False, orbit_dimension(p.A, tol)
    full_gap = min_gap(np.linalg.eigvals(p.A))
    return RegularityReport(
        block_regular_semisimple=block_ok,
        full_regular_semisimple=bool(simple_gap(full_gap, p.A, tol)),
        gauge_regular=dim == p.n * p.n,
        eigenvector_condition=evec_ok,
        orbit_dim=dim,
        min_gap=float(min(block_gap, full_gap)),
    )


def normal_form(A, B, tol: float = DEFAULT_TOL, lam_ref=None):
    """Bordered normal form of the pairs (A, B), stacked over leading axes.

    Returns (Ah, Bh, G, Ginv): the conjugates of A and B by diag(G, 1),
    the basechange G itself, unchecked for singularity (GaugeElement and
    variety.check_gauge check it), and its exact inverse.  See normalize
    for the contract; any failing item raises.
    """
    n = A.shape[-1] - 1
    lam, g1, g1inv, _, y, thr = _eigenbasis_border(A, tol)
    if lam_ref is not None:
        perm = match_to_reference(lam, lam_ref)
        lam, g1, g1inv = reorder(lam, g1, g1inv, perm)
        y = gather(y, perm, -1)
    if any_item(np.abs(y).min(axis=-1) <= thr):
        raise ZeroRowEntryError(
            "a border-row entry vanishes on the eigenbasis; no unit-row form"
        )
    G = y[..., :, None] * g1
    Gi = g1inv / y[..., None, :]
    E = np.zeros_like(A)
    E[..., :n, :n] = G
    E[..., n, n] = 1.0
    Ei = np.zeros_like(A)
    Ei[..., :n, :n] = Gi
    Ei[..., n, n] = 1.0
    Ah = E @ A @ Ei
    Bh = E @ B @ Ei
    # snap the structural entries the conjugation guarantees
    idx = np.arange(n)
    Ah[..., :n, :n] = 0.0
    Ah[..., idx, idx] = lam
    Ah[..., n, :n] = 1.0
    return Ah, Bh, G, Gi


def normalize(p: AugmentedPair, tol: float = DEFAULT_TOL, lam_ref=None):
    """Conjugate a pair into the bordered normal form.

    Returns (pair, gauge) with the first matrix of the output pair having a
    diagonal block (package eigenvalue ordering, or matched to lam_ref when
    given), border row exactly one, and the corner preserved.  The same
    basechange is applied to the second matrix.  Raises ZeroRowEntryError
    when a transformed border-row entry vanishes (the form does not exist),
    DegenerateSpectrumError when the block spectrum is not simple.

    Idempotent: a pair already in normal form comes back unchanged up to
    rounding, with gauge near the identity.
    """
    Ah, Bh, G, _ = normal_form(p.A, p.B, tol, lam_ref)
    return AugmentedPair(Ah, Bh, p.tau), GaugeElement(G)
