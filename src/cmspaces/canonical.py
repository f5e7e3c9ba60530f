"""Regularity predicates and reduction to the bordered normal form.

An augmented matrix M = [[A, x], [y, c]] is brought to the form with A
diagonal (eigenvalues in the package ordering) and the border row y equal
to all ones.  Existence of that form needs two open conditions: the block
A must have simple spectrum, and no eigenvector of A, padded with a zero,
may stay an eigenvector of M (equivalently, the border row must pair
nontrivially with every eigenvector).  Together with triviality of the
embedded-basechange stabilizer these cut out the regular locus used by the
chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBlockError, DegenerateSpectrumError, ZeroRowEntryError
from .linalg import DEFAULT_TOL, as_cmatrix, eig, frob, match_to_reference, min_gap, numeric_rank
from .variety import AugmentedPair, GaugeElement, split_blocks


def simple_gap(gap: float, M, tol: float) -> bool:
    """True when an eigenvalue gap of M exceeds tol * max(1, ||M||_F).

    The one statement of "simple spectrum" that every regularity test
    compares its gap against.
    """
    return gap > tol * max(1.0, frob(M))


def is_regular_semisimple(M, tol: float = DEFAULT_TOL) -> bool:
    """True when all eigenvalue gaps exceed tol * max(1, ||M||)."""
    A = as_cmatrix(M, square=True)
    return simple_gap(min_gap(np.linalg.eigvals(A)), A, tol)


def conjugation_operator(M) -> np.ndarray:
    """Matrix of xi -> [diag(xi, 0), M] on the embedded basechange algebra.

    Columns run over the n^2 elementary matrices of the block algebra in
    row-major order; rows are the flattened (n+1)^2 output entries.
    """
    M = as_cmatrix(M, square=True)
    n = M.shape[0] - 1
    cols = np.empty(((n + 1) ** 2, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            X = np.zeros((n + 1, n + 1), dtype=np.complex128)
            X[i, j] = 1.0
            cols[:, i * n + j] = (X @ M - M @ X).ravel()
    return cols


def orbit_dimension(M, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the embedded-basechange orbit through M (numeric rank)."""
    if isinstance(M, AugmentedPair):
        M = M.A
    return numeric_rank(conjugation_operator(M), tol)


def is_gauge_regular(M, tol: float = DEFAULT_TOL) -> bool:
    """Trivial stabilizer: the orbit has the full dimension n^2."""
    if isinstance(M, AugmentedPair):
        M = M.A
    n = as_cmatrix(M, square=True).shape[0] - 1
    return orbit_dimension(M, tol) == n * n


def in_regular_locus(p: AugmentedPair, tol: float = DEFAULT_TOL) -> bool:
    """Gauge-regular, and no padded eigenvector of the block survives.

    For each eigenpair (lam, z) of the block the padded vector (z, 0) must
    move: ||M (z, 0) - lam (z, 0)|| > tol * ||z||.  Raises
    DegenerateBlockError when the block is not regular semisimple, where
    the predicate is undefined.
    """
    try:
        evec_ok = _eigenvector_condition(p, tol)
    except DegenerateSpectrumError as exc:
        raise DegenerateBlockError(
            "padded-eigenvector test undefined: block spectrum is not simple"
        ) from exc
    return evec_ok and is_gauge_regular(p.A, tol)


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
    """Evaluate all regularity predicates at once (no exceptions for failures)."""
    block, _, _, _ = split_blocks(p.A)
    block_gap = min_gap(np.linalg.eigvals(block))
    full_gap = min_gap(np.linalg.eigvals(p.A))
    block_ok = simple_gap(block_gap, block, tol)
    dim = orbit_dimension(p.A, tol)
    return RegularityReport(
        block_regular_semisimple=block_ok,
        full_regular_semisimple=simple_gap(full_gap, p.A, tol),
        gauge_regular=dim == p.n * p.n,
        eigenvector_condition=_eigenvector_condition(p, tol) if block_ok else False,
        orbit_dim=dim,
        min_gap=float(min(block_gap, full_gap)),
    )


def _eigenvector_condition(p: AugmentedPair, tol: float) -> bool:
    block, _, _, _ = split_blocks(p.A)
    lam, _, vecs = eig(block, tol)
    n = p.n
    for j in range(n):
        z = np.zeros(n + 1, dtype=np.complex128)
        z[:n] = vecs[:, j]
        if np.linalg.norm(p.A @ z - lam[j] * z) <= tol:
            return False
    return True


def is_strongly_semisimple(p: AugmentedPair, tol: float = DEFAULT_TOL) -> bool:
    """Regular locus membership plus simple spectra of block and full matrix."""
    return regularity_report(p, tol).strongly_semisimple


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
    n = p.n
    block, _, row, _ = split_blocks(p.A)
    lam, g1, g1inv = eig(block, tol)
    if lam_ref is not None:
        perm = match_to_reference(lam, lam_ref)
        lam, g1, g1inv = lam[perm], g1[perm, :], g1inv[:, perm]
    # border row of diag(g1, 1) M diag(g1, 1)^-1
    y = row @ g1inv
    if np.abs(y).min() <= tol * max(1.0, frob(p.A)):
        raise ZeroRowEntryError(
            "a border-row entry vanishes on the eigenbasis; no unit-row form"
        )
    gauge = GaugeElement(y[:, None] * g1)
    E = gauge.embedded()
    Ei = np.zeros_like(E)
    Ei[:n, :n] = g1inv / y[None, :]
    Ei[n, n] = 1.0
    Ah = E @ p.A @ Ei
    Bh = E @ p.B @ Ei
    # snap the structural entries the conjugation guarantees
    Ah[:n, :n] = np.diag(lam)
    Ah[n, :n] = 1.0
    return AugmentedPair(Ah, Bh, p.tau), gauge
