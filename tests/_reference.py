"""An extended-precision reference for the chart rebuild, for the tests.

The pair chart.from_chart builds from packed coordinates, built again in
np.clongdouble from its closed-form formulas: the arrowhead and its frame
(the products of linalg.arrowhead_frame), the gap term
S_jk = tau / (lamhat_k - lamhat_j) and

    B = ginv (diag(muhat) + S) g + diag(mu, 0).

numpy.linalg does not take longdouble; every step here is a product, a
sum or a quotient, over a stack of points at once.  The coordinates are
doubles, so they enter exactly, and the reference is exact up to
longdouble rounding.  Where longdouble is no wider than double
(LONG_EPS not below 1e-18) it measures nothing, and tests skip with
SKIP_REASON.

The helper does not take the gap term's closed form on trust: it also
forms S through the conjugated level shift P = g shift g^-1,
S_jk = (P_jk - P_jj) / (lamhat_j - lamhat_k), and level_deviation
measures its pair against the level condition.
"""

import numpy as np

LONG = np.clongdouble
LONG_EPS = float(np.finfo(np.longdouble).eps)
SKIP_REASON = (f"np.longdouble has eps {LONG_EPS:.3g}, not below 1e-18: no wider than "
               "double on this platform, so an extended-precision reference measures nothing")


def _leave_one_out(D):
    """P[..., i, j] = prod_{k != j} D[..., i, k], by direct products."""
    k = D.shape[-1]
    E = np.broadcast_to(D[..., :, None, :], D.shape[:-1] + (k, k)).copy()
    E[..., np.arange(k), np.arange(k)] = 1
    return E.prod(axis=-1)


def _gaps(v):
    """v_i - v_j over the last axis, with a 1 on the diagonal."""
    G = v[..., :, None] - v[..., None, :]
    G[..., np.arange(v.shape[-1]), np.arange(v.shape[-1])] = 1
    return G


def unpack_long(V):
    """(lam, lamhat, mu, muhat) of packed coordinates (..., 4n+2), in clongdouble."""
    V = np.asarray(V, dtype=np.complex128).astype(LONG)
    n = (V.shape[-1] - 2) // 4
    return V[..., :n], V[..., n:2 * n + 1], V[..., 2 * n + 1:3 * n + 1], V[..., 3 * n + 1:]


def arrowhead_long(lam, lamhat):
    """The arrowhead [[diag(lam), x], [1^T, sum(lamhat) - sum(lam)]] with spectra (lam, lamhat)."""
    n = lam.shape[-1]
    A = np.zeros(lam.shape[:-1] + (n + 1, n + 1), dtype=LONG)
    A[..., np.arange(n), np.arange(n)] = lam
    A[..., :n, n] = (-(lam[..., :, None] - lamhat[..., None, :]).prod(axis=-1)
                     / _gaps(lam).prod(axis=-1))
    A[..., n, :n] = 1
    A[..., n, n] = lamhat.sum(axis=-1) - lam.sum(axis=-1)
    return A


def frame_long(lam, lamhat):
    """The arrowhead's frame (g, ginv), g A ginv = diag(lamhat), with row n of ginv all ones."""
    n = lam.shape[-1]
    ginv = np.ones(lam.shape[:-1] + (n + 1, n + 1), dtype=LONG)
    ginv[..., :n, :] = (_leave_one_out(lam[..., :, None] - lamhat[..., None, :])
                        / _gaps(lam).prod(axis=-1)[..., :, None])
    E = lamhat[..., :, None] - lam[..., None, :]
    g = np.empty_like(ginv)
    g[..., :n] = _leave_one_out(E)
    g[..., n] = E.prod(axis=-1)
    return g / _gaps(lamhat).prod(axis=-1)[..., :, None], ginv


def gap_term(lamhat, tau):
    """S_jk = tau / (lamhat_k - lamhat_j), 0 on the diagonal."""
    S = -LONG(tau) / _gaps(lamhat)
    S[..., np.arange(lamhat.shape[-1]), np.arange(lamhat.shape[-1])] = 0
    return S


def gap_term_through_shift(g, ginv, lamhat, tau):
    """S_jk = (P_jk - P_jj) / (lamhat_j - lamhat_k) with P = g shift ginv, 0 on the diagonal."""
    m = lamhat.shape[-1]
    shift = np.full(m, LONG(tau))
    shift[-1] = -(m - 1) * LONG(tau)
    P = (g * shift) @ ginv
    S = (P - P[..., np.arange(m), np.arange(m)][..., :, None]) / _gaps(lamhat)
    S[..., np.arange(m), np.arange(m)] = 0
    return S


def reference_pair(V, tau):
    """from_chart_stack's (A, B) of the packed coordinates V (..., 4n+2), in clongdouble."""
    lam, lamhat, mu, muhat = unpack_long(V)
    n = lam.shape[-1]
    g, ginv = frame_long(lam, lamhat)
    X = gap_term(lamhat, tau)
    X[..., np.arange(n + 1), np.arange(n + 1)] = muhat
    B = ginv @ X @ g
    B[..., np.arange(n), np.arange(n)] += mu
    return arrowhead_long(lam, lamhat), B


def level_deviation(A, B, tau):
    """Largest entry of [A, B] - level shift off the border, over max(1, max|A| max|B|).

    The border row and column of the commutator are free (the row is
    mu, the column the border defect); every other entry is the level
    condition's.
    """
    n = A.shape[-1] - 1
    D = A @ B - B @ A
    D[..., np.arange(n), np.arange(n)] -= LONG(tau)
    D[..., n, n] += n * LONG(tau)
    dev = np.maximum(np.abs(D[..., :n, :n]).max(axis=(-2, -1)), np.abs(D[..., n, n]))
    scale = np.maximum(1, np.abs(A).max(axis=(-2, -1)) * np.abs(B).max(axis=(-2, -1)))
    return (dev / scale).astype(np.float64)


def relative_error(M, ref, size=None):
    """Per item: max |M - ref| over max(1, max |size|), size ref unless given, as doubles."""
    err = np.abs(np.asarray(M).astype(LONG) - ref).max(axis=(-2, -1))
    size = np.abs(ref if size is None else size).max(axis=(-2, -1))
    return (err / np.maximum(1, size)).astype(np.float64)
