"""Unit tests for the shared dense linear algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmspaces.errors import (
    BranchAmbiguityError,
    DegenerateSpectrumError,
    ShapeMismatchError,
    SingularMatrixError,
)
from cmspaces.linalg import (
    arrowhead_frame,
    as_cmatrix,
    comm,
    eig,
    frob,
    match_to_reference,
    min_gap,
    normalize_frame,
    numeric_rank,
    solve,
)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_as_cmatrix_rejects_nonsquare_when_square_required():
    with pytest.raises(ShapeMismatchError):
        as_cmatrix(np.ones((2, 3)), square=True)


def test_min_gap_hand_values():
    assert min_gap([0.0, 3.0, 4.0]) == 1.0
    assert min_gap([1.0 + 1.0j, 1.0 - 1.0j]) == 2.0
    assert min_gap([5.0]) == np.inf


def test_eig_reassembles_and_sorts():
    rng = np.random.default_rng(10)
    for trial in range(20):
        n = 2 + trial % 5
        M = _random_complex(rng, n, n)
        vals, g, ginv = eig(M)
        # package ordering: lexicographic on (Re, Im)
        order = np.lexsort((vals.imag, vals.real))
        assert np.array_equal(order, np.arange(n))
        resid = frob(g @ M @ np.linalg.inv(g) - np.diag(vals))
        assert resid < 1e-10 * max(1.0, frob(M))
        # the returned frame carries the inverse: unit eigenvector columns
        assert frob(g @ ginv - np.eye(n)) < 1e-10
        np.testing.assert_allclose(np.linalg.norm(ginv, axis=0), 1.0, atol=1e-14)


def test_stacked_eig_is_bit_identical_per_item():
    # one LAPACK call for the stack; sort and phase normalization per item
    rng = np.random.default_rng(12)
    M = _random_complex(rng, 30, 6, 6)
    vals, g, ginv = eig(M)
    for i in range(30):
        for got, want in zip((vals[i], g[i], ginv[i]), eig(M[i])):
            assert np.array_equal(got, want)
    assert np.array_equal(min_gap(vals), [min_gap(v) for v in vals])
    # every item is checked: one degenerate item fails the stack
    M[17] = np.eye(6)
    with pytest.raises(DegenerateSpectrumError):
        eig(M)


def test_stacked_matching_guards_each_item():
    ref = np.array([0.0, 1.0])
    values = np.array([[1.0, 0.0], [0.1, 0.9]])
    assert np.array_equal(match_to_reference(values, ref), [[1, 0], [0, 1]])
    with pytest.raises(BranchAmbiguityError):
        match_to_reference(np.array([[1.0, 0.0], [0.5, 1.5]]), ref)


def test_eig_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        eig(np.eye(3))


def test_solve_matches_numpy_and_flags_singular():
    rng = np.random.default_rng(11)
    M = _random_complex(rng, 4, 4)
    b = _random_complex(rng, 4)
    x = solve(M, b)
    np.testing.assert_allclose(M @ x, b, atol=1e-12 * frob(M))
    with pytest.raises(SingularMatrixError):
        solve(np.zeros((3, 3)), np.ones(3))


def test_solve_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        solve(np.eye(2), np.ones(3))


def test_numeric_rank_hand_cases():
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.eye(4)) == 4
    M = np.outer([1.0, 2.0], [3.0, 4.0])
    assert numeric_rank(M) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_commutator_is_trace_free(n, seed):
    rng = np.random.default_rng(seed)
    A = _random_complex(rng, n, n)
    B = _random_complex(rng, n, n)
    scale = max(1.0, frob(A) * frob(B))
    assert abs(np.trace(comm(A, B))) < 1e-12 * scale


def test_match_to_reference_recovers_permutation():
    rng = np.random.default_rng(13)
    ref = np.array([0.0, 1.0, 2.5, 4.0 + 1.0j])
    perm = rng.permutation(ref.size)
    shuffled = ref[perm] + 1e-6 * _random_complex(rng, ref.size)
    found = match_to_reference(shuffled, ref)
    # values[found[j]] must be the entry near ref[j]
    assert np.abs(shuffled[found] - ref).max() < 1e-4


def test_match_to_reference_guards_large_displacement():
    ref = np.array([0.0, 1.0])
    with pytest.raises(BranchAmbiguityError):
        match_to_reference(np.array([0.5, 1.5]), ref)


def _arrowhead(lam, lamhat):
    """[[diag(lam), x], [1^T, a]] with block spectrum lam and full spectrum lamhat."""
    n = lam.size
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[np.arange(n), np.arange(n)] = lam
    A[:n, n] = [-np.prod(l - lamhat) / np.prod(l - np.delete(lam, i)) for i, l in enumerate(lam)]
    A[n, :n] = 1.0
    A[n, n] = lamhat.sum() - lam.sum()
    return A


def test_arrowhead_frame_diagonalizes_in_the_given_order():
    rng = np.random.default_rng(14)
    for n in range(1, 9):
        lam = _random_complex(rng, n)
        lamhat = _random_complex(rng, n + 1)
        A = _arrowhead(lam, lamhat)
        g, ginv = arrowhead_frame(lam, lamhat)
        assert np.array_equal(ginv[n], np.ones(n + 1))
        assert frob(g @ ginv - np.eye(n + 1)) < 1e-12
        assert frob(g @ A @ ginv - np.diag(lamhat)) < 1e-12 * frob(A)
        # rescaled to eig's convention it is eig's frame, in lamhat's order
        vals, ge, gie = eig(A)
        perm = match_to_reference(vals, lamhat)
        gn, ginvn = normalize_frame(g, ginv)
        assert np.abs(ginvn - gie[:, perm]).max() < 1e-10
        assert np.abs(gn - ge[perm]).max() < 1e-10 * max(1.0, np.abs(ge).max())


def test_arrowhead_frame_is_exact_at_a_vanishing_border_entry():
    # lamhat_1 = lam_0 makes x_0 = 0; a Cauchy quotient x_l / (lamhat_j - lam_l)
    # would divide by zero there, the prefix-suffix products do not
    lam = np.array([0.0, 2.0, 5.0 + 1.0j])
    lamhat = np.array([-1.0, 0.0, 3.0, 4.0 - 1.0j])
    A = _arrowhead(lam, lamhat)
    assert A[0, 3] == 0.0
    g, ginv = arrowhead_frame(lam, lamhat)
    assert np.isfinite(g).all() and np.isfinite(ginv).all()
    assert frob(g @ A @ ginv - np.diag(lamhat)) < 1e-13 * frob(A)


def test_stacked_arrowhead_frame_matches_each_item_at_any_scale():
    # the frame is homogeneous: at lam s, lamhat s it is (g D^-1, D ginv)
    # with D = diag(s, ..., s, 1), also where the spectral products of the
    # unscaled formulas would over- or underflow
    rng = np.random.default_rng(15)
    lam = _random_complex(rng, 5)
    lamhat = _random_complex(rng, 6)
    g1, ginv1 = arrowhead_frame(lam, lamhat)
    scales = np.array([1.0, 1e-150, 1e150, 3.0])
    g, ginv = arrowhead_frame(lam * scales[:, None], lamhat * scales[:, None])
    for i, s in enumerate(scales):
        gi, ginvi = arrowhead_frame(lam * s, lamhat * s)
        assert np.array_equal(g[i], gi) and np.array_equal(ginv[i], ginvi)
        d = np.array([s] * 5 + [1.0])
        np.testing.assert_allclose(ginv[i], d[:, None] * ginv1, rtol=1e-13)
        np.testing.assert_allclose(g[i], g1 / d, rtol=1e-13)


def test_frob_stays_finite_and_correct_at_extreme_scales():
    rng = np.random.default_rng(16)
    M = _random_complex(rng, 4, 3, 3)
    want = np.linalg.norm(M, axis=(-2, -1))
    M[1] *= 1e200
    M[2] *= 1e-200
    M[3] = 0.0
    # numpy reports the overflow of its plain norm; what is tested is the value
    with np.errstate(over="ignore"):
        got = frob(M)
        one = frob(M[1])
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got[:3], want[:3] * [1.0, 1e200, 1e-200], rtol=1e-14)
    assert got[0] == want[0] and got[3] == 0.0
    np.testing.assert_allclose([one, frob(M[2])], got[1:3], rtol=1e-14)
    # non-finite input keeps its non-finite norm
    assert frob(np.array([[np.inf, 1.0]])) == np.inf
