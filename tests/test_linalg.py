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
    as_cmatrix,
    comm,
    eig,
    frob,
    match_to_reference,
    min_gap,
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
