"""Unit tests for the shared dense linear algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from cmspaces.chart import decompose, from_chart, random_chart_point, random_chart_points
from cmspaces.errors import (
    BranchAmbiguityError,
    DegenerateSpectrumError,
    ShapeMismatchError,
    SingularMatrixError,
)
from cmspaces.linalg import (
    MATCH_GUARD,
    arrowhead_frame,
    arrowhead_with_frame,
    as_cmatrix,
    comm,
    eig,
    eigvals,
    frob,
    match_to_reference,
    matrix_scale,
    min_gap,
    normalize_frame,
    numeric_rank,
    pair_scale,
    solve,
    value_scale,
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


def test_numeric_rank_of_a_stack_is_the_rank_of_each_item():
    items = [np.zeros((3, 3)), np.eye(3), np.outer([1.0, 2.0, 0.0], [3.0, 4.0, 5.0]),
             np.diag([1.0, 1e-12, 1.0])]
    want = [0, 3, 1, 2]
    assert [numeric_rank(M) for M in items] == want
    ranks = numeric_rank(np.array(items))
    assert ranks.shape == (4,) and ranks.tolist() == want
    assert numeric_rank(np.array(items).reshape(2, 2, 3, 3)).tolist() == [[0, 3], [1, 2]]
    assert numeric_rank(np.zeros((2, 0, 3))).tolist() == [0, 0]
    with pytest.raises(ShapeMismatchError):
        numeric_rank(np.ones(3))


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


def _hungarian_match(values, ref):
    """One Hungarian solve per item: the permutation, or None where it fails the guard."""
    cost = np.abs(values[..., None, :] - ref[..., :, None])
    perm = np.empty(values.shape, dtype=int)
    for item in np.ndindex(values.shape[:-1]):
        rows, cols = linear_sum_assignment(cost[item])
        perm[item + (rows,)] = cols
    dev = np.abs(np.take_along_axis(values, perm, -1) - ref).max(axis=-1)
    gap = min_gap(ref)
    return None if (gap == 0).any() or (dev > MATCH_GUARD * gap).any() else perm


def _assert_same_matching(values, ref):
    """Equal permutations where the Hungarian matching passes the guard, an error elsewhere.

    Only the displacement that the error message reports may differ.
    """
    want = _hungarian_match(values, ref)
    if want is None:
        with pytest.raises(BranchAmbiguityError):
            match_to_reference(values, ref)
    else:
        assert np.array_equal(match_to_reference(values, ref), want)


def test_nearest_matching_is_the_hungarian_matching():
    rng = np.random.default_rng(17)
    for trial in range(120):
        k = 1 + trial % 6
        ref = _random_complex(rng, *((12, k) if trial % 2 else (k,)))
        gap = np.broadcast_to(np.minimum(min_gap(ref), 1.0), (12,))  # k = 1 has no gap
        # displacements from rounding level up past half the reference gap
        size = np.array([1e-12, 1e-4, 0.2, 0.44, 0.46, 0.49, 0.51, 0.9, 2.0])[trial % 9]
        values = np.stack([np.broadcast_to(ref, (12, k))[i][rng.permutation(k)]
                           for i in range(12)])
        values = values + size * gap[:, None] * np.exp(2j * np.pi * rng.random((12, k)))
        _assert_same_matching(values, ref)
        _assert_same_matching(values[:1], ref if ref.ndim == 1 else ref[:1])


def test_matching_near_ties_and_at_the_guard_boundary():
    ref = np.array([0.0, 1.0, 3.0])
    eps = np.finfo(float).eps
    cases = [
        [0.5, 0.5 + eps, 3.0],           # two values at the midpoint: a near tie
        [0.5 - eps, 0.5 + eps, 3.0],
        [1.0, 0.0, 3.0],                 # a swap, displacement one gap
        [0.45, 1.0, 3.0],                # displacement exactly MATCH_GUARD * gap
        [0.45 + 2 * eps, 1.0, 3.0],
        [0.45 - 2 * eps, 1.0, 3.0],
        [0.0, 1.5, 3.0],                 # exactly half the gap
        [0.0, 1.5 - 2 * eps, 3.0],
        [0.0, 0.0, 3.0],                 # one value nearest to two references
    ]
    values = np.array(cases, dtype=complex)
    for row in values:
        _assert_same_matching(row[None], ref)
    _assert_same_matching(values, ref)
    assert np.array_equal(match_to_reference(values[3], ref), [0, 1, 2])
    # a repeated reference entry has no gap, so no branch to continue
    same = np.array([[2.0, 2.0, 5.0]], dtype=complex)
    with pytest.raises(BranchAmbiguityError, match="gap 0"):
        match_to_reference(same, same[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_matching_raises_a_typed_error_on_non_finite_spectra(bad):
    ref = np.array([0.0, 1.0])
    for values, reference in [([bad, 1.0], ref), ([0.0, 1.0], [bad, 1.0]), ([bad], [0.0]),
                              ([[0.0, 1.0], [bad, 1.0]], ref),
                              ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, bad]])]:
        with pytest.raises(BranchAmbiguityError, match="non-finite"):
            match_to_reference(np.array(values, dtype=complex), np.array(reference, dtype=complex))


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


def test_arrowhead_has_the_given_spectra_and_stacks_item_by_item():
    rng = np.random.default_rng(13)
    lam = _random_complex(rng, 4, 5)
    lamhat = _random_complex(rng, 4, 6)
    A = arrowhead_with_frame(lam, lamhat)[0]
    for i in range(4):
        assert np.array_equal(A[i], arrowhead_with_frame(lam[i], lamhat[i])[0])
        np.testing.assert_allclose(A[i], _arrowhead(lam[i], lamhat[i]), rtol=1e-14)
        assert np.array_equal(np.diag(A[i])[:5], lam[i])
        vals = eigvals(A[i])
        perm = match_to_reference(vals, lamhat[i])
        assert np.abs(vals[perm] - lamhat[i]).max() < 1e-11 * frob(A[i])


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
        # both rescaled to the package convention, it is eig's frame in lamhat's order
        vals, ge, gie = eig(A)
        ge, gie = normalize_frame(ge, gie)
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


def _unscaled_arrowhead(lam, lamhat):
    """The arrowhead's formula evaluated as written, at the spectra's own scale."""
    n = lam.shape[-1]
    d = lam[..., :, None] - lam[..., None, :]
    d[..., np.arange(n), np.arange(n)] = 1.0
    A = np.zeros(lam.shape[:-1] + (n + 1, n + 1), dtype=complex)
    A[..., np.arange(n), np.arange(n)] = lam
    A[..., :n, n] = -(lam[..., :, None] - lamhat[..., None, :]).prod(axis=-1) / d.prod(axis=-1)
    A[..., n, :n] = 1.0
    A[..., n, n] = lamhat.sum(axis=-1) - lam.sum(axis=-1)
    return A


@pytest.mark.parametrize("n", [1, 2, 5, 20, 40])
def test_arrowhead_keeps_the_bits_of_the_unscaled_formula(n):
    # x is homogeneous of degree 2, so s^2 x(lam / s, lamhat / s) at a
    # power of two s rounds like x itself
    V = random_chart_points(n, 1.0, range(5))
    lam, lamhat = V[:, :n], V[:, n:2 * n + 1]
    for s in (1.0, 1e-3, 3.7, 1e4):
        for i in range(5):
            want = _unscaled_arrowhead(lam[i] * s, lamhat[i] * s)
            assert np.array_equal(arrowhead_with_frame(lam[i] * s, lamhat[i] * s)[0], want)


def test_arrowhead_with_frame_is_both_public_builds_bit_for_bit():
    rng = np.random.default_rng(16)
    for n in (1, 3, 8):
        cases = [(_random_complex(rng, 4, n), _random_complex(rng, 4, n + 1))]
        V = random_chart_points(n, 1.0, range(4))
        cases.append((V[:, :n], V[:, n:2 * n + 1]))
        for lam, lamhat in cases:
            A, g, ginv = arrowhead_with_frame(lam, lamhat)
            g1, ginv1 = arrowhead_frame(lam, lamhat)
            assert np.array_equal(A, _unscaled_arrowhead(lam, lamhat))
            assert np.array_equal(g, g1) and np.array_equal(ginv, ginv1)


def _assert_package_frame(g, ginv, tol):
    """ginv's columns are unit vectors, each first significant entry real positive; g = ginv^-1."""
    n = ginv.shape[-1]
    np.testing.assert_allclose(np.linalg.norm(ginv, axis=-2), 1.0, rtol=1e-14)
    W = ginv.reshape(-1, n, n)
    for item in W:
        for col in item.T:
            first = col[np.abs(col) > 1e-8][0]      # rotated real up to its rounding
            assert first.real > 0.0 and abs(first.imag) <= 4 * np.finfo(float).eps * abs(first)
    assert np.all(frob(g @ ginv - np.eye(n)) < tol)


def test_normalize_frame_pins_the_phase_convention():
    # eig's frame keeps LAPACK's phases; normalize_frame gives it, and the
    # closed-form arrowhead frame, unit columns whose first significant
    # entry is real positive, with g ginv = I and g A ginv unchanged
    rng = np.random.default_rng(17)
    for n in (1, 2, 6, 12):
        M = _random_complex(rng, 3, n, n)
        vals, g, ginv = eig(M)
        gn, ginvn = normalize_frame(g, ginv)
        _assert_package_frame(gn, ginvn, 1e-12)
        D = gn @ M @ ginvn
        assert np.all(frob(D - g @ M @ ginv) < 1e-12 * frob(M))
        # column j is column j of eig's times a unimodular factor
        c = (ginv.conj() * ginvn).sum(axis=-2)
        np.testing.assert_allclose(np.abs(c), 1.0, rtol=1e-12)
        assert np.abs(ginv * c[..., None, :] - ginvn).max() < 1e-12
        assert np.abs(g / c[..., :, None] - gn).max() < 1e-12 * max(1.0, np.abs(gn).max())
        lam, lamhat = _random_complex(rng, n), _random_complex(rng, n + 1)
        A, ga, gainv = arrowhead_with_frame(lam, lamhat)
        ga_n, gainv_n = normalize_frame(ga, gainv)
        _assert_package_frame(ga_n, gainv_n, 1e-10)
        assert frob(ga_n @ A @ gainv_n - np.diag(lamhat)) < 1e-10 * frob(A)
    # a decomposition's public frame follows it
    for n in (1, 3, 8):
        d = decompose(from_chart(random_chart_point(n, 0.5 - 1j, 20 + n)))
        _assert_package_frame(d.g, d.ginv, 1e-10)


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


def test_stacked_frob_gives_each_item_its_one_item_bits():
    rng = np.random.default_rng(18)
    for size in range(1, 42):
        M = _random_complex(rng, 12, size, size)
        # items that need the rescaled norm, mixed in with ones that do not
        M[3] *= 1e200
        M[7] *= 1e-200
        M[9] = 0.0
        with np.errstate(over="ignore"):
            got = frob(M)
            want = [frob(item) for item in M]
        assert got.tolist() == want, size
        real = M.real[[0, 1, 2]]
        assert frob(real).tolist() == [frob(item) for item in real]
    with np.errstate(over="ignore"):
        assert frob(M.reshape(3, 4, 41, 41)).ravel().tolist() == got.tolist()


def test_frob_gives_each_item_of_a_transposed_stack_its_one_item_bits():
    # a transposed item is not C-ordered; its one-item norm still sums in C order
    rng = np.random.default_rng(19)
    for size in range(2, 30):
        M = _random_complex(rng, 20, size, size).transpose(0, 2, 1)
        assert frob(M).tolist() == [frob(item) for item in M], size
        big = M * 1e200     # the rescaled path, for a one-item call too
        with np.errstate(over="ignore"):
            assert frob(big).tolist() == [frob(item) for item in big], size


def test_frob_and_the_scales_of_an_empty_stack_are_empty():
    for shape in ((0, 3, 3), (2, 0, 3, 3), (0, 1, 1)):
        E = np.zeros(shape, dtype=np.complex128)
        for got in (frob(E), matrix_scale(E), pair_scale(E, E)):
            assert got.shape == shape[:-2]
    assert frob(np.zeros((0, 0))) == 0.0


def test_frob_is_finite_for_entries_from_two_to_the_1023():
    # the rescaling power of two must stay at or below the largest entry:
    # 2^1024 is inf, and the norm read nan
    big, edge = np.diag([1e308, 2.0]), 2.0**1023 * np.eye(2)
    with np.errstate(over="ignore"):
        one, at_edge, complex_one = frob(big), frob(edge), frob(big * 1j)
        stacked = frob(np.stack([big, np.eye(2), edge, -big.T]))
    assert abs(one - 1e308) <= 1e-15 * 1e308 and complex_one == one
    assert at_edge == 2.0**1023 * np.sqrt(2.0)
    assert stacked.tolist() == [one, frob(np.eye(2)), at_edge, one]
    # an item that needed no rescaling keeps the plain norm's bits
    assert stacked[1] == np.linalg.norm(np.eye(2))


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


def test_frob_rescales_the_finite_items_of_a_stack_with_a_non_finite_item():
    # a NaN or inf item keeps its plain norm; the others still get their one-item bits
    M = np.ones((2, 3, 3))
    M[0] *= 1e200
    M[1, 1, 2] = np.nan
    C = np.ones((4, 3, 3), dtype=np.complex128)
    C[0] *= 1e200
    C[1, 0, 0] = np.inf
    C[2] *= 1e-200
    C[3, 2, 1] = np.nan
    with np.errstate(over="ignore"):
        got, got_c = frob(M), frob(C)
        want, want_c = [frob(item) for item in M], [frob(item) for item in C]
    assert got[0] == want[0] == 3e200 and np.isnan(got[1]) and np.isnan(want[1])
    assert got_c[:3].tolist() == want_c[:3] and got_c[1] == np.inf and np.isnan(got_c[3])
    assert abs(got_c[2] - 3e-200) <= 1e-15 * 3e-200


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _scale_stacks():
    """3 x 3 matrices, small, unit and near 1e200, stacked C-ordered and transposed."""
    rng = np.random.default_rng(18)
    M = _random_complex(rng, 4, 3, 3)
    M[0] *= 1e-3
    M[2] *= 1e200
    return M, M.transpose(0, 2, 1)


def _nan_stack():
    """A unit stack whose item 1 has a NaN entry."""
    M = _random_complex(np.random.default_rng(19), 3, 3, 3)
    M[1, 1, 2] = np.nan
    return M


def test_matrix_and_pair_scales_keep_the_bits_of_the_inline_floors():
    with np.errstate(over="ignore"):
        for S in _scale_stacks():
            T = S[::-1]
            assert _bits(matrix_scale(S)) == _bits(np.maximum(1.0, frob(S)))
            assert _bits(pair_scale(S, T)) == _bits(np.maximum(1.0, frob(S) * frob(T)))
            for i in range(len(S)):
                one = matrix_scale(S[i])
                assert _bits(one) == _bits(matrix_scale(S)[i]) == _bits(max(1.0, frob(S[i])))
                assert _bits(pair_scale(S[i], T[i])) == _bits(pair_scale(S, T)[i])
    # NaN: the scale keeps it, as np.maximum does; a Python max drops it
    N = _nan_stack()
    assert _bits(matrix_scale(N)) == _bits(np.maximum(1.0, frob(N)))
    assert _bits(pair_scale(N, N)) == _bits(np.maximum(1.0, frob(N) * frob(N)))
    assert np.isnan(matrix_scale(N[1])) and np.isnan(pair_scale(N, N)[1])
    assert max(1.0, frob(N[1])) == 1.0


def test_value_scale_keeps_the_bits_of_the_inline_floors():
    for S in _scale_stacks():
        x = S[:, 0, :]      # rows: contiguous items, then strided ones
        top = np.abs(x).max(axis=-1)
        assert _bits(value_scale(x)) == _bits(np.maximum(1.0, top))
        assert _bits(value_scale(x)) == _bits(np.where(top > 1.0, top, 1.0))
        for i in range(len(x)):
            one = value_scale(x[i])
            assert _bits(one) == _bits(value_scale(x)[i])
            assert _bits(one) == _bits(max(1.0, float(np.abs(x[i]).max())))
    # NaN: the scale keeps it, as np.maximum does; max and np.where drop it
    x = _nan_stack()[:, 1, :]
    top = np.abs(x).max(axis=-1)
    assert _bits(value_scale(x)) == _bits(np.maximum(1.0, top))
    assert np.isnan(value_scale(x[1])) and np.where(top > 1.0, top, 1.0)[1] == 1.0
    # magnitudes passed in, as a caller holding Python abs values does
    assert value_scale([0.5, 3.0]) == 3.0 and value_scale([0.5, 0.25]) == 1.0


def test_one_item_scales_are_numpy_scalars_that_negate_a_comparison():
    # ~ of a Python bool is an int (~True == -2, truthy); a stack's ~ negates
    for one in (matrix_scale(np.eye(2)), pair_scale(np.eye(2), np.eye(2)), value_scale([0.5])):
        assert isinstance(one, np.float64)
        assert not ~(one <= 3.0) and ~(one > 3.0)


def test_scale_texts_are_the_formulas_the_notes_state():
    assert matrix_scale.text("M") == "max(1, ||M||)"
    assert matrix_scale.text("A", "B") == "max(1, ||A||, ||B||)"
    assert pair_scale.text("A", "B") == "max(1, ||A|| ||B||)"
    assert value_scale.text("spectrum") == "max(1, |spectrum|)"
