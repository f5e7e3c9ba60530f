"""Tests for the spectral chart: the second-matrix splitting, coordinates,
and the closed-form inverse."""

import numpy as np
import pytest

from cmspaces.canonical import normalize
from cmspaces.chart import (
    ChartPoint,
    _border_column,
    _embed_border_col,
    _solve_defect,
    _unpack,
    chart_jacobian,
    decompose,
    from_chart,
    from_chart_stack,
    is_normal_form,
    project_to_slice,
    random_chart_point,
    slice_residual,
    to_chart,
    to_chart_tracked,
)
from cmspaces.errors import (
    CMSpacesError,
    DegenerateSpectrumError,
    EigenMismatchError,
    NotNormalizedError,
    NotStronglySemisimpleError,
    ShapeMismatchError,
)
from cmspaces.linalg import comm, eig, frob, match_to_reference, numeric_rank, reorder
from cmspaces.variety import (
    AugmentedPair,
    augment,
    gauge_act_pair,
    level_shift,
    on_level,
    pair_fingerprint,
    pair_scale,
    random_gauge,
    random_point,
)

# one-site pair sitting exactly on the level set at tau = 1
HAND_A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HAND_B = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)


def _normal_pair(n, seed, tau=1.0):
    nf, _ = normalize(augment(random_point(n, 2, tau, seed)))
    return nf


def _count_lapack(monkeypatch, names):
    """Record (name, shape of the first argument) of every call to the named numpy.linalg functions."""
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_chart_point_packing_round_trip():
    c = random_chart_point(3, 1.0, 2)
    again = ChartPoint.from_vector(c.vector(), 3, c.tau)
    assert np.array_equal(again.vector(), c.vector())
    with pytest.raises(ShapeMismatchError):
        ChartPoint.from_vector(c.vector()[:-1], 3, c.tau)


def test_hand_case_is_on_level_and_normal():
    p = AugmentedPair(HAND_A, HAND_B, 1.0)
    assert np.array_equal(comm(p.A, p.B), np.diag([1.0 + 0j, -1.0 + 0j]))
    assert on_level(p, tol=1e-15)
    assert is_normal_form(p, tol=1e-15)


def test_hand_case_split_package_order():
    p = AugmentedPair(HAND_A, HAND_B, 1.0)
    d = decompose(p)
    np.testing.assert_allclose(d.lamhat, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(d.mu, [0.0], atol=1e-14)
    np.testing.assert_allclose(d.muhat, [0.0, 0.0], atol=1e-13)
    np.testing.assert_allclose(d.defect, [0.0], atol=1e-14)
    np.testing.assert_allclose(d.S, [[0.0, -0.5], [0.5, 0.0]], atol=1e-12)


def test_hand_case_split_reference_order():
    # same point, spectrum matched to (1, -1): the off-diagonal term flips
    p = AugmentedPair(HAND_A, HAND_B, 1.0)
    d = decompose(p, lamhat_ref=np.array([1.0, -1.0]))
    np.testing.assert_allclose(d.lamhat, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(d.S, [[0.0, 0.5], [-0.5, 0.0]], atol=1e-12)


def test_decompose_constraints_hold_at_seeded_points():
    for seed in range(6):
        n = 1 + seed % 5
        p = _normal_pair(n, 90 + seed)
        d = decompose(p)
        scale = pair_scale(p)
        # N1 + N2 rebuilds the second matrix, N1 diagonal in the block
        assert frob(d.N1 + d.N2 - p.B) < 1e-14 * scale
        assert frob(d.N1 - np.diag(np.diag(d.N1))) == 0.0
        assert d.N1[n, n] == 0.0
        # [M, N2] is the level shift plus the border-column defect
        K2 = comm(p.A, d.N2)
        want = level_shift(n, p.tau)
        want = want.astype(complex).copy()
        want[:n, n] += d.defect
        assert frob(K2 - want) < 1e-9 * scale
        # g diagonalizes the first matrix and exposes diag(muhat) + S
        gi = np.linalg.inv(d.g)
        assert frob(d.g @ p.A @ gi - np.diag(d.lamhat)) < 1e-9 * scale
        conj = d.g @ d.N2 @ gi
        assert frob(conj - np.diag(d.muhat) - d.S) < 1e-12 * scale
        assert np.abs(np.diag(d.S)).max() == 0.0


def test_decompose_requires_normal_form():
    p = augment(random_point(3, 2, 1.0, 96))  # not normalized
    with pytest.raises(NotNormalizedError):
        decompose(p)


def _bordered(lam, lamhat):
    """Normal-form first matrix with block spectrum lam and full spectrum lamhat."""
    lam = np.asarray(lam, dtype=complex)
    lamhat = np.asarray(lamhat, dtype=complex)
    n = lam.size
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[np.arange(n), np.arange(n)] = lam
    A[:n, n] = _border_column(lam, lamhat)
    A[n, :n] = 1.0
    A[n, n] = lamhat.sum() - lam.sum()
    return A


@pytest.mark.parametrize("A, tol", [
    # repeated block eigenvalue
    (np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0], [1.0, 1.0, 0.0]], dtype=complex), 1e-9),
    # double lamhat at a block eigenvalue: the computed split is rounding level
    (_bordered([0.0, 2.0], [0.0, 0.0, 3.0]), 1e-9),
    # generic double lamhat: M is then a 2 x 2 Jordan block (the unit row
    # makes it nonderogatory), which rounding splits by about sqrt(eps);
    # a tolerance above that split sees it in the plain gap test
    (_bordered([0.0, 2.0], [1.0, 1.0, 3.0]), 1e-6),
    # and at the default tolerance the gap test scaled by the eigenvalue
    # condition number (about 6e7 for the split pair) sees it
    (_bordered([0.0, 2.0], [1.0, 1.0, 3.0]), 1e-9),
])
def test_decompose_rejects_repeated_spectra_as_not_strongly_semisimple(A, tol):
    # regularity is tested before the level condition, so B is arbitrary
    B = np.arange(A.size, dtype=complex).reshape(A.shape)
    with pytest.raises(NotStronglySemisimpleError):
        decompose(AugmentedPair(A, B, 1.0), tol)


def test_to_chart_lapack_call_budget(monkeypatch):
    # one block eig in normalize and the values of the full matrix in
    # decompose; no SVD: the gauge is accepted by its exact inverse, and
    # the (n+1)^2 x n^2 orbit operator is never formed
    n = 6
    c = random_chart_point(n, 1.0, 8)
    p = gauge_act_pair(random_gauge(n, 9), from_chart(c))
    calls = _count_lapack(monkeypatch, ("eig", "eigvals", "svd", "inv"))
    got = to_chart(p)
    monkeypatch.undo()
    assert np.abs(got.vector() - c.vector()).max() < 1e-8 * max(1.0, np.abs(c.vector()).max())
    names = [name for name, _ in calls]
    assert names.count("eig") <= 1 and names.count("eigvals") <= 1 and names.count("inv") <= 1
    assert "svd" not in names


def test_from_chart_lapack_call_budget(monkeypatch):
    # the rebuilt first matrix is an arrowhead with a closed-form frame: no
    # eigensolver and no inverse; the one SVD solves the defect system
    n = 6
    c = random_chart_point(n, 1.0, 10)
    calls = _count_lapack(monkeypatch, ("eig", "eigvals", "inv", "svd"))
    from_chart(c)
    monkeypatch.undo()
    assert calls == [("svd", (n + 1, n))]


def _eig_chart_frame(lam, lamhat, tau, tol=1e-9):
    """The eig-based frame the closed-form arrowhead frame replaced: (Ah, g, ginv, S)."""
    n = lam.shape[-1]
    scale = np.maximum(1.0, np.abs(lamhat).max(axis=-1))
    idx = np.arange(n)
    Ah = np.zeros(lam.shape[:-1] + (n + 1, n + 1), dtype=np.complex128)
    Ah[..., idx, idx] = lam
    Ah[..., :n, n] = _border_column(lam, lamhat)
    Ah[..., n, :n] = 1.0
    Ah[..., n, n] = np.sum(lamhat, axis=-1) - np.sum(lam, axis=-1)
    vals, g, ginv = eig(Ah, tol)
    vals, g, ginv = reorder(vals, g, ginv, match_to_reference(vals, lamhat))
    if (np.abs(vals - lamhat).max(axis=-1) > 1e3 * tol * scale).any():
        raise EigenMismatchError("reconstructed spectrum deviates from lamhat")
    shift = level_shift(n, tau)
    K = g[..., :, :n] * ginv[..., n, :, None]
    b = -np.diagonal(g @ shift @ ginv, axis1=-2, axis2=-1)
    m = _solve_defect(K, b, tol)
    R = g @ (shift + _embed_border_col(m)) @ ginv
    full = np.arange(n + 1)
    gaps = lamhat[..., :, None] - lamhat[..., None, :]
    gaps[..., full, full] = 1.0
    S = R / gaps
    S[..., full, full] = 0.0
    return Ah, g, ginv, S


def _eig_from_chart_stack(V, n, tau):
    """from_chart_stack on the eig-based frame."""
    lam, lamhat, mu, muhat = _unpack(V, n)
    Ah, g, ginv, S = _eig_chart_frame(lam, lamhat, tau)
    full = np.arange(n + 1)
    S[..., full, full] = muhat
    Bh = ginv @ S @ g
    Bh[..., full[:n], full[:n]] += mu
    return Ah, Bh


def test_closed_form_frame_rebuilds_what_the_eig_frame_did():
    def close(got, want):
        return all(np.all(frob(x - y) <= 1e-12 * frob(y)) for x, y in zip(got, want))

    for n in range(1, 9):
        c = random_chart_point(n, 1.0, 180 + n)
        assert close(from_chart_stack(c.vector(), n, c.tau),
                     _eig_from_chart_stack(c.vector(), n, c.tau))
    V = np.array([random_chart_point(4, 0.5 - 1j, 190 + i).vector() for i in range(6)])
    assert close(from_chart_stack(V, 4, 0.5 - 1j), _eig_from_chart_stack(V, 4, 0.5 - 1j))


@pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-8, 1e-4])
def test_a_full_eigenvalue_at_a_block_eigenvalue_round_trips_or_raises(delta):
    # lamhat_2 = lam_1 + delta puts the border entry x_1 at (or near) zero: a
    # valid chart point, where a Cauchy quotient of the frame divides by zero
    c = random_chart_point(4, 1.0, 3)
    lamhat = c.lamhat.copy()
    lamhat[2] = c.lam[1] + delta
    c = ChartPoint(c.lam, lamhat, c.mu, c.muhat, c.tau)
    try:
        again = to_chart_tracked(from_chart(c), c)
    except CMSpacesError:
        return
    dev = np.abs(again.vector() - c.vector()).max()
    assert dev < 1e-8 * max(1.0, np.abs(c.vector()).max())


def test_gap_term_depends_on_spectra_only():
    # rebuild points with the same (tau, lam, lamhat) but different moments:
    # the off-diagonal term of the split must not move
    base = random_chart_point(4, 1.0, 33)
    d0 = decompose(from_chart(base), lamhat_ref=base.lamhat)
    rng = np.random.default_rng(34)
    for _ in range(5):
        c = ChartPoint(
            base.lam,
            base.lamhat,
            base.mu + 0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            base.muhat + 0.5 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)),
            base.tau,
        )
        d = decompose(from_chart(c), lamhat_ref=base.lamhat)
        assert frob(d.S - d0.S) < 1e-10 * max(1.0, frob(d0.S))


def test_chart_round_trip_from_coordinates():
    for seed in range(8):
        n = 1 + seed % 5
        c = random_chart_point(n, 1.0, 40 + seed)
        again = to_chart_tracked(from_chart(c), c)
        dev = np.abs(again.vector() - c.vector()).max()
        assert dev < 1e-8 * max(1.0, np.abs(c.vector()).max())


def test_chart_round_trip_from_pairs():
    for seed in range(6):
        n = 1 + seed % 4
        p = _normal_pair(n, 50 + seed)
        q = from_chart(to_chart(p))
        f0, f1 = pair_fingerprint(p), pair_fingerprint(q)
        assert np.abs(f0 - f1).max() < 1e-8 * max(1.0, np.abs(f0).max())
        assert on_level(q, tol=1e-8)


def test_rebuilt_pair_is_normal_with_stated_spectra():
    c = random_chart_point(3, 1.0, 77)
    p = from_chart(c)
    assert is_normal_form(p)
    np.testing.assert_allclose(np.diag(p.A[:3, :3]), c.lam, atol=1e-10)
    lamhat = np.linalg.eigvals(p.A)
    lamhat = lamhat[np.lexsort((lamhat.imag, lamhat.real))]
    ref = np.sort_complex(c.lamhat)
    np.testing.assert_allclose(np.sort_complex(lamhat), ref, atol=1e-8)


def test_chart_jacobian_has_full_rank():
    for n in (1, 2, 3):
        c = random_chart_point(n, 1.0, 60 + n)
        J = chart_jacobian(c)
        assert J.shape == (4 * n + 2, 4 * n + 2)
        assert numeric_rank(J, tol=1e-6) == 4 * n + 2


def _serial_chart_jacobian(c, tol=1e-9, step=1e-6):
    """The one-perturbation-at-a-time loop the stacked Jacobian replaced."""
    base = c.vector()
    dim = base.size
    J = np.empty((dim, dim), dtype=np.complex128)
    for idx in range(dim):
        def coords(s):
            v = base.copy()
            v[idx] += s
            moved = ChartPoint.from_vector(v, c.n, c.tau)
            return to_chart_tracked(from_chart(moved, tol), c, tol).vector()

        J[:, idx] = (coords(step) - coords(-step)) / (2.0 * step)
    return J


def test_stacked_jacobian_matches_the_serial_loop():
    for n in range(1, 6):
        c = random_chart_point(n, 1.0, 160 + n)
        assert np.abs(chart_jacobian(c) - _serial_chart_jacobian(c)).max() < 1e-6


def test_chart_jacobian_lapack_call_budget(monkeypatch):
    # for the whole stack of 2 (4n + 2) perturbed points: one eig of the
    # block in normalize and the values of the full matrix in decompose;
    # the rebuilt first matrix needs no eigensolver, and the defect system
    # is solved from its SVD, not lstsq
    c = random_chart_point(5, 1.0, 65)
    calls = [name for name, _ in _count_lapack(monkeypatch, ("eig", "eigvals", "lstsq"))]
    J = chart_jacobian(c)
    monkeypatch.undo()
    assert numeric_rank(J, tol=1e-6) == 22
    assert calls.count("eig") <= 1 and calls.count("eigvals") <= 1 and "lstsq" not in calls


def test_a_coalesced_item_fails_the_stack_like_the_scalar_call():
    points = [random_chart_point(3, 1.0, 170 + i) for i in range(3)]
    lamhat = points[1].lamhat.copy()
    lamhat[1] = lamhat[0]
    points[1] = ChartPoint(points[1].lam, lamhat, points[1].mu, points[1].muhat, 1.0)
    with pytest.raises(DegenerateSpectrumError) as scalar:
        from_chart(points[1])
    with pytest.raises(type(scalar.value)):
        from_chart_stack(np.array([c.vector() for c in points]), 3, 1.0)


def test_project_to_slice_kills_the_second_corner():
    c = random_chart_point(4, 1.0, 70)
    s = project_to_slice(c)
    # only the diagonal moments move
    assert np.array_equal(s.lam, c.lam)
    assert np.array_equal(s.lamhat, c.lamhat)
    assert np.array_equal(s.mu, c.mu)
    _, corner = slice_residual(from_chart(s))
    assert abs(corner) < 1e-9 * pair_scale(from_chart(s))


def test_slice_recipe_zeroes_both_corners():
    # the full embedded-slice recipe: zero the row moments, balance the
    # spectra so the traces agree, then correct the diagonal moments
    c = random_chart_point(3, 1.0, 71)
    n = c.n
    shift = (np.sum(c.lamhat) - np.sum(c.lam)) / (n + 1)
    balanced = ChartPoint(c.lam, c.lamhat - shift, np.zeros(n), c.muhat, c.tau)
    s = project_to_slice(balanced)
    p = from_chart(s)
    tr_dev, corner = slice_residual(p)
    assert abs(tr_dev) < 1e-9 * pair_scale(p)
    assert abs(corner) < 1e-9 * pair_scale(p)
