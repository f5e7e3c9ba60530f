"""Tests for the spectral chart: the second-matrix splitting, coordinates,
and the closed-form inverse."""

import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cmspaces.chart as chart_module
import cmspaces.linalg as linalg_module
from cmspaces.canonical import normalize
from cmspaces.chart import (
    ChartPoint,
    chart_jacobian,
    chart_jacobian_stack,
    decompose,
    from_chart,
    from_chart_stack,
    project_to_slice,
    random_chart_point,
    random_chart_points,
    slice_residual,
    to_chart,
    to_chart_stack,
    to_chart_tracked,
    unpack,
)
from cmspaces.errors import (
    BranchAmbiguityError,
    CMSpacesError,
    DegenerateSpectrumError,
    EigenMismatchError,
    NonConvergentError,
    NotNormalizedError,
    NotStronglySemisimpleError,
    ShapeMismatchError,
)
from cmspaces.linalg import (
    arrowhead,
    arrowhead_frame,
    comm,
    eig,
    eigvals,
    frob,
    match_to_reference,
    min_gap,
    numeric_rank,
    pair_scale,
    reorder,
    sort_order,
    value_scale,
)
from cmspaces.variety import (
    AugmentedPair,
    augment,
    gauge_act_pair,
    level_shift,
    on_level,
    pair_fingerprint,
    random_gauge,
    random_point,
)
from cmspaces.sl2 import GEN_E, GEN_F, GEN_H, numeric_field, slice_tangency

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
    again = ChartPoint.from_vector(c.vector(), c.tau)
    assert np.array_equal(again.vector(), c.vector())
    # n is read off the length 4n+2, and any other length, or n = 0, is refused
    for size in (13, 12, 2, 0):
        with pytest.raises(ShapeMismatchError):
            ChartPoint.from_vector(c.vector()[:size], c.tau)
        with pytest.raises(ShapeMismatchError):
            from_chart_stack(np.ones((2, size)), c.tau)


def _is_normal_form(p):
    """The block of the first matrix is diagonal and its border row all ones, exactly."""
    n = p.n
    block = p.A[:n, :n]
    return np.array_equal(block, np.diag(np.diag(block))) and np.array_equal(p.A[n, :n], np.ones(n))


def test_from_vector_takes_one_vector_and_no_stack():
    # three n = 1 points pack 18 values, the length of one n = 4 point: a
    # stack is refused, not read as one larger point
    c = random_chart_point(1, 1.0, 2)
    for vec in (np.stack([c.vector()] * 3), c.vector()[None, :], np.array(1.0)):
        with pytest.raises(ShapeMismatchError):
            ChartPoint.from_vector(vec, c.tau)


def test_hand_case_is_on_level_and_normal():
    p = AugmentedPair(HAND_A, HAND_B, 1.0)
    assert np.array_equal(comm(p.A, p.B), np.diag([1.0 + 0j, -1.0 + 0j]))
    assert on_level(p, tol=1e-15)
    assert _is_normal_form(p)


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
        scale = pair_scale(p.A, p.B)
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


@pytest.mark.parametrize("A, tol", [
    # repeated block eigenvalue
    (np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0], [1.0, 1.0, 0.0]], dtype=complex), 1e-9),
    # double lamhat at a block eigenvalue: the computed split is rounding level
    (arrowhead([0.0, 2.0], [0.0, 0.0, 3.0]), 1e-9),
    # generic double lamhat: M is then a 2 x 2 Jordan block (the unit row
    # makes it nonderogatory), which rounding splits by about sqrt(eps);
    # a tolerance above that split sees it even before kappa scales it
    (arrowhead([0.0, 2.0], [1.0, 1.0, 3.0]), 1e-6),
    # and at the default tolerance the gap test scaled by the eigenvalue
    # condition number (about 6e7 for the split pair) sees it
    (arrowhead([0.0, 2.0], [1.0, 1.0, 3.0]), 1e-9),
    # a computed full spectrum that repeats a value exactly: the frame,
    # and so kappa, is not finite, and the same scaled test refuses it
    (np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0]], dtype=complex), 1e-9),
])
def test_decompose_rejects_repeated_spectra_as_not_strongly_semisimple(A, tol):
    # regularity is tested before the level condition, so B is arbitrary
    B = np.arange(A.size, dtype=complex).reshape(A.shape)
    with warnings.catch_warnings(), pytest.raises(NotStronglySemisimpleError):
        warnings.simplefilter("error", RuntimeWarning)
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


def _c_calls(fn):
    """fn's result and the number of calls into C functions (sys.setprofile c_call events) it made."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "c_call"

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, count


def test_numpy_calls_of_one_chart_round_trip():
    # the chart_large round trip at n = 20: one read of a gauge-scrambled
    # pair and one rebuild of the result.  Its two eigensolver calls take
    # about 0.5 ms and each small numpy call a few microseconds, so the
    # calls are pinned like the LAPACK ledger: 371 and 89 when the read
    # rescaled its frame, formed S and built the level shift per call,
    # 238 and 69 when the rebuild formed S through the conjugated level
    # shift and eig's phase anchor had a fallback that never decided, 236
    # and 67 when the normal form phase-fixed its block frame and
    # conjugated densely, and the rebuild formed the arrowhead's spectral
    # products apart from its frame's
    n = 20
    c = random_chart_point(n, 1.0, 3)
    p = gauge_act_pair(random_gauge(n, 3 ^ 0x5A5A5A5A), from_chart(c))
    from_chart(to_chart(p))     # warm the caches a first call fills
    got, read = _c_calls(lambda: to_chart(p))
    _, rebuild = _c_calls(lambda: from_chart(got))
    assert np.abs(got.vector() - c.vector()).max() < 1e-8 * max(1.0, np.abs(c.vector()).max())
    assert read <= 221 and rebuild <= 63, (read, rebuild)


def test_from_chart_lapack_call_budget(monkeypatch):
    # the rebuilt first matrix is an arrowhead with a closed-form frame, and
    # the off-diagonal term is closed form too: no LAPACK call at all
    c = random_chart_point(6, 1.0, 10)
    calls = _count_lapack(monkeypatch, ("eig", "eigvals", "inv", "svd", "lstsq", "solve"))
    from_chart(c)
    project_to_slice(c)
    monkeypatch.undo()
    assert calls == []


def _eig_chart_frame(lam, lamhat, tau, tol=1e-9):
    """The eig-based frame the closed-form arrowhead frame replaced: (Ah, g, ginv, S)."""
    n = lam.shape[-1]
    scale = np.maximum(1.0, np.abs(lamhat).max(axis=-1))
    Ah = arrowhead(lam, lamhat)
    vals, g, ginv = eig(Ah, tol)
    vals, g, ginv = reorder(vals, g, ginv, match_to_reference(vals, lamhat))
    if (np.abs(vals - lamhat).max(axis=-1) > 1e3 * tol * scale).any():
        raise EigenMismatchError("reconstructed spectrum deviates from lamhat")
    shift = level_shift(n, tau)
    # the border column m that zeroes the diagonal of g (shift + m e_n^T) g^-1
    K = g[..., :, :n] * ginv[..., n, :, None]
    b = -np.diagonal(g @ shift @ ginv, axis1=-2, axis2=-1)
    m = np.empty(lam.shape, dtype=np.complex128)
    for item in np.ndindex(lam.shape[:-1]):
        m[item] = np.linalg.lstsq(K[item], b[item], rcond=None)[0]
    border = np.zeros(lam.shape[:-1] + (n + 1, n + 1), dtype=np.complex128)
    border[..., :n, n] = m
    R = g @ (shift + border) @ ginv
    full = np.arange(n + 1)
    gaps = lamhat[..., :, None] - lamhat[..., None, :]
    gaps[..., full, full] = 1.0
    S = R / gaps
    S[..., full, full] = 0.0
    return Ah, g, ginv, S


def _eig_from_chart_stack(V, tau):
    """from_chart_stack on the eig-based frame."""
    lam, lamhat, mu, muhat = unpack(V)
    n = lam.shape[-1]
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
        assert close(from_chart_stack(c.vector(), c.tau), _eig_from_chart_stack(c.vector(), c.tau))
    V = np.array([random_chart_point(4, 0.5 - 1j, 190 + i).vector() for i in range(6)])
    assert close(from_chart_stack(V, 0.5 - 1j), _eig_from_chart_stack(V, 0.5 - 1j))


@pytest.mark.parametrize("n, seed, delta", [(4, 0, 3e-9), (4, 1, 3e-9), (8, 0, 1e-8)])
def test_near_coalescing_full_eigenvalues_rebuild_a_pair_on_the_level_set(n, seed, delta):
    # lamhat_1 within delta of lamhat_0: the frame is ill-conditioned, but the
    # closed-form off-diagonal term still rebuilds a pair on the level set
    c = random_chart_point(n, 1.0, seed)
    lamhat = c.lamhat.copy()
    lamhat[1] = lamhat[0] + delta
    c = ChartPoint(c.lam, lamhat, c.mu, c.muhat, c.tau)
    for point in (c, project_to_slice(c)):
        p = from_chart(point)
        assert np.array_equal(np.diag(p.A)[:n], c.lam)
    assert on_level(from_chart(c), tol=1e-12)


def test_round_trip_keeps_the_chart_contract_at_large_n_and_tau():
    for seed in range(20):
        c = random_chart_point(40, 1e4, seed)
        again = to_chart_tracked(from_chart(c), c)
        assert np.abs(again.vector() - c.vector()).max() < 1e-8 * max(1.0, np.abs(c.vector()).max())


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


def test_to_chart_orders_a_normal_form_with_a_reversed_diagonal():
    # the pair is in normal form, so it is read without normalizing; the
    # last step still puts lam, and mu with it, in the package ordering
    n = 4
    c = random_chart_point(n, 1.0, 88)
    p = from_chart(ChartPoint(c.lam[::-1], c.lamhat, c.mu[::-1], c.muhat, 1.0))
    assert _is_normal_form(p)
    got = to_chart(p)
    scrambled = to_chart(gauge_act_pair(random_gauge(n, 89), p))
    scale = max(1.0, np.abs(c.vector()).max())
    assert np.array_equal(sort_order(got.lam), np.arange(n))
    assert np.abs(got.vector() - c.vector()).max() < 1e-8 * scale
    assert np.abs(got.vector() - scrambled.vector()).max() < 1e-8 * scale


def test_rebuilt_pair_is_normal_with_stated_spectra():
    c = random_chart_point(3, 1.0, 77)
    p = from_chart(c)
    assert _is_normal_form(p)
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
    """The Jacobian by central differences of tracked reads, one perturbation at a time.

    The oracle of chart_jacobian, which takes the read's tangent in closed
    form and differences only the rebuild.
    """
    base = c.vector()
    dim = base.size
    J = np.empty((dim, dim), dtype=np.complex128)
    for idx in range(dim):
        def coords(s):
            v = base.copy()
            v[idx] += s
            moved = ChartPoint.from_vector(v, c.tau)
            return to_chart_tracked(from_chart(moved, tol), c, tol).vector()

        J[:, idx] = (coords(step) - coords(-step)) / (2.0 * step)
    return J


def _central_difference_jacobian_stack(V, tau, tol=1e-9, step=1e-6):
    """chart_jacobian_stack with the rebuild's tangent in lam and lamhat by central differences.

    The oracle the closed-form rebuild tangent replaced: the 2 (2n + 1)
    perturbed rebuilds go through from_chart_stack as one stack; the mu
    and muhat columns and the read's tangent are chart_jacobian_stack's.
    """
    n = (V.shape[-1] - 2) // 4
    A, B = from_chart_stack(V, tau, tol)
    d = chart_module.decompose_stack(A, B, tau, tol, V[..., n:2 * n + 1])
    spectral, idx = 2 * n + 1, np.arange(n)
    steps = step * np.eye(spectral, 4 * n + 2)
    base = V[..., None, :]
    Ap, Bp = from_chart_stack(np.concatenate([base + steps, base - steps], axis=-2), tau, tol)
    dA = np.zeros(A.shape[:-2] + (4 * n + 2,) + A.shape[-2:], dtype=np.complex128)
    dB = np.zeros_like(dA)
    dA[..., :spectral, :, :] = (Ap[..., :spectral, :, :] - Ap[..., spectral:, :, :]) / (2.0 * step)
    dB[..., :spectral, :, :] = (Bp[..., :spectral, :, :] - Bp[..., spectral:, :, :]) / (2.0 * step)
    dB[..., spectral + idx, idx, idx] = 1.0
    dB[..., 3 * n + 1:, :, :] = np.swapaxes(d.ginv, -1, -2)[..., :, :, None] * d.g[..., :, None, :]
    E = d.g[..., None, :, :] @ dA @ d.ginv[..., None, :, :]
    return np.swapaxes(chart_module._read_tangent(A, B, d, dA, dB, E), -1, -2)


def _conditioning(c):
    """kappa / gap: the frame's largest eigenvalue condition number over the smallest gap of lam and lamhat."""
    g, ginv = arrowhead_frame(c.lam, c.lamhat)
    kappa = (np.linalg.norm(g, axis=-1) * np.linalg.norm(ginv, axis=-2)).max()
    return kappa / min(min_gap(c.lam), min_gap(c.lamhat))


def test_closed_form_jacobian_matches_the_central_difference_oracle():
    for n in (1, 2, 3, 4, 5, 20):
        for seed in (160 + n, 161 + n):
            c = random_chart_point(n, 1.0, seed)
            oracle = _central_difference_jacobian_stack(c.vector(), c.tau)
            # the oracle's step error and its rounding at step 1e-6 (about
            # 1e-9 here) grow with the conditioning
            assert np.abs(chart_jacobian(c) - oracle).max() <= 1e-7 * _conditioning(c)


def test_closed_form_jacobian_is_the_identity_to_rounding():
    # the central differences left an error floor of about 1e-8 here
    for n in (1, 2, 3, 4, 5, 10, 20):
        for seed in (60 + n, 260 + n, 460 + n):
            c = random_chart_point(n, 1.0, seed)
            err = np.abs(chart_jacobian(c) - np.eye(4 * n + 2)).max()
            assert err <= 1e-11 * value_scale(c.vector())


def test_closed_form_jacobian_near_coalescing_lamhat():
    # lamhat_1 within 1e-2 of lamhat_0: the closed form stays within its
    # rounding, times the conditioning squared (kappa / gap is about 5e4),
    # where the central differences at step 1e-6 were off by 3e-2
    c = random_chart_point(3, 1.0, 5)
    lamhat = c.lamhat.copy()
    lamhat[1] = lamhat[0] + 1e-2
    c = ChartPoint(c.lam, lamhat, c.mu, c.muhat, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        J = chart_jacobian(c)
    assert np.abs(J - np.eye(14)).max() <= 1e-14 * _conditioning(c) ** 2 * value_scale(c.vector())
    assert numeric_rank(J) == 14


def test_an_overflowing_rebuild_tangent_is_refused_quietly(monkeypatch):
    # a second matrix near the top of the doubles: the rebuild tangent's
    # products overflow, and the read's tangent refuses the non-finite
    # columns with a typed error, not a warning
    rebuild = chart_module._rebuild

    def near_overflow(V, tau, tol):
        A, B, g, ginv, X, lamhat = rebuild(V, tau, tol)
        return A, B, g, ginv, 1e308 * X, lamhat

    monkeypatch.setattr(chart_module, "_rebuild", near_overflow)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergentError):
            chart_jacobian(random_chart_point(3, 1.0, 6))


def test_stacked_jacobian_matches_the_serial_loop():
    for n in range(1, 6):
        c = random_chart_point(n, 1.0, 160 + n)
        assert np.abs(chart_jacobian(c) - _serial_chart_jacobian(c)).max() < 1e-6


def test_chart_jacobian_lapack_call_budget(monkeypatch):
    # no LAPACK call at all: from_chart rebuilds normal forms with a
    # closed-form frame, a normal form is read without normalizing again,
    # a tracked read takes lamhat from the secular equation, continued
    # from its reference, and the read's tangent is closed form; the
    # induced fields and the slice rates read no flowed pair
    c = random_chart_point(5, 1.0, 65)
    calls = _count_lapack(monkeypatch, ("eig", "eigvals", "inv", "svd", "lstsq"))
    J = chart_jacobian(c)
    tracked = to_chart_tracked(from_chart(c), c)
    for gen in (GEN_E, GEN_F, GEN_H):
        numeric_field(gen, c)
        slice_tangency(gen, c)
    monkeypatch.undo()
    assert numeric_rank(J, tol=1e-6) == 22
    assert np.abs(tracked.vector() - c.vector()).max() < 1e-8 * max(1.0, np.abs(c.vector()).max())
    assert calls == []


def test_tracked_tangent_follows_the_reference_order_and_checks_its_input():
    # the package-ordered normal form of a scrambled pair, read against a
    # reference with both spectra reversed: the tangent comes out reversed
    c = random_chart_point(4, 1.0, 66)
    p, _ = normalize(gauge_act_pair(random_gauge(4, 67), from_chart(c)))
    ref = to_chart(p)
    rev = ChartPoint(ref.lam[::-1], ref.lamhat[::-1], ref.mu[::-1], ref.muhat[::-1], 1.0)
    rng = np.random.default_rng(68)
    dA, dB = (rng.standard_normal((2, 5, 5)) + 1j * rng.standard_normal((2, 5, 5)) for _ in range(2))
    T = chart_module.tracked_tangent(p, dA, dB, ref)
    got = chart_module.tracked_tangent(p, dA, dB, rev)
    blocks = np.split(T, [4, 9, 13], axis=-1)
    want = np.concatenate([b[:, ::-1] for b in blocks], axis=-1)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(T).max()
    with pytest.raises(ShapeMismatchError):
        chart_module.tracked_tangent(p, dA[:, :4, :4], dB[:, :4, :4], ref)
    with pytest.raises(NotNormalizedError):
        chart_module.tracked_tangent(gauge_act_pair(random_gauge(4, 67), p), dA, dB, ref)


def _tracked_reads(p, ref):
    """to_chart_tracked(p, ref) by the secular equation and by eigvals alone.

    Each is the coordinate vector or the class of the typed error it
    raised; a RuntimeWarning fails the caller.
    """
    out = []
    for secular in (True, False):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if not secular:
                mp.setattr(chart_module, "_tracked_lamhat", lambda A, lam, r: eigvals(A))
            try:
                out.append(to_chart_tracked(p, ref).vector())
            except CMSpacesError as exc:
                out.append(type(exc))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**31 - 1), st.floats(3.0, 9.0),
       st.floats(0.0, 2 * np.pi), st.sampled_from([1.0, 1e4, 1e8]), st.sampled_from([0.0, 1e-6]))
def test_a_tracked_read_near_coalescing_lamhat_agrees_with_the_eigvals_path(
        n, seed, digits, phase, tau, offset):
    # lamhat_1 within delta = 10^-digits of lamhat_0, read against the point
    # itself or a reference 1e-6 away (the Jacobian's step)
    c = random_chart_point(n, tau, seed)
    lamhat = c.lamhat.copy()
    lamhat[1] = lamhat[0] + 10.0 ** -digits * np.exp(1j * phase)
    c = ChartPoint(c.lam, lamhat, c.mu, c.muhat, tau)
    try:
        p = from_chart(c)
    except CMSpacesError:
        return      # too close for the rebuild itself
    ref = ChartPoint(c.lam, lamhat + offset * np.exp(1j * np.arange(n + 1)), c.mu, c.muhat, tau)
    secular, lapack = _tracked_reads(p, ref)
    if isinstance(secular, type) or isinstance(lapack, type):
        assert secular == lapack
        return
    # the two reads differ by the rounding of lamhat, which the eigenvalue
    # condition numbers kappa_j amplify: once in lamhat, and at most
    # kappa^2 times the pair's scale in the other coordinates
    g, ginv = arrowhead_frame(lapack[:n], lapack[n:2 * n + 1])
    kappa = np.linalg.norm(g, axis=-1) * np.linalg.norm(ginv, axis=-2)
    dev = np.abs(secular - lapack)
    assert np.all(dev[n:2 * n + 1] <= 1e-12 * kappa * max(1.0, frob(p.A)))
    assert dev.max() <= 1e-12 * kappa.max() ** 2 * pair_scale(p.A, p.B)


def test_a_reference_that_swaps_two_roots_falls_back_and_raises(monkeypatch):
    # the reference moves lamhat_0 and lamhat_1 0.7 of the way to each
    # other, so its gap is 0.4 of their distance d: Newton from it lands on
    # the swapped roots, 0.3 d away, beyond the matching guard of
    # 0.45 * 0.4 d, so the read falls back to eigvals, whose matching raises
    c = random_chart_point(3, 1.0, 0)
    lamhat = c.lamhat.copy()
    lamhat[0] += 0.7 * (c.lamhat[1] - c.lamhat[0])
    lamhat[1] += 0.7 * (c.lamhat[0] - c.lamhat[1])
    ref = ChartPoint(c.lam, lamhat, c.mu, c.muhat, 1.0)
    p = from_chart(c)
    calls = _count_lapack(monkeypatch, ("eigvals",))
    with pytest.raises(BranchAmbiguityError):
        to_chart_tracked(p, ref)
    assert [name for name, _ in calls] == ["eigvals"]


def test_a_tracked_read_returns_the_nearest_branch_or_raises(monkeypatch):
    # references up to 0.6 of the spectral gap away: Newton may land on
    # another root, and then the item falls back to eigvals; a read that
    # returns holds, for each reference entry, the eigenvalue nearest to it
    rng = np.random.default_rng(5)
    outcomes = set()
    for trial in range(60):
        n = 1 + trial % 5
        c = random_chart_point(n, 1.0, 600 + trial)
        p = from_chart(c)
        ref_lamhat = c.lamhat + (rng.uniform(0.2, 0.6) * min_gap(c.lamhat)
                                 * np.exp(2j * np.pi * rng.random(n + 1)))
        ref = ChartPoint(c.lam, ref_lamhat, c.mu, c.muhat, 1.0)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_lapack(mp, ("eigvals",))
            secular, lapack = _tracked_reads(p, ref)
        fell_back = len(calls) > 1          # the eigvals path makes one call itself
        if isinstance(lapack, type):
            assert secular == lapack == BranchAmbiguityError
            continue
        nearest = c.lamhat[np.abs(ref_lamhat[:, None] - c.lamhat).argmin(axis=-1)]
        assert np.abs(secular[n:2 * n + 1] - nearest).max() < 1e-12
        assert np.abs(secular - lapack).max() < 1e-12
        outcomes.add(fell_back)
    # both routes of a read that returns were taken
    assert outcomes == {True, False}


def test_a_fallback_item_keeps_the_bits_of_its_one_item_read(monkeypatch):
    # lamhat_2 = lam_1 cancels a pole of the secular equation, so Newton
    # started there hits it and that item alone falls back to eigvals
    points = [random_chart_point(4, 1.0, 3 + i) for i in range(3)]
    lamhat = points[1].lamhat.copy()
    lamhat[2] = points[1].lam[1]
    points[1] = ChartPoint(points[1].lam, lamhat, points[1].mu, points[1].muhat, 1.0)
    pairs = [from_chart(c) for c in points]
    want = np.array([to_chart_tracked(p, c).vector() for p, c in zip(pairs, points)])
    calls = _count_lapack(monkeypatch, ("eigvals",))
    got = to_chart_stack(np.array([p.A for p in pairs]), np.array([p.B for p in pairs]), 1.0,
                         ref=np.array([c.vector() for c in points]))
    assert calls == [("eigvals", (1, 5, 5))]
    assert np.array_equal(got, want)
    assert np.abs(got - np.array([c.vector() for c in points])).max() < 1e-12


def test_a_block_that_is_not_exactly_diagonal_reads_by_eigvals(monkeypatch):
    # within the normal-form tolerance but not an arrowhead: the secular
    # equation is not its characteristic equation, so the read uses eigvals
    c = random_chart_point(4, 1.0, 21)
    p = from_chart(c)
    A = p.A.copy()
    A[0, 1] = 1e-12
    q = AugmentedPair(A, p.B, p.tau)
    secular, lapack = _tracked_reads(q, c)
    assert np.array_equal(secular, lapack)
    calls = _count_lapack(monkeypatch, ("eigvals",))
    to_chart_tracked(q, c)
    assert [name for name, _ in calls] == ["eigvals"]


def test_a_reference_of_the_wrong_size_is_a_shape_error():
    p = from_chart(random_chart_point(2, 1.0, 1))
    for ref in ([1.0, 2.0], 3.0):
        with pytest.raises(ShapeMismatchError):
            decompose(p, lamhat_ref=np.asarray(ref))


@pytest.mark.parametrize("pairs, ref_shape", [
    (3, (2,)),        # 3 pairs, 2 references
    (None, (3,)),     # 1 pair, 3 copies of its own reference
    (3, (1, 3)),      # 3 pairs, references that would add a leading axis
])
def test_a_reference_that_does_not_serve_the_pairs_is_a_shape_error(pairs, ref_shape):
    c = random_chart_point(2, 1.0, 1)
    p = from_chart(c)
    A, B = (p.A, p.B) if pairs is None else (np.array([p.A] * pairs), np.array([p.B] * pairs))
    ref = np.broadcast_to(c.vector(), ref_shape + (10,))
    with pytest.raises(ShapeMismatchError):
        to_chart_stack(A, B, 1.0, ref=ref)
    if pairs is None:
        with pytest.raises(ShapeMismatchError):
            decompose(p, lamhat_ref=ref[..., 2:5])


def test_a_normal_form_read_tests_the_form_once_and_forms_one_commutator(monkeypatch):
    c = random_chart_point(4, 1.0, 12)
    p = from_chart(c)
    counts = {"_normal_form_test": 0, "comm": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(chart_module, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(chart_module, name, counted)
    got = to_chart(p)
    assert counts == {"_normal_form_test": 1, "comm": 1}
    assert np.abs(got.vector() - c.vector()).max() < 1e-8 * max(1.0, np.abs(c.vector()).max())


def test_stacked_chart_points_are_the_one_point_draws():
    for n in (1, 2, 5, 9):
        seeds = [700 + 13 * i for i in range(7)]
        want = np.array([random_chart_point(n, 1.0, seed).vector() for seed in seeds])
        assert np.array_equal(random_chart_points(n, 1.0, seeds), want)
    with pytest.raises(ValueError):
        random_chart_points(2, 0.0, [1])


def test_a_coalesced_item_fails_the_stack_like_the_scalar_call():
    points = [random_chart_point(3, 1.0, 170 + i) for i in range(3)]
    lamhat = points[1].lamhat.copy()
    lamhat[1] = lamhat[0]
    points[1] = ChartPoint(points[1].lam, lamhat, points[1].mu, points[1].muhat, 1.0)
    with pytest.raises(DegenerateSpectrumError) as scalar:
        from_chart(points[1])
    with pytest.raises(type(scalar.value)):
        from_chart_stack(np.array([c.vector() for c in points]), 1.0)


def test_stacked_base_points_give_the_per_point_jacobians():
    for n in range(1, 6):
        points = [random_chart_point(n, 1.0, 400 + 20 * n + i) for i in range(20)]
        J = chart_jacobian_stack(np.array([c.vector() for c in points]), 1.0)
        assert J.shape == (20, 4 * n + 2, 4 * n + 2)
        assert np.array_equal(J, np.array([chart_jacobian(c) for c in points]))


def _scrambled_stack(n, count, seed):
    """count chart points and gauge-scrambled pairs (A, B) rebuilt from them."""
    points = [random_chart_point(n, 1.0, seed + i) for i in range(count)]
    pairs = [gauge_act_pair(random_gauge(n, seed + 50 + i), from_chart(c))
             for i, c in enumerate(points)]
    return points, pairs, np.array([p.A for p in pairs]), np.array([p.B for p in pairs])


def test_to_chart_stack_tracks_each_item_against_its_own_ref():
    for n in (1, 3, 5):
        points, scrambled, _, _ = _scrambled_stack(n, 6, 500 + 10 * n)
        # reversed spectra in the references: only matching puts them back
        refs = [ChartPoint(c.lam[::-1], c.lamhat[::-1], c.mu[::-1], c.muhat[::-1], 1.0)
                for c in points]
        ref = np.array([r.vector() for r in refs])
        # gauge-scrambled pairs, and the normal forms from_chart rebuilt,
        # which are read without normalizing
        for pairs in (scrambled, [from_chart(c) for c in points]):
            A, B = np.array([p.A for p in pairs]), np.array([p.B for p in pairs])
            got = to_chart_stack(A, B, 1.0, ref=ref)
            want = np.array([to_chart_tracked(p, r).vector() for p, r in zip(pairs, refs)])
            assert np.array_equal(got, want)
            assert np.abs(want - ref).max() < 1e-8


def test_one_bad_item_fails_the_stacked_kernels_like_the_scalar_call():
    # a coalesced base point of the Jacobian stack
    points = [random_chart_point(3, 1.0, 180 + i) for i in range(3)]
    lamhat = points[1].lamhat.copy()
    lamhat[1] = lamhat[0]
    points[1] = ChartPoint(points[1].lam, lamhat, points[1].mu, points[1].muhat, 1.0)
    with pytest.raises(DegenerateSpectrumError) as scalar:
        chart_jacobian(points[1])
    with pytest.raises(type(scalar.value)):
        chart_jacobian_stack(np.array([c.vector() for c in points]), 1.0)
    # an ambiguous reference in a tracked read: two reference values 1e-3
    # apart leave no trustworthy matching
    points, pairs, A, B = _scrambled_stack(3, 3, 190)
    refs = [c.vector() for c in points]
    refs[2][4] = refs[2][3] + 1e-3     # lamhat[1] next to lamhat[0]
    bad = ChartPoint.from_vector(refs[2], 1.0)
    with pytest.raises(BranchAmbiguityError) as scalar:
        to_chart_tracked(pairs[2], bad)
    with pytest.raises(type(scalar.value)):
        to_chart_stack(A, B, 1.0, ref=np.array(refs))


def test_project_to_slice_kills_the_second_corner():
    c = random_chart_point(4, 1.0, 70)
    s = project_to_slice(c)
    # only the diagonal moments move
    assert np.array_equal(s.lam, c.lam)
    assert np.array_equal(s.lamhat, c.lamhat)
    assert np.array_equal(s.mu, c.mu)
    q = from_chart(s)
    _, corner = slice_residual(q)
    assert abs(corner) < 1e-9 * pair_scale(q.A, q.B)


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
    assert abs(tr_dev) < 1e-9 * pair_scale(p.A, p.B)
    assert abs(corner) < 1e-9 * pair_scale(p.A, p.B)


def test_the_slice_functions_are_the_corners_bit_for_bit():
    # the trace mismatch tr A - tr(block) is A[n, n]; read as the corner it
    # keeps the corner's bits, where the difference of traces rounds
    for tau, seed in itertools.product((1.0, 1e8, 0.5 - 2j), range(8)):
        p = gauge_act_pair(random_gauge(4, seed), from_chart(random_chart_point(4, tau, seed)))
        got = np.array(slice_residual(p))
        assert got.tobytes() == np.array([p.A[4, 4], p.B[4, 4]]).tobytes(), (tau, seed)


@pytest.mark.parametrize("tau", [1.0, 0.5 - 2j, 1e8])
def test_the_lean_read_agrees_with_decompose(tau):
    # to_chart reads muhat = diag(g N2 ginv) from the frame as built, which
    # a diagonal rescaling leaves alone; decompose rescales the frame and
    # forms all of g N2 ginv.  They agree to rounding relative to the size
    # of N2, the matrix both read muhat from
    for n in range(1, 9):
        for seed in (40 + n, 60 + n):
            p = from_chart(random_chart_point(n, tau, seed))
            q = gauge_act_pair(random_gauge(n, seed + 50), p)
            for pair, nf in ((p, p), (q, normalize(q)[0])):
                got = to_chart(pair)
                d = decompose(nf)
                assert np.array_equal(got.lamhat, d.lamhat)
                scale = max(1.0, frob(d.N2))
                assert np.abs(got.muhat - d.muhat).max() <= 1e-12 * scale, (n, seed, tau)


@pytest.mark.parametrize("tau", [1.0, 0.5 - 2j, 1e8])
def test_each_item_of_a_lean_read_has_the_bits_of_its_one_item_call(tau):
    for n in range(1, 9):
        points = [random_chart_point(n, tau, 300 + 10 * n + i) for i in range(3)]
        nf = [from_chart(c) for c in points]
        scrambled = [gauge_act_pair(random_gauge(n, 350 + 10 * n + i), p) for i, p in enumerate(nf)]
        ref = np.array([c.vector() for c in points])
        for pairs in (nf, scrambled):
            A, B = np.array([p.A for p in pairs]), np.array([p.B for p in pairs])
            untracked = to_chart_stack(A, B, tau)
            tracked = to_chart_stack(A, B, tau, ref=ref)
            for i, p in enumerate(pairs):
                assert untracked[i].tobytes() == to_chart(p).vector().tobytes(), (n, i, tau)
                assert tracked[i].tobytes() == to_chart_tracked(p, points[i]).vector().tobytes()


def test_the_cached_level_shift_cannot_be_written():
    shift = level_shift(3, 0.5 - 2j)
    assert level_shift(3, 0.5 - 2j) is shift
    with pytest.raises(ValueError):
        shift[0, 0] = 0.0
    assert shift.tobytes() == np.diag([0.5 - 2j] * 3 + [-1.5 + 6j]).tobytes()


@pytest.mark.parametrize("tau", [np.inf, np.nan, complex(1.0, -np.inf)])
def test_the_read_kernels_refuse_a_non_finite_tau_before_any_work(monkeypatch, tau):
    # the tau rule of every container, sampler and the rebuild: a shape
    # error, raised before any eigensolver call, not a level-condition one
    p = from_chart(random_chart_point(3, 1.0, 14))
    scrambled = gauge_act_pair(random_gauge(3, 15), p)
    calls = _count_lapack(monkeypatch, ("eig", "eigvals", "inv", "svd"))
    for q in (p, scrambled):
        with pytest.raises(ShapeMismatchError):
            to_chart_stack(q.A, q.B, tau)
        with pytest.raises(ShapeMismatchError):
            to_chart_stack(q.A, q.B, tau, ref=random_chart_point(3, 1.0, 14).vector())
    with pytest.raises(ShapeMismatchError):
        chart_module.decompose_stack(p.A, p.B, tau)
    with pytest.raises(ShapeMismatchError):
        chart_module.decompose_stack(p.A[None], p.B[None], tau, lamhat_ref=np.zeros(4))
    assert calls == []


def test_the_rebuild_forms_its_spectral_products_once(monkeypatch):
    # one set of lam - lamhat differences and lam's off-diagonal products
    # serves the arrowhead and its frame: two off-diagonal products (lam
    # and lamhat) where arrowhead and arrowhead_frame took three
    c = random_chart_point(5, 1.0, 16)
    seen = []
    original = linalg_module._offdiagonal_products

    def counted(v):
        seen.append(v.shape[-1])
        return original(v)

    monkeypatch.setattr(linalg_module, "_offdiagonal_products", counted)
    from_chart(c)
    assert seen == [5, 6]
