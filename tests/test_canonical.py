"""Tests for regularity predicates and the bordered normal form."""

import numpy as np
import pytest

from cmspaces import linalg, variety
from cmspaces.canonical import (
    RegularityReport,
    conjugation_operator,
    normal_form,
    normalize,
    orbit_dimension,
    regularity_report,
)
from cmspaces.errors import (
    DegenerateSpectrumError,
    NonConvergentError,
    ShapeMismatchError,
    ZeroRowEntryError,
)
from cmspaces.linalg import eig, frob
from cmspaces.variety import (
    AugmentedPair,
    augment,
    embed,
    gauge_act_pair,
    on_level,
    pair_fingerprint,
    random_gauge,
    random_point,
)


def _pair(n, seed, tau=1.0):
    return augment(random_point(n, 2, tau, seed))


def _loop_conjugation_operator(M):
    # reference: one elementary matrix of the block algebra per column
    n = M.shape[0] - 1
    cols = np.empty(((n + 1) ** 2, n * n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            X = np.zeros((n + 1, n + 1), dtype=np.complex128)
            X[i, j] = 1.0
            cols[:, i * n + j] = (X @ M - M @ X).ravel()
    return cols


def _bordered(n, seed, zero_x0=False, zero_y0=False):
    """Gauge-scrambled pair whose eigenbasis border has chosen zero entries."""
    rng = np.random.default_rng(seed)
    A = np.diag(np.append(np.arange(n) + 1j * rng.uniform(-1, 1, n), 0.3))
    A[:n, n], A[n, :n] = rng.uniform(1, 2, n), rng.uniform(1, 2, n)
    if zero_x0:
        A[0, n] = 0.0
    if zero_y0:
        A[n, 0] = 0.0
    B = rng.standard_normal((n + 1, n + 1))
    return gauge_act_pair(random_gauge(n, seed + 1), AugmentedPair(A, B, 1.0))


def test_eigenbasis_criterion_matches_the_certificates():
    # orbit_dim agrees with the orbit SVD, and the report's in_regular_locus
    # holds exactly when the unit-row form exists.  A zero (x'_0, y'_0)
    # leaves a one-dimensional stabilizer; a zero y'_0 alone keeps the
    # orbit full but lets a padded eigenvector survive.
    cases = [(_pair(n, 90 + n), n * n, True) for n in range(1, 7)]
    for n in range(1, 6):
        cases += [(_bordered(n, 40 + n), n * n, True),
                  (_bordered(n, 40 + n, zero_x0=True, zero_y0=True), n * n - 1, False),
                  (_bordered(n, 40 + n, zero_y0=True), n * n, False)]
    for p, dim, regular in cases:
        rep = regularity_report(p)
        assert rep.orbit_dim == orbit_dimension(p.A) == dim
        try:
            normalize(p)
            normal_form_exists = True
        except ZeroRowEntryError:
            normal_form_exists = False
        assert rep.in_regular_locus == normal_form_exists == regular


def test_regularity_predicates_make_no_svd_on_a_simple_block(monkeypatch):
    p = _pair(6, 95)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    rep = regularity_report(p)
    assert rep.orbit_dim == 36 and rep.in_regular_locus
    assert calls == []


def test_conjugation_operator_matches_the_elementary_loop():
    for n in range(1, 6):
        p = _pair(n, 60 + n)
        assert np.array_equal(conjugation_operator(p.A), _loop_conjugation_operator(p.A))


def _kron_conjugation_operator(M):
    # reference: the Kronecker form of the docstring, restricted to the block columns
    m = M.shape[0]
    eye = np.eye(m, dtype=np.complex128)
    block_cols = (np.arange(m - 1)[:, None] * m + np.arange(m - 1)).ravel()
    return (np.kron(eye, M.T) - np.kron(M, eye))[:, block_cols]


def test_stacked_conjugation_operators_and_orbit_dimensions_are_the_one_matrix_calls():
    for n in range(1, 6):
        M = np.stack([_pair(n, 300 + 10 * n + i).A for i in range(6)])
        M[2, 0, n] = M[2, n, 0] = 0.0     # the border of a diagonal entry: a stabilizer
        ops = conjugation_operator(M.reshape(2, 3, n + 1, n + 1))
        assert ops.shape == (2, 3, (n + 1) ** 2, n * n)
        dims = orbit_dimension(M)
        assert dims.shape == (6,) and dims[0] == n * n
        for i, one in enumerate(M):
            op = ops.reshape(6, (n + 1) ** 2, n * n)[i]
            assert op.tobytes() == conjugation_operator(one).tobytes()
            assert np.array_equal(op, _kron_conjugation_operator(one))
            assert np.array_equal(op, _loop_conjugation_operator(one))
            assert dims[i] == orbit_dimension(one) == orbit_dimension(AugmentedPair(one, one, 1.0))
        assert dims[2] < n * n


def test_conjugation_operator_kernel_is_block_centralizer():
    # block basechanges act on a 3 x 3 matrix through diag(xi, 0); for a
    # diagonal target the kernel is the 2-dim diagonal algebra
    M = np.diag([1.0, 2.0, 4.0])
    L = conjugation_operator(M)
    assert L.shape == (9, 4)
    s = np.linalg.svd(L, compute_uv=False)
    assert np.sum(s < 1e-12) == 2


def test_orbit_dimension_values():
    # a diagonal matrix keeps its diagonal centralizer: orbit n^2 - n
    assert orbit_dimension(np.diag([1.0, 2.0, 3.0])) == 2
    assert orbit_dimension(np.eye(3)) == 0
    # a full border breaks the centralizer completely
    M = np.array([[1.0, 0.0, 1.0],
                  [0.0, 2.0, 1.0],
                  [1.0, 1.0, 0.0]])
    assert orbit_dimension(M) == 4


def test_seeded_pairs_sit_in_the_regular_locus():
    for seed in range(6):
        n = 1 + seed % 5
        p = _pair(n, 70 + seed)
        rep = regularity_report(p)
        assert rep.in_regular_locus
        assert isinstance(rep, RegularityReport)
        assert rep.block_regular_semisimple
        assert rep.full_regular_semisimple
        assert rep.orbit_dim == n * n
        assert rep.min_gap > 0.0


def test_a_failing_eigensolver_in_regularity_report_is_a_package_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NonConvergentError):
        regularity_report(_pair(3, 71))


def test_normalize_produces_the_stated_shape():
    p = _pair(4, 80)
    nf, gauge = normalize(p)
    n = p.n
    block = nf.A[:n, :n]
    # exact after snapping
    assert np.array_equal(block, np.diag(np.diag(block)))
    assert np.array_equal(nf.A[n, :n], np.ones(n))
    lam = np.diag(block)
    order = np.lexsort((lam.imag, lam.real))
    assert np.array_equal(order, np.arange(n))
    # the returned gauge is the certificate
    q = gauge_act_pair(gauge, p)
    assert frob(q.A - nf.A) + frob(q.B - nf.B) < 1e-9 * max(1.0, frob(p.A) * frob(p.B))


def test_normalize_checks_its_gauge_once_and_holds_its_inverse(monkeypatch):
    # one eigendecomposition of the block (with its inverse inside
    # linalg.eig); the gauge normal_form checked against its exact inverse
    # is not checked again by an SVD, and the element holds that inverse
    p = _pair(5, 83)
    calls = []
    for name in ("eig", "inv", "svd"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    nf, gauge = normalize(p)
    assert calls == ["eig", "inv"]
    assert frob(gauge.g @ gauge.ginv - np.eye(5)) < 1e-9 * frob(gauge.g) * frob(gauge.ginv)


def test_normalize_is_constant_on_orbits():
    p = _pair(3, 81)
    g = random_gauge(3, 82)
    nf1, _ = normalize(p)
    nf2, _ = normalize(gauge_act_pair(g, p))
    scale = max(1.0, frob(nf1.A), frob(nf1.B))
    assert frob(nf1.A - nf2.A) < 1e-8 * scale
    assert frob(nf1.B - nf2.B) < 1e-8 * scale


def test_normalize_is_idempotent():
    p = _pair(3, 83)
    nf, _ = normalize(p)
    again, gauge = normalize(nf)
    assert frob(again.A - nf.A) + frob(again.B - nf.B) < 1e-12 * max(1.0, frob(nf.A))
    assert frob(gauge.g - np.eye(3)) < 1e-9


def test_normalize_keeps_the_level():
    p = _pair(4, 84)
    nf, _ = normalize(p)
    assert on_level(nf, tol=1e-9)
    f0, f1 = pair_fingerprint(p), pair_fingerprint(nf)
    assert np.abs(f0 - f1).max() < 1e-8 * max(1.0, np.abs(f0).max())


def test_normalize_rejects_degenerate_block():
    A = np.zeros((3, 3), dtype=complex)
    A[:2, :2] = np.eye(2)  # repeated block eigenvalue
    A[2, :2] = 1.0
    p = AugmentedPair(A, np.eye(3), 1.0)
    with pytest.raises(DegenerateSpectrumError):
        normalize(p)


def test_normalize_rejects_vanishing_row_entry():
    # block already diagonal, border row with a hard zero
    A = np.array([[1.0, 0.0, 1.0],
                  [0.0, 2.0, 1.0],
                  [0.0, 1.0, 0.0]], dtype=complex)
    p = AugmentedPair(A, np.eye(3), 1.0)
    with pytest.raises(ZeroRowEntryError):
        normalize(p)


def _dense_normal_form(A, B, G, Gi):
    """The conjugation by diag(G, 1) as dense products, with the entries it guarantees snapped."""
    n = A.shape[-1] - 1
    E, Ei = embed(G), embed(Gi)
    Ah, Bh = E @ A @ Ei, E @ B @ Ei
    lam = Ah[..., np.arange(n), np.arange(n)].copy()
    Ah[..., :n, :n] = 0.0
    Ah[..., np.arange(n), np.arange(n)] = lam
    Ah[..., n, :n] = 1.0
    return Ah, Bh


def _phased_gauge(A):
    """normal_form's gauge from eig's phase-fixed frame: G = diag(y') g, y' = r g^-1."""
    n = A.shape[-1] - 1
    _, g, ginv = eig(A[..., :n, :n])
    y = (A[..., n:, :n] @ ginv)[..., 0, :]
    return y[..., :, None] * g, ginv / y[..., None, :]


_EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("tau", [1.0, 0.5 - 2j, 1e8])
def test_the_blockwise_normal_form_is_the_dense_conjugation(tau):
    # within 16 eps of each product's scale: ||G|| ||A|| for Ah, whose
    # block and row are exact, ||G|| ||B|| ||G^-1|| for Bh.  Without eig's
    # phase fix the gauge is the phased one within 16 eps ||G|| times its
    # condition ||G|| ||G^-1||, the rounding of the two inverses
    for n in range(1, 9):
        for seed in range(3):
            p = gauge_act_pair(random_gauge(n, seed + 40), _pair(n, 300 + seed, tau))
            Ah, Bh, G, Gi = normal_form(p.A, p.B)
            dense_A, dense_B = _dense_normal_form(p.A, p.B, G, Gi)
            nG, nGi = frob(G), frob(Gi)
            assert frob(Ah - dense_A) <= 16 * _EPS * nG * frob(p.A)
            assert frob(Bh - dense_B) <= 16 * _EPS * nG * frob(p.B) * nGi
            assert np.array_equal(Ah[n, :n], np.ones(n))
            assert Ah[n, n] == p.A[n, n] and Bh[n, n] == p.B[n, n]
            G_ref, Gi_ref = _phased_gauge(p.A)
            assert frob(G - G_ref) <= 16 * _EPS * nG * nG * nGi
            assert frob(Gi - Gi_ref) <= 16 * _EPS * nGi * nG * nGi


@pytest.mark.parametrize("tau", [1.0, 0.5 - 2j, 1e8])
def test_each_item_of_a_stacked_normal_form_has_the_bits_of_its_one_item_call(tau):
    for n in (1, 3, 8):
        pairs = [gauge_act_pair(random_gauge(n, s + 50), _pair(n, 310 + s, tau)) for s in range(4)]
        A, B = np.stack([q.A for q in pairs]), np.stack([q.B for q in pairs])
        stacked = normal_form(A, B)
        dense_A, dense_B = _dense_normal_form(A, B, *stacked[2:])
        for i, q in enumerate(pairs):
            one = normal_form(q.A, q.B)
            assert all(np.array_equal(x[i], y) for x, y in zip(stacked, one))
        nG = frob(stacked[2])
        assert (frob(stacked[0] - dense_A) <= 16 * _EPS * nG * frob(A)).all()
        assert (frob(stacked[1] - dense_B) <= 16 * _EPS * nG * frob(B) * frob(stacked[3])).all()


def test_the_normal_form_neither_embeds_nor_phases_its_gauge(monkeypatch):
    p = gauge_act_pair(random_gauge(4, 60), _pair(4, 320))
    calls = []
    for owner, name in ((linalg, "_normalize_columns"), (variety, "embed")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    normal_form(p.A, p.B)
    assert calls == []
    eig(p.A)     # eig keeps its phase fix
    assert calls == ["_normalize_columns"]


def test_a_normal_form_of_mismatched_shapes_is_a_shape_error():
    # the blockwise build would otherwise accept a second matrix of another size
    A = _pair(3, 330).A
    for a, b in ((A, A[:3, :3]), (A, A[:, :3]), (A[:, :3], A[:, :3]), (A[:1, :1], A[:1, :1]),
                 (np.stack([A, A]), A)):
        with pytest.raises(ShapeMismatchError):
            normal_form(a, b)
