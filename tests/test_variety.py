"""Tests for the level-set data structures, seeded points, and the
quadruple-to-quiver dictionary."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmspaces.errors import NonzeroCornerError, ShapeMismatchError
from cmspaces.linalg import comm, frob
from cmspaces.variety import (
    _power_ladder,
    ALL_DICTIONARY_VARIANTS,
    LITERAL_DICTIONARY,
    AugmentedPair,
    GaugeElement,
    Representation,
    augment,
    block_commutator_residual,
    calibrate_dictionary,
    fingerprint,
    gauge_act,
    gauge_act_pair,
    level_deviation,
    level_residual,
    level_scale,
    level_shift,
    moment_map,
    on_level,
    on_shell,
    pair_fingerprint,
    pair_scale,
    project,
    quiver_moment,
    random_gauge,
    random_point,
    random_quadruple,
)


def _loop_word_traces(pa, pb, L, extra=()):
    # reference: one full product per trace, in the fingerprint word order
    values = [np.trace(P) for P in (*pa, *pb, *extra)]
    for total in range(2, L + 1):
        for i in range(1, total):
            values.append(np.trace(pa[i - 1] @ pb[total - i - 1]))
    return values


def _loop_powers(M, count):
    out, P = [], np.eye(M.shape[0], dtype=np.complex128)
    for _ in range(count):
        P = P @ M
        out.append(P)
    return out


def _loop_fingerprint(r, length=None):
    L = 2 * r.n if length is None else length
    C = r.v @ r.w
    pa, pb, pc = _loop_powers(r.A, L), _loop_powers(r.B, L), _loop_powers(C, min(L, 4))
    values = _loop_word_traces(pa, pb, L, extra=pc)
    for total in range(1, max(L - 2, 0) + 1):
        for i in range(total + 1):
            j = total - i
            left = pa[i - 1] @ pb[j - 1] if i and j else (pa[i - 1] if i else pb[j - 1])
            values.append(np.trace(left @ C))
    return np.asarray(values)


def _loop_pair_fingerprint(p, length=None):
    L = 2 * p.n if length is None else length
    return np.asarray(_loop_word_traces(_loop_powers(p.A, L), _loop_powers(p.B, L), L))


def _assert_same_words(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_representation_validates_shapes():
    with pytest.raises(ShapeMismatchError):
        Representation(np.eye(2), np.eye(3), np.ones((2, 1)), np.ones((1, 2)), 1.0)
    with pytest.raises(ShapeMismatchError):
        Representation(np.eye(2), np.eye(2), np.ones((2, 3)), np.ones((3, 2)), 1.0)


def test_augmented_pair_needs_matching_square_shapes():
    with pytest.raises(ShapeMismatchError):
        AugmentedPair(np.eye(3), np.eye(2), 1.0)


def test_moment_map_one_site_hand_case():
    # n = 1, k = 1: the commutator vanishes, so the moment map is -v w
    r = Representation(np.zeros((1, 1)), np.zeros((1, 1)),
                       np.array([[2.0]]), np.array([[3.0]]), -6.0)
    np.testing.assert_allclose(moment_map(r), [[-6.0]])
    assert on_shell(r)


def test_level_shift_values():
    T = level_shift(2, 1.0 + 0.5j)
    np.testing.assert_allclose(np.diag(T), [1.0 + 0.5j, 1.0 + 0.5j, -2.0 - 1.0j])
    assert abs(np.trace(T)) == 0.0


def test_random_point_lands_on_shell():
    for n in range(1, 7):
        for k in (1, 2):
            for seed in (1, 2, 3):
                r = random_point(n, k, 1.0, seed)
                assert level_residual(r) < 1e-12 * level_scale(r)
                assert on_shell(r, tol=1e-12)


def test_random_point_is_reproducible():
    a = random_point(4, 2, 1.0, 9)
    b = random_point(4, 2, 1.0, 9)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)
    assert np.array_equal(a.v, b.v) and np.array_equal(a.w, b.w)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_block_identity_for_arbitrary_quadruples(n, seed):
    # the commutator block forms hold off shell as well
    r = random_quadruple(n, 2, 1.0, seed)
    assert block_commutator_residual(r) < 1e-12 * level_scale(r)


def test_augment_project_is_a_bitwise_round_trip():
    r = random_point(3, 2, 1.0, 21)
    back = project(augment(r))
    assert np.array_equal(back.A, r.A) and np.array_equal(back.B, r.B)
    assert np.array_equal(back.v, r.v) and np.array_equal(back.w, r.w)
    assert back.tau == r.tau


def test_augment_rejects_one_column():
    with pytest.raises(ShapeMismatchError):
        augment(random_point(3, 1, 1.0, 5))


def test_project_rejects_nonzero_corner():
    p = augment(random_point(2, 2, 1.0, 7))
    A = p.A.copy()
    A[2, 2] = 0.5
    with pytest.raises(NonzeroCornerError):
        project(AugmentedPair(A, p.B, p.tau))


def test_on_level_and_deviation():
    p = augment(random_point(3, 2, 1.0, 31))
    assert on_level(p, tol=1e-12)
    assert level_deviation(p) < 1e-12 * pair_scale(p)
    # a block-entry perturbation leaves the allowed border support
    A = p.A.copy()
    A[0, 1] += 0.1
    q = AugmentedPair(A, p.B, p.tau)
    assert not on_level(q, tol=1e-6)


def test_augmented_commutator_corner_value():
    # [A, B] has zero trace, so the corner of the defect forces -n tau
    r = random_point(3, 2, 2.0, 41)
    p = augment(r)
    K = comm(p.A, p.B)
    assert abs(K[3, 3] - (-3 * 2.0)) < 1e-12 * pair_scale(p)


def test_fingerprints_are_gauge_invariant():
    r = random_point(4, 2, 1.0, 51)
    g = random_gauge(4, 52)
    f0 = fingerprint(r)
    f1 = fingerprint(gauge_act(g, r))
    assert np.abs(f0 - f1).max() < 1e-9 * max(1.0, np.abs(f0).max())

    p = augment(r)
    q = gauge_act_pair(g, p)
    pf0 = pair_fingerprint(p)
    pf1 = pair_fingerprint(q)
    assert np.abs(pf0 - pf1).max() < 1e-9 * max(1.0, np.abs(pf0).max())
    assert on_level(q, tol=1e-8)


def test_fingerprints_match_the_word_loop():
    # same words in the same order as one trace per product, for every length
    for n in range(1, 9):
        r = random_point(n, 2, 1.0, 70 + n)
        for length in (1, 2, 3, None):
            _assert_same_words(fingerprint(r, length), _loop_fingerprint(r, length))
            p = augment(r)
            _assert_same_words(pair_fingerprint(p, length), _loop_pair_fingerprint(p, length))
    q = gauge_act_pair(random_gauge(4, 52), augment(random_point(4, 2, 1.0, 51)))
    _assert_same_words(pair_fingerprint(q), _loop_pair_fingerprint(q))


@pytest.mark.parametrize("count", [1, 2, 3, 5, 16])
def test_power_ladder_matches_sequential_powers(count):
    rng = np.random.default_rng(count)
    M = (rng.standard_normal((2, 5, 5)) + 1j * rng.standard_normal((2, 5, 5))) / 3.0
    P = _power_ladder(M, count)
    assert P.shape == (count + 1, 2, 5, 5)
    assert np.array_equal(P[0], np.broadcast_to(np.eye(5), (2, 5, 5)))
    for item in range(2):
        for k, want in enumerate(_loop_powers(M[item], count), start=1):
            assert frob(P[k, item] - want) <= 1e-13 * max(1.0, frob(want))


def test_fingerprint_lengths_are_checked():
    r = random_point(3, 2, 1.0, 12)
    p = augment(r)
    for bad in (0, -2):
        with pytest.raises(ShapeMismatchError):
            fingerprint(r, bad)
        with pytest.raises(ShapeMismatchError):
            pair_fingerprint(p, bad)
    # length 1: tr A and tr B, plus tr C for a quadruple
    assert pair_fingerprint(p, 1).shape == (2,)
    assert fingerprint(r, 1).shape == (3,)


def test_gauge_element_rejects_singular():
    from cmspaces.errors import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        GaugeElement(np.zeros((2, 2)))


def test_quiver_moment_matches_direct_formula():
    rng = np.random.default_rng(61)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    X1, X2 = rng.standard_normal(3), rng.standard_normal(3)
    Y1, Y2 = rng.standard_normal(3), rng.standard_normal(3)
    nu1, nu2 = quiver_moment(A, B, X1, X2, Y1, Y2)
    np.testing.assert_allclose(
        nu1, A @ B - B @ A + np.outer(X1, Y2) - np.outer(X2, Y1), atol=1e-12
    )
    assert abs(nu2 - (Y1 @ X2 - Y2 @ X1)) < 1e-12


def test_dictionary_family_size_and_literal_membership():
    assert len(ALL_DICTIONARY_VARIANTS) == 16
    assert LITERAL_DICTIONARY in ALL_DICTIONARY_VARIANTS
    assert LITERAL_DICTIONARY.label() == "X=(-v1,+v2) Y=(+w1,+w2)"


def test_dictionary_calibration_is_point_independent():
    # frozen outcome: exactly two sign/swap variants land in the target
    # fiber, and the literal printed dictionary is not one of them
    want = {"X=(-v1,+v2) Y=(+w2,+w1)", "X=(-v2,+v1) Y=(+w1,+w2)"}
    for seed in range(8):
        n = 1 + seed % 4
        rep = calibrate_dictionary(random_point(n, 2, 1.0, 100 + seed))
        assert {v.label() for v in rep.admissible} == want
        assert rep.literal_admissible is False


def test_dictionary_calibration_requires_two_columns():
    with pytest.raises(ShapeMismatchError):
        calibrate_dictionary(random_point(2, 1, 1.0, 3))
