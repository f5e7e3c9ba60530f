"""The chart rebuild against its extended-precision reference (tests/_reference.py)."""

import numpy as np
import pytest

from _reference import (
    LONG,
    LONG_EPS,
    SKIP_REASON,
    frame_long,
    gap_term,
    gap_term_through_shift,
    level_deviation,
    reference_pair,
    relative_error,
    unpack_long,
)
from cmspaces.chart import (
    decompose_stack,
    from_chart_stack,
    random_chart_points,
    unpack,
)
from cmspaces.linalg import arrowhead_frame

pytestmark = pytest.mark.skipif(not LONG_EPS < 1e-18, reason=SKIP_REASON)

EPS = float(np.finfo(np.float64).eps)
SIZES = range(1, 9)
LEVELS = (1.0, 0.5 - 2j, 1e8)
SEEDS = range(20)


def _coalescing(delta: float) -> np.ndarray:
    """random_chart_point(4, 1, s), s = 3..10, packed, with lamhat[1] moved to lamhat[0] + delta."""
    V = random_chart_points(4, 1.0, range(3, 11))
    V[:, 5] = V[:, 4] + delta
    return V


@pytest.mark.parametrize("tau", LEVELS)
def test_reference_gap_term_matches_its_conjugated_level_shift(tau):
    # the helper's own check of the identity the rebuild relies on: S
    # formed through P = g shift g^-1 is the closed form within
    # longdouble rounding (at most 59 longdouble eps measured)
    for n in SIZES:
        lam, lamhat, _, _ = unpack_long(random_chart_points(n, tau, SEEDS))
        g, ginv = frame_long(lam, lamhat)
        S = gap_term(lamhat, tau)
        err = np.abs(gap_term_through_shift(g, ginv, lamhat, tau) - S).max(axis=(-2, -1))
        assert (err <= 256 * LONG_EPS * np.maximum(1, np.abs(S).max(axis=(-2, -1)))).all(), n


@pytest.mark.parametrize("tau", LEVELS)
def test_reference_pair_meets_the_level_condition(tau):
    # at most 4 longdouble eps measured
    for n in SIZES:
        V = random_chart_points(n, tau, SEEDS)
        A, B = reference_pair(V, tau)
        assert (level_deviation(A, B, tau) <= 64 * LONG_EPS).all(), n
        lam, lamhat, _, _ = unpack_long(V)
        g, ginv = frame_long(lam, lamhat)
        R = g @ A @ ginv
        R[..., np.arange(n + 1), np.arange(n + 1)] -= lamhat
        assert (relative_error(R, 0, A) <= 1e3 * LONG_EPS).all(), n


@pytest.mark.parametrize("tau", LEVELS)
def test_from_chart_is_within_a_few_eps_of_the_reference(tau):
    # relative to max(1, max |B|): at most 21 eps measured over these
    # points, where S formed through the conjugated level shift reached 86
    for n in SIZES:
        V = random_chart_points(n, tau, SEEDS)
        A, B = from_chart_stack(V, tau)
        A_ref, B_ref = reference_pair(V, tau)
        assert (relative_error(A, A_ref) <= 8 * EPS).all(), n
        assert (relative_error(B, B_ref) <= 64 * EPS).all(), n


@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_from_chart_near_coalescing_lamhat_is_within_1e_14_of_the_reference(delta):
    # 5.4e-16 and 4.5e-16 measured; S formed through the conjugated level
    # shift was 1.7e-13 and 1.0e-12 from the reference here
    V = _coalescing(delta)
    _, B = from_chart_stack(V, 1.0)
    assert (relative_error(B, reference_pair(V, 1.0)[1]) <= 1e-14).all()


@pytest.mark.parametrize("tau", LEVELS)
def test_the_read_sees_the_gap_term_in_the_built_frame(tau):
    # S read off a rebuilt pair, in the closed-form frame of its spectra,
    # is tau / (lamhat_k - lamhat_j): at most 1.6e-14 of max(1, max |B|)
    # measured
    for n in SIZES:
        V = random_chart_points(n, tau, SEEDS)
        A, B = from_chart_stack(V, tau)
        lam, lamhat, _, _ = unpack(V)
        d = decompose_stack(A, B, tau, lamhat_ref=lamhat)
        g, ginv = arrowhead_frame(lam, d.lamhat)
        S = g @ d.N2 @ ginv
        S[..., np.arange(n + 1), np.arange(n + 1)] = 0.0
        err = relative_error(S, gap_term(d.lamhat.astype(LONG), tau), np.abs(B))
        assert (err <= 1e-13).all(), n
