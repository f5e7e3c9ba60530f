"""Tests for the one-parameter flows: exact forms, split composition,
commutator composition, polynomial pullbacks, and the trace witness."""

import numpy as np
import pytest

from cmspaces.errors import WitnessVanishesError
from cmspaces.flowcalc import (
    BRACKET_SIGN,
    bracket_flow,
    bracket_target,
    compatible_witness,
    detect_bracket_sign,
    flow_exact,
    lnd_degree,
    pair_distance,
    trotter_flow,
    trotter_target,
)
from cmspaces.chart import from_chart, random_chart_point, to_chart_tracked
from cmspaces.linalg import frob
from cmspaces.sl2 import GEN_E, GEN_F, GEN_H
from cmspaces.variety import AugmentedPair, augment, pair_scale, random_point


def _pair(n, seed, tau=1.0):
    return augment(random_point(n, 2, tau, seed))


def test_flow_exact_closed_forms():
    p = _pair(3, 101)
    t = 0.37
    e = flow_exact("e", t, p)
    assert np.array_equal(e.A, p.A)
    assert frob(e.B - (p.B + t * p.A)) < 1e-14 * pair_scale(p)
    f = flow_exact("f", t, p)
    assert np.array_equal(f.B, p.B)
    assert frob(f.A - (p.A + t * p.B)) < 1e-14 * pair_scale(p)
    h = flow_exact("h", t, p)
    assert frob(h.A - np.exp(t) * p.A) < 1e-14 * pair_scale(p)
    assert frob(h.B - np.exp(-t) * p.B) < 1e-14 * pair_scale(p)


def test_flows_compose_additively():
    p = _pair(2, 102)
    for kind in ("e", "f", "h"):
        q = flow_exact(kind, 0.2, flow_exact(kind, 0.3, p))
        r = flow_exact(kind, 0.5, p)
        assert pair_distance(q, r) < 1e-12 * pair_scale(p)
        back = flow_exact(kind, -0.5, r)
        assert pair_distance(back, p) < 1e-12 * pair_scale(p)


def test_trotter_error_shrinks_at_first_order():
    p = _pair(2, 103)
    target = trotter_target(GEN_E, GEN_H, 0.5, p)
    errs = [
        pair_distance(trotter_flow(GEN_E, GEN_H, 0.5, m, p), target)
        for m in (16, 64, 256)
    ]
    assert errs[0] > errs[1] > errs[2]
    # least-squares slope of log(err) against log(steps) is near -1
    slope = np.polyfit(np.log([16, 64, 256]), np.log(errs), 1)[0]
    assert 0.7 <= -slope <= 1.3


def test_trotter_with_equal_generators_is_exact():
    p = _pair(2, 104)
    dev = pair_distance(
        trotter_flow(GEN_E, GEN_E, 0.3, 8, p),
        trotter_target(GEN_E, GEN_E, 0.3, p),
    )
    assert dev < 1e-12 * pair_scale(p)
    # the commutator of a generator with itself flows nowhere
    assert pair_distance(bracket_flow(GEN_E, GEN_E, 0.3, 64, p), p) < 1e-12 * pair_scale(p)


def test_bracket_flow_converges_like_inverse_sqrt_steps():
    # at t = 0.25 the commutator-square ladder is still far from its target
    # (the error carries a sinh t factor), but it shrinks like 1/sqrt(steps)
    p = _pair(2, 105)
    target = bracket_target(GEN_E, GEN_F, 0.25, p)
    errs = np.array([
        pair_distance(bracket_flow(GEN_E, GEN_F, 0.25, m, p), target)
        for m in (64, 256, 1024)
    ]) / pair_scale(p)
    assert errs[0] > errs[1] > errs[2]
    rates = errs[:-1] / errs[1:]
    # each 4x step refinement should halve the error: allow a wide band
    assert np.all(rates > 1.6) and np.all(rates < 2.4)


def test_bracket_flow_is_accurate_at_short_time():
    p = _pair(2, 106)
    target = bracket_target(GEN_E, GEN_F, 0.01, p)
    err = pair_distance(bracket_flow(GEN_E, GEN_F, 0.01, 1024, p), target)
    assert err < 1e-3 * pair_scale(p)


def test_bracket_lands_on_the_reversed_commutator():
    assert BRACKET_SIGN == -1
    for seed in (107, 108, 109):
        p = _pair(2, seed)
        assert detect_bracket_sign(0.2, 256, p) == 1


def test_bracket_rejects_negative_time():
    p = _pair(2, 110)
    with pytest.raises(ValueError):
        bracket_flow(GEN_E, GEN_F, -0.1, 64, p)


def test_shear_pullback_degrees():
    p = _pair(3, 111)
    # second trace: fixed by the upper shear, linear along the lower shear
    assert lnd_degree("f", "trace_second", p) == 0
    assert lnd_degree("e", "trace_second", p) == 1
    # first trace: the mirror statement
    assert lnd_degree("e", "trace_first", p) == 0
    assert lnd_degree("f", "trace_first", p) == 1
    # squared trace picks up the quadratic term
    assert lnd_degree("e", "trace_second_sq", p) == 2
    with pytest.raises(ValueError):
        lnd_degree("h", "trace_second", p)


def test_degree_cap_reports_none():
    p = _pair(2, 112)
    obs = lambda q: complex(np.trace(q.B @ q.B @ q.B))  # noqa: E731
    # under the lower shear the cubic trace word has degree three, which
    # an intentionally low cap cannot fit
    assert lnd_degree("e", obs, p, d_max=2) is None
    assert lnd_degree("e", obs, p, d_max=4) == 3


def test_witness_identities_hold_at_seeded_points():
    for seed in range(6):
        n = 1 + seed % 4
        p = _pair(n, 120 + seed)
        if abs(np.trace(p.A)) <= 0.1:
            continue
        rep = compatible_witness(p)
        assert rep.residual < 1e-10
        assert abs(rep.lower_shear_value - np.trace(p.A)) < 1e-10 * rep.scale


def test_witness_needs_a_nonvanishing_trace():
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    B = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)
    with pytest.raises(WitnessVanishesError):
        compatible_witness(AugmentedPair(A, B, 1.0))


def test_flow_in_chart_matches_the_pair_flow():
    c = random_chart_point(3, 1.0, 113)
    moved = to_chart_tracked(flow_exact("e", 0.05, from_chart(c)), c)
    # the lower shear moves only the diagonal moments at first order
    dm = np.abs(moved.mu - c.mu).max()
    assert dm < 0.05 * 0.05 * 10 * max(1.0, np.abs(c.vector()).max())
