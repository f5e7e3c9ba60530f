"""Tests for the one-parameter flows: exact forms, split composition,
commutator composition, polynomial pullbacks, and the trace witness."""

import warnings

import numpy as np
import pytest

from cmspaces import flowcalc
from cmspaces.errors import IllConditionedFitError, ShapeMismatchError, WitnessVanishesError
from cmspaces.flowcalc import (
    BRACKET_SIGN,
    bracket_element,
    bracket_flow,
    bracket_target,
    compatible_witness,
    detect_bracket_sign,
    flow_exact,
    ladder_fingerprints,
    lnd_degree,
    pair_distance,
    trotter_element,
    trotter_flow,
    trotter_target,
)
from cmspaces.chart import from_chart, random_chart_point, to_chart_tracked
from cmspaces.linalg import frob, pair_scale
from cmspaces.sl2 import GEN_E, GEN_F, GEN_H
from cmspaces.variety import AugmentedPair, augment, pair_fingerprint, random_point
from cmspaces.verify import BRACKET_STEPS, BRACKET_TIME, TROTTER_STEPS, TROTTER_TIME


def _pair(n, seed, tau=1.0):
    return augment(random_point(n, 2, tau, seed))


def test_flow_exact_closed_forms():
    p = _pair(3, 101)
    t = 0.37
    e = flow_exact("e", t, p)
    assert np.array_equal(e.A, p.A)
    assert frob(e.B - (p.B + t * p.A)) < 1e-14 * pair_scale(p.A, p.B)
    f = flow_exact("f", t, p)
    assert np.array_equal(f.B, p.B)
    assert frob(f.A - (p.A + t * p.B)) < 1e-14 * pair_scale(p.A, p.B)
    h = flow_exact("h", t, p)
    assert frob(h.A - np.exp(t) * p.A) < 1e-14 * pair_scale(p.A, p.B)
    assert frob(h.B - np.exp(-t) * p.B) < 1e-14 * pair_scale(p.A, p.B)


def test_an_unknown_flow_kind_or_observable_raises_a_typed_error():
    p = _pair(2, 103)
    with pytest.raises(ShapeMismatchError, match="unknown generator kind 'x'"):
        flow_exact("x", 0.1, p)
    with pytest.raises(ValueError, match="unknown observable 'bogus'.*trace_second_sq"):
        lnd_degree("e", "bogus", p)


def test_flows_compose_additively():
    p = _pair(2, 102)
    for kind in ("e", "f", "h"):
        q = flow_exact(kind, 0.2, flow_exact(kind, 0.3, p))
        r = flow_exact(kind, 0.5, p)
        assert pair_distance(q, r) < 1e-12 * pair_scale(p.A, p.B)
        back = flow_exact(kind, -0.5, r)
        assert pair_distance(back, p) < 1e-12 * pair_scale(p.A, p.B)


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
    assert dev < 1e-12 * pair_scale(p.A, p.B)
    # the commutator of a generator with itself flows nowhere
    assert pair_distance(bracket_flow(GEN_E, GEN_E, 0.3, 64, p), p) < 1e-12 * pair_scale(p.A, p.B)


def test_bracket_flow_converges_like_inverse_sqrt_steps():
    # at t = 0.25 the commutator-square ladder is still far from its target
    # (the error carries a sinh t factor), but it shrinks like 1/sqrt(steps)
    p = _pair(2, 105)
    target = bracket_target(GEN_E, GEN_F, 0.25, p)
    errs = np.array([
        pair_distance(bracket_flow(GEN_E, GEN_F, 0.25, m, p), target)
        for m in (64, 256, 1024)
    ]) / pair_scale(p.A, p.B)
    assert errs[0] > errs[1] > errs[2]
    rates = errs[:-1] / errs[1:]
    # each 4x step refinement should halve the error: allow a wide band
    assert np.all(rates > 1.6) and np.all(rates < 2.4)


def test_bracket_flow_is_accurate_at_short_time():
    p = _pair(2, 106)
    target = bracket_target(GEN_E, GEN_F, 0.01, p)
    err = pair_distance(bracket_flow(GEN_E, GEN_F, 0.01, 1024, p), target)
    assert err < 1e-3 * pair_scale(p.A, p.B)


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

    def power_trace(m):
        return lambda P, Q: np.linalg.matrix_power(Q, m).trace(axis1=1, axis2=2)
    # under the lower shear tr Q^m has degree m: the fit reaches degree 6,
    # and a seventh power lies above it
    assert lnd_degree("e", power_trace(3), p) == 3
    assert lnd_degree("e", power_trace(6), p) == 6
    assert lnd_degree("e", power_trace(7), p) is None


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


def _entries(g):
    return np.array([g.a, g.b, g.c, g.d])


def test_scalar_powering_matches_matrix_power():
    for gen2 in (GEN_F, GEN_H):
        for m in TROTTER_STEPS:
            s = TROTTER_TIME / m
            step = GEN_E.exp(s).compose(gen2.exp(s)).matrix()
            want = np.linalg.matrix_power(step, m).ravel()
            got = _entries(trotter_element(GEN_E, gen2, TROTTER_TIME, m))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (gen2.kind, m)
        for m in BRACKET_STEPS:
            s = float(np.sqrt(BRACKET_TIME / m))
            square = (gen2.exp(-s).compose(GEN_E.exp(-s)).compose(gen2.exp(s))
                      .compose(GEN_E.exp(s)).matrix())
            want = np.linalg.matrix_power(square, m).ravel()
            got = _entries(bracket_element(GEN_E, gen2, BRACKET_TIME, m))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (gen2.kind, m)
    for element in (trotter_element, bracket_element):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                element(GEN_E, GEN_F, 0.1, bad)
    with pytest.raises(ValueError):
        GEN_E.exp(0.1).power(0)


def test_ladder_elements_are_built_once_per_key(monkeypatch):
    from cmspaces import sl2

    built = []
    original = sl2.SL2Element.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(sl2.SL2Element, "__post_init__", counted)
    p, q = _pair(3, 131), _pair(3, 132)
    t, m = 0.0625, 16
    ladders = [
        (lambda t, r: trotter_flow(GEN_E, GEN_F, t, m, r), trotter_element, (t, m)),
        (lambda t, r: bracket_flow(GEN_E, GEN_F, t, m, r), bracket_element, (t, m)),
        (lambda t, r: trotter_target(GEN_E, GEN_F, t, r), flowcalc._exact, (t, False)),
        (lambda t, r: bracket_target(GEN_E, GEN_F, t, r), flowcalc._exact, (t, True)),
    ]
    for flow, element, key in ladders:
        flow(t, p)
        built.clear()
        got = flow(t, q)
        # a numpy scalar or a 0-d array time is the same key
        for same in (np.float64(t), np.array(t)):
            assert flow(same, q).A.tobytes() == got.A.tobytes()
        assert not built, element.__name__
        fresh = element.__wrapped__(GEN_E, GEN_F, *key)
        assert built, element.__name__     # the counter sees a build
        assert _entries(element(GEN_E, GEN_F, *key)).tobytes() == _entries(fresh).tobytes()
    for element in (trotter_element, bracket_element):
        for bad in (0, -3, 0, -3):
            with pytest.raises(ValueError):
                element(GEN_E, GEN_F, 0.1, bad)
    for _ in range(2):
        with pytest.raises(ValueError):
            bracket_element(GEN_E, GEN_F, -0.1, 4)


def test_targets_past_the_float_range_raise_typed_errors_without_warnings():
    # the targets' exponentials once let cmath's OverflowError escape, and a
    # time that is not finite warned in the array product before it raised
    p = _pair(3, 133)
    targets = [(trotter_target, GEN_E, GEN_H, 1000.0), (bracket_target, GEN_E, GEN_F, 1e6)]
    targets += [(target, GEN_E, GEN_F, t) for target in (trotter_target, bracket_target)
                for t in (np.inf, -np.inf, np.nan)]
    for target, gen1, gen2, t in targets:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatchError, match="not finite"):
                target(gen1, gen2, t, p)


def test_stacked_shear_samples_match_per_node_flows():
    p = _pair(3, 114)
    seen = {}

    def grab(P, Q):
        seen["first"], seen["second"] = np.array(P), np.array(Q)
        return (P @ Q @ Q).trace(axis1=1, axis2=2)

    observables = dict(flowcalc._OBSERVABLES, grab=grab)
    for kind in ("e", "f"):
        for count, half_width in ((8, 1.0), (6, 0.5)):
            nodes = flowcalc._chebyshev_nodes(count, half_width)
            got = {name: flowcalc._shear_samples(kind, count, half_width, p, obs)
                   for name, obs in observables.items()}
            first, second = seen["first"], seen["second"]
            for i, t in enumerate(nodes):
                q = flow_exact(kind, t, p)
                assert np.array_equal(first[i], q.A) and np.array_equal(second[i], q.B)
                for name, obs in observables.items():
                    assert got[name][i] == obs(q.A[None], q.B[None])[0], (kind, name, i)


def test_cached_fit_projector_matches_polyfit():
    rng = np.random.default_rng(115)
    for count, half_width, degrees in ((8, 1.0, range(7)), (6, 0.5, (4,))):
        nodes = flowcalc._chebyshev_nodes(count, half_width)
        samples = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        for deg in degrees:
            coeffs, resid = flowcalc._fit(count, half_width, deg, samples)
            want = np.polynomial.polynomial.polyfit(nodes, samples, deg)
            np.testing.assert_allclose(coeffs, want, rtol=0, atol=1e-12)
            fitted = np.polynomial.polynomial.polyval(nodes, want)
            assert abs(resid - np.abs(fitted - samples).max()) <= 1e-12
            V, proj = flowcalc._fit_projector(count, half_width, deg)
            assert flowcalc._fit_projector(count, half_width, deg)[1] is proj
            assert not V.flags.writeable and not proj.flags.writeable


def test_overflowing_flows_raise_instead_of_fitting():
    # entries near the top of the float range: the lower shear overflows B + t A
    p = AugmentedPair(np.diag([1e308, 2.0]), np.diag([1e308, 3.0]), 1.0)
    with pytest.raises(ShapeMismatchError):
        lnd_degree("e", "trace_second", p)
    # frob reports numpy's overflow in its plain norm; what is tested is the error
    with np.errstate(over="ignore"), pytest.raises(IllConditionedFitError):
        compatible_witness(p)
    # finite flowed pairs whose samples overflow: the squared trace word
    q = AugmentedPair(np.diag([1e200, 2.0]), np.diag([1e200, 3.0]), 1.0)
    with pytest.raises(IllConditionedFitError):
        lnd_degree("e", "trace_second_sq", q)
    assert lnd_degree("e", "trace_second", q) == 1


@pytest.mark.parametrize("bracket", [False, True])
def test_a_ladder_stack_is_the_one_pair_flows(bracket):
    # every point and rung of one ladder call, target first, against
    # pair_fingerprint of the one-pair target and flows
    t, steps = (BRACKET_TIME, BRACKET_STEPS) if bracket else (TROTTER_TIME, TROTTER_STEPS)
    flow, target = (bracket_flow, bracket_target) if bracket else (trotter_flow, trotter_target)
    for n in range(1, 5):
        for tau in (1.0, 1e8, 0.5 - 2j):
            pairs = [from_chart(random_chart_point(n, tau, 500 + 10 * n + i)) for i in range(4)]
            A, B = np.stack([p.A for p in pairs]), np.stack([p.B for p in pairs])
            fp = ladder_fingerprints(GEN_E, GEN_F, t, steps, A, B, bracket)
            assert fp.shape[:2] == (1 + len(steps), 4)
            two = ladder_fingerprints(GEN_E, GEN_F, t, steps, A.reshape(2, 2, n + 1, n + 1),
                                      B.reshape(2, 2, n + 1, n + 1), bracket)
            assert two.tobytes() == fp.tobytes()
            for j, p in enumerate(pairs):
                want = [target(GEN_E, GEN_F, t, p), *(flow(GEN_E, GEN_F, t, m, p) for m in steps)]
                for rung, q in enumerate(want):
                    assert fp[rung, j].tobytes() == pair_fingerprint(q).tobytes(), (n, j, rung)


def test_a_ladder_that_overflows_raises_as_its_flows_do():
    # the second pair's entries sit near the top of the float range, which
    # the split flow's element (entries about 1.1 and 0.5) carries past it
    p = _pair(2, 7)
    big = np.full_like(p.A, 1.5e308)
    A, B = np.stack([p.A, big]), np.stack([p.B, big])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ShapeMismatchError):
            trotter_flow(GEN_E, GEN_F, TROTTER_TIME, TROTTER_STEPS[0], AugmentedPair(A[1], B[1], 1.0))
        with pytest.raises(ShapeMismatchError, match="non-finite"):
            ladder_fingerprints(GEN_E, GEN_F, TROTTER_TIME, TROTTER_STEPS, A, B)


def test_pair_distance_of_pairs_of_two_sizes_raises_shape_mismatch():
    # numpy's broadcast ValueError used to escape
    p, q = from_chart(random_chart_point(2, 1.0, 1)), from_chart(random_chart_point(3, 1.0, 1))
    with pytest.raises(ShapeMismatchError):
        pair_distance(p, q)


def test_flows_and_targets_refuse_a_kind_string_for_a_generator():
    # a kind string used to raise AttributeError from inside the cached build
    p = from_chart(random_chart_point(2, 1.0, 1))
    calls = [
        lambda: trotter_flow("e", GEN_F, 0.5, 4, p),
        lambda: trotter_target(GEN_E, "f", 0.5, p),
        lambda: bracket_flow("e", GEN_F, 0.5, 4, p),
        lambda: bracket_target(GEN_E, ["f"], 0.5, p),
        lambda: trotter_element("e", GEN_F, 0.5, 4),
        lambda: bracket_element(GEN_E, "f", 0.5, 4),
        lambda: ladder_fingerprints("e", "f", 0.5, [1, 2], p.A, p.B),
    ]
    for call in calls:
        with pytest.raises(ShapeMismatchError, match="SL2Generator"):
            call()
