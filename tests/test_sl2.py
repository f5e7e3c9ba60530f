"""Tests for the two-by-two group layer: elements, exponentials, the action
on quadruples and pairs, and the induced chart fields."""

import cmath
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cmspaces.errors import CMSpacesError, NotStronglySemisimpleError, ShapeMismatchError, ZeroPairError
from cmspaces.linalg import arrowhead_frame, frob, min_gap, pair_scale
from cmspaces.sl2 import (
    GEN_E,
    GEN_F,
    GEN_H,
    ChartTangent,
    SL2Element,
    act_components,
    act_components_stack,
    act_pair,
    act_pair_stack,
    analytic_field,
    coefficients,
    find_independence_point,
    fixed_point_probe_stack,
    independence_rank,
    numeric_field,
    random_sl2,
    random_sl2s,
    sl2_exp,
    slice_tangency,
)
from cmspaces.chart import (
    ChartPoint,
    from_chart,
    random_chart_point,
    slice_residual,
    to_chart,
    to_chart_stack,
    to_chart_tracked,
)
from cmspaces.variety import (
    Representation,
    augment,
    level_residual,
    pair_moment,
    random_point,
    random_points,
)


def test_stacked_sl2_elements_keep_their_bits():
    # the per-seed draws they replace: six uniforms from default_rng, and
    # d in Python complex arithmetic, which numpy's does not round alike
    seeds = range(2000)
    for seed, g in zip(seeds, random_sl2s(seeds), strict=True):
        rng = np.random.default_rng(seed)

        def draw():
            return complex(rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))

        a = draw() + 1.5
        b, c = draw(), draw()
        want = (a, b, c, (1.0 + b * c) / a)
        assert [x.hex() for z in (g.a, g.b, g.c, g.d) for x in (z.real, z.imag)] == \
            [x.hex() for z in want for x in (z.real, z.imag)], seed
    assert random_sl2(1999) == g and random_sl2s([]) == []


def test_a_chart_tangent_takes_one_vector_of_its_base_size():
    # an n = 1 tangent at an n = 3 base, or a stack, used to pass and let
    # numpy's broadcast error escape from s_components
    base = random_chart_point(3, 1.0, 4)
    for d in (random_chart_point(1, 1.0, 3).vector(), np.stack([base.vector()] * 2),
              base.vector()[:-1]):
        with pytest.raises(ShapeMismatchError):
            ChartTangent.from_vector(base, d)
    t = ChartTangent.from_vector(base, base.vector())
    assert t.s_components()[1] == complex(np.sum(base.lamhat))


def test_sl2_element_rejects_bad_determinant():
    with pytest.raises(ShapeMismatchError):
        SL2Element(2.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("entries", [(np.nan, 0.0, 0.0, 1.0), (np.inf, 0.0, 0.0, 0.0),
                                     (1.0, 0.0, np.inf, 1.0), (1.0, np.nan, 0.0, 1.0)])
def test_sl2_element_rejects_a_non_finite_element(entries):
    # the determinant test once read False for NaN and let such an element through
    with pytest.raises(ShapeMismatchError):
        SL2Element(*entries)


def test_generator_exponentials_are_finite_or_raise_typed():
    for t in (np.inf, -np.inf, np.nan):
        for gen in (GEN_E, GEN_F, GEN_H):
            with pytest.raises(ShapeMismatchError):
                gen.exp(t)
    # cmath.exp overflows past t = 709.78 and let OverflowError escape
    for t in (800.0, -800.0, 1e308, -1e308):
        with pytest.raises(ShapeMismatchError):
            GEN_H.exp(t)
    # finite elements keep their bits
    g = GEN_H.exp(700.0)
    assert (g.a, g.b, g.c, g.d) == (cmath.exp(700.0), 0.0, 0.0, cmath.exp(-700.0))
    g = SL2Element(2.0, 3.0 + 2j, 1.0, 2.0 + 1j)
    assert (g.a, g.b, g.c, g.d) == (2.0, 3.0 + 2j, 1.0, 2.0 + 1j)


def test_sl2_compose_and_inverse():
    g = random_sl2(3)
    h = random_sl2(4)
    gi = SL2Element(g.d, -g.b, -g.c, g.a)
    np.testing.assert_allclose(g.compose(gi).matrix(), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(
        g.compose(h).matrix(), g.matrix() @ h.matrix(), atol=1e-12
    )


def test_generator_exponentials_closed_forms():
    t = 0.7
    np.testing.assert_allclose(GEN_E.exp(t).matrix(), [[1, 0], [t, 1]], atol=1e-15)
    np.testing.assert_allclose(GEN_F.exp(t).matrix(), [[1, t], [0, 1]], atol=1e-15)
    np.testing.assert_allclose(
        GEN_H.exp(t).matrix(), np.diag([np.exp(t), np.exp(-t)]), atol=1e-15
    )


def test_sl2_exp_matches_scipy_expm():
    rng = np.random.default_rng(14)
    for _ in range(20):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        X = X - 0.5 * np.trace(X) * np.eye(2)  # traceless
        want = scipy.linalg.expm(X)
        got = sl2_exp(X).matrix()
        np.testing.assert_allclose(got, want, atol=1e-12 * max(1.0, frob(want)))
    # tiny arguments go through the series branch
    X = np.array([[1e-9, 2e-9], [0.0, -1e-9]])
    np.testing.assert_allclose(sl2_exp(X).matrix(), scipy.linalg.expm(X), atol=1e-15)


def test_sl2_exp_refuses_a_generator_with_a_trace_or_a_non_finite_entry():
    with pytest.raises(ShapeMismatchError, match="traceless"):
        sl2_exp(np.array([[1.0, 0.0], [0.0, 1e-3]]))
    # a NaN entry has no scale to compare the trace with, traceless or not
    for X in ([[1.0, np.nan], [0.0, 0.0]], [[0.0, np.nan], [0.0, 0.0]], [[0.0, np.inf], [1.0, 0.0]]):
        with pytest.raises(ShapeMismatchError, match="non-finite"):
            sl2_exp(np.array(X))
    # cmath.cosh overflows past |s| = 710 and let OverflowError escape
    for X in ([[1000.0, 0.0], [0.0, -1000.0]], [[0.0, 1e6], [1e6, 0.0]],
              [[1e3 + 1e3j, 0.0], [0.0, -1e3 - 1e3j]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeMismatchError, match="is not finite"):
                sl2_exp(np.array(X))


def test_action_routes_agree_bitwise():
    r = random_point(3, 2, 1.0, 15)
    for seed in range(5):
        g = random_sl2(20 + seed)
        via_components = augment(act_components(g, r))
        via_pair = act_pair(g, augment(r))
        assert np.array_equal(via_components.A, via_pair.A)
        assert np.array_equal(via_components.B, via_pair.B)


def test_stacked_action_is_the_one_quadruple_action():
    bad = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    for n in range(1, 6):
        for tau in (1.0, 1e8):
            A, B, v, w = random_points(n, 2, tau, range(7))
            elements = [random_sl2(40 + i) for i in range(7)]
            per_item = act_components_stack(coefficients(elements), A, B, v, w)
            shared = act_components_stack((2.0, 0.0, 0.0, 1.0), A, B, v, w)
            for i, g in enumerate(elements):
                r = Representation(A[i], B[i], v[i], w[i], tau)
                for stack, one in ((per_item, act_components(g, r)),
                                   (shared, act_components(bad, r))):
                    for got, want in zip(stack, (one.A, one.B, one.v, one.w)):
                        assert got[i].tobytes() == want.tobytes()


def test_stacked_pair_action_is_the_one_pair_action():
    # per-item elements over one leading axis, and every element on every
    # pair over two, each item with the bits of act_pair
    for n in range(1, 6):
        for tau in (1.0, 1e8, 0.5 - 2j):
            pairs = [augment(random_point(n, 2, tau, 60 + i)) for i in range(6)]
            A, B = np.stack([p.A for p in pairs]), np.stack([p.B for p in pairs])
            elements = [random_sl2(70 + i) for i in range(6)]
            coeffs = coefficients(elements)
            per_item = act_pair_stack(coeffs, A, B)
            every = act_pair_stack([z[:, None] for z in coeffs], A, B)
            for i, g in enumerate(elements):
                for j, p in enumerate(pairs):
                    one = act_pair(g, p)
                    stacks = ((per_item[0][j], per_item[1][j]),) if i == j else ()
                    for got in (*stacks, (every[0][i, j], every[1][i, j])):
                        assert got[0].tobytes() == one.A.tobytes()
                        assert got[1].tobytes() == one.B.tobytes()


def test_action_needs_two_columns():
    # one check, in act_components_stack, for its three callers; the probe
    # tests its time and its pair first
    r, g = random_point(2, 1, 1.0, 2), random_sl2(1)
    for act in (lambda: act_components(g, r),
                lambda: act_components_stack(coefficients(g), r.A, r.B, r.v, r.w),
                lambda: fixed_point_probe_stack(r.A, r.B, r.v, r.w, 1.0)):
        with pytest.raises(ShapeMismatchError, match="needs k = 2"):
            act()
    with pytest.raises(ValueError, match="probe time"):
        fixed_point_probe_stack(r.A, r.B, r.v, r.w, 0.0)
    with pytest.raises(ZeroPairError):
        fixed_point_probe_stack(0 * r.A, 0 * r.B, r.v, r.w, 1.0)


def test_action_preserves_the_moment():
    for seed in range(10):
        n = 1 + seed % 5
        r = random_point(n, 2, 1.0, 30 + seed)
        g = random_sl2(60 + seed)
        moved = act_components(g, r)
        assert level_residual(moved) < 1e-10 * pair_scale(r.A, r.B)
        p = act_pair(g, augment(r))
        dev = frob(pair_moment(p) - pair_moment(augment(r)))
        assert dev < 1e-10 * pair_scale(p.A, p.B)


def test_non_unimodular_matrix_breaks_the_level():
    r = random_point(3, 2, 1.0, 44)
    p = act_pair(np.array([[2.0, 0.0], [0.0, 1.0]]), augment(r))
    from cmspaces.variety import level_deviation

    assert level_deviation(p) > 1e-3 * pair_scale(p.A, p.B)


def test_scaling_probe_separates_points():
    for seed in range(8):
        r = random_point(2 + seed % 3, 2, 1.0, 50 + seed)
        if abs(np.trace(r.A @ r.A)) < 1e-3:
            continue
        before, after, sep = fixed_point_probe_stack(r.A, r.B, r.v, r.w, 1.0)
        assert sep > 1e-6 * max(1.0, float(np.abs(before).max()))


def test_probe_rejects_degenerate_input():
    r = random_point(2, 2, 1.0, 57)
    with pytest.raises(ValueError):
        fixed_point_probe_stack(r.A, r.B, r.v, r.w, 0.0)
    from cmspaces.variety import Representation

    z = Representation(np.zeros((2, 2)), np.zeros((2, 2)),
                       np.zeros((2, 2)), np.zeros((2, 2)), 0.0)
    with pytest.raises(ZeroPairError):
        fixed_point_probe_stack(z.A, z.B, z.v, z.w, 1.0)


def test_stacked_probe_is_the_one_point_probe():
    points = [random_point(1 + i % 3, 2, 1.0, 60 + i) for i in range(12)]
    for n in (1, 2, 3):
        items = [r for r in points if r.n == n]
        stacks = [np.array([getattr(r, f) for r in items]) for f in "ABvw"]
        A, B, v, w = (x.reshape(2, 2, *x.shape[1:]) for x in stacks)
        before, after, sep = fixed_point_probe_stack(A, B, v, w, 0.7)
        assert sep.shape == (2, 2)
        for r, b, a, s in zip(items, before.reshape(4, -1), after.reshape(4, -1), sep.ravel()):
            want = fixed_point_probe_stack(r.A, r.B, r.v, r.w, 0.7)
            assert (b.tobytes(), a.tobytes(), s) == (want[0].tobytes(), want[1].tobytes(), want[2])
    A[1, 0], B[1, 0] = 0.0, 0.0
    with pytest.raises(ZeroPairError):     # one zero pair anywhere in the stack
        fixed_point_probe_stack(A, B, v, w, 0.7)


def test_probe_rejects_an_acted_point_that_overflows():
    big = Representation(np.diag([1e308, 1.0]), np.eye(2), np.ones((2, 2)), np.ones((2, 2)), 1.0)
    with np.errstate(all="ignore"), pytest.raises(ShapeMismatchError, match="non-finite"):
        fixed_point_probe_stack(big.A, big.B, big.v, big.w, 1.0)


def test_lower_shear_field_matches_the_closed_form():
    # d/dt at 0 of the lower shear moves only the diagonal moments, at rate
    # equal to the full spectrum
    c = find_independence_point(3, 1.0, 17)
    num = numeric_field(GEN_E, c)
    ana = analytic_field(GEN_E, c)
    scale = max(1.0, float(np.abs(c.lamhat).max()))
    assert np.abs(num.d_muhat - c.lamhat).max() < 1e-6 * scale
    assert np.abs(ana.d_muhat - c.lamhat).max() == 0.0
    for blk in (num.d_lam, num.d_lamhat, num.d_mu):
        assert np.abs(blk).max() < 1e-6 * scale


def _central_difference_field(gen, c):
    """The induced field by central differences of tracked reads of the flowed pairs.

    The oracle the closed-form numeric_field replaced.  Its step is 1e-5,
    shrunk where the flow moves the first matrix faster than it is large
    (the upper shear at large tau), so that the flowed reads stay on the
    reference's branch.
    """
    p = from_chart(c)
    step = 1e-5 * max(1.0, frob(p.A)) / max(1.0, frob(act_pair(gen.matrix(), p).A))
    flowed = [act_pair(gen.exp(t), p) for t in (step, -step)]
    ahead, behind = to_chart_stack(np.array([q.A for q in flowed]), np.array([q.B for q in flowed]),
                                   c.tau, ref=c.vector())
    return (ahead - behind) / (2.0 * step)


def _field_tolerance(c, oracle):
    """Bound on |numeric_field - oracle|: the oracle's step and rounding errors, scaled by conditioning.

    Both grow with kappa / gap, kappa the largest eigenvalue condition
    number of the chart frame and gap the smallest spectral gap of lam and
    lamhat (the first-order rotation divides by the lamhat gaps, the gauge
    removal by the lam gaps), and with the size of the field and of the
    pair the reads round in.
    """
    g, ginv = arrowhead_frame(c.lam, c.lamhat)
    kappa = (np.linalg.norm(g, axis=-1) * np.linalg.norm(ginv, axis=-2)).max()
    cond = kappa / min(min_gap(c.lam), min_gap(c.lamhat))
    p = from_chart(c)
    return 1e-8 * cond**2 * (np.abs(oracle).max() + pair_scale(p.A, p.B))


def test_numeric_field_matches_the_central_difference_oracle():
    # a slice point (mu = 0, where a tangent's gauge part moves no
    # coordinate) and a point with mu != 0, where it does
    for c in (find_independence_point(3, 1.0, 17), random_chart_point(3, 1.0, 17)):
        for gen in (GEN_E, GEN_F, GEN_H):
            oracle = _central_difference_field(gen, c)
            got = numeric_field(gen, c).vector()
            assert np.abs(got - oracle).max() <= _field_tolerance(c, oracle)
            # and well inside the bound at these well-separated points
            assert np.abs(got - oracle).max() <= 1e-8 * np.abs(oracle).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**31 - 1), st.sampled_from([1.0, 1e4]),
       st.sampled_from([GEN_E, GEN_F, GEN_H]))
def test_numeric_field_agrees_with_the_oracle_or_raises_like_the_base_read(n, seed, tau, gen):
    c = random_chart_point(n, tau, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            to_chart_tracked(from_chart(c), c)
        except CMSpacesError as exc:
            with pytest.raises(type(exc)):
                numeric_field(gen, c)
            return
        got = numeric_field(gen, c).vector()
        try:
            oracle = _central_difference_field(gen, c)
        except CMSpacesError:
            return      # a flowed read the step carried off its branch
    assert np.abs(got - oracle).max() <= _field_tolerance(c, oracle)


@pytest.mark.parametrize("gen", [GEN_E, GEN_F, GEN_H], ids=["e", "f", "h"])
def test_a_near_coalescing_lam_raises_the_base_reads_error(gen):
    # lam_1 within 1e-6 of lam_0: the read of the base point refuses it,
    # and so does the field, with the same error and no huge field
    c = find_independence_point(3, 1.0, 17)
    lam = c.lam.copy()
    lam[1] = lam[0] + 1e-6
    c = ChartPoint(lam, c.lamhat, c.mu, c.muhat, 1.0)
    with pytest.raises(NotStronglySemisimpleError):
        to_chart_tracked(from_chart(c), c)
    with pytest.raises(NotStronglySemisimpleError):
        numeric_field(gen, c)


def test_scaling_and_upper_shear_trace_components():
    c = find_independence_point(3, 1.0, 18)
    lh, mh = c.lamhat, c.muhat
    s1, s2 = np.sum(mh), np.sum(lh * mh)

    # scaling flow: the full-spectrum power sums grow at rate k s_k
    num_h = numeric_field(GEN_H, c).s_components()
    want_h = {1: np.sum(lh), 2: 2.0 * np.sum(lh**2)}
    for k in (1, 2):
        assert abs(num_h[k] - want_h[k]) < 1e-6 * max(1.0, abs(want_h[k]))

    # upper shear at a slice point (mu = 0): rates are the mixed moments
    num_f = numeric_field(GEN_F, c).s_components()
    want_f = {1: s1, 2: 2.0 * s2}
    for k in (1, 2):
        assert abs(num_f[k] - want_f[k]) < 1e-6 * max(1.0, abs(want_f[k]))
    ana_f = analytic_field(GEN_F, c).d_s
    for k in (1, 2):
        assert abs(ana_f[k] - want_f[k]) == 0.0
    # a closed-form field without the lamhat block has no components to read
    with pytest.raises(ShapeMismatchError):
        analytic_field(GEN_F, c).s_components()


def test_independence_certificate():
    for n in (1, 2, 3):
        c = find_independence_point(n, 1.0, 100 + n)
        # the point really sits on the embedded slice
        p = from_chart(c)
        tr_dev, corner = slice_residual(p)
        assert abs(tr_dev) < 1e-8 * pair_scale(p.A, p.B)
        assert abs(corner) < 1e-8 * pair_scale(p.A, p.B)
        rank, ratio = independence_rank(c)
        assert rank == 3
        assert ratio > 1e-6


def test_fields_are_tangent_to_the_slice():
    c = find_independence_point(2, 1.0, 19)
    p, step = from_chart(c), 1e-5
    for gen in (GEN_E, GEN_F, GEN_H):
        tr_rate, corner_rate = slice_tangency(gen, c)
        assert abs(tr_rate) < 1e-7
        assert abs(corner_rate) < 1e-7
        # the central difference of the slice functions along the flow
        ahead, behind = (np.array(slice_residual(act_pair(gen.exp(t), p))) for t in (step, -step))
        want = np.abs((ahead - behind) / (2.0 * step))
        assert np.abs(np.array([tr_rate, corner_rate]) - want).max() <= 1e-9 * pair_scale(p.A, p.B)


def test_random_sl2_is_unimodular():
    for seed in range(20):
        g = random_sl2(seed)
        det = g.a * g.d - g.b * g.c
        assert abs(det - 1.0) <= 1e-12


def test_chart_survives_the_action():
    # acting, renormalizing, and reading coordinates keeps the pair on the
    # level set and the full spectrum consistent with the trace
    from cmspaces.canonical import normalize
    from cmspaces.variety import on_level

    r = random_point(3, 2, 1.0, 23)
    g = random_sl2(24)
    p = act_pair(g, augment(r))
    nf, _ = normalize(p)
    c = to_chart(nf)
    assert abs(np.sum(c.lamhat) - np.trace(nf.A)) < 1e-9 * pair_scale(p.A, p.B)
    assert on_level(from_chart(c), tol=1e-8)


def test_fields_and_slice_tangency_refuse_a_kind_string_for_a_generator():
    # a kind string used to raise AttributeError
    c = random_chart_point(2, 1.0, 1)
    for call in (analytic_field, numeric_field, slice_tangency):
        with pytest.raises(ShapeMismatchError, match="SL2Generator"):
            call("e", c)
