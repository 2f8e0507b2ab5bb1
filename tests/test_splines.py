"""B-spline space, basis evaluation, and cardinal helpers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basis_reference import reference_basis
from igadmm.splines import (
    BSplineSpace,
    _knots_in,
    basis_table,
    cardinal_derivative,
    cardinal_piece,
    cardinal_piece_derivative,
    cardinal_value,
    knot_vector,
)


def test_knot_vector_shape_and_multiplicity():
    p, N = 3, 5
    knots = knot_vector(p, N)
    assert len(knots) == N + 2 * p + 1
    assert knots[: p + 1] == [Fraction(0)] * (p + 1)
    assert knots[-(p + 1):] == [Fraction(1)] * (p + 1)
    interior = knots[p: -p]
    assert interior == [Fraction(i, N) for i in range(N + 1)]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("N", [2, 3, 7, 129, 1024])
def test_float_knots_are_the_rounded_fractions(p, N):
    # k / N divided in longdouble rounds the exact knot correctly
    exact = knot_vector(p, N)
    longs = _knots_in(p, N)
    assert longs.dtype == np.longdouble
    assert np.array_equal(longs, [np.longdouble(t.numerator) / np.longdouble(t.denominator)
                                  for t in exact])


def test_space_rejects_bad_degree_and_mesh():
    with pytest.raises(ValueError):
        BSplineSpace(0, 4)
    with pytest.raises(ValueError):
        BSplineSpace(2, 1)


def test_space_dimensions():
    space = BSplineSpace(3, 8)
    assert space.dim_full == 8 + 3
    assert space.dim == 8 + 3 - 2  # homogeneous Dirichlet drops the ends


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=4),
    N=st.sampled_from([3, 5, 8]),
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_partition_of_unity(p, N, x):
    # x is a reference node: the table holds the point (e + x) / N of
    # every element e
    _, vals, ders = basis_table(BSplineSpace(p, N), [x])
    assert vals.shape == (N, 1, p + 1)
    assert np.all(abs(vals.sum(axis=-1) - 1) < 1e-13)
    # derivative of the constant 1; scale by N since slopes grow like 1/h
    assert np.all(abs(ders.sum(axis=-1)) < 1e-10 * N)


def test_interior_basis_is_cardinal_translate():
    # away from the boundary the basis is a scaled integer-knot spline
    p, N = 3, 10
    space = BSplineSpace(p, N)
    i = 5  # support [t_i, t_{i+p+1}] strictly inside
    t, vals, _ = basis_table(space, [0.1, 0.5, 0.999])
    # element e carries functions e..e+p; function i lives on i-p..i
    for e in range(i - p, i + 1):
        for k in range(t.shape[1]):
            expect = cardinal_value(p, float(t[e, k]) * N - (i - p))
            assert float(vals[e, k, i - e]) == pytest.approx(float(expect), abs=1e-13)


def test_cardinal_value_exact_points():
    one = Fraction(1)
    assert cardinal_value(1, 1) == one
    assert cardinal_value(2, 1) == Fraction(1, 2)
    assert cardinal_value(2, 2) == Fraction(1, 2)
    assert cardinal_value(3, 1) == Fraction(1, 6)
    assert cardinal_value(3, 2) == Fraction(2, 3)
    assert cardinal_value(3, Fraction(1, 2)) == Fraction(1, 48)
    # outside the support
    assert cardinal_value(2, -1) == 0
    assert cardinal_value(2, 4) == 0


@settings(max_examples=40, deadline=None)
@given(p=st.integers(min_value=1, max_value=5),
       t=st.floats(min_value=0.001, max_value=5.999))
def test_cardinal_symmetry(p, t):
    if t >= p + 1:
        t = t % (p + 1)
    a = cardinal_value(p, t)
    b = cardinal_value(p, (p + 1) - t)
    assert abs(float(a) - float(b)) < 1e-13


def test_cardinal_derivative_is_difference_of_lower_degree():
    for p in (1, 2, 3):
        for t in (0.3, 1.2, 2.7):
            d = cardinal_derivative(p, t)
            expect = cardinal_value(p - 1, t) - cardinal_value(p - 1, t - 1)
            assert float(d) == pytest.approx(float(expect), abs=1e-14)


def test_cardinal_piece_matches_value_inside_its_span():
    # inside span e the piece polynomial and the global spline coincide
    for p in (1, 2, 3):
        for t in (0.25, 1.5, 2.75, 3.4):
            e = int(t)
            if e > p:
                continue
            piece = cardinal_piece(p, e, t)
            assert float(piece) == pytest.approx(float(cardinal_value(p, t)),
                                                 abs=1e-14)
        # span indices outside 0..p give zero
        assert cardinal_piece(p, -1, 0.5) == 0
        assert cardinal_piece(p, p + 1, 0.5) == 0


def test_cardinal_piece_left_limits_at_breakpoints():
    # at an interior breakpoint both neighbouring pieces agree in value
    # (continuity) but keep their own derivative at p = 1 (the kink)
    assert float(cardinal_piece(1, 0, 1)) == pytest.approx(1.0)
    assert float(cardinal_piece(1, 1, 1)) == pytest.approx(1.0)
    assert float(cardinal_piece_derivative(1, 0, 1)) == pytest.approx(1.0)
    assert float(cardinal_piece_derivative(1, 1, 1)) == pytest.approx(-1.0)
    for p in (2, 3):
        for e in range(p):
            t = e + 1
            left = cardinal_piece(p, e, t)
            right = cardinal_piece(p, e + 1, t)
            assert float(left) == pytest.approx(float(right), abs=1e-14)
            dl = cardinal_piece_derivative(p, e, t)
            dr = cardinal_piece_derivative(p, e + 1, t)
            assert float(dl) == pytest.approx(float(dr), abs=1e-13)


def test_element_pinning_keeps_values_consistent():
    # evaluating a knot on its left or right element must not change the
    # global function values, only the local piece used
    p, N = 2, 8
    space = BSplineSpace(p, N)
    t, vals, _ = basis_table(space, [0, 1])
    for e in range(N - 1):
        assert t[e, 1] == t[e + 1, 0]  # the knot (e + 1) / N
        dense_l = np.zeros(space.dim_full)
        dense_r = np.zeros(space.dim_full)
        dense_l[e: e + p + 1] = vals[e, 1]
        dense_r[e + 1: e + p + 2] = vals[e + 1, 0]
        assert np.allclose(dense_l, dense_r, atol=1e-13), e


def test_derivatives_scale_with_mesh():
    # basis derivatives are physical: the hat function climbs with slope N
    # on every element, endpoints included
    _, _, ders = basis_table(BSplineSpace(1, 10), [0, 0.5, 1])
    assert np.allclose(np.sort(ders, axis=-1).astype(float),
                       np.broadcast_to([-10.0, 10.0], ders.shape), rtol=1e-15, atol=0)


# reference nodes in longdouble, endpoints included: the endpoint nodes are
# where element pinning matters
_TABLE_NODES = np.array([np.longdouble(0), np.longdouble(1) / 3,
                         np.longdouble("0.788675134594812882254574390250978727823800875635063438009"),
                         np.longdouble(1)])


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("N", [2, 3, 7, 64])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8])
def test_basis_table_is_bitwise_the_scalar_evaluation(p, N, derivative):
    # one call gives both tables; derivative picks the one checked here
    # against the test-side reference, run one point at a time
    space = BSplineSpace(p, N)
    t, values, derivatives = basis_table(space, _TABLE_NODES)
    assert t.shape == (N, len(_TABLE_NODES)) and t.dtype == np.longdouble
    table = derivatives if derivative else values
    assert table.shape == (N, len(_TABLE_NODES), p + 1)
    assert table.dtype == np.longdouble
    h = np.longdouble(1) / N
    for e in range(N):
        for k, x in enumerate(_TABLE_NODES):
            assert t[e, k] == (e + x) * h
            want = reference_basis(p, N, t[e, k], e)[1 if derivative else 0]
            assert np.array_equal(np.array(want, dtype=np.longdouble), table[e, k])


def _fraction(x):
    return Fraction(*x.as_integer_ratio())


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
def test_one_pass_is_bitwise_the_two_separate_recurrences(p):
    # the table's one pass rounds as the reference's two runs do, and both
    # round the exact values (the same two runs in Fraction arithmetic) to
    # a few longdouble ulps: 7 ulps, 3.5 eps, at most on these points
    N, eps = 7, np.finfo(np.longdouble).eps
    nodes = (np.longdouble(0), np.longdouble(2) / 7, np.longdouble("0.61803398874989484820"),
             np.longdouble(1))
    t, values, derivatives = basis_table(BSplineSpace(p, N), nodes)
    for e in range(N):
        for k in range(len(nodes)):
            vals, ders = reference_basis(p, N, t[e, k], e)
            assert {type(v) for v in vals + ders} == {np.longdouble}
            assert list(values[e, k]) == vals and list(derivatives[e, k]) == ders, (e, k)
            exact = reference_basis(p, N, _fraction(t[e, k]), e)
            for got, want in zip((vals, ders), exact):
                scale = max(abs(w) for w in want)
                assert max(abs(_fraction(g) - w) for g, w in zip(got, want)) < 16 * eps * scale
