"""B-spline space, basis evaluation, and cardinal helpers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igadmm.splines import (
    BSplineSpace,
    basis_table,
    cardinal_derivative,
    cardinal_piece,
    cardinal_piece_derivative,
    cardinal_value,
    eval_basis,
    knot_vector,
    nonzero_basis,
    nonzero_basis_derivatives,
)


def test_knot_vector_shape_and_multiplicity():
    p, N = 3, 5
    knots = knot_vector(p, N)
    assert len(knots) == N + 2 * p + 1
    assert knots[: p + 1] == [Fraction(0)] * (p + 1)
    assert knots[-(p + 1):] == [Fraction(1)] * (p + 1)
    interior = knots[p: -p]
    assert interior == [Fraction(i, N) for i in range(N + 1)]


def test_space_dimensions():
    space = BSplineSpace(3, 8)
    assert space.dim_full == 8 + 3
    assert space.dim == 8 + 3 - 2  # homogeneous Dirichlet drops the ends


def test_element_index_boundaries():
    space = BSplineSpace(2, 8)
    assert space.element_index(0.0) == 0
    assert space.element_index(1.0) == 7  # clamped into the last element
    assert space.element_index(0.999) == 7
    assert space.element_index(0.125) == 1


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=4),
    N=st.sampled_from([3, 5, 8]),
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_partition_of_unity(p, N, x):
    space = BSplineSpace(p, N)
    _, vals = nonzero_basis(space, x)
    assert len(vals) == p + 1
    assert abs(float(sum(vals)) - 1.0) < 1e-13
    _, ders = nonzero_basis_derivatives(space, x)
    # derivative of the constant 1; scale by N since slopes grow like 1/h
    assert abs(float(sum(ders))) < 1e-10 * N


def test_nonzero_basis_matches_eval_basis():
    space = BSplineSpace(2, 6)
    for x in (0.0, 0.3, 0.5, 0.99, 1.0):
        first, vals = nonzero_basis(space, x)
        for a, v in enumerate(vals):
            assert float(eval_basis(space, first + a, x)) == pytest.approx(
                float(v), abs=1e-14)


def test_interior_basis_is_cardinal_translate():
    # away from the boundary the basis is a scaled integer-knot spline
    p, N = 3, 10
    space = BSplineSpace(p, N)
    i = 5  # support [t_i, t_{i+p+1}] strictly inside
    for x in (0.21, 0.35, 0.4999, 0.55):
        t = x * N - (i - p)
        expect = cardinal_value(p, t)
        got = eval_basis(space, i, x)
        assert float(got) == pytest.approx(float(expect), abs=1e-13)


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
    # pinning a knot to its left or right element must not change the
    # global function values, only the local piece used
    p, N = 2, 8
    space = BSplineSpace(p, N)
    x = 3 / N
    fl, vl = nonzero_basis(space, x, element=2)
    fr, vr = nonzero_basis(space, x, element=3)
    dense_l = np.zeros(space.dim_full)
    dense_r = np.zeros(space.dim_full)
    dense_l[fl: fl + p + 1] = np.asarray(vl, dtype=float)
    dense_r[fr: fr + p + 1] = np.asarray(vr, dtype=float)
    assert np.allclose(dense_l, dense_r, atol=1e-13)


def test_derivatives_scale_with_mesh():
    # basis derivatives are physical: the hat function climbs with slope N
    space = BSplineSpace(1, 10)
    _, ders = nonzero_basis_derivatives(space, 0.55, element=5)
    assert sorted(float(d) for d in ders) == pytest.approx([-10.0, 10.0])


# reference nodes in longdouble, endpoints included: the endpoint nodes are
# where element pinning matters
_TABLE_NODES = np.array([np.longdouble(0), np.longdouble(1) / 3,
                         np.longdouble("0.788675134594812882254574390250978727823800875635063438009"),
                         np.longdouble(1)])


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("N", [2, 3, 7, 64])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_basis_table_is_bitwise_the_scalar_evaluation(p, N, derivative):
    space = BSplineSpace(p, N)
    t, table = basis_table(space, _TABLE_NODES, derivative)
    assert t.shape == (N, len(_TABLE_NODES)) and t.dtype == np.longdouble
    assert table.shape == (N, len(_TABLE_NODES), p + 1)
    assert table.dtype == np.longdouble
    h = np.longdouble(1) / N
    scalar = nonzero_basis_derivatives if derivative else nonzero_basis
    for e in range(N):
        for k, x in enumerate(_TABLE_NODES):
            assert t[e, k] == (e + x) * h
            first, vals = scalar(space, t[e, k], element=e)
            assert first == e
            assert np.array_equal(np.array(vals, dtype=np.longdouble), table[e, k])
