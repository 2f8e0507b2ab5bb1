"""B-spline space and basis evaluation, against the cardinal spline inside."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basis_reference import cardinal_pieces, reference_basis
from igadmm.splines import BSplineSpace, _knots_in, basis_table


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("N", [2, 3, 7, 129, 1024])
def test_float_knots_are_the_rounded_fractions(p, N):
    # the open knot vector, 0 and 1 repeated p + 1 times around the interior
    # knots k / N, each the longdouble nearest to the exact Fraction k / N
    longs = _knots_in(p, N)
    assert longs.dtype == np.longdouble and len(longs) == N + 2 * p + 1
    assert list(longs[: p + 1]) == [0] * (p + 1) and list(longs[-(p + 1):]) == [1] * (p + 1)
    for k in range(1, N):
        x, exact = longs[p + k], Fraction(k, N)
        neighbours = (np.nextafter(x, np.longdouble(0)), np.nextafter(x, np.longdouble(1)))
        assert all(abs(_fraction(x) - exact) <= abs(_fraction(y) - exact) for y in neighbours)


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
    # away from the boundary the basis is the cardinal spline translated:
    # on every element e with p <= e < N - p the values, and the derivatives
    # over N, are its pieces exactly, and the longdouble table rounds them
    p, N = 3, 10
    xs = (Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(999, 1024), Fraction(1))
    _, table, _ = basis_table(BSplineSpace(p, N), [float(x) for x in xs])
    for k, x in enumerate(xs):
        pieces, slopes = cardinal_pieces(p, x)
        for e in range(p, N - p):
            # function e + a is piece p - a on element e
            vals, ders = reference_basis(p, N, (e + x) / N, e)
            assert vals == pieces[::-1] and [d / N for d in ders] == slopes[::-1], (e, x)
            assert [float(v) for v in table[e, k]] == pytest.approx(
                [float(v) for v in vals], rel=0, abs=1e-16)


def test_cardinal_value_exact_points():
    # at a knot and at mid-element, an interior element holds the cardinal
    # spline's values at the integers and at the half-integers
    N = 9
    for p, x, want in ((1, 0, (1, 0)), (2, 0, (Fraction(1, 2), Fraction(1, 2), 0)),
                       (3, 0, (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6), 0)),
                       (3, 0.5, (Fraction(1, 48), Fraction(23, 48), Fraction(23, 48),
                                 Fraction(1, 48)))):
        _, vals, _ = basis_table(BSplineSpace(p, N), [x])
        for e in range(p, N - p):
            assert [float(v) for v in vals[e, 0]] == pytest.approx(
                [float(w) for w in want], rel=0, abs=1e-16)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(min_value=1, max_value=5),
       x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_cardinal_symmetry(p, x):
    # the cardinal spline is even about the middle of its support, and the
    # open knot vector about 1/2: the table at x, read from the last element
    # and the last function back, is the table at 1 - x
    N = 2 * p + 1
    _, vals, _ = basis_table(BSplineSpace(p, N), [x, 1 - x])
    assert np.allclose(vals[::-1, 1, ::-1], vals[:, 0], rtol=0, atol=1e-13)


def test_cardinal_derivative_is_difference_of_lower_degree():
    # B'_p(t) = B_{p-1}(t) - B_{p-1}(t - 1): on an interior element the
    # derivative of function e + a is N times the degree-(p-1) functions
    # e + a - 1 less e + a, slots a - 1 and a of the lower table there
    N, nodes = 10, [0.3, 0.7]
    for p in (2, 3, 4):
        _, _, ders = basis_table(BSplineSpace(p, N), nodes)
        _, lower, _ = basis_table(BSplineSpace(p - 1, N), nodes)
        pad = np.zeros(lower.shape[:-1] + (1,), dtype=lower.dtype)
        lower = np.concatenate([pad, lower, pad], axis=-1)
        want = N * (lower[..., :-1] - lower[..., 1:])
        assert np.allclose(ders[p:N - p], want[p:N - p], rtol=0, atol=1e-14 * N)


def test_cardinal_piece_left_limits_at_breakpoints():
    # at an interior knot the two neighbouring elements agree in value, and
    # in slope from p = 2 on, but at p = 1 each keeps the slope of its own
    # piece (the kink): function e + 1 climbs on element e, falls on e + 1
    N = 8
    _, _, ders = basis_table(BSplineSpace(1, N), [0, 1])
    assert np.allclose(ders[:-1, 1, 1].astype(float), N, rtol=1e-15, atol=0)
    assert np.allclose(ders[1:, 0, 0].astype(float), -N, rtol=1e-15, atol=0)
    for p in (2, 3):
        _, vals, ders = basis_table(BSplineSpace(p, N), [0, 1])
        for table in (vals, ders):
            assert np.allclose(table[:-1, 1, 1:], table[1:, 0, :-1], rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("rows", [slice(0, 256), slice(256, 512), slice(512, 768),
                                  slice(3, 4), slice(599, None)])
@pytest.mark.parametrize("p", [1, 3, 6])
def test_a_slice_of_elements_gives_bitwise_those_rows_of_the_whole_table(p, rows):
    # the assembly reads the table a block of elements at a time
    space = BSplineSpace(p, 600)
    whole = basis_table(space, _TABLE_NODES)
    for got, want in zip(basis_table(space, _TABLE_NODES, rows), whole):
        assert np.array_equal(got, want[rows])


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
