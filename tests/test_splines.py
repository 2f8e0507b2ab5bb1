"""B-spline space and its one basis evaluation: each element type's exact
integer polynomials (quadrature._type_basis), checked exactly against
the cardinal spline and the reference recurrence, and the energy
error's longdouble tables of them (eigensolve._type_tables)."""

from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from basis_reference import cardinal_pieces, reference_basis
from igadmm import eigensolve
from igadmm.assembly import _element_types
from igadmm.quadrature import _type_basis, gauss_legendre
from igadmm.splines import BSplineSpace

_DEGREES = range(1, 9)


def _types(p):
    """Every element type (left, right) of degree p: each end capped at
    p - 1, each the type of element left of a mesh of left + right + 1
    elements."""
    return [(left, right) for left in range(p) for right in range(p)]


def _at(poly, u):
    """An integer polynomial, coefficients lowest first, at u."""
    return sum(c * u ** i for i, c in enumerate(poly))


def _basis_at(p, left, right, x):
    """(values, slopes) of the type's functions at the local x, exactly:
    phi_a and d phi_a / dx on the reference element [0, 1]."""
    den, slopes, values = _type_basis(p, left, right)
    u = 2 * Fraction(x) - 1
    return ([Fraction(_at(f, u), den) for f in values],
            [Fraction(_at(f, u), den) for f in slopes])


def test_space_rejects_bad_degree_and_mesh():
    with pytest.raises(ValueError):
        BSplineSpace(0, 4)
    with pytest.raises(ValueError):
        BSplineSpace(2, 1)


def test_space_dimensions():
    space = BSplineSpace(3, 8)
    assert space.dim_full == 8 + 3
    assert space.dim == 8 + 3 - 2  # homogeneous Dirichlet drops the ends


def test_partition_of_unity():
    # on every type the functions sum to 1 as polynomials: the values'
    # coefficients to den and 0, the slopes' to 0
    for p in _DEGREES:
        for left, right in _types(p):
            den, slopes, values = _type_basis(p, left, right)
            assert [sum(c) for c in zip(*values)] == [den] + [0] * p, (p, left, right)
            assert [sum(c) for c in zip(*slopes)] == [0] * p, (p, left, right)


def test_the_type_cap_drops_no_basis():
    # the scheme never reads the knots p + 1 elements out, so an element
    # p elements from an end has the basis of one p - 1 from it
    for p in _DEGREES:
        for side in range(p + 1):
            assert _type_basis(p, p, side) == _type_basis(p, p - 1, side), (p, side)
            assert _type_basis(p, side, p) == _type_basis(p, side, p - 1), (p, side)


def test_interior_basis_is_cardinal_translate():
    # away from the boundary the basis is the cardinal spline translated:
    # on the interior type, function a is piece p - a, values and slopes
    xs = (Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(999, 1024), Fraction(1))
    for p in _DEGREES:
        for x in xs:
            pieces, slopes = cardinal_pieces(p, x)
            assert _basis_at(p, p - 1, p - 1, x) == (pieces[::-1], slopes[::-1]), (p, x)


def test_cardinal_value_exact_points():
    # at a knot and at mid-element, the interior type holds the cardinal
    # spline's values at the integers and at the half-integers
    for p, x, want in ((1, 0, (1, 0)), (2, 0, (Fraction(1, 2), Fraction(1, 2), 0)),
                       (3, 0, (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6), 0)),
                       (3, Fraction(1, 2), (Fraction(1, 48), Fraction(23, 48),
                                            Fraction(23, 48), Fraction(1, 48)))):
        assert _basis_at(p, p - 1, p - 1, x)[0] == list(want), (p, x)


def test_cardinal_symmetry():
    # the open knot vector is even about 1/2: type (left, right) is type
    # (right, left) under u -> -u, read from the last function back, and
    # d/dx changes sign
    def flip(f, sign):
        return tuple(sign * (-1) ** i * c for i, c in enumerate(f))

    for p in _DEGREES:
        for left, right in _types(p):
            den, slopes, values = _type_basis(p, left, right)
            assert _type_basis(p, right, left) == (
                den, tuple(flip(f, -1) for f in slopes[::-1]),
                tuple(flip(f, 1) for f in values[::-1])), (p, left, right)


def test_cardinal_derivative_is_difference_of_lower_degree():
    # B'_p(t) = B_{p-1}(t) - B_{p-1}(t - 1): on the interior type the
    # slope of function a is the degree-(p - 1) functions a - 1 less a
    for p in range(2, 9):
        den, slopes, _ = _type_basis(p, p - 1, p - 1)
        low, _, lower = _type_basis(p - 1, p - 2, p - 2)
        pad = ((0,) * p,)  # the functions -1 and p of degree p - 1
        lower = pad + lower + pad
        for a in range(p + 1):
            want = [x - y for x, y in zip(lower[a], lower[a + 1])]
            assert [c * low for c in slopes[a]] == [c * den for c in want], (p, a)


def test_cardinal_piece_left_limits_at_breakpoints():
    # at an interior knot two neighbouring elements agree in slope from
    # p = 2 on, but at p = 1 each keeps the slope of its own piece (the
    # kink): function e + 1 climbs on element e and falls on e + 1.  Local
    # function a + 1 of element e is local function a of element e + 1
    for p in _DEGREES:
        for N in (2, 3, 2 * p, 2 * p + 3):
            types, index = _element_types(p, N)
            for e in range(N - 1):
                _, end = _basis_at(p, *types[index[e]], 1)
                _, start = _basis_at(p, *types[index[e + 1]], 0)
                if p == 1:
                    assert (end[1], start[0]) == (1, -1), (N, e)
                else:
                    assert end[1:] == start[:-1] and end[0] == start[-1] == 0, (p, N, e)


def test_element_pinning_keeps_values_consistent():
    # the global function values at a knot are the same read from the
    # element on its left as from the one on its right, the types of each
    # as the mesh assigns them
    for p in _DEGREES:
        for N in (2, 3, 2 * p, 2 * p + 3):
            types, index = _element_types(p, N)
            for e in range(N - 1):
                dense_l, dense_r = [0] * (N + p), [0] * (N + p)
                dense_l[e: e + p + 1] = _basis_at(p, *types[index[e]], 1)[0]
                dense_r[e + 1: e + p + 2] = _basis_at(p, *types[index[e + 1]], 0)[0]
                assert dense_l == dense_r, (p, N, e)


def test_derivatives_scale_with_mesh():
    # the hat function climbs with local slope 1 on every element, so with
    # physical slope N; the energy error's tables hold the local slopes
    # exactly and its sum scales them by N
    den, slopes, _ = _type_basis(1, 0, 0)
    assert slopes == ((-den,), (den,))
    der = eigensolve._energy_tables(BSplineSpace(1, 10))[3][0]
    assert der.shape == (1, 6, 2)
    assert np.array_equal(der, np.broadcast_to(np.array([-1, 1], dtype=np.longdouble), der.shape))


def _horner(poly, u):
    """poly at the longdouble u one coefficient at a time, from the top."""
    acc = np.longdouble(poly[-1])
    for c in poly[-2::-1]:
        acc = acc * u + np.longdouble(c)
    return acc


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("N", [2, 3, 7, 64])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8])
def test_basis_table_is_bitwise_the_scalar_evaluation(p, N, derivative):
    # the energy tables of a mesh: its points, and each element's type
    # table, against Horner's rule run on the type's polynomials one point
    # at a time; derivative picks the form checked
    space = BSplineSpace(p, N)
    t, wh, index, tables = eigensolve._energy_tables(space)
    nodes, weights = gauss_legendre(p + 5).as_longdouble()
    assert t.shape == (N, p + 5) and t.dtype == np.longdouble
    assert tables.shape == (2, min(N, 2 * p - 1), p + 5, p + 1)
    assert tables.dtype == np.longdouble
    h = np.longdouble(1) / N
    assert np.array_equal(wh, weights * h)
    types = sorted({(min(e, p - 1), min(N - 1 - e, p - 1)) for e in range(N)})
    for e in range(N):
        kind = (min(e, p - 1), min(N - 1 - e, p - 1))
        assert index[e] == types.index(kind)
        den, *forms = _type_basis(p, *kind)
        for k, x in enumerate(nodes):
            assert t[e, k] == (e + x) * h
            want = [_horner(f, 2 * x - 1) / np.longdouble(den) for f in forms[1 - derivative]]
            assert np.array_equal(np.array(want, dtype=np.longdouble),
                                  tables[1 - derivative, index[e], k])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
def test_one_pass_is_bitwise_the_two_separate_recurrences(p):
    # the one integer scheme gives values and slopes exactly as the
    # reference's two runs do in Fraction arithmetic, values to degree p
    # and slopes by degree reduction from p - 1, on the element left of a
    # mesh of left + right + 1 elements, whose slopes carry N
    xs = (Fraction(0), Fraction(2, 7), Fraction(618, 1000), Fraction(1))
    for left, right in _types(p):
        N = left + right + 1
        for x in xs:
            values, slopes = reference_basis(p, N, (left + x) / N, left)
            assert _basis_at(p, left, right, x) == (values, [d / N for d in slopes]), \
                (left, right, x)


def _mpf(x):
    """A longdouble's exact value as an mpf (at the working precision)."""
    num, den = x.as_integer_ratio()
    return mp.mpf(num) / den


@pytest.mark.parametrize("p", _DEGREES)
def test_the_energy_tables_round_the_basis_within_the_horner_bound(p):
    # every entry of the longdouble tables, on every type, against the
    # reference at 55 digits at the rule's mpf nodes, within (p + 2) eps
    # times the sum of |c_i u^i| / den that Horner's rule rounds: p eps
    # for its p steps, the rest for the division and the longdouble node,
    # up to the reference's own error, 1e-45 (it is 1e-56 where an exact
    # zero is summed).  At most 3.8 eps of it (values, p = 8); at most
    # 1.8e-18 absolute on the slopes and 1.6e-19 on the values
    eps, slack = _mpf(np.finfo(np.longdouble).eps), mp.mpf(10) ** -45
    types = tuple(_types(p))
    tables = eigensolve._type_tables(p, types)
    rule = gauss_legendre(p + 5)
    with mp.workdps(55):
        for t, (left, right) in enumerate(types):
            den, *forms = _type_basis(p, left, right)
            N = left + right + 1
            for k, x in enumerate(rule.nodes):
                values, slopes = reference_basis(p, N, (left + x) / N, left)
                u = 2 * x - 1
                for f, want in ((0, [d / N for d in slopes]), (1, values)):
                    for a, poly in enumerate(forms[f]):
                        got = _mpf(tables[f, t, k, a])
                        scale = sum(abs(c) * abs(u) ** i for i, c in enumerate(poly)) / den
                        assert abs(got - want[a]) <= (p + 2) * eps * scale + slack, (t, k, f, a)
