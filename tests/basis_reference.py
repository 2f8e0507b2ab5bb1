"""Reference basis evaluation for the tests: one point at a time, in the
point's own arithmetic, by two separate runs of the triangular Cox-de Boor
scheme on the open knot vector.  The values come from a run to degree p,
the first derivatives by degree reduction from a second run to degree
p - 1.  It shares no code with the package, whose one basis evaluation is
each element type's exact polynomials (quadrature._type_basis).  On an
interior element the basis is the cardinal B-spline translated, so
``cardinal_pieces`` reads the cardinal spline's pieces off it.
"""

from fractions import Fraction

from mpmath import mp


def _knots_like(p, N, x):
    """Open uniform knots in the arithmetic of x: exact for a Fraction,
    k / N correctly rounded for a float or an mpf (at the working
    precision)."""
    if isinstance(x, Fraction):
        zero, one = Fraction(0), Fraction(1)
        return [zero] * (p + 1) + [Fraction(k, N) for k in range(1, N)] + [one] * (p + 1)
    if isinstance(x, float):
        return [0.0] * (p + 1) + [k / N for k in range(1, N)] + [1.0] * (p + 1)
    if isinstance(x, mp.mpf):
        zero, one = mp.mpf(0), mp.mpf(1)
        return [zero] * (p + 1) + [mp.mpf(k) / N for k in range(1, N)] + [one] * (p + 1)
    raise TypeError(f"no reference arithmetic for {type(x).__name__}")


def _triangular(knots, x, mu, degree):
    """The triangular scheme run from degree 0 to degree alone."""
    vals = [x - x + 1]
    left, right = [None] * (degree + 1), [None] * (degree + 1)
    for q in range(1, degree + 1):
        left[q], right[q] = x - knots[mu + 1 - q], knots[mu + q] - x
        saved = 0
        for r in range(q):
            temp = vals[r] / (right[r + 1] + left[q - r])
            vals[r] = saved + right[r + 1] * temp
            saved = left[q - r] * temp
        vals.append(saved)
    return vals


def reference_basis(p, N, x, element):
    """Values and first derivatives at x of the basis functions element ..
    element + p (full numbering) of the degree-p space on N elements,
    evaluated on element's own pieces (left limits at its right end)."""
    knots, mu = _knots_like(p, N, x), element + p
    lower = _triangular(knots, x, mu, p - 1)
    derivatives = []
    for a in range(p + 1):
        acc = 0
        if a > 0:
            acc = acc + p * lower[a - 1] / (knots[mu + a] - knots[mu - p + a])
        if a < p:
            acc = acc - p * lower[a] / (knots[mu + a + 1] - knots[mu - p + a + 1])
        derivatives.append(acc)
    return _triangular(knots, x, mu, p), derivatives


def cardinal_pieces(p, x):
    """The p + 1 pieces of the degree-p cardinal B-spline (knots 0..p+1) and
    of its derivative at x in [0, 1]: piece e is the spline on [e, e + 1]
    at e + x, closed at both ends.  They are the basis on element p of the
    (2p + 1)-element mesh, where each of the p + 1 functions is a cardinal
    spline on knots i / N: function p + a there is piece p - a, and its
    derivative is N times the cardinal one."""
    N = 2 * p + 1
    values, derivatives = reference_basis(p, N, (p + x) / N, p)
    return values[::-1], [d / N for d in derivatives[::-1]]
