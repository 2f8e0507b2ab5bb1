"""Quadrature rules on [0, 1] and the mass rows they induce.

A rule induces its interior stiffness and mass rows through its moments
alone: entry k of a row is the rule applied on one knot span to a fixed
polynomial, the sum of the products of cardinal-spline pieces at offset
k.  Those polynomials are tabulated once per degree with exact integer
coefficients in the centred variable u = 2x - 1, so a row costs one set
of moments of u, each converted once to mpf, and a dot product per offset.
The assembly applies a rule the same way, to the products of the pieces
of each element type of an open-knot mesh (_type_basis, of which the
cardinal pieces are the interior type's), so moments are the one way
any rule is applied to a spline.

On [-1, 1] the nodes of each classical family are the roots of one
Legendre series w of at most two terms: P_m for m-point Gauss-Legendre,
P_{m-2} - P_m for Gauss-Lobatto (the endpoints and the roots of
P'_{m-1}), P_{m-1} + P_m for left Gauss-Radau (-1 and m - 1 free nodes).
The rule is interpolatory on those roots, so its moments are exact,
Q(u^j) = 1/2 int_{-1}^{1} (u^j mod w), from integer polynomial division;
a blend's are the blend of its two rules'.  Rows and blend ratios thus
need no node.  Nodes and weights are built on first read: by the rules
report, by a blend's, and by the longdouble view of the energy error's
(p + 5)-point Gauss rule, whose nodes place the error's basis tables and
points and whose weights weigh them (the module needs no numpy but for
that view).
Float64 Newton iteration on the Legendre recurrence, with the roots
already found divided out, seeds the free nodes from Chebyshev guesses;
mpmath Newton iteration on the same recurrence polishes them to 40
significant digits, and the endpoints enter exactly.  Each weight is its
family's closed form at the polished node, in P'_m for Gauss-Legendre and
in P_{m-1} for Lobatto and Radau (Abramowitz-Stegun 25.4.29, 25.4.32,
25.4.31); no moment (Vandermonde) system is solved, which from m = 21 on
would be the less accurate route.

Alongside the three classical families the module builds the
degree-specific minimizing rules: tiny node sets, one per sign of the
square root, that have no polynomial exactness at all but reproduce the
exact stiffness row and the dispersion-minimized mass row through the
stencil sums.  They have no rational w; their moments are node sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from mpmath import mp

from igadmm.dispersion import _to_mp, error_expansion
from igadmm.stencils import dispersion_moment, integer_row, stiffness_stencil

_DPS = 40


class DegenerateBlendError(ArithmeticError):
    """The two mass rows share their leading moment: no blend ratio exists."""


class QuadratureRule:
    """Nodes and weights on [0, 1] with a known polynomial exactness degree.

    nodes and weights are mpf at the construction precision; other numbers
    given for them, exact Fractions included, are converted at that
    precision, not at mpmath's ambient 53 bits, which would round a
    40-digit node.  exactness is the highest polynomial degree integrated
    exactly; the minimizing rules carry 0 because they are not exact
    beyond constants.  Rows and assembly read a rule only through
    moments(); the classical families and blends, which know their
    moments exactly, build their nodes on first read.  A rule is equal
    only to itself, so the caches key on it without building a node.
    """

    def __init__(self, label: str, nodes, weights, exactness: int):
        if len(nodes) != len(weights):
            raise ValueError("nodes and weights must pair up")
        self.label, self.exactness = label, exactness
        with mp.workdps(_DPS + 15):  # (nodes, weights); subclasses build it on first read
            self._points = tuple(tuple(_to_mp(v) for v in values)
                                 for values in (nodes, weights))

    nodes = property(lambda self: self._points[0])
    weights = property(lambda self: self._points[1])

    def moments(self, count: int) -> tuple:
        """The rule applied to u^j, u = 2x - 1, for j < count (centred:
        monomials in x lose digits to cancellation); here the node sums."""
        with mp.workdps(_DPS + 15):
            us = [2 * x - 1 for x in self.nodes]
            terms = list(self.weights)
            out = []
            for _ in range(count):
                out.append(mp.fsum(terms))
                terms = [t * u for t, u in zip(terms, us)]
        return tuple(out)

    def as_longdouble(self) -> tuple:
        """Nodes and weights as read-only longdouble arrays, converted once
        per rule; each goes through a 25-digit string, which keeps all 18-19
        digits a longdouble holds."""
        return self._longdouble

    @cached_property
    def _longdouble(self) -> tuple:
        import numpy as np  # only the energy error reads this view

        arrays = tuple(np.array([np.longdouble(mp.nstr(v, 25)) for v in values])
                       for values in (self.nodes, self.weights))
        for array in arrays:
            array.flags.writeable = False  # shared by every caller of the rule
        return arrays


class BlendedRule(QuadratureRule):
    """The rule tau * first + (1 - tau) * second that blend() returns; tau
    is an mpf at the construction precision."""

    def __init__(self, first: QuadratureRule, second: QuadratureRule, tau):
        self.first, self.second = first, second
        self.label = f"blend:{first.label}+{second.label}"
        self.exactness = min(first.exactness, second.exactness)
        with mp.workdps(_DPS + 15):
            self.tau = _to_mp(tau)

    @cached_property
    def _points(self) -> tuple:
        t = self.tau
        with mp.workdps(_DPS + 15):
            weights = (tuple(t * w for w in self.first.weights)
                       + tuple((1 - t) * w for w in self.second.weights))
        return self.first.nodes + self.second.nodes, weights

    def moments(self, count: int) -> tuple:
        t = self.tau
        with mp.workdps(_DPS + 15):
            return tuple(t * _to_mp(a) + (1 - t) * _to_mp(b) for a, b in
                         zip(self.first.moments(count), self.second.moments(count)))


def _legendre_series(coeffs, x):
    """Value and derivative of sum_k coeffs[k] P_k(x), by the recurrences
    P_{k+1} = ((2k+1) x P_k - k P_{k-1}) / (k+1), P'_{k+1} = P'_{k-1} + (2k+1) P_k."""
    f = df = 0
    p_prev, p, d_prev, d = 0, 1, 0, 0
    for k, c in enumerate(coeffs):
        f, df = f + c * p, df + c * d
        p_prev, p, d_prev, d = (p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1),
                                d, d_prev + (2 * k + 1) * p)
    return f, df


def _legendre(k: int, x):
    """P_k(x) and P'_k(x)."""
    return _legendre_series([0] * k + [1], x)


def _float_roots(coeffs, fixed) -> list[float]:
    """The roots of a Legendre series other than those in fixed, in float64,
    largest first.

    Each comes from Newton's method on the series with the roots already
    found, the fixed ones among them, divided out, so no two converge to
    the same root.  The guesses are the Chebyshev points of the free roots,
    with a fixed endpoint counting as half a spacing: cos(pi (k + 1/2) / n)
    for Gauss-Legendre, the extrema cos(pi (k + 1) / (n + 1)) for Lobatto,
    cos(pi (k + 1/2) / (n + 1/2)) for left Radau.  Newton converges
    quadratically, so once a step is below 1e-10 the next one would fall
    below the float64 spacing, and the iteration stops there.
    """
    left, right = int(-1 in fixed), int(1 in fixed)
    n = len(coeffs) - 1 - left - right
    found = [float(r) for r in fixed]
    for k in range(n):
        x = math.cos(math.pi * (k + (1 + right) / 2) / (n + (left + right) / 2))
        for _ in range(100):
            f, df = _legendre_series(coeffs, x)
            if f == 0:
                break
            # Newton on f / prod(x - r): f / (f' - f sum 1 / (x - r))
            dx = f / (df - f * sum(1 / (x - r) for r in found))
            x -= dx
            if abs(dx) < 1e-10:
                break
        found.append(x)
    return found[len(fixed):]


class _LegendreRule(QuadratureRule):
    """Rule on the roots of a Legendre series w, its moments exact Fractions.

    The nodes are built on first read: the endpoints in fixed exactly, the
    other roots seeded by _float_roots and polished by Newton's method in
    mpmath.  weight(x) is the family's closed-form weight at node x on
    [-1, 1], halved on [0, 1].
    """

    def __init__(self, label, exactness, series, weight, fixed=()):
        self.label, self.exactness = label, exactness
        self.series, self._weight, self._fixed = tuple(series), weight, fixed
        self._moments = ()

    @cached_property
    def _points(self) -> tuple:
        seeds = _float_roots(self.series, self._fixed)
        with mp.workdps(_DPS + 15):
            nodes = [mp.mpf(x) for x in self._fixed]
            for x0 in seeds:
                x = mp.mpf(x0)
                for _ in range(60):
                    f, df = _legendre_series(self.series, x)
                    dx = f / df
                    x -= dx
                    if abs(dx) < mp.mpf(10) ** (-mp.dps + 2):
                        break
                nodes.append(x)
            nodes = sorted(nodes)
            return tuple((x + 1) / 2 for x in nodes), tuple(self._weight(x) / 2 for x in nodes)

    def moments(self, count: int) -> tuple[Fraction, ...]:
        # the longest list computed so far is kept; a shorter ask is a slice.
        # _stencil_from_rule is cached per (p, rule, kind), but one rule
        # serves several degrees, forms and blends: 70 of the 102 calls in
        # a process running the exact-tables job list are slices
        if count <= len(self._moments):
            return self._moments[:count]
        # w is 2^n times the series of degree n, in integer monomial
        # coefficients: 2^k P_k(u) = sum_i (-1)^i C(k, i) C(2k - 2i, k) u^(k - 2i)
        n = len(self.series) - 1
        w = [0] * (n + 1)
        for k, c in enumerate(self.series):
            for i in range(k // 2 + 1):
                term = math.comb(k, i) * math.comb(2 * k - 2 * i, k) * 2 ** (n - k)
                w[k - 2 * i] += (-1) ** i * c * term
        # u^j mod w is r / den with integer r of degree < n; times u, its
        # top term is cancelled by w, which scales r by the leading w[n]
        r, den = [1] + [0] * (n - 1), 1
        lcm = math.lcm(*range(1, n + 1, 2))  # 1/2 int u^i = 1/(i + 1), i even
        out = []
        for _ in range(count):
            out.append(Fraction(sum(r[i] * (lcm // (i + 1)) for i in range(0, n, 2)),
                                lcm * den))
            r, den = [w[n] * a - r[-1] * b for a, b in zip([0] + r[:-1], w)], den * w[n]
        self._moments = tuple(out)
        return self._moments


@lru_cache(maxsize=None)
def gauss_legendre(m: int) -> QuadratureRule:
    """m-point Gauss-Legendre rule on [0, 1]; exact through degree 2m - 1."""
    if m < 1:
        raise ValueError(f"need at least one node, got {m}")
    # Abramowitz-Stegun 25.4.29: w = 2 / ((1 - x^2) P'_m(x)^2)
    return _LegendreRule(f"G{m}", 2 * m - 1, [0] * m + [1],
                         lambda x: 2 / ((1 - x * x) * _legendre(m, x)[1] ** 2))


@lru_cache(maxsize=None)
def gauss_lobatto(m: int) -> QuadratureRule:
    """m-point Gauss-Lobatto rule on [0, 1] with both endpoints; degree 2m - 3."""
    if m < 2:
        raise ValueError(f"need at least two nodes, got {m}")
    # (2n+1)(1 - x^2) P'_n = n(n+1)(P_{n-1} - P_{n+1}) with n = m - 1;
    # A-S 25.4.32: w = 2 / (n (n + 1) P_n(x)^2), 2 / (n (n + 1)) at +-1
    n = m - 1
    return _LegendreRule(f"L{m}", 2 * m - 3, [0] * (m - 2) + [1, 0, -1],
                         lambda x: 2 / (n * (n + 1) * _legendre(n, x)[0] ** 2), (-1, 1))


@lru_cache(maxsize=None)
def gauss_radau(m: int) -> QuadratureRule:
    """m-point left Gauss-Radau rule on [0, 1] with node at 0; degree 2m - 2."""
    if m < 1:
        raise ValueError(f"need at least one node, got {m}")
    # P_{m-1} + P_m vanishes at -1 and at the m - 1 free nodes; A-S 25.4.31:
    # w = (1 - x) / (m^2 P_{m-1}(x)^2), which is 2 / m^2 at -1
    return _LegendreRule(f"R{m}", 2 * m - 2, [0] * (m - 1) + [1, 1],
                         lambda x: (1 - x) / (m * m * _legendre(m - 1, x)[0] ** 2), (-1,))


_DMM_NODE_DATA = {
    # degree -> (fixed node or None, (radicand, divisor), weights); the nodes
    # are the fixed one, if any, and 1/2 +- sqrt(radicand)/divisor, one sign
    # per rule variant
    1: (None, (6, 6), (Fraction(1),)),
    2: (0, (15, 30), (Fraction(2, 7), Fraction(5, 7))),
    3: (0, (14, 14), (Fraction(-17, 375), Fraction(392, 375))),
}


@lru_cache(maxsize=None)
def dmm_rule(p: int, sign: int = 1) -> QuadratureRule:
    """Minimizing rule for degree p (p <= 3), one variant per sign.

    The rules have one or two nodes, no polynomial exactness, and possibly
    a negative weight; used for both the stiffness and the mass form they
    reproduce the exact stiffness row and the dispersion-minimized mass row
    exactly (in the stencil-sum sense).
    """
    if p not in _DMM_NODE_DATA:
        raise ValueError(f"minimizing rules are tabulated for p in 1..3, got {p}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    fixed, (radicand, divisor), weights = _DMM_NODE_DATA[p]
    with mp.workdps(_DPS + 15):
        free = mp.mpf(1) / 2 + sign * mp.sqrt(radicand) / divisor
        nodes = ([mp.mpf(fixed)] if fixed is not None else []) + [free]
        weights = [mp.mpf(w.numerator) / w.denominator for w in weights]
    tag = "+" if sign > 0 else "-"
    return QuadratureRule(f"D{p}{tag}", tuple(nodes), tuple(weights), 0)


def _check_exactness(p: int, rule: QuadratureRule, require: bool):
    if require and rule.exactness < 2 * p - 2:
        raise ValueError(
            f"rule {rule.label} is exact only to degree {rule.exactness}; "
            f"degree {2 * p - 2} is required at p = {p} "
            "(pass require_exactness=False to override)"
        )


def quadrature_mass_stencil(p: int, rule: QuadratureRule,
                            require_exactness: bool = True) -> tuple:
    """Interior mass row induced by applying the rule on every knot span.

    Entry k sums, over the p + 1 spans shared by two splines at offset k,
    the rule applied to the product of the two cardinal splines.  The row
    is the tuple of entries at offsets 0..p, mpf at the rule's
    construction precision.
    """
    _check_exactness(p, rule, require_exactness)
    return _stencil_from_rule(p, rule, "mass")


def quadrature_stiffness_stencil(p: int, rule: QuadratureRule,
                                 require_exactness: bool = True) -> tuple:
    """Interior stiffness row induced by the rule, as quadrature_mass_stencil's;
    exact for degree >= 2p - 2."""
    _check_exactness(p, rule, require_exactness)
    return _stencil_from_rule(p, rule, "stiffness")


def _times(f, g) -> tuple[int, ...]:
    """The product of two integer polynomials, coefficients lowest first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


@lru_cache(maxsize=None)
def _type_basis(p: int, left: int, right: int) -> tuple:
    """The basis on one element type and its derivative as exact integer
    polynomials in the element's centred coordinate u = 2x - 1.

    The type of element e of a uniform open-knot mesh of N elements is
    (left, right) = (min(e, p - 1), min(N - 1 - e, p - 1)): its local
    knots, in elements from its left end, are k clamped to [-left,
    right + 1] for k = -p..p + 1.  The scheme never reads the knots at
    k = -p and k = p + 1, so left = p gives the basis of left = p - 1, and
    likewise right: the cap leaves the 2p - 1 distinct bases of a mesh
    (assembly._element_types).  Returns (den, slopes, values): values[a]
    holds the coefficients, lowest degree first, of den phi_a and
    slopes[a] those of den phi'_a, where phi_a is local function a (basis
    function e + a) on the element, ' is d/dx and den is the least common
    denominator of the type's basis.  The basis comes from the triangular
    Cox-de Boor scheme run on integer polynomials in u, on the knots
    mapped to u (odd integers), each level over one common denominator,
    so no Fraction arithmetic is done; the pieces are closed polynomials
    on the element.  The interior type (p - 1, p - 1) gives the
    cardinal-spline pieces (_piece_products).  Only the basis is kept:
    the rows and the assembly form the products they integrate, and the
    energy error evaluates it at its nodes.
    """
    if p < 1:
        raise ValueError(f"degree must be >= 1, got {p}")
    # the local knots in u, where the element is [s[p], s[p + 1]] = [-1, 1]
    s = [2 * min(max(k, -left), right + 1) - 1 for k in range(-p, p + 2)]
    vals, den = [[1]], 1
    for q in range(1, p + 1):
        # the q spans under the level-(q - 1) functions; each is positive,
        # as it covers the element
        spans = [s[p + r + 1] - s[p + 1 - q + r] for r in range(q)]
        lcm = math.lcm(*spans)
        out, saved = [], (0,) * (q + 1)
        for r in range(q):
            temp = [a * (lcm // spans[r]) for a in vals[r]]
            # right_{r+1} = s[p + r + 1] - u, left_{q-r} = u - s[p + 1 - q + r]
            out.append([a + b for a, b in zip(saved, _times(temp, (s[p + r + 1], -1)))])
            saved = _times(temp, (-s[p + 1 - q + r], 1))
        vals, den = out + [saved], den * lcm
    g = math.gcd(den, *(a for f in vals for a in f))
    values = tuple(tuple(a // g for a in f) for f in vals)
    # d/dx = 2 d/du
    slopes = tuple(tuple(2 * i * f[i] for i in range(1, p + 1)) for f in values)
    return den // g, slopes, values


@lru_cache(maxsize=None)
def _piece_products(p: int, kind: str) -> tuple[tuple[int, ...], ...]:
    """Span integrands of the induced rows as exact integer polynomials.

    Row k holds the coefficients, lowest degree first, of (p! 2^p)^2 Q_k
    in u = 2x - 1, where Q_k(x) is the sum over e = k..p of piece e times
    piece e - k of the cardinal spline on one span x in [0, 1] (of its
    first derivative in x for kind "stiffness"): the sum of the interior
    element's products at offset k, local function a being piece p - a,
    whose common denominator is p! 2^p.  Each piece is a closed
    polynomial on its span.
    """
    _, slopes, values = _type_basis(p, p - 1, p - 1)
    f = values if kind == "mass" else slopes
    return tuple(tuple(map(sum, zip(*(_times(f[a], f[a + k]) for a in range(p + 1 - k)))))
                 for k in range(p + 1))


@lru_cache(maxsize=None)
def _stencil_from_rule(p: int, rule: QuadratureRule, kind: str) -> tuple:
    # Cached: rules hash without building a node, and the pairs of `tau`
    # and the stencil and dispersion jobs ask for the same rows again.
    # Entry k applies the rule on one span to the exact polynomial Q_k of
    # _piece_products, so the rule enters only through its moments of
    # u = 2x - 1, each converted once to mpf: exact Fractions for the
    # classical families, their blend for a blend, node sums for the point
    # rules.  The pieces are closed on the span, which keeps endpoint nodes
    # on the integrand of their own span (the p = 1 derivative jumps).
    table = _piece_products(p, kind)
    with mp.workdps(_DPS + 15):
        moments = [_to_mp(m) for m in rule.moments(len(table[0]))]
        den = (math.factorial(p) * 2 ** p) ** 2
        return tuple(mp.fdot(row, moments) / den for row in table)


def optimal_tau(p: int, b_first, b_second):
    """Blend ratio that cancels the order-(p+1) moment between two mass rows.

    Returns tau with tau * first + (1 - tau) * second dispersion minimized:
    tau = M(second) / (M(second) - M(first)) where M is the order-(p+1)
    coupled moment against the exact stiffness row.  Raises
    DegenerateBlendError when the two moments coincide.
    """
    A = stiffness_stencil(p)
    with mp.workdps(_DPS):
        m1 = dispersion_moment(A, b_first, p + 1)
        m2 = dispersion_moment(A, b_second, p + 1)
        den = m2 - m1
        # relative test: the moments shrink factorially with p, so an
        # absolute threshold would flag legitimate tiny denominators
        scale = max(abs(m1), abs(m2), mp.mpf(1) * 1e-30)
        if abs(den) < 1e-14 * scale:
            raise DegenerateBlendError(
                f"mass rows share the order-{p + 1} moment at p = {p}"
            )
        return m2 / den


# each classical family by name: its builder and its fewest nodes
FAMILIES = {"gauss": (gauss_legendre, 1), "lobatto": (gauss_lobatto, 2),
            "radau": (gauss_radau, 1)}

# the classical rule each letter names at degree p, as its family and its
# node count less p: g the (p+1)-point Legendre, p the p-point Legendre,
# l the (p+1)-point Lobatto, r the p-point Radau
LETTERS = {"g": ("gauss", 1), "p": ("gauss", 0), "l": ("lobatto", 1), "r": ("radau", 0)}

# each blend pair by name, as the letters of its two rules; in gg the
# second g is the p-point Legendre
_PAIRS = {"gg": "gp", "gl": "gl", "gr": "gr", "pl": "pl", "pr": "pr", "lr": "lr"}
_PAIR_NAMES = tuple(_PAIRS)


def letter_rule(p: int, letter: str) -> QuadratureRule:
    """The classical rule a letter of LETTERS names at degree p."""
    family, extra = LETTERS[letter]
    return FAMILIES[family][0](p + extra)


def _pair_rules(p: int, pair: str) -> tuple[QuadratureRule, QuadratureRule]:
    if pair not in _PAIRS:
        raise ValueError(f"pair must be one of {_PAIR_NAMES}, got {pair!r}")
    first, second = _PAIRS[pair]
    return letter_rule(p, first), letter_rule(p, second)


def blend(rule1: QuadratureRule, rule2: QuadratureRule, tau) -> BlendedRule:
    """Affine combination of two rules as a single (possibly signed) rule.

    Its moments are the blend of the two rules' moments, so its induced
    rows are the blends of theirs.  Its nodes, built on first read, are
    the union of the two node sets with weights scaled by tau and 1 - tau.
    """
    return BlendedRule(rule1, rule2, tau)


@lru_cache(maxsize=None)
def optimal_blend(p: int, pair: str = "gl") -> BlendedRule:
    """Blend of a named pair at its minimizing ratio.

    Pair letters are those of LETTERS; e.g. "gl" blends the (p+1)-point
    Legendre with the (p+1)-point Lobatto rule.  The ratio,
    .tau, is optimal_tau's 40-digit value; DegenerateBlendError when the
    pair has none.
    """
    r1, r2 = _pair_rules(p, pair)
    tau = optimal_tau(
        p, quadrature_mass_stencil(p, r1), quadrature_mass_stencil(p, r2)
    )
    return blend(r1, r2, tau)


def _mpf_to_fraction(x) -> Fraction:
    # read off the binary mantissa and exponent: mp.mpf() would re-round to
    # the ambient precision
    sign, man, exp, _ = x._mpf_
    f = Fraction(int(man)) * Fraction(2) ** exp
    return -f if sign else f


def _rationalize(values, max_den=10 ** 9, tol=Fraction(1, 10 ** 25)):
    """Recover exact fractions from mp stencil values, or None if they
    do not round-trip within tol."""
    out = []
    for v in values:
        exact = _mpf_to_fraction(v)
        f = exact.limit_denominator(max_den)
        if abs(exact - f) > tol:
            return None
        out.append(f)
    return out


def _normalize_row(row):
    """Scale a rational row to the smallest integer vector, first nonzero
    entry > 0."""
    _, ints = integer_row(row)
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


@dataclass(frozen=True)
class TripleBlendReport:
    """Reduced 2x2 system for a three-rule blend hitting order 2p + 4.

    rows hold the two normalized integer equations in (tau_1, tau_2) with
    tau_3 = 1 - tau_1 - tau_2: entries (a, b, rhs) meaning a tau_1 +
    b tau_2 = rhs.  solution is the exact rational pair when the system is
    uniquely solvable, else None; consistent reports solvability.
    """

    p: int
    labels: tuple[str, str, str]
    rows: tuple[tuple[int, int, int], tuple[int, int, int]]
    solution: tuple | None
    consistent: bool


def triple_blend_check(p: int, rule1: QuadratureRule, rule2: QuadratureRule,
                       rule3: QuadratureRule) -> TripleBlendReport:
    """Conditions for a three-rule mass blend to cancel two error orders.

    Writes the vanishing of the order-2p and order-(2p+2) dispersion error
    coefficients of the blended mass row as two equations in the first two
    blend fractions, eliminating the third through the affine constraint.
    Rows are normalized to the smallest integer form.  The per-rule
    coefficients come from each rule's own error expansion; on the solution
    set the quadratic feedback term of the blend vanishes, so the reduced
    system is genuinely linear.
    """
    rules = (rule1, rule2, rule3)
    A = stiffness_stencil(p)
    stencils = []
    for r in rules:
        _check_exactness(p, r, True)
        stencils.append(quadrature_mass_stencil(p, r))
    for i in range(3):
        for j in range(i + 1, 3):
            diff = max(abs(u - v) for u, v in zip(stencils[i], stencils[j]))
            if diff < 1e-20:
                raise ValueError(
                    f"rules {rules[i].label} and {rules[j].label} induce the "
                    "same mass row; the blend system is degenerate"
                )
    coeffs = []
    for s in stencils:
        rational = _rationalize(s)
        if rational is None:
            raise ArithmeticError(
                "mass row did not resolve to exact rationals; "
                "raise the construction precision"
            )
        c1, c2 = error_expansion(p, A, rational)
        coeffs.append((c1, c2))
    rows = []
    for idx in range(2):
        c_1, c_2, c_3 = (coeffs[r][idx] for r in range(3))
        rows.append(_normalize_row([c_1 - c_3, c_2 - c_3, -c_3]))
    (a1, b1, r1), (a2, b2, r2) = rows
    det = a1 * b2 - a2 * b1
    if det != 0:
        t1 = Fraction(r1 * b2 - r2 * b1, det)
        t2 = Fraction(a1 * r2 - a2 * r1, det)
        solution = (t1, t2)
        consistent = True
    else:
        solution = None
        consistent = (a1 * r2 == a2 * r1) and (b1 * r2 == b2 * r1)
    return TripleBlendReport(
        p=p,
        labels=(rule1.label, rule2.label, rule3.label),
        rows=(rows[0], rows[1]),
        solution=solution,
        consistent=consistent,
    )
