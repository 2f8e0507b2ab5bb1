"""Quadrature families, induced mass rows, blend ratios, triple blends."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from numpy.polynomial.legendre import leggauss, legroots
from scipy.special import roots_jacobi

from basis_reference import cardinal_pieces
from expected_values import (
    BLEND_RATIOS,
    DEGENERATE_PAIRS,
    EXACT_MASS,
    EXACT_STIFFNESS,
    MASS_BY_RULE,
    MINIMIZED_MASS,
    MINRULE_FORMS,
    TRIPLE_SYSTEMS,
)
from igadmm.dmm import dmm_stencil
from igadmm.quadrature import (
    _DPS,
    _PAIR_NAMES,
    DegenerateBlendError,
    QuadratureRule,
    _float_roots,
    _pair_rules,
    _piece_products,
    _rationalize,
    blend,
    dmm_rule,
    gauss_legendre,
    gauss_lobatto,
    gauss_radau,
    optimal_blend,
    optimal_tau,
    quadrature_mass_stencil,
    quadrature_stiffness_stencil,
    triple_blend_check,
)
from igadmm.stencils import mass_stencil, stiffness_stencil

FAMILIES = [
    (gauss_legendre, 1, lambda m: 2 * m - 1),
    (gauss_lobatto, 2, lambda m: 2 * m - 3),
    (gauss_radau, 1, lambda m: 2 * m - 2),
]


def _stencil_close(row, fractions, tol):
    with mp.workdps(60):
        return max(
            abs(v - mp.mpf(f.numerator) / f.denominator)
            for v, f in zip(row, fractions)
        ) < tol


def _apply(rule, f) -> float:
    return float(sum(w * f(x) for x, w in zip(rule.nodes, rule.weights)))


@pytest.mark.parametrize("family,mmin,_deg", FAMILIES)
def test_weights_sum_to_one(family, mmin, _deg):
    for m in range(mmin, 8):
        assert abs(sum(family(m).weights) - 1.0) < 1e-14


@pytest.mark.parametrize("family,mmin,deg", FAMILIES)
def test_polynomial_exactness_is_sharp(family, mmin, deg):
    for m in range(max(mmin, 2), 6):
        rule = family(m)
        assert rule.exactness == deg(m)
        for d in range(rule.exactness + 1):
            err = abs(_apply(rule, lambda x, d=d: x ** d) - 1.0 / (d + 1))
            assert err < 1e-13, (rule.label, d, err)
        d = rule.exactness + 1
        err = abs(_apply(rule, lambda x, d=d: x ** d) - 1.0 / (d + 1))
        assert err > 1e-11, (rule.label, d, err)


def test_small_rules_are_the_classical_ones():
    g1 = gauss_legendre(1)
    assert g1.nodes == (0.5,) and g1.weights == (1.0,)
    l2 = gauss_lobatto(2)
    assert l2.nodes == (0.0, 1.0) and l2.weights == (0.5, 0.5)
    r1 = gauss_radau(1)
    assert r1.nodes == (0.0,) and r1.weights == (1.0,)


def test_constrained_nodes_present():
    for m in range(2, 8):
        assert gauss_lobatto(m).nodes[0] == 0.0
        assert gauss_lobatto(m).nodes[-1] == 1.0
        assert gauss_radau(m).nodes[0] == 0.0


def test_rule_validates_node_weight_pairing():
    with pytest.raises(ValueError):
        QuadratureRule("bad", (0.0, 1.0), (1.0,), 0)
    rule = QuadratureRule("mid", (0.25, 0.75), (0.5, 0.5), 1)
    assert all(isinstance(v, mp.mpf) for v in rule.nodes + rule.weights)
    assert rule.nodes == (0.25, 0.75) and rule.weights == (0.5, 0.5)
    for bad in (lambda: gauss_legendre(0),
                lambda: gauss_lobatto(1),
                lambda: gauss_radau(0)):
        with pytest.raises(ValueError):
            bad()


def _weights_from_moments(nodes01):
    """Interpolatory weights on [0, 1]: solve the Vandermonde moment system."""
    n = len(nodes01)
    V = mp.matrix(n, n)
    rhs = mp.matrix(n, 1)
    for j in range(n):
        rhs[j] = mp.mpf(1) / (j + 1)
        for i in range(n):
            V[j, i] = nodes01[i] ** j
    w = mp.lu_solve(V, rhs)
    return [w[i] for i in range(n)]


def _newton(f, df, x0):
    x = mp.mpf(x0)
    for _ in range(60):
        dx = f(x) / df(x)
        x -= dx
        if abs(dx) < mp.mpf(10) ** (-mp.dps + 2):
            break
    return x


def _reference_rule(family, m):
    """The m-point rule by its own family's route: leggauss seeds and
    mp.legendre for Gauss, roots_jacobi seeds and the Legendre ODE for the
    roots of P'_{m-1} (Lobatto), roots_jacobi and mp.jacobi (Radau)."""
    with mp.workdps(_DPS + 15):
        if family == "G":
            def f(x):
                return mp.legendre(m, x)

            def df(x):
                return m * (x * mp.legendre(m, x) - mp.legendre(m - 1, x)) / (x * x - 1)

            nodes = [_newton(f, df, s) for s in leggauss(m)[0]] if m > 1 else [mp.mpf(0)]
            exactness = 2 * m - 1
        elif family == "L":
            n = m - 1

            def f(x):
                return n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)

            def df(x):
                return (2 * x * f(x) - n * (n + 1) * mp.legendre(n, x)) / (1 - x * x)

            seeds = roots_jacobi(m - 2, 1, 1)[0] if m > 2 else []
            nodes = [mp.mpf(-1)] + [_newton(f, df, s) for s in seeds] + [mp.mpf(1)]
            exactness = 2 * m - 3
        else:
            n = m - 1

            def f(x):
                return mp.jacobi(n, 0, 1, x)

            def df(x):
                return (n + 2) * mp.jacobi(n - 1, 1, 2, x) / 2

            seeds = roots_jacobi(m - 1, 0, 1)[0] if m > 1 else []
            nodes = [mp.mpf(-1)] + [_newton(f, df, s) for s in seeds]
            exactness = 2 * m - 2
        nodes01 = [(x + 1) / 2 for x in sorted(nodes)]
        return QuadratureRule(f"{family}{m}", tuple(nodes01),
                              tuple(_weights_from_moments(nodes01)), exactness)


@pytest.mark.parametrize("build,mmin", [(gauss_legendre, 1), (gauss_lobatto, 2),
                                        (gauss_radau, 1)])
def test_closed_form_weights_are_the_moment_solution_to_40_digits(build, mmin):
    for m in range(mmin, 31):
        rule = build(m)
        with mp.workdps(_DPS + 15):
            if m <= 20:
                solved = _weights_from_moments(list(rule.nodes))
                assert ([mp.nstr(w, _DPS) for w in rule.weights]
                        == [mp.nstr(w, _DPS) for w in solved]), m
            # every moment the rule is exact for, to the working precision;
            # the Vandermonde solve misses these by up to 1e-44 at m = 30
            for j in range(rule.exactness + 1):
                got = mp.fsum(w * x ** j for w, x in zip(rule.weights, rule.nodes))
                assert abs(got - mp.mpf(1) / (j + 1)) < mp.mpf(10) ** -54, (m, j)
            # the endpoint weights in closed form: 1/(m(m-1)) for Lobatto,
            # 1/m^2 for Radau
            if build is gauss_lobatto:
                assert abs(rule.weights[0] * m * (m - 1) - 1) < mp.mpf(10) ** -54, m
            if build is gauss_radau:
                assert abs(rule.weights[0] * m * m - 1) < mp.mpf(10) ** -54, m


@pytest.mark.parametrize("build", [lambda: gauss_legendre(3), lambda: optimal_blend(3, "gl")])
def test_a_rule_rebuilt_from_its_nodes_and_weights_is_the_same_rule(build):
    # built outside any workdps: at mpmath's ambient 53 bits the rebuilt
    # rule would round the 40-digit nodes and weights
    rule = build()
    rebuilt = QuadratureRule("copy", rule.nodes, rule.weights, rule.exactness)
    assert (rebuilt.nodes, rebuilt.weights) == (rule.nodes, rule.weights)
    assert all(w != float(w) for w in rebuilt.weights)  # more digits than a float
    # the copy's row sums its nodes, the original's reads exact moments:
    # they agree far below the 1e-17 a 53-bit rounding of the nodes costs
    gap = _rel_gap(_induced_row(3, rebuilt, "mass"), _induced_row(3, rule, "mass"))
    assert gap < 1e-45, mp.nstr(gap, 3)
    got, want = rebuilt.as_longdouble(), rule.as_longdouble()
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _node_sums(rule, count):
    """The rule applied to u^j, u = 2x - 1, j < count, over its nodes."""
    with mp.workdps(_DPS + 15):
        return [mp.fsum(w * (2 * x - 1) ** j for x, w in zip(rule.nodes, rule.weights))
                for j in range(count)]


@pytest.mark.parametrize("family,mmin,_deg", FAMILIES)
def test_exact_moments_are_the_node_sums(family, mmin, _deg):
    for m in range(mmin, 17):
        rule = family(m)
        exact = rule.moments(2 * m + 4)  # past the exactness degree
        assert all(isinstance(v, Fraction) for v in exact)
        assert exact[0] == 1
        with mp.workdps(70):
            gap = max(abs(mp.mpf(v.numerator) / v.denominator - s)
                      for v, s in zip(exact, _node_sums(rule, len(exact))))
        assert gap < 1e-50, (rule.label, mp.nstr(gap, 3))


@pytest.mark.parametrize("p", range(1, 11))
def test_the_gauss_mass_row_rationalizes_to_the_exact_row(p):
    # (2p + 1)! clears every denominator of the exact row
    row = quadrature_mass_stencil(p, gauss_legendre(p + 1))
    assert _rationalize(row, max_den=math.factorial(2 * p + 1)) == list(mass_stencil(p))


@pytest.mark.parametrize("p", range(1, 9))
def test_blend_moments_are_the_sums_over_its_node_union(p):
    for pair in _blend_pairs(p):
        rule = optimal_blend(p, pair)
        r1, r2 = _pair_rules(p, pair)
        assert rule.nodes == r1.nodes + r2.nodes and len(rule.weights) == len(rule.nodes)
        moments = rule.moments(2 * p + 1)
        with mp.workdps(70):
            gap = max(abs(a - b) for a, b in zip(moments, _node_sums(rule, len(moments))))
        assert gap < 1e-45, (pair, mp.nstr(gap, 3))


def test_rows_and_ratios_build_no_node():
    rules = [build.__wrapped__(6) for build in (gauss_legendre, gauss_lobatto, gauss_radau)]
    r1, r2 = rules[0], rules[1]
    tau = optimal_tau(5, quadrature_mass_stencil(5, r1), quadrature_mass_stencil(5, r2))
    mixed = blend(r1, r2, tau)
    for rule in rules + [mixed]:
        {rule: None}  # the caches hash their rule
        assert rule == rule and rule != gauss_legendre(6)  # a rule equals only itself
        quadrature_stiffness_stencil(5, rule, require_exactness=False)
        assert "_points" not in vars(rule), rule.label
    assert mixed.nodes == r1.nodes + r2.nodes  # built on first read
    assert "_points" in vars(mixed) and "_points" in vars(r1)


def test_the_longdouble_view_is_converted_once_and_read_only():
    rule = gauss_legendre(8)
    nodes, weights = rule.as_longdouble()
    assert rule.as_longdouble()[0] is nodes
    assert not nodes.flags.writeable and not weights.flags.writeable
    for view, values in ((nodes, rule.nodes), (weights, rule.weights)):
        assert view.dtype == np.longdouble
        assert list(view) == [np.longdouble(mp.nstr(v, 25)) for v in values]


def test_a_rule_takes_exact_rationals():
    # the two-point rule exact for degree 1 with nodes at the thirds
    rule = QuadratureRule("thirds", (Fraction(1, 3), Fraction(2, 3)),
                          (Fraction(1, 2), Fraction(1, 2)), 1)
    with mp.workdps(_DPS + 15):
        third = mp.mpf(1) / 3
        want = QuadratureRule("thirds", (third, 2 * third), (mp.mpf(1) / 2,) * 2, 1)
    assert (rule.nodes, rule.weights) == (want.nodes, want.weights)
    assert all(isinstance(v, mp.mpf) for v in rule.nodes + rule.weights)
    assert rule.nodes[0] != float(rule.nodes[0])  # more digits than a float
    with mp.workdps(_DPS):
        assert mp.nstr(rule.nodes[0], _DPS) == "0." + "3" * _DPS


@pytest.mark.parametrize("family,build,mmin", [
    ("G", gauss_legendre, 1), ("L", gauss_lobatto, 2), ("R", gauss_radau, 1)])
def test_series_builder_matches_each_familys_own_route(family, build, mmin):
    for m in range(mmin, 31):
        rule, ref = build(m), _reference_rule(family, m)
        assert (rule.label, rule.exactness) == (ref.label, ref.exactness)
        with mp.workdps(60):
            gap = max(abs(a - b) for a, b in zip(rule.nodes, ref.nodes))
        assert len(rule.nodes) == m and gap < mp.mpf(10) ** -54, (m, gap)
        assert ([float(v) for v in rule.nodes + rule.weights]
                == [float(v) for v in ref.nodes + ref.weights]), m
        got, want = rule.as_longdouble(), ref.as_longdouble()
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), m
        # the fixed endpoints enter exactly, unpolished
        if family != "G":
            assert rule.nodes[0] == 0, m
        if family == "L":
            assert rule.nodes[-1] == 1, m


@pytest.mark.parametrize("series,fixed,mmin", [
    (lambda m: [0] * m + [1], (), 1),                      # Gauss-Legendre P_m
    (lambda m: [0] * (m - 2) + [1, 0, -1], (-1, 1), 2),    # Lobatto P_{m-2} - P_m
    (lambda m: [0] * (m - 1) + [1, 1], (-1,), 1),          # left Radau P_{m-1} + P_m
], ids=["gauss", "lobatto", "radau"])
def test_float_seeds_are_numpys_legroots(series, fixed, mmin):
    for m in range(mmin, 61):
        coeffs = series(m)
        roots = np.sort(legroots(coeffs))
        # legroots finds the fixed endpoints too; they are not seeded
        free = roots[int(-1 in fixed): len(roots) - int(1 in fixed)]
        assert np.allclose(np.setdiff1d(roots, free), sorted(fixed), rtol=0, atol=1e-13), m
        seeds = _float_roots(coeffs, fixed)
        assert seeds == sorted(seeds, reverse=True), m
        assert np.max(np.abs(np.sort(seeds) - free), initial=0) < 1e-13, m


@pytest.mark.parametrize("p,name", sorted(MASS_BY_RULE))
def test_underintegrated_mass_rows_frozen(p, name):
    rule = {
        "gp": lambda: gauss_legendre(p),
        "lobatto": lambda: gauss_lobatto(p + 1),
        "radau": lambda: gauss_radau(p),
    }[name]()
    row = quadrature_mass_stencil(p, rule)
    assert _stencil_close(row, MASS_BY_RULE[p, name], 1e-20)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_full_gauss_reproduces_exact_rows(p):
    g = gauss_legendre(p + 1)
    assert _stencil_close(quadrature_mass_stencil(p, g), EXACT_MASS[p], 1e-20)
    assert _stencil_close(
        quadrature_stiffness_stencil(p, g), EXACT_STIFFNESS[p], 1e-18
    )


def test_exactness_guard():
    with pytest.raises(ValueError):
        quadrature_mass_stencil(3, gauss_legendre(2))
    row = quadrature_mass_stencil(3, gauss_legendre(2), require_exactness=False)
    assert len(row) == 4


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_minimizing_rule_closed_form(p, sign):
    rule = dmm_rule(p, sign)
    fixed, radicand, divisor, weights = MINRULE_FORMS[p]
    with mp.workdps(40):
        free = mp.mpf(1) / 2 + sign * mp.sqrt(radicand) / divisor
        want = ([mp.mpf(fixed)] if fixed is not None else []) + [free]
        assert max(abs(a - b) for a, b in zip(rule.nodes, want)) < mp.mpf(10) ** -38
    assert tuple(float(w) for w in weights) == tuple(float(w) for w in rule.weights)
    assert rule.exactness == 0


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_minimizing_rule_reproduces_both_rows(p, sign):
    rule = dmm_rule(p, sign)
    mass = quadrature_mass_stencil(p, rule, require_exactness=False)
    stiff = quadrature_stiffness_stencil(p, rule, require_exactness=False)
    assert _stencil_close(mass, MINIMIZED_MASS[p], 1e-20)
    assert _stencil_close(stiff, EXACT_STIFFNESS[p], 1e-18)


def test_minimizing_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dmm_rule(4)
    with pytest.raises(ValueError):
        dmm_rule(2, sign=0)


@pytest.mark.parametrize("p,pair", sorted(BLEND_RATIOS))
def test_blend_ratios_frozen(p, pair):
    tau = optimal_blend(p, pair).tau
    want = BLEND_RATIOS[p, pair]
    with mp.workdps(40):
        assert abs(tau - mp.mpf(want.numerator) / want.denominator) < 1e-25


@pytest.mark.parametrize("p,pair", sorted(DEGENERATE_PAIRS))
def test_degenerate_pair_raises(p, pair):
    with pytest.raises(DegenerateBlendError):
        optimal_blend(p, pair)


def test_identical_rows_raise():
    row = quadrature_mass_stencil(2, gauss_legendre(3))
    with pytest.raises(DegenerateBlendError):
        optimal_tau(2, row, row)


def test_unknown_pair_rejected():
    with pytest.raises(ValueError):
        optimal_blend(2, "xy")


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
             min_size=1, max_size=5),
)
def test_blend_is_affine_in_the_applications(tau, coeffs):
    r1, r2 = gauss_legendre(3), gauss_lobatto(3)

    def f(x):
        return sum(c * x ** i for i, c in enumerate(coeffs))

    combined = _apply(blend(r1, r2, tau), f)
    split = tau * _apply(r1, f) + (1 - tau) * _apply(r2, f)
    assert abs(combined - split) < 1e-10 * (1 + abs(split))


def test_blended_mass_row_is_the_row_blend():
    p, tau = 2, Fraction(1, 3)
    r1, r2 = gauss_legendre(p + 1), gauss_lobatto(p + 1)
    rows = (quadrature_mass_stencil(p, r1), quadrature_mass_stencil(p, r2))
    mixed = quadrature_mass_stencil(p, blend(r1, r2, tau),
                                    require_exactness=False)
    with mp.workdps(40):
        t = mp.mpf(1) / 3
        for v, a, b in zip(mixed, *rows):
            assert abs(v - (t * a + (1 - t) * b)) < mp.mpf(10) ** -30


@pytest.mark.parametrize("pair", ["gg", "gl", "gr"])
@pytest.mark.parametrize("p", range(1, 7))
def test_optimal_blend_recovers_minimized_row(p, pair):
    row = quadrature_mass_stencil(p, optimal_blend(p, pair),
                                  require_exactness=False)
    assert _stencil_close(row, dmm_stencil(p), 1e-18)


@pytest.mark.parametrize("pair", ["gl", "pr"])
@pytest.mark.parametrize("p", [2, 3])
def test_optimal_blend_is_built_once(p, pair):
    rule = optimal_blend(p, pair)
    assert optimal_blend(p, pair) is rule
    fresh = optimal_blend.__wrapped__(p, pair)
    assert fresh is not rule
    assert (fresh.nodes, fresh.weights, fresh.tau) == (rule.nodes, rule.weights, rule.tau)
    # the 40-digit ratio optimal_tau returned, not a float copy
    r1, r2 = _pair_rules(p, pair)
    assert rule.tau == optimal_tau(p, quadrature_mass_stencil(p, r1),
                                   quadrature_mass_stencil(p, r2))
    assert rule.tau != float(rule.tau)


def test_pair_rules_follow_the_letters():
    labels = {pair: tuple(r.label for r in _pair_rules(3, pair)) for pair in _PAIR_NAMES}
    assert labels == {"gg": ("G4", "G3"), "gl": ("G4", "L4"), "gr": ("G4", "R3"),
                      "pl": ("G3", "L4"), "pr": ("G3", "R3"), "lr": ("L4", "R3")}
    with pytest.raises(ValueError, match="pair must be one of"):
        _pair_rules(3, "gp")


def test_doubled_gauss_identity_in_exact_arithmetic():
    # gg blend at p = 2 has ratio 2: twice the exact row minus the p-point row
    lhs = tuple(2 * e - g for e, g in zip(EXACT_MASS[2], MASS_BY_RULE[2, "gp"]))
    assert lhs == MINIMIZED_MASS[2]


@pytest.mark.parametrize("p", [2, 3])
def test_triple_blend_systems_frozen(p):
    rep = triple_blend_check(
        p, gauss_legendre(p + 1), gauss_lobatto(p + 1), gauss_legendre(p)
    )
    rows = tuple(tuple(int(f) for f in row) for row in TRIPLE_SYSTEMS[p])
    assert rep.rows == rows
    assert not rep.consistent
    assert rep.solution is None


def test_triple_blend_rejects_duplicate_rules():
    with pytest.raises(ValueError):
        triple_blend_check(
            2, gauss_legendre(3), gauss_legendre(3), gauss_radau(2)
        )


# ---------------------------------------------------------------- induced rows


def _reference_row(p, rule, kind):
    """Induced row by the per-node route: at every node, the p + 1 span
    pieces from the test-side Cox-de Boor runs on an interior element."""
    slot = 0 if kind == "mass" else 1
    with mp.workdps(_DPS + 15):
        pairs = tuple(zip(rule.nodes, rule.weights))
        table = [cardinal_pieces(p, x)[slot] for x, _ in pairs]
        vals = []
        for k in range(p + 1):
            acc = mp.mpf(0)
            for (x, w), row in zip(pairs, table):
                for e in range(k, p + 1):
                    acc += w * row[e] * row[e - k]
            vals.append(acc)
    return tuple(vals)


def _induced_row(p, rule, kind):
    make = quadrature_mass_stencil if kind == "mass" else quadrature_stiffness_stencil
    return make(p, rule, require_exactness=False)


def _rel_gap(row, ref):
    # entrywise relative; absolute where the reference entry is 0 (p = 1
    # mass rows of rules with nodes only at the span ends)
    with mp.workdps(80):
        ref = [r if isinstance(r, mp.mpf) else mp.mpf(r.numerator) / r.denominator
               for r in ref]
        return max(abs(a - b) / (abs(b) or 1) for a, b in zip(row, ref))


def _blend_pairs(p):
    return [pair for pair in _PAIR_NAMES if (p, pair) not in DEGENERATE_PAIRS]


def _rules_for(p):
    rules = [gauss_legendre(p), gauss_legendre(p + 1), gauss_lobatto(p + 1),
             gauss_radau(p)]
    rules += [optimal_blend(p, pair) for pair in _blend_pairs(p)]
    if p <= 3:
        rules += [dmm_rule(p, 1), dmm_rule(p, -1)]
    return rules


@pytest.mark.parametrize("kind", ["mass", "stiffness"])
@pytest.mark.parametrize("p", range(1, 9))
def test_induced_rows_match_the_per_node_route(p, kind):
    for rule in _rules_for(p):
        gap = _rel_gap(_induced_row(p, rule, kind), _reference_row(p, rule, kind))
        assert gap < 1e-45, (rule.label, mp.nstr(gap, 3))


@pytest.mark.parametrize("p", range(1, 13))
def test_exact_rules_induce_the_exact_rows(p):
    for rule in (gauss_legendre(p + 1), gauss_lobatto(p + 2), gauss_radau(p + 1)):
        for kind, exact in (("mass", mass_stencil(p)), ("stiffness", stiffness_stencil(p))):
            gap = _rel_gap(_induced_row(p, rule, kind), exact)
            assert gap < 1e-48, (rule.label, kind, mp.nstr(gap, 3))


@pytest.mark.parametrize("kind", ["mass", "stiffness"])
@pytest.mark.parametrize("p", range(1, 9))
def test_piece_products_are_the_cardinal_piece_products(p, kind):
    # both sides are polynomials of degree <= 2p on the span: agreeing at
    # 2p + 2 rational points, the span's ends included, they are equal
    slot = 0 if kind == "mass" else 1
    den = (math.factorial(p) * 2 ** p) ** 2
    table = _piece_products(p, kind)
    assert len(table) == p + 1
    for j in range(2 * p + 2):
        x = Fraction(j, 2 * p + 1)
        u = 2 * x - 1
        piece = cardinal_pieces(p, x)[slot]
        for k, row in enumerate(table):
            got = sum(c * u ** i for i, c in enumerate(row)) / den
            want = sum(piece[e] * piece[e - k] for e in range(k, p + 1))
            assert got == want, (k, x)


def test_induced_rows_need_a_positive_degree():
    with pytest.raises(ValueError):
        quadrature_mass_stencil(0, gauss_legendre(1))
    with pytest.raises(ValueError):
        quadrature_stiffness_stencil(0, gauss_lobatto(2), require_exactness=False)


@pytest.mark.parametrize("p", range(1, 7))
def test_blend_points_are_those_from_reference_rows(p):
    for pair in _blend_pairs(p):
        r1, r2 = _pair_rules(p, pair)
        b1, b2 = (_reference_row(p, r, "mass") for r in (r1, r2))
        want = blend(r1, r2, optimal_tau(p, b1, b2)).as_longdouble()
        got = optimal_blend(p, pair).as_longdouble()
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), pair
