"""Acceptance gate: every shipped claim, one test and one PASS/FAIL line each.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single summary line through the announce fixture, so a plain
pytest run shows the scoreboard even with capture enabled.
"""

import math
import time
from fractions import Fraction

from mpmath import mp

from expected_values import (
    BLEND_RATIOS,
    DEGENERATE_PAIRS,
    EV_ERRORS_1D,
    EV_ERRORS_2D,
    EXACT_MASS,
    EXACT_STIFFNESS,
    MASS_BY_RULE,
    MESHES,
    MINIMIZED_MASS,
    TRIPLE_SYSTEMS,
)
from igadmm import cli, dispersion, dmm, quadrature, stencils


def _report(announce, num, title, ok, detail):
    word = "PASS" if ok else "FAIL"
    announce(f"{word} criterion {num:02d} {title}: {detail}")
    assert ok, f"criterion {num:02d} {title}: {detail}"


def _rel_dev(value_mp, want: Fraction) -> float:
    with mp.workdps(40):
        w = mp.mpf(want.numerator) / want.denominator
        if w == 0:
            return float(abs(value_mp))
        return float(abs(value_mp - w) / abs(w))


def test_criterion_01_exact_gram_rows(announce):
    t0 = time.perf_counter()
    ok = True
    for p in range(1, 5):
        ok &= stencils.stiffness_stencil(p).values == EXACT_STIFFNESS[p]
        ok &= stencils.mass_stencil(p).values == EXACT_MASS[p]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(announce, 1, "exact stiffness/mass rows p=1..4", ok,
            f"rational equality, {elapsed:.2f}s")


def test_criterion_02_minimized_rows(announce):
    t0 = time.perf_counter()
    ok = all(dmm.dmm_stencil(p).values == MINIMIZED_MASS[p]
             for p in range(1, 5))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(announce, 2, "dispersion-minimized rows p=1..4", ok,
            f"rational equality, {elapsed:.2f}s")


def test_criterion_03_rule_induced_rows(announce):
    worst = 0.0
    for (p, name), want in sorted(MASS_BY_RULE.items()):
        rule = {
            "gp": lambda: quadrature.gauss_legendre(p),
            "lobatto": lambda: quadrature.gauss_lobatto(p + 1),
            "radau": lambda: quadrature.gauss_radau(p),
        }[name]()
        row = quadrature.quadrature_mass_stencil(p, rule)
        worst = max(worst, max(_rel_dev(v, f)
                               for v, f in zip(row.values, want)))
    worst_full = 0.0
    for p in range(1, 5):
        row = quadrature.quadrature_mass_stencil(p, quadrature.gauss_legendre(p + 1))
        worst_full = max(worst_full, max(_rel_dev(v, f)
                                         for v, f in zip(row.values, EXACT_MASS[p])))
    ok = worst < 1e-12 and worst_full < 1e-13
    _report(announce, 3, "under-integrated mass rows p=1..4", ok,
            f"max rel dev {worst:.1e} (reduced rules), {worst_full:.1e} (full Gauss)")


def test_criterion_04_blend_ratios(announce):
    worst = 0.0
    for (p, pair), want in sorted(BLEND_RATIOS.items()):
        worst = max(worst, _rel_dev(quadrature.optimal_blend(p, pair).tau, want))
    degenerate_ok = True
    for p, pair in sorted(DEGENERATE_PAIRS):
        try:
            quadrature.optimal_blend(p, pair)
            degenerate_ok = False
        except quadrature.DegenerateBlendError:
            pass
    ok = worst < 1e-10 and degenerate_ok
    _report(announce, 4, "23 optimal blend ratios + degenerate cell", ok,
            f"max rel dev {worst:.1e}, degenerate raises: {degenerate_ok}")


def test_criterion_05_minimizing_point_rules(announce):
    worst = 0.0
    for p in (1, 2, 3):
        for sign in (1, -1):
            rule = quadrature.dmm_rule(p, sign)
            stiff = quadrature.quadrature_stiffness_stencil(
                p, rule, require_exactness=False)
            mass = quadrature.quadrature_mass_stencil(
                p, rule, require_exactness=False)
            worst = max(worst, max(_rel_dev(v, f) for v, f in
                                   zip(stiff.values, EXACT_STIFFNESS[p])))
            worst = max(worst, max(_rel_dev(v, f) for v, f in
                                   zip(mass.values, MINIMIZED_MASS[p])))
    ok = worst < 1e-12
    _report(announce, 5, "point rules reproduce both rows, both signs", ok,
            f"max rel dev {worst:.1e}")


def test_criterion_06_identity_suites(announce):
    t0 = time.perf_counter()
    ok, suites = cli.run_verify(p_max=12, fg_p_max=12, fg_m_max=12)
    zero = all(c.residual == 0 for _, _, rep in suites for c in rep.checks)
    n_checks = sum(len(rep.checks) for _, _, rep in suites)
    elapsed = time.perf_counter() - t0
    ok = ok and zero and elapsed < 60.0
    _report(announce, 6, "identity suites p<=12, m<=12", ok,
            f"{n_checks} checks, all residuals exactly 0, {elapsed:.1f}s")


def test_criterion_07_convergence_1d(announce):
    t0 = time.perf_counter()
    rules = ("gauss", "radau", "dmm")
    worst = 0.0
    rate_ok = True
    details = []
    for p, want_rates, window in ((2, (4.0, 3.5, 6.0), 0.2),
                                  (3, (6.1, 6.1, 7.8), 0.3)):
        rows, rates = cli.run_study(p, MESHES[p], (1,), rules)
        for rule in rules:
            errs = [r.rel_ev_error for r in rows if r.rule == rule and r.mode == 1]
            if p == 2:
                for got, ref in zip(errs, EV_ERRORS_1D[(2, rule, 1)]):
                    worst = max(worst, abs(got - ref) / ref)
        for (rule, want) in zip(rules, want_rates):
            got = [r["rate"] for r in rates
                   if r["rule"] == rule and r["mode"] == 1][0]
            rate_ok &= abs(got - want) <= window
            details.append(f"{rule}@p{p}={got:.2f}")
        if p == 3:
            tail = [r.rel_ev_error for r in rows if r.rule == "dmm" and r.mode == 1][-1]
            rate_ok &= tail <= 5e-13
            details.append(f"dmm N=32 err {tail:.1e}")
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.20 and rate_ok and elapsed < 30.0
    _report(announce, 7, "1D eigenvalue convergence", ok,
            f"cells max dev {worst:.0%}, rates {' '.join(details)}, {elapsed:.1f}s")


def test_criterion_08_convergence_2d(announce):
    t0 = time.perf_counter()
    rows, rates = cli.run_study(2, MESHES[2], (1,), ("dmm",), dimension=2)
    errs = [r.rel_ev_error for r in rows if r.rule == "dmm" and r.mode == 1]
    worst = max(abs(got - ref) / ref
                for got, ref in zip(errs, EV_ERRORS_2D[(2, "dmm", 1)]))
    rate = rates[0]["rate"]
    dev = cli.kron_cross_check(2, 8, "dmm")
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.20 and abs(rate - 6.0) <= 0.2 and dev < 1e-10 \
        and elapsed < 120.0
    _report(announce, 8, "2D eigenvalue convergence (tensor route)", ok,
            f"cells max dev {worst:.0%}, rate {rate:.2f}, "
            f"kron dev {dev:.1e}, {elapsed:.1f}s")


def test_criterion_09_eigenfunction_rates(announce):
    t0 = time.perf_counter()
    ok = True
    details = []
    for p in (2, 3):
        rows, _ = cli.run_study(p, MESHES[p], (1,), ("gauss", "dmm"),
                                energy=True)
        by_rule = {}
        for rule in ("gauss", "dmm"):
            efs = [r.ef_energy_error for r in rows if r.rule == rule and r.mode == 1]
            by_rule[rule] = efs
            slope = sum(math.log2(a / b) for a, b in zip(efs, efs[1:])) / (len(efs) - 1)
            ok &= abs(slope - p) <= 0.2
            details.append(f"{rule}@p{p}={slope:.2f}")
        ok &= all(d <= 2 * g for g, d in zip(by_rule["gauss"], by_rule["dmm"]))
    elapsed = time.perf_counter() - t0
    _report(announce, 9, "eigenfunction energy-error slopes", ok,
            f"slopes {' '.join(details)}, minimized <= 2x full, {elapsed:.1f}s")


def test_criterion_10_dispersion_orders(announce):
    import numpy as np

    ys = np.geomspace(1e-2, 1e-1, 9)
    ok = True
    details = []
    for p in (1, 2, 3):
        A = stencils.stiffness_stencil(p)
        exact = dispersion.sample_curve(p, A, stencils.mass_stencil(p), ys)
        mini = dispersion.sample_curve(p, A, dmm.dmm_stencil(p), ys)
        s1 = dispersion.fit_order(exact.wavenumbers, exact.errors)
        s2 = dispersion.fit_order(mini.wavenumbers, mini.errors)
        ok &= abs(s1 - 2 * p) <= 0.1 and abs(s2 - (2 * p + 2)) <= 0.1
        details.append(f"p{p}:{s1:.2f}/{s2:.2f}")
    c_exact = dispersion.coefficient_check(
        1, stencils.stiffness_stencil(1), stencils.mass_stencil(1), 2)
    c_mini = dispersion.coefficient_check(
        1, stencils.stiffness_stencil(1), dmm.dmm_stencil(1), 4)
    coeff_ok = (c_exact.rel_deviation < 0.01 and c_mini.rel_deviation < 0.01
                and c_exact.predicted == float(Fraction(1, 12))
                and c_mini.predicted == float(Fraction(-1, 240)))
    ok &= coeff_ok
    _report(announce, 10, "dispersion error orders and coefficients", ok,
            f"slopes {' '.join(details)}, p=1 coeff devs "
            f"{c_exact.rel_deviation:.1e}/{c_mini.rel_deviation:.1e}")


def test_criterion_11_triple_blend_infeasible(announce):
    ok = True
    for p in (2, 3):
        rep = quadrature.triple_blend_check(
            p,
            quadrature.gauss_legendre(p + 1),
            quadrature.gauss_lobatto(p + 1),
            quadrature.gauss_legendre(p),
        )
        ok &= (not rep.consistent) and rep.solution is None
        want = tuple(tuple(int(f) for f in row) for row in TRIPLE_SYSTEMS[p])
        ok &= rep.rows == want
    _report(announce, 11, "no three-rule blend reaches two extra orders", ok,
            "reduced systems match and are inconsistent")
