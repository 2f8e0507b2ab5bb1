"""Command line interface.

Subcommands:
  verify      run the exact identity suites, report PASS/FAIL per group
  stencil     print a stiffness/mass row (exact, minimized, or rule-induced)
  tau         print optimal blend ratios for the named rule pairs
  rules       print nodes and weights of a quadrature rule
  study-1d    eigenvalue/eigenfunction convergence study on [0, 1]
  study-2d    eigenvalue convergence study on the unit square
  dispersion  sample a dispersion error curve, fit its order

Exit codes: 0 on success, 1 when a verification fails or a computation
cannot be completed, 2 for usage errors.  All numeric output uses six
significant digits; outputs contain no timestamps or environment details,
so identical invocations produce byte-identical files.  A JSON config file
(--config) may pre-set any long option (keys use underscores); explicit
command line options win.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from igadmm import assembly, dispersion, dmm, eigensolve, quadrature, stencils
from igadmm.splines import BSplineSpace

_FMT = "{:.5e}"


def _fmt(x) -> str:
    return _FMT.format(float(x))


def _fraction_str(value) -> str | None:
    """Exact fraction rendering when the value verifiably is one."""
    if isinstance(value, (Fraction, int)):
        return str(Fraction(value))
    rat = quadrature._rationalize([value])
    if rat is None:
        return None
    return str(rat[0])


def _out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def _dump_json(obj, path) -> None:
    fh, close = _out(path)
    try:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    finally:
        if close:
            fh.close()


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in str(text).split(",") if tok.strip()]


# ---------------------------------------------------------------- rules

_STUDY_RULES = ("gauss", "gp", "lobatto", "radau", "dmm")


def _named_rule(p: int, label: str):
    """Quadrature rule behind a study label, or None for 'dmm'."""
    if label in ("gauss", "G"):
        return quadrature.gauss_legendre(p + 1)
    if label == "gp":
        return quadrature.gauss_legendre(p)
    if label in ("lobatto", "L"):
        return quadrature.gauss_lobatto(p + 1)
    if label in ("radau", "R"):
        return quadrature.gauss_radau(p)
    if label.startswith("blend:"):
        return quadrature.optimal_blend(p, label.split(":", 1)[1])
    raise ValueError(f"unknown rule label {label!r}")


def _mass_row(p: int, label: str):
    """Mass row for dispersion work: exact, minimized, or rule-induced."""
    if label == "exact":
        return stencils.mass_stencil(p).values
    if label == "dmm":
        return dmm.dmm_stencil(p).values
    if label in ("minrule+", "minrule-"):
        rule = quadrature.dmm_rule(p, 1 if label.endswith("+") else -1)
        return quadrature.quadrature_mass_stencil(p, rule, require_exactness=False).values
    return quadrature.quadrature_mass_stencil(p, _named_rule(p, label)).values


# ---------------------------------------------------------------- verify


def run_verify(p_max: int, fg_p_max: int, fg_m_max: int):
    """All identity suites; returns (ok, suite summaries)."""
    suites = []
    for p in range(1, p_max + 1):
        rep = stencils.verify_base_identities(p)
        suites.append(("base-identities", p, rep))
    for p in range(2, p_max + 1):
        suites.append(("moment-identities", p, stencils.verify_ab_identity(p)))
    for p in range(1, p_max + 1):
        suites.append(("minimized-moment-identities", p, dmm.verify_dmm_identity(p)))
    suites.append(("coefficient-recursion", None, stencils.fg_verify(fg_p_max, fg_m_max)))
    ok = all(rep.ok for _, _, rep in suites)
    return ok, suites


def _cmd_verify(args) -> int:
    ok, suites = run_verify(args.p_max, args.fg_p_max, args.fg_m_max)
    lines = []
    for name, p, rep in suites:
        tag = f"{name}" + (f" p={p}" if p is not None else "")
        word = "PASS" if rep.ok else "FAIL"
        lines.append(f"{word} {tag} ({len(rep.checks)} checks)")
    print("\n".join(lines))
    print(f"{'PASS' if ok else 'FAIL'} total "
          f"({sum(len(rep.checks) for _, _, rep in suites)} checks)")
    if args.json is not None:
        payload = {
            "kind": "verify",
            "ok": ok,
            "suites": [
                {
                    "name": name,
                    "p": p,
                    "checks": len(rep.checks),
                    "failures": len(rep.failures()),
                }
                for name, p, rep in suites
            ],
        }
        _dump_json(payload, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------- stencil


def _cmd_stencil(args) -> int:
    p = args.p
    if getattr(args, "dmm", False):
        args.rule = "dmm"
    if args.rule == "exact":
        row = (stencils.stiffness_stencil(p) if args.form == "stiffness"
               else stencils.mass_stencil(p)).values
    elif args.rule == "dmm":
        if args.form == "stiffness":
            row = stencils.stiffness_stencil(p).values
        else:
            row = dmm.dmm_stencil(p).values
    elif args.rule in ("minrule+", "minrule-"):
        rule = quadrature.dmm_rule(p, 1 if args.rule.endswith("+") else -1)
        maker = (quadrature.quadrature_stiffness_stencil
                 if args.form == "stiffness" else quadrature.quadrature_mass_stencil)
        row = maker(p, rule, require_exactness=False).values
    else:
        rule = _named_rule(p, args.rule)
        maker = (quadrature.quadrature_stiffness_stencil
                 if args.form == "stiffness" else quadrature.quadrature_mass_stencil)
        row = maker(p, rule).values
    entries = []
    for k, v in enumerate(row):
        frac = _fraction_str(v)
        entries.append({"offset": k, "value": _fmt(v), "fraction": frac})
        shown = frac if frac is not None else _fmt(v)
        print(f"k={k} {shown}")
    if args.json is not None:
        _dump_json({
            "kind": "stencil",
            "p": p,
            "form": args.form,
            "rule": args.rule,
            "entries": entries,
        }, args.json)
    return 0


# ---------------------------------------------------------------- tau


def _cmd_tau(args) -> int:
    ps = _int_list(args.p)
    pairs = list(quadrature._PAIR_NAMES) if args.pair == "all" else _str_list(args.pair)
    entries = []
    for p in ps:
        for pair in pairs:
            try:
                tau = quadrature.tau_for_pair(p, pair)
            except quadrature.DegenerateBlendError:
                entries.append({"p": p, "pair": pair, "tau": "degenerate",
                                "tau_fraction": None})
                print(f"p={p} pair={pair} degenerate")
                continue
            frac = _fraction_str(tau)
            entries.append({"p": p, "pair": pair, "tau": _fmt(tau),
                            "tau_fraction": frac})
            shown = f"{frac} ({_fmt(tau)})" if frac else _fmt(tau)
            print(f"p={p} pair={pair} tau={shown}")
    if args.json is not None:
        _dump_json({"kind": "tau", "entries": entries}, args.json)
    return 0


# ---------------------------------------------------------------- rules


def _cmd_rules(args) -> int:
    fam = args.family
    if fam == "gauss":
        rule = quadrature.gauss_legendre(args.points)
    elif fam == "lobatto":
        rule = quadrature.gauss_lobatto(args.points)
    elif fam == "radau":
        rule = quadrature.gauss_radau(args.points)
    elif fam == "dmm":
        rule = quadrature.dmm_rule(args.p, args.sign)
    else:  # blend
        rule = quadrature.optimal_blend(args.p, args.pair)
    print(f"label={rule.label} exactness={rule.exactness}")
    for x, w in zip(rule.nodes, rule.weights):
        print(f"node={_fmt(x)} weight={_fmt(w)}")
    if args.json is not None:
        _dump_json({
            "kind": "rules",
            "label": rule.label,
            "exactness": rule.exactness,
            "nodes": [_fmt(x) for x in rule.nodes],
            "weights": [_fmt(w) for w in rule.weights],
        }, args.json)
    return 0


# ---------------------------------------------------------------- studies


def run_study_1d(p: int, meshes, modes, rule_labels, energy: bool = False):
    """Convergence study; returns (ErrorTable, rates list)."""
    rows = []
    rates = []
    for label in rule_labels:
        per_mode: dict[int, list[float]] = {m: [] for m in modes}
        for N in meshes:
            space = BSplineSpace(p, N)
            if label == "dmm":
                pair = assembly.assemble_1d_dmm(space)
            else:
                rule = _named_rule(p, label)
                pair = assembly.assemble_1d(space, rule, rule)
            spectrum = eigensolve.generalized_eig(pair.stiffness, pair.mass)
            errs = eigensolve.relative_ev_errors(spectrum, max(modes))
            for mode in modes:
                ef = (eigensolve.energy_error(pair, spectrum, mode)
                      if energy else None)
                rel = float(errs[mode - 1])
                rows.append(eigensolve.ErrorRow(p, N, label, mode, rel, ef))
                per_mode[mode].append(rel)
        for mode in modes:
            rates.append({
                "rule": label, "mode": mode,
                "rate": eigensolve.convergence_rate(per_mode[mode]),
            })
    return eigensolve.ErrorTable(tuple(rows)), rates


def run_study_2d(p: int, meshes, modes, rule_labels):
    """2D study through the tensor route (1D solve + pairwise sums)."""
    rows = []
    rates = []
    for label in rule_labels:
        per_mode: dict[int, list[float]] = {m: [] for m in modes}
        for N in meshes:
            space = BSplineSpace(p, N)
            if label == "dmm":
                pair = assembly.assemble_1d_dmm(space)
            else:
                rule = _named_rule(p, label)
                pair = assembly.assemble_1d(space, rule, rule)
            spectrum = eigensolve.generalized_eig(pair.stiffness, pair.mass)
            eigs2 = eigensolve.tensor_spectrum_2d(spectrum.eigenvalues, max(modes))
            exact2 = eigensolve.exact_spectrum_2d(max(modes))
            errs = eigensolve.relative_ev_errors(eigs2, max(modes), exact2)
            for mode in modes:
                rel = float(errs[mode - 1])
                rows.append(eigensolve.ErrorRow(p, N, label, mode, rel, None))
                per_mode[mode].append(rel)
        for mode in modes:
            rates.append({
                "rule": label, "mode": mode,
                "rate": eigensolve.convergence_rate(per_mode[mode]),
            })
    return eigensolve.ErrorTable(tuple(rows)), rates


def kron_cross_check(p: int, N: int, label: str, count: int = 12) -> float:
    """Max relative deviation between Kronecker and tensor-sum spectra."""
    space = BSplineSpace(p, N)
    if label == "dmm":
        pair2 = assembly.assemble_2d(space, dmm=True)
        pair1 = assembly.assemble_1d_dmm(space)
    else:
        rule = _named_rule(p, label)
        pair2 = assembly.assemble_2d(space, rule, rule)
        pair1 = assembly.assemble_1d(space, rule, rule)
    spec2 = eigensolve.generalized_eig(pair2.stiffness, pair2.mass)
    spec1 = eigensolve.generalized_eig(pair1.stiffness, pair1.mass)
    tens = eigensolve.tensor_spectrum_2d(spec1.eigenvalues, count)
    direct = spec2.eigenvalues[:count]
    dev = max(
        abs(float(a) - float(b)) / abs(float(b)) for a, b in zip(direct, tens)
    )
    return dev


def _emit_study(table, rates, args, dimension: int) -> int:
    fh, close = _out(args.csv)
    try:
        table.to_csv(fh)
    finally:
        if close:
            fh.close()
    if args.json is not None:
        payload = {
            "kind": "study",
            "dimension": dimension,
            "rows": table.to_json_obj(),
            "rates": [
                {"rule": r["rule"], "mode": r["mode"], "rate": _fmt(r["rate"])}
                for r in rates
            ],
        }
        _dump_json(payload, args.json)
    return 0


class UsageError(ValueError):
    """Invalid command line input, rejected before any computation (exit 2)."""


def _study_lists(args) -> tuple[list[int], list[int]]:
    meshes, modes = _int_list(args.meshes), _int_list(args.modes)
    if len(meshes) < 2 or min(meshes) < 2:
        raise UsageError(f"--meshes needs two or more element counts >= 2: {args.meshes!r}")
    if not modes or min(modes) < 1:
        raise UsageError(f"--modes needs mode numbers >= 1: {args.modes!r}")
    return meshes, modes


def _cmd_study_1d(args) -> int:
    table, rates = run_study_1d(
        args.p, *_study_lists(args), _str_list(args.rules), energy=args.energy,
    )
    return _emit_study(table, rates, args, 1)


def _cmd_study_2d(args) -> int:
    table, rates = run_study_2d(args.p, *_study_lists(args), _str_list(args.rules))
    rc = _emit_study(table, rates, args, 2)
    if args.verify_kron:
        dev = kron_cross_check(args.p, args.verify_kron, _str_list(args.rules)[0])
        print(f"# kron-vs-tensor max rel deviation at N={args.verify_kron}: {_fmt(dev)}")
    return rc


# ---------------------------------------------------------------- dispersion


def _cmd_dispersion(args) -> int:
    p = args.p
    a_row = stencils.stiffness_stencil(p).values
    b_row = _mass_row(p, args.rule)
    import numpy as np

    lams = np.geomspace(args.min, args.max, args.samples)
    curve = dispersion.sample_curve(p, a_row, b_row, lams, label=args.rule)
    lines = ["wavenumber,rel_error"]
    for y, e in zip(curve.wavenumbers, curve.errors):
        lines.append(f"{_fmt(y)},{_fmt(e)}")
    fit = None
    if args.fit:
        fit = dispersion.fit_order(curve.wavenumbers, curve.errors)
        lines.append(f"# fit_order {_fmt(fit)}")
    coeff = None
    if args.coefficient is not None:
        chk = dispersion.coefficient_check(p, a_row, b_row, args.coefficient)
        coeff = {
            "order": chk.order,
            "measured": _fmt(chk.measured),
            "predicted": _fmt(chk.predicted),
            "rel_deviation": _fmt(chk.rel_deviation),
        }
        lines.append(
            f"# coefficient order={chk.order} measured={_fmt(chk.measured)} "
            f"predicted={_fmt(chk.predicted)} rel_deviation={_fmt(chk.rel_deviation)}"
        )
    fh, close = _out(args.csv)
    try:
        fh.write("\n".join(lines) + "\n")
    finally:
        if close:
            fh.close()
    if args.json is not None:
        _dump_json({
            "kind": "dispersion",
            "p": p,
            "rule": args.rule,
            "samples": [
                {"wavenumber": _fmt(y), "rel_error": _fmt(e)}
                for y, e in zip(curve.wavenumbers, curve.errors)
            ],
            "fit_order": None if fit is None else _fmt(fit),
            "coefficient": coeff,
        }, args.json)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igadmm",
        description="Dispersion-minimized and blended quadratures for "
                    "B-spline discretizations of the Laplace eigenproblem.",
    )
    parser.add_argument("--config", help="JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("verify", help="run the exact identity suites")
    q.add_argument("--p-max", type=int, default=8)
    q.add_argument("--fg-p-max", type=int, default=12)
    q.add_argument("--fg-m-max", type=int, default=12)
    q.add_argument("--json", help="write a JSON report (path or -)")
    q.set_defaults(func=_cmd_verify)

    q = sub.add_parser("stencil", help="print a Gram row")
    q.add_argument("-p", "--p", type=int, required=True)
    q.add_argument("--form", choices=("mass", "stiffness"), default="mass")
    q.add_argument("--rule", default="exact",
                   help="exact, dmm, gauss, gp, lobatto, radau, blend:XY, "
                        "minrule+, minrule-")
    q.add_argument("--dmm", action="store_true",
                   help="shorthand for --rule dmm")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_stencil)

    q = sub.add_parser("tau", help="optimal blend ratios")
    q.add_argument("--p", default="1,2,3,4", help="comma list of degrees")
    q.add_argument("--pair", default="all",
                   help="comma list from gg,gl,gr,pl,pr,lr or 'all'")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_tau)

    q = sub.add_parser("rules", help="print quadrature nodes and weights")
    q.add_argument("--family", choices=("gauss", "lobatto", "radau", "dmm", "blend"),
                   required=True)
    q.add_argument("--points", type=int, default=2,
                   help="point count (gauss/lobatto/radau)")
    q.add_argument("-p", "--p", type=int, default=2, help="degree (dmm/blend)")
    q.add_argument("--sign", type=int, choices=(1, -1), default=1)
    q.add_argument("--pair", default="gl", help="pair name (blend)")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_rules)

    q = sub.add_parser("study-1d", help="1D eigenvalue convergence study")
    q.add_argument("-p", "--p", type=int, required=True)
    q.add_argument("--meshes", default="8,16,32,64")
    q.add_argument("--modes", default="1,2,4")
    q.add_argument("--rules", default="gauss,radau,dmm")
    q.add_argument("--energy", action="store_true",
                   help="include eigenfunction energy errors")
    q.add_argument("--csv", help="CSV output path (default stdout)")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_study_1d)

    q = sub.add_parser("study-2d", help="2D eigenvalue convergence study")
    q.add_argument("-p", "--p", type=int, required=True)
    q.add_argument("--meshes", default="8,16,32,64")
    q.add_argument("--modes", default="1,2")
    q.add_argument("--rules", default="gauss,dmm")
    q.add_argument("--verify-kron", type=int, default=0,
                   help="also assemble the Kronecker matrices at this mesh "
                        "and report the spectral deviation")
    q.add_argument("--csv")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_study_2d)

    q = sub.add_parser("dispersion", help="dispersion error curve")
    q.add_argument("-p", "--p", type=int, required=True)
    q.add_argument("--rule", "--mass", dest="rule", default="exact",
                   help="exact, dmm, G, L, R, gauss, gp, lobatto, radau, "
                        "blend:XY, minrule+, minrule-")
    q.add_argument("--min", type=float, default=0.05)
    q.add_argument("--max", type=float, default=0.5)
    q.add_argument("--samples", type=int, default=9)
    q.add_argument("--fit", action="store_true")
    q.add_argument("--coefficient", type=int, default=None,
                   help="compare the error coefficient at this order")
    q.add_argument("--csv")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_dispersion)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        with open(known.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            print("config must be a JSON object", file=sys.stderr)
            return 2
        # subparsers re-apply their own defaults over the namespace, so the
        # config must be pushed into each of them, not just the root parser
        parser.set_defaults(**cfg)
        for action in parser._subparsers._group_actions:
            for sp in action.choices.values():
                sp.set_defaults(**cfg)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
