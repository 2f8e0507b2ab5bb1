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
cannot be completed, 2 for usage errors, among them a --csv or --json
file in a directory that does not exist, or a --csv and a --json that name
one file, checked before any computation.  Each subcommand builds one
report, the object its --json writes, with every number formatted once,
and renders its text (stdout, or the --csv file) from that report's
strings.  All numeric output uses six significant digits; outputs contain no
timestamps or environment details, so identical invocations produce
byte-identical files.  A JSON config file (--config, before the
subcommand) may pre-set any long option of any subcommand (keys use
underscores); explicit command line options win, and any other key is a
config error, as is a value the option of the subcommand run would not
take from the command line.  The parsers are built once per process, on
the first call of main(), and a config never outlives its call.  Only the
study commands import numpy (with assembly, eigensolve and splines), and
only their solves import scipy; the exact commands run on mpmath and the
standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from igadmm import dispersion, dmm, quadrature, stencils

if TYPE_CHECKING:
    from igadmm import assembly, eigensolve
    from igadmm.splines import BSplineSpace


def _fmt(x: float) -> str:
    """Six significant digits, scientific; deterministic across runs."""
    return f"{float(x):.5e}"


def _fraction_str(value) -> str | None:
    """Exact fraction rendering when the value verifiably is one."""
    if isinstance(value, (Fraction, int)):
        return str(Fraction(value))
    rat = quadrature._rationalize([value])
    if rat is None:
        return None
    return str(rat[0])


@contextlib.contextmanager
def _output(path):
    """The file a --csv or --json path names, open for writing, or stdout,
    left open, for None and "-"."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _emit(args, lines: list[str], report: dict) -> None:
    """A subcommand's output: its text lines to the --csv file, or to stdout
    without one, then, with --json, its report."""
    with _output(getattr(args, "csv", None)) as fh:
        fh.write("".join(line + "\n" for line in lines))
    if args.json is not None:
        with _output(args.json) as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError:
        raise UsageError(f"{flag} needs comma-separated integers: {text!r}") from None


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in str(text).split(",") if tok.strip()]


class UsageError(ValueError):
    """Invalid command line input, rejected before any computation (exit 2)."""


def _degree(p: int, flag: str = "-p") -> int:
    if p < 1:
        raise UsageError(f"{flag} needs a degree >= 1: {p}")
    return p


# ---------------------------------------------------------------- rules

# the classical rule labels, by the quadrature letter each names
_CLASSICAL = {"gauss": "g", "G": "g", "gp": "p", "lobatto": "l", "L": "l",
              "radau": "r", "R": "r"}
# every label a study's --rules accepts: a rule from _rule, or "dmm"
_STUDY_RULES = (*_CLASSICAL, "dmm", *(f"blend:{pair}" for pair in quadrature._PAIR_NAMES))
# every row label stencil --rule and dispersion --rule accept
_ROW_RULES = ("exact", "minrule+", "minrule-") + _STUDY_RULES


def _known(names: list[str], accepted, flag: str, given) -> list[str]:
    """names, if there are some and each is one of accepted."""
    if not names or any(name not in accepted for name in names):
        raise UsageError(f"{flag} needs names from {', '.join(accepted)}: {given!r}")
    return names


def _rule(p: int, label: str):
    """The classical or blended quadrature rule behind a label."""
    if label in _CLASSICAL:
        return quadrature.letter_rule(p, _CLASSICAL[label])
    if label.startswith("blend:"):
        return quadrature.optimal_blend(p, label.split(":", 1)[1])
    raise ValueError(f"unknown rule label {label!r}")


def _row(p: int, label: str, form: str):
    """Interior row of form ("mass" or "stiffness"): exact, minimized, or
    induced by the label's rule; "dmm" changes the mass row only."""
    if label == "exact" or (label == "dmm" and form == "stiffness"):
        return stencils.stiffness_stencil(p) if form == "stiffness" else stencils.mass_stencil(p)
    if label == "dmm":
        return dmm.dmm_stencil(p)
    maker = (quadrature.quadrature_stiffness_stencil if form == "stiffness"
             else quadrature.quadrature_mass_stencil)
    if label in ("minrule+", "minrule-"):
        rule = quadrature.dmm_rule(p, 1 if label.endswith("+") else -1)
        return maker(p, rule, require_exactness=False)
    return maker(p, _rule(p, label))


def _pair(space: BSplineSpace, label: str) -> assembly.MatrixPair:
    """Dirichlet 1D stiffness/mass pair behind a study label."""
    from igadmm import assembly

    if label == "dmm":
        return assembly.assemble_1d_dmm(space)
    return assembly.assemble_1d(space, _rule(space.p, label))


def _spectrum(pair, label: str, count: int) -> eigensolve.Spectrum:
    """The leading modes of a 1D or 2D pair; an indefinite mass matrix is
    reported with the label, degree and mesh behind it."""
    from igadmm import eigensolve

    try:
        return eigensolve.generalized_eig(pair.stiffness, pair.mass, count)
    except eigensolve.IndefiniteMassError as exc:
        raise eigensolve.IndefiniteMassError(
            f"{label} at p={pair.space.p}, N={pair.space.N}: {exc}") from None


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
    _degree(args.p_max, "--p-max")
    for flag, value in (("--fg-p-max", args.fg_p_max), ("--fg-m-max", args.fg_m_max)):
        if value < 2:
            raise UsageError(f"{flag} needs a value >= 2: {value}")
    _, suites = run_verify(args.p_max, args.fg_p_max, args.fg_m_max)
    counts = [{"name": name, "p": p, "checks": len(rep.checks), "failures": len(rep.failures())}
              for name, p, rep in suites]
    ok = not any(suite["failures"] for suite in counts)
    lines = []
    for suite in counts:
        tag = suite["name"] if suite["p"] is None else f"{suite['name']} p={suite['p']}"
        lines.append(f"{'FAIL' if suite['failures'] else 'PASS'} {tag} ({suite['checks']} checks)")
    lines.append(f"{'PASS' if ok else 'FAIL'} total "
                 f"({sum(suite['checks'] for suite in counts)} checks)")
    _emit(args, lines, {"kind": "verify", "ok": ok, "suites": counts})
    return 0 if ok else 1


# ---------------------------------------------------------------- stencil


def _cmd_stencil(args) -> int:
    p = _degree(args.p)
    if args.dmm and args.rule not in (None, "dmm"):
        raise UsageError(f"--dmm means --rule dmm; it conflicts with --rule {args.rule}")
    rule = "dmm" if args.dmm else "exact" if args.rule is None else args.rule
    _known([rule], _ROW_RULES, "--rule", rule)
    entries = [{"offset": k, "value": _fmt(v), "fraction": _fraction_str(v)}
               for k, v in enumerate(_row(p, rule, args.form))]
    lines = [f"k={e['offset']} {e['fraction'] or e['value']}" for e in entries]
    _emit(args, lines, {"kind": "stencil", "p": p, "form": args.form, "rule": rule,
                        "entries": entries})
    return 0


# ---------------------------------------------------------------- tau


def _cmd_tau(args) -> int:
    ps = [_degree(p, "--p") for p in _int_list(args.p, "--p")]
    if not ps:
        raise UsageError(f"--p needs one or more degrees: {args.p!r}")
    pairs = (list(quadrature._PAIR_NAMES) if args.pair == "all"
             else _known(_str_list(args.pair), quadrature._PAIR_NAMES, "--pair", args.pair))
    entries = []
    for p in ps:
        for pair in pairs:
            try:
                tau = quadrature.optimal_blend(p, pair).tau
                ratio = {"tau": _fmt(tau), "tau_fraction": _fraction_str(tau)}
            except quadrature.DegenerateBlendError:
                ratio = {"tau": "degenerate", "tau_fraction": None}
            entries.append({"p": p, "pair": pair, **ratio})
    lines = []
    for e in entries:
        if e["tau"] == "degenerate":
            shown = "degenerate"
        elif e["tau_fraction"]:
            shown = f"tau={e['tau_fraction']} ({e['tau']})"
        else:
            shown = f"tau={e['tau']}"
        lines.append(f"p={e['p']} pair={e['pair']} {shown}")
    _emit(args, lines, {"kind": "tau", "entries": entries})
    return 0


# ---------------------------------------------------------------- rules

def _cmd_rules(args) -> int:
    fam = args.family
    if fam in quadrature.FAMILIES:
        build, fewest = quadrature.FAMILIES[fam]
        if args.points < fewest:
            raise UsageError(f"--points needs at least {fewest} for --family {fam}: "
                             f"{args.points}")
        rule = build(args.points)
    elif fam == "dmm":
        rule = quadrature.dmm_rule(_degree(args.p), args.sign)
    else:  # blend
        _degree(args.p)
        _known([args.pair], quadrature._PAIR_NAMES, "--pair", args.pair)
        rule = quadrature.optimal_blend(args.p, args.pair)
    report = {"kind": "rules", "label": rule.label, "exactness": rule.exactness,
              "nodes": [_fmt(x) for x in rule.nodes],
              "weights": [_fmt(w) for w in rule.weights]}
    lines = [f"label={report['label']} exactness={report['exactness']}"]
    lines += [f"node={x} weight={w}" for x, w in zip(report["nodes"], report["weights"])]
    _emit(args, lines, report)
    return 0


# ---------------------------------------------------------------- studies


@dataclass(frozen=True)
class ErrorRow:
    """One study cell: the errors of a mode at degree p on N elements."""

    p: int
    N: int
    rule: str
    mode: int
    rel_ev_error: float
    ef_energy_error: float | None = None


def run_study(p: int, meshes, modes, labels, dimension: int = 1, energy: bool = False):
    """Eigenvalue convergence study; returns (ErrorRow list, rates list).

    Dimension 2 takes the tensor route: the pairwise sums of the 1D
    spectrum against the exact spectrum of the unit square.  energy adds
    the 1D eigenfunction energy errors.
    """
    from igadmm import eigensolve
    from igadmm.splines import BSplineSpace

    if energy and dimension != 1:
        raise ValueError("energy errors are computed in 1D only")
    count = max(modes)
    exact = eigensolve.exact_spectrum_2d(count) if dimension == 2 else None
    rows = []
    rates = []
    for label in labels:
        per_mode: dict[int, list[float]] = {m: [] for m in modes}
        for N in meshes:
            pair = _pair(BSplineSpace(p, N), label)
            # in 2D, the smallest count pairwise sums use only 1D modes below count
            spectrum = _spectrum(pair, label, count)
            eigs = (spectrum if dimension == 1
                    else eigensolve.tensor_spectrum_2d(spectrum.eigenvalues, count))
            errs = eigensolve.relative_ev_errors(eigs, count, exact)
            for mode in modes:
                ef = (eigensolve.energy_error(pair, spectrum, mode)
                      if energy else None)
                rel = float(errs[mode - 1])
                rows.append(ErrorRow(p, N, label, mode, rel, ef))
                per_mode[mode].append(rel)
        for mode in modes:
            rates.append({
                "rule": label, "mode": mode,
                "rate": eigensolve.convergence_rate(per_mode[mode], meshes),
            })
    return rows, rates


def kron_cross_check(p: int, N: int, label: str, count: int = 12) -> float:
    """Max relative deviation between Kronecker and tensor-sum spectra,
    taken in longdouble."""
    from igadmm import assembly, eigensolve
    from igadmm.splines import BSplineSpace

    pair1 = _pair(BSplineSpace(p, N), label)
    pair2 = assembly.assemble_2d(pair1)
    spec2 = _spectrum(pair2, label, count)
    spec1 = _spectrum(pair1, label, count)
    tens = eigensolve.tensor_spectrum_2d(spec1.eigenvalues, count)
    direct = spec2.eigenvalues[:count]
    return float(max(abs(a - b) / abs(b) for a, b in zip(direct, tens)))


# the columns of a study's CSV and of its JSON rows, which leave out an
# ef_energy_error the study did not compute
_STUDY_COLUMNS = ("p", "N", "rule", "mode", "rel_ev_error", "ef_energy_error")


def _emit_study(rows, rates, args, dimension: int) -> None:
    cells = []
    for r in rows:
        cell = {"p": r.p, "N": r.N, "rule": r.rule, "mode": r.mode,
                "rel_ev_error": _fmt(r.rel_ev_error)}
        if r.ef_energy_error is not None:
            cell["ef_energy_error"] = _fmt(r.ef_energy_error)
        cells.append(cell)
    # no study label holds a comma or a quote, so no field needs CSV quoting
    lines = [",".join(_STUDY_COLUMNS)]
    lines += [",".join(str(cell.get(col, "")) for col in _STUDY_COLUMNS) for cell in cells]
    _emit(args, lines, {"kind": "study", "dimension": dimension, "rows": cells,
                        "rates": [{**r, "rate": _fmt(r["rate"])} for r in rates]})


def _study_inputs(args) -> tuple[int, list[int], list[int], list[str]]:
    """Degree, meshes, modes and rule labels of a study, checked up front."""
    meshes, modes = _int_list(args.meshes, "--meshes"), _int_list(args.modes, "--modes")
    rules = _str_list(args.rules)
    _degree(args.p)
    if len(meshes) < 2 or min(meshes) < 2 or any(a >= b for a, b in zip(meshes, meshes[1:])):
        raise UsageError("--meshes needs two or more increasing element counts >= 2: "
                         f"{args.meshes!r}")
    if not modes or min(modes) < 1:
        raise UsageError(f"--modes needs mode numbers >= 1: {args.modes!r}")
    if len(set(modes)) < len(modes):
        raise UsageError(f"--modes names a mode twice: {args.modes!r}")
    return args.p, meshes, modes, _known(rules, _STUDY_RULES, "--rules", args.rules)


def _cmd_study_1d(args) -> int:
    rows, rates = run_study(*_study_inputs(args), energy=args.energy)
    _emit_study(rows, rates, args, 1)
    return 0


def _cmd_study_2d(args) -> int:
    from igadmm import assembly
    from igadmm.splines import BSplineSpace

    p, meshes, modes, rules = _study_inputs(args)
    if args.verify_kron and args.verify_kron < 2:
        raise UsageError(f"--verify-kron needs an element count >= 2: {args.verify_kron}")
    if args.verify_kron and BSplineSpace(p, args.verify_kron).dim ** 2 > assembly.KRON_MAX_DIM:
        raise UsageError(f"--verify-kron {args.verify_kron} gives more than "
                         f"{assembly.KRON_MAX_DIM} 2D unknowns at p={p}")
    rows, rates = run_study(p, meshes, modes, rules, dimension=2)
    _emit_study(rows, rates, args, 2)
    if args.verify_kron:
        dev = kron_cross_check(p, args.verify_kron, rules[0])
        print(f"# kron-vs-tensor max rel deviation at N={args.verify_kron}: {_fmt(dev)}")
    return 0


# ---------------------------------------------------------------- dispersion


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """num wavenumbers from start to stop in geometric progression: 10 to
    the power of the evenly spaced exponents i * step + log10(start), with
    the ends given exactly.  These are numpy's geomspace steps; on the
    default grid the values are its bits too, elsewhere an inner value may
    differ from numpy's vectorized log10 and power by an ulp."""
    if num == 1:
        return [start]
    first = math.log10(start)
    step = (math.log10(stop) - first) / (num - 1)
    return [start] + [10.0 ** (i * step + first) for i in range(1, num - 1)] + [stop]


def _cmd_dispersion(args) -> int:
    p = _degree(args.p)
    _known([args.rule], _ROW_RULES, "--rule", args.rule)
    if not all(0 < y < math.inf for y in (args.min, args.max)):
        raise UsageError(f"--min and --max need finite wavenumbers > 0: "
                         f"{args.min}, {args.max}")
    least = 2 if args.fit else 1
    if args.samples < least:
        raise UsageError(f"--samples needs at least {least}{' with --fit' * args.fit}: "
                         f"{args.samples}")
    a_row = stencils.stiffness_stencil(p)
    b_row = _row(p, args.rule, "mass")
    chk = None
    if args.coefficient is not None:
        if args.coefficient not in (2 * p, 2 * p + 2):
            raise UsageError(f"--coefficient must be 2p = {2 * p} or 2p+2 = {2 * p + 2} "
                             f"at p={p}, got {args.coefficient}")
        chk = dispersion.coefficient_check(p, a_row, b_row, args.coefficient)
        if chk.predicted == 0:
            # a dispersion-minimized row: no deviation from 0 to measure
            hint = f"; check order 2p+2 = {2 * p + 2}" if chk.order == 2 * p else ""
            raise UsageError(f"--rule {args.rule} has a predicted order-{chk.order} "
                             f"coefficient of 0 at p={p}{hint}")
    lams = _geomspace(args.min, args.max, args.samples)
    curve = dispersion.sample_curve(p, a_row, b_row, lams)
    report = {
        "kind": "dispersion",
        "p": p,
        "rule": args.rule,
        "samples": [{"wavenumber": _fmt(y), "rel_error": _fmt(e)}
                    for y, e in zip(curve.wavenumbers, curve.errors)],
        "fit_order": (_fmt(dispersion.fit_order(curve.wavenumbers, curve.errors))
                      if args.fit else None),
        # in the order of the text line's fields
        "coefficient": None if chk is None else {
            "order": chk.order,
            "measured": _fmt(chk.measured),
            "predicted": _fmt(chk.predicted),
            "rel_deviation": _fmt(chk.rel_deviation),
        },
    }
    lines = ["wavenumber,rel_error"]
    lines += [f"{s['wavenumber']},{s['rel_error']}" for s in report["samples"]]
    if report["fit_order"] is not None:
        lines.append(f"# fit_order {report['fit_order']}")
    if report["coefficient"] is not None:
        lines.append("# coefficient " + " ".join(
            f"{key}={value}" for key, value in report["coefficient"].items()))
    _emit(args, lines, report)
    return 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Argument parser that records its long options by destination, the
    keys a --config file may set."""

    def __init__(self, *args, **kwargs):
        self.config_options = {}  # before super(), which adds --help
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if (action.default is not argparse.SUPPRESS
                and any(flag.startswith("--") for flag in action.option_strings)):
            self.config_options[action.dest] = action
        return action


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and the parser of each subcommand, by name."""
    parser = _Parser(
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
    q.add_argument("--rule", help="one of " + ", ".join(_ROW_RULES) + " (default exact)")
    q.add_argument("--dmm", action="store_true",
                   help="shorthand for --rule dmm; no other --rule with it")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_stencil)

    q = sub.add_parser("tau", help="optimal blend ratios")
    q.add_argument("--p", default="1,2,3,4", help="comma list of degrees")
    q.add_argument("--pair", default="all",
                   help="comma list from gg,gl,gr,pl,pr,lr or 'all'")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_tau)

    q = sub.add_parser("rules", help="print quadrature nodes and weights")
    q.add_argument("--family", choices=(*quadrature.FAMILIES, "dmm", "blend"),
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
    q.add_argument("--rules", default="gauss,radau,dmm",
                   help="comma list from " + ", ".join(_STUDY_RULES))
    q.add_argument("--energy", action="store_true",
                   help="include eigenfunction energy errors")
    q.add_argument("--csv", help="CSV output path (default stdout)")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_study_1d)

    q = sub.add_parser("study-2d", help="2D eigenvalue convergence study")
    q.add_argument("-p", "--p", type=int, required=True)
    q.add_argument("--meshes", default="8,16,32,64")
    q.add_argument("--modes", default="1,2")
    q.add_argument("--rules", default="gauss,dmm",
                   help="comma list from " + ", ".join(_STUDY_RULES))
    q.add_argument("--verify-kron", type=int, default=0,
                   help="also assemble the Kronecker matrices at this mesh "
                        "and report the spectral deviation, for the first "
                        "--rules label only")
    q.add_argument("--csv")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_study_2d)

    q = sub.add_parser("dispersion", help="dispersion error curve")
    q.add_argument("-p", "--p", type=int, required=True)
    q.add_argument("--rule", "--mass", dest="rule", default="exact",
                   help="one of " + ", ".join(_ROW_RULES))
    q.add_argument("--min", type=float, default=0.05)
    q.add_argument("--max", type=float, default=0.5)
    q.add_argument("--samples", type=int, default=9)
    q.add_argument("--fit", action="store_true")
    q.add_argument("--coefficient", type=int, default=None,
                   help="compare the error coefficient at this order")
    q.add_argument("--csv")
    q.add_argument("--json")
    q.set_defaults(func=_cmd_dispersion)

    return parser, dict(sub.choices)


def _config_value(path, key: str, action, value):
    """A config value as its option takes it from the command line."""
    taken, ok = value, False
    if action.nargs == 0:  # a flag such as --energy
        ok = isinstance(value, bool)
    elif value is None:
        ok = action.default is None
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            taken = (action.type or str)(str(value))
            ok = action.choices is None or taken in action.choices
        except ValueError:
            pass
    if not ok:
        raise UsageError(f"config {path}: {key} = {json.dumps(value)} is not a value of "
                         f"--{key.replace('_', '-')}")
    return taken


def _load_config(path, command, commands) -> dict:
    """Option defaults for the subcommand run from a JSON config; every key
    must be a long option of some subcommand, spelled with underscores, and
    a key of the subcommand run must hold a value its option takes."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    known = set().union(*(c.config_options for c in commands))
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise UsageError(f"config {path}: unknown key(s) {', '.join(unknown)}")
    options = command.config_options
    return {key: _config_value(path, key, options[key], value)
            for key, value in cfg.items() if key in options}


@functools.lru_cache(maxsize=1)
def _parsers():
    """build_parser()'s parsers, shared by every main() call of the process."""
    return build_parser()


def _apply_config(args, argv, parser, commands):
    """args parsed again over the config's defaults for the subcommand run,
    so options given on the command line still win."""
    command = commands[args.command]
    cfg = _load_config(args.config, command, commands.values())
    saved = {key: command.get_default(key) for key in cfg}
    command.set_defaults(**cfg)
    try:
        return parser.parse_args(argv)
    finally:
        command.set_defaults(**saved)  # the next call must not see this config


def _check_outputs(args) -> None:
    """Every --csv and --json file must be named, not be a directory, go
    into an existing directory, and not be the other option's file, which
    the JSON would overwrite."""
    files = {}
    for flag in ("csv", "json"):
        path = getattr(args, flag, None)
        if path in (None, "-"):
            continue
        if not path:
            raise UsageError(f"--{flag}: empty file name")
        if os.path.isdir(path):
            raise UsageError(f"--{flag} {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"--{flag} {path}: directory {os.path.dirname(path)} "
                             "does not exist")
        files[flag] = path
    if len(files) == 2 and os.path.realpath(files["csv"]) == os.path.realpath(files["json"]):
        raise UsageError(f"--csv {files['csv']} and --json {files['json']} name the same file")


def main(argv=None) -> int:
    parser, commands = _parsers()
    # usage errors exit here; --config is read only before the subcommand
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config(args, argv, parser, commands)
        _check_outputs(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
