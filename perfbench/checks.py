"""Output checks for every benchmark job, against reference.json.

reference.json holds each job's standard output from the seed code
(built once by make_reference.py).  A job passes when it exits 0 and:

* verify, tau, stencil: the output equals the reference byte for byte, so
  every exact fraction of a row or blend ratio matches, and (p=1, lr)
  still reads ``degenerate``;
* study-1d, study-2d: the table has the reference's cells; each cell is
  within REL_WINDOW of the six-digit reference value plus an absolute
  allowance for roundoff (EV_ATOL, ENERGY_ATOL).  Cells whose
  discretization error is below FLOOR_CUTOFF are exempt and feed ev_floor.
  Each eigenvalue rate whose cells all sit RATE_CLEAN times above the
  reference ev_floor lies within RATE_WINDOW of 2p (2p + 2 for dmm), that
  is nearer its own order than the next even one: a reported rate is the
  mean over all mesh steps, and the coarse first steps are pre-asymptotic;
  a Kronecker cross-check deviates by less than KRON_MAX;
* dispersion: samples within DISP_WINDOW of the reference, the fitted
  order within FIT_WINDOW of 2p (2p + 2 for minimized rows), the
  coefficient within DISP_WINDOW and its relative deviation at most twice
  the reference's.
"""

from __future__ import annotations

import json
import math
import os

from workloads import MINIMIZED_ROWS, job_id

REL_WINDOW = 1e-3
EV_ATOL = 1e-14
ENERGY_ATOL = 1e-6
FLOOR_CUTOFF = 1e-20
RATE_CLEAN = 10.0
RATE_WINDOW = 1.0
FIT_WINDOW = 0.25
KRON_MAX = 1e-10
DISP_WINDOW = 1e-4

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _opt(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


# ---------------------------------------------------------------- parsing


def parse_study(text: str):
    """(cells, rates, trailer) of a study run printed with --json -.

    cells maps (p, N, rule, mode) to (rel_ev_error, ef_energy_error or None).
    """
    start = text.index("\n{") + 1
    csv_lines = text[:start].splitlines()
    report, end = json.JSONDecoder().raw_decode(text, start)
    if csv_lines[0] != "p,N,rule,mode,rel_ev_error,ef_energy_error":
        raise ValueError(f"unexpected table header {csv_lines[0]!r}")
    cells = {}
    for line in csv_lines[1:]:
        p, N, rule, mode, ev, ef = line.split(",")
        cells[(int(p), int(N), rule, int(mode))] = (float(ev), float(ef) if ef else None)
    rates = {(r["rule"], r["mode"]): float(r["rate"]) for r in report["rates"]}
    return cells, rates, text[end:].strip().splitlines()


def floor_prediction(p: int, N: int, mode: int, coefficient: float) -> float:
    """Leading dispersion error |c_{2p+2}| (mode pi / N)^(2p+2) of a DMM cell."""
    return abs(coefficient) * (mode * math.pi / N) ** (2 * p + 2)


def is_floor_cell(key, argv, reference) -> bool:
    p, N, rule, mode = key
    if argv[0] != "study-1d" or rule != "dmm":
        return False
    return floor_prediction(p, N, mode, reference["dmm_coefficient"][str(p)]) < FLOOR_CUTOFF


# ---------------------------------------------------------------- checks


def _close(x: float, ref: float, rel: float, atol: float = 0.0) -> bool:
    return math.isfinite(x) and abs(x - ref) <= rel * abs(ref) + atol


def _check_study(argv, text, ref_text, reference, problems, floor_cells):
    cells, rates, trailer = parse_study(text)
    ref_cells, _, _ = parse_study(ref_text)
    if list(cells) != list(ref_cells):
        problems.append("table cells differ from the reference")
        return
    p = int(_opt(argv, "-p"))
    for key, (ev, ef) in cells.items():
        ref_ev, ref_ef = ref_cells[key]
        if is_floor_cell(key, argv, reference):
            floor_cells.append((key, ev))
            continue
        if not _close(ev, ref_ev, REL_WINDOW, EV_ATOL):
            problems.append(f"{key} rel_ev_error {ev:.5e} vs reference {ref_ev:.5e}")
        if (ef is None) != (ref_ef is None) or (
                ef is not None and not _close(ef, ref_ef, REL_WINDOW, ENERGY_ATOL)):
            problems.append(f"{key} ef_energy_error {ef} vs reference {ref_ef}")
    clean = RATE_CLEAN * reference["ev_floor"]
    for (rule, mode), rate in rates.items():
        series = [ref_cells[k][0] for k in ref_cells if k[2] == rule and k[3] == mode]
        if min(series) < clean:
            continue
        order = 2 * p + 2 if rule == "dmm" else 2 * p
        if not abs(rate - order) < RATE_WINDOW:
            problems.append(f"rate {rule} mode {mode} = {rate:.5e}, expected {order}")
    if _opt(argv, "--verify-kron"):
        devs = [float(line.rsplit(":", 1)[1]) for line in trailer
                if line.startswith("# kron-vs-tensor")]
        if len(devs) != 1 or not devs[0] < KRON_MAX:
            problems.append(f"kron-vs-tensor deviation {devs} not below {KRON_MAX}")


def _check_dispersion(argv, text, ref_text, problems):
    lines, ref_lines = text.splitlines(), ref_text.splitlines()
    if len(lines) != len(ref_lines) or lines[0] != ref_lines[0]:
        problems.append("dispersion output shape differs from the reference")
        return
    p = int(_opt(argv, "-p"))
    label = _opt(argv, "--rule")
    order = 2 * p + 2 if label in MINIMIZED_ROWS else 2 * p
    for line, ref in zip(lines[1:], ref_lines[1:]):
        if line.startswith("# fit_order"):
            fit = float(line.split()[-1])
            if not abs(fit - order) <= FIT_WINDOW:
                problems.append(f"fit order {fit:.5e}, expected {order}")
        elif line.startswith("# coefficient"):
            got = dict(tok.split("=") for tok in line.split()[2:])
            want = dict(tok.split("=") for tok in ref.split()[2:])
            if got["order"] != want["order"]:
                problems.append(f"coefficient order {got['order']} vs {want['order']}")
            for key in ("measured", "predicted"):
                if not _close(float(got[key]), float(want[key]), DISP_WINDOW):
                    problems.append(f"coefficient {key} {got[key]} vs {want[key]}")
            if not float(got["rel_deviation"]) <= 2 * float(want["rel_deviation"]):
                problems.append(f"coefficient rel_deviation {got['rel_deviation']} "
                                f"vs reference {want['rel_deviation']}")
        else:
            y, err = line.split(",")
            ref_y, ref_err = ref.split(",")
            if y != ref_y or not _close(float(err), float(ref_err), DISP_WINDOW):
                problems.append(f"dispersion sample {line} vs {ref}")


def check_job(argv, rc, out: str, reference: dict):
    """(problems, floor_cells) for one job; no problems means it passed."""
    problems, floor_cells = [], []
    ref_text = reference["outputs"].get(job_id(argv))
    if rc != 0:
        problems.append(f"exit code {rc}")
    elif ref_text is None:
        problems.append("no reference output")
    else:
        try:
            if argv[0] in ("study-1d", "study-2d"):
                _check_study(argv, out, ref_text, reference, problems, floor_cells)
            elif argv[0] == "dispersion":
                _check_dispersion(argv, out, ref_text, problems)
            elif out != ref_text:
                problems.append("output differs from the reference")
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"unparsable output: {exc!r}")
    return problems, floor_cells


def ev_floor(floor_cells):
    """(value, cell) of the largest relative eigenvalue error over floor cells."""
    if not floor_cells:
        return None, None
    key, value = max(floor_cells, key=lambda kv: kv[1])
    return value, key
