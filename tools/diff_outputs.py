"""Byte comparison of the CLI outputs of a parent commit and the working tree.

Usage, from the repository root:

    python3 tools/diff_outputs.py --parent REV

The parent commit is exported with ``git archive``, as tools/bench_pairs.py
does.  In each tree one Python process, with BLAS pinned to one thread,
imports that tree's ``igadmm`` and runs through ``igadmm.cli.main`` every
job of the benchmark workloads (perfbench/workloads.py) and the fixed
sweep below, capturing each job's exit code, standard output and standard
error.  The report lists each job whose exit code, output or error
differs, each study cell (p, N, rule, mode) whose printed numbers moved
or that is printed on one side only, each moved convergence rate of its
JSON report, and a moved ``# kron-vs-tensor`` deviation of a
--verify-kron job; then, when any cell moved, one line with the largest
move per column (absolute for rel_ev_error, relative for
ef_energy_error) and its cell; then the line counts of src/igadmm/*.py
in both trees; then a summary that counts the moved cells, the cells
printed on one side only and the moved rates apart.  The exit code is 1
on any difference and 0 when every byte of every job is the same.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CSV_HEADER = "p,N,rule,mode,rel_ev_error,ef_energy_error"
SWEEP_RULES = ("gauss", "radau", "dmm", "lobatto", "gp")
# the error columns of a study cell and how the summary measures a move
MOVES = (("rel_ev_error", "absolute"), ("ef_energy_error", "relative"))


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    return _load("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))


def sweep() -> list[list[str]]:
    """Energy studies of every degree 1..6 and study rule on tiny meshes,
    once with every mode of the N = 3 space (whose top modes can be nearly
    orthogonal to their sines, where a sign rule could flip a cell), and
    on a ladder that crosses the dense/Lanczos switch, and a Kronecker
    cross-check at each degree, and a p = 4 ladder of large meshes that are
    not powers of two, and one whose two pencils sit on either side of the
    switch, orders _BANDED_MIN_N - 1 and _BANDED_MIN_N, and at p = 5 and 6
    one across the mesh of 2p + 1 elements, the first with all 2p + 1
    element types of the assembly; then every subcommand's
    report, text and JSON: verify, rows of both forms (exact, minimized,
    rule-induced, blended and point-rule labels, fractions and floats, and
    every label but the point rules at p = 7..10), blend ratios with the
    degenerate p = 1 lr pair, the
    float-only p = 8 ratios and p = 10..12, the rules of each family at 4
    and 12 points, dispersion curves with their fit and coefficient (each
    mass row at p = 6 and 7) and a study, both with --csv -, and one
    usage and one computation error."""
    workloads = _workloads()
    jobs = []
    for p in range(1, 7):
        for rule in SWEEP_RULES:
            every_mode = ",".join(str(mode) for mode in range(1, p + 2))
            for meshes, modes in (("3,4,5", "1,2"), ("3,4", every_mode),
                                  ("8,21,55,144,233,333", "1,2,3,4,7")):
                jobs.append(["study-1d", "-p", str(p), "--energy", "--meshes", meshes,
                             "--rules", rule, "--modes", modes, "--json", "-"])
        jobs.append(["study-2d", "-p", str(p), "--meshes", "4,8", "--rules", "dmm",
                     "--modes", "1,2,4", "--verify-kron", "14", "--json", "-"])
    # large meshes whose 1/N, the mass scaling of the local matrices, rounds
    jobs.append(["study-1d", "-p", "4", "--energy", "--meshes", "255,257,513",
                 "--rules", "gauss,dmm", "--modes", "1,2", "--json", "-"])
    # N = 2p, 2p + 1, 2p + 2: 2p, 2p + 1 and 2p + 1 element types
    for p in (5, 6):
        jobs.append(["study-1d", "-p", str(p), "--energy",
                     "--meshes", f"{2 * p},{2 * p + 1},{2 * p + 2}",
                     "--rules", "gauss,radau,dmm", "--modes", "1,2,7", "--json", "-"])
    # p = 3 pencils of order N + 1 = 87 and 88: the last dense one and the
    # first Lanczos one (eigensolve._BANDED_MIN_N = 88)
    jobs.append(["study-1d", "-p", "3", "--energy", "--meshes", "86,87",
                 "--rules", "gauss,dmm", "--modes", "1,2", "--json", "-"])
    reports = [["verify", "--p-max", "4", "--fg-p-max", "6", "--fg-m-max", "6"],
               ["stencil", "-p", "4", "--dmm"],
               ["tau", "--p", "1,2,3,4,5,6,7,8,9", "--pair", "all"],
               ["tau", "--p", "10,11,12", "--pair", "all"],
               ["rules", "--family", "dmm", "-p", "3", "--sign", "-1"],
               ["rules", "--family", "blend", "-p", "3", "--pair", "pr"],
               ["dispersion", "-p", "3", "--rule", "dmm", "--fit", "--coefficient", "8",
                "--csv", "-"],
               ["dispersion", "-p", "2", "--rule", "gauss", "--samples", "5", "--fit",
                "--coefficient", "4", "--csv", "-"],
               ["study-1d", "-p", "2", "--meshes", "8,16", "--rules", "gauss,dmm",
                "--csv", "-"],
               ["stencil", "-p", "0"],
               ["study-1d", "-p", "3", "--meshes", "4,8", "--rules", "blend:gr"]]
    # the point rules stop at p = 3; at p = 6 the gauss rows print partly as floats
    for p, labels in ((3, ("exact", "dmm", "gauss", "blend:gl", "minrule+")),
                      (6, ("exact", "dmm", "gauss", "blend:gl"))):
        for label in labels:
            for form in ("mass", "stiffness"):
                reports.append(["stencil", "-p", str(p), "--rule", label, "--form", form])
    # every label at degrees whose rows and ratios print partly or wholly
    # as floats, where a last-digit change in a row would show; the point
    # rules stop at p = 3
    for p in range(7, 11):
        for label in workloads.STENCIL_LABELS:
            for form in ("mass", "stiffness") * (not label.startswith("minrule")):
                reports.append(["stencil", "-p", str(p), "--rule", label, "--form", form])
    for p in (6, 7):
        for label in workloads.DISPERSION_ROWS:
            order = 2 * p + 2 if label in workloads.MINIMIZED_ROWS else 2 * p
            reports.append(["dispersion", "-p", str(p), "--rule", label, "--fit",
                            "--coefficient", str(order)])
    for family in ("gauss", "lobatto", "radau"):
        for points in ("4", "12"):
            reports.append(["rules", "--family", family, "--points", points])
    return jobs + [argv + ["--json", "-"] for argv in reports]


def all_jobs() -> list[list[str]]:
    """The benchmark workloads' jobs, in workload order, then the sweep."""
    workloads = _workloads()
    jobs = [argv for name in workloads.WORKLOADS for argv in workloads.jobs_for(name)]
    return jobs + sweep()


def collect(jobs: list[list[str]], tree: str) -> list[dict]:
    """Exit code, output and error of each job, run in this process on the
    igadmm found first on sys.path; the tree's path in a traceback is
    written as <tree>, so that the two trees' crashes compare equal."""
    import igadmm.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(tree) + os.sep):
        raise RuntimeError(f"igadmm imported from {cli.__file__}, not from {tree}")
    results = []
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = -1
        results.append({"rc": rc, "out": out.getvalue().replace(tree, "<tree>"),
                        "err": err.getvalue().replace(tree, "<tree>")})
    return results


def _export(rev: str, into: str) -> str:
    """The full hash of rev, whose files tools/bench_pairs.py's export
    writes into the directory's tree/."""
    return _load("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))._export(rev, into)


def _run_tree(tree: str, jobs: list[list[str]]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--collect", tree],
                          input=json.dumps(jobs), capture_output=True, text=True, env=env,
                          cwd=tree, check=True)
    return json.loads(proc.stdout)


def line_count(tree: str) -> int:
    """Lines of the tree's src/igadmm/*.py, the number ROADMAP tracks."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "igadmm", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def cells(out: str) -> dict[str, str]:
    """Study rows of a job's output: "p,N,rule,mode" to the printed errors."""
    rows, inside = {}, False
    for line in out.splitlines():
        if line == CSV_HEADER:
            inside = True
        elif inside and line.count(",") == 5:
            p, N, rule, mode, rest = line.split(",", 4)
            rows[f"{p},{N},{rule},{mode}"] = rest
        else:
            inside = False
    return rows


def kron_deviation(out: str) -> str | None:
    """The deviation on a job's ``# kron-vs-tensor`` line, None without one."""
    for line in out.splitlines():
        if line.startswith("# kron-vs-tensor"):
            return line.rsplit(": ", 1)[1]
    return None


def _differing(old: dict, new: dict) -> list[tuple[str, str | None, str | None]]:
    """(key, old value, new value) of each key whose value differs between
    two dicts, in key order; None where a dict has no such key."""
    return [(key, old.get(key), new.get(key)) for key in sorted(old.keys() | new.keys())
            if old.get(key) != new.get(key)]


def moved_cells(a: dict, b: dict) -> list[tuple[str, str | None, str | None]]:
    """(cell, parent's errors, change's errors) of each study cell whose
    printed errors differ between two results of one job; None where a
    side has no such cell."""
    return _differing(cells(a["out"]), cells(b["out"]))


def rates(out: str) -> dict[str, str]:
    """Convergence rates of a job's JSON study report: "rule,mode" to the
    printed rate; empty for a job without one.  The report is the JSON
    object that starts at the first line that is "{", after the text
    lines; a --verify-kron comment line may follow it."""
    lines = out.splitlines()
    if "{" not in lines:
        return {}
    report, _ = json.JSONDecoder().raw_decode("\n".join(lines[lines.index("{"):]))
    return {f"{r['rule']},{r['mode']}": r["rate"] for r in report.get("rates", [])}


def moved_rates(a: dict, b: dict) -> list[tuple[str, str | None, str | None]]:
    """(rule and mode, parent's rate, change's rate) of each rate whose
    printed value differs between two results of one job; None where a
    side has no such rate."""
    return _differing(rates(a["out"]), rates(b["out"]))


def compare(jobs: list[list[str]], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per differing job, then one per moved cell of that job, one
    per moved rate and one for its moved kron-vs-tensor deviation."""
    lines = []
    for argv, a, b in zip(jobs, parent, change):
        parts = [key for key in ("rc", "out", "err") if a[key] != b[key]]
        if not parts:
            continue
        lines.append(f"differs ({', '.join(parts)}): {' '.join(argv)}")
        for key, old, new in moved_cells(a, b):
            lines.append(f"  cell {key}: {old} -> {new}")
        for key, old, new in moved_rates(a, b):
            lines.append(f"  rate {key}: {old} -> {new}")
        old, new = kron_deviation(a["out"]), kron_deviation(b["out"])
        if old != new:
            lines.append(f"  kron-vs-tensor: {old} -> {new}")
    return lines


def largest_moves(parent: list[dict], change: list[dict]) -> str | None:
    """One line naming the largest move among the moved cells of all jobs,
    per column, each with its cell: absolute for rel_ev_error, relative to
    the parent's value for ef_energy_error; None when no printed error
    moved.  A cell or an error printed on one side only is not a move."""
    largest = {}
    for a, b in zip(parent, change):
        for key, old, new in moved_cells(a, b):
            if old is None or new is None:
                continue
            for (column, kind), x, y in zip(MOVES, old.split(","), new.split(",")):
                if not x or not y or x == y:
                    continue
                move = abs(float(y) - float(x))
                if kind == "relative":
                    move = move / abs(float(x)) if float(x) else math.inf
                if move > largest.get(column, (-1.0,))[0]:
                    largest[column] = (move, key)
    if not largest:
        return None
    return "largest moves: " + "; ".join(
        f"{column} {largest[column][0]:.2e} {kind} at {largest[column][1]}"
        for column, kind in MOVES if column in largest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="commit to compare against")
    parser.add_argument("--collect", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        json.dump(collect(json.load(sys.stdin), args.collect), sys.stdout)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    jobs = all_jobs()
    with tempfile.TemporaryDirectory() as tmp:
        sha = _export(args.parent, tmp)
        parent = _run_tree(os.path.join(tmp, "tree"), jobs)
        parent_lines = line_count(os.path.join(tmp, "tree"))
    change = _run_tree(ROOT, jobs)
    lines = compare(jobs, parent, change)
    for line in lines:
        print(line)
    moves = largest_moves(parent, change)
    if moves:
        print(moves)
    print(f"src/igadmm/*.py lines: {parent_lines} -> {line_count(ROOT)}")
    differ = sum(not line.startswith(" ") for line in lines)
    cell_moves = [move for a, b in zip(parent, change) for move in moved_cells(a, b)]
    one_sided = sum(old is None or new is None for _, old, new in cell_moves)
    rate_moves = sum(len(moved_rates(a, b)) for a, b in zip(parent, change))
    print(f"{len(jobs)} jobs against {sha[:12]}: {differ} differ, "
          f"{len(cell_moves) - one_sided} study cells moved, "
          f"{one_sided} printed on one side only, {rate_moves} rates moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
