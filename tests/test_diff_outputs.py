"""The output comparison of tools/diff_outputs.py on fixed job results."""

import importlib.util
import os
from pathlib import Path

from igadmm.splines import _ELEMENT_BLOCK

_PATH = Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py"
_SPEC = importlib.util.spec_from_file_location("diff_outputs", _PATH)
diff_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_outputs)
_WORKLOADS = diff_outputs._workloads()

_STUDY = """p,N,rule,mode,rel_ev_error,ef_energy_error
2,8,gauss,1,3.41278e-05,1.83882e-02
2,8,gauss,2,5.99916e-04,1.55239e-01
# kron-vs-tensor max rel deviation at N=6: 2.81167e-19
"""


def _result(out="", err="", rc=0):
    return {"rc": rc, "out": out, "err": err}


def test_study_cells_are_read_from_the_csv_rows():
    assert diff_outputs.cells(_STUDY) == {"2,8,gauss,1": "3.41278e-05,1.83882e-02",
                                          "2,8,gauss,2": "5.99916e-04,1.55239e-01"}
    assert diff_outputs.cells("a,b,c,d,e,f\n1,2,3,4,5,6\n") == {}


def test_each_differing_job_and_moved_cell_is_listed():
    jobs = [["same"], ["moved"], ["exit"]]
    moved = _STUDY.replace("1.55239e-01", "1.55240e-01")
    parent = [_result(_STUDY), _result(_STUDY), _result(err="x", rc=1)]
    change = [_result(_STUDY), _result(moved), _result(err="y", rc=2)]
    assert diff_outputs.compare(jobs, parent, change) == [
        "differs (out): moved",
        "  cell 2,8,gauss,2: 5.99916e-04,1.55239e-01 -> 5.99916e-04,1.55240e-01",
        "differs (rc, err): exit",
    ]
    assert diff_outputs.compare(jobs, parent, parent) == []


def test_the_largest_move_of_each_column_is_summarized_with_its_cell(monkeypatch, capsys):
    small = _STUDY.replace("3.41278e-05", "3.41279e-05").replace("1.55239e-01", "1.55240e-01")
    large = _STUDY.replace("3.41278e-05", "3.41288e-05").replace("1.83882e-02", "1.83883e-02")
    one_sided = _STUDY.replace("2,8,gauss,2", "2,9,gauss,2")
    no_energy = _STUDY.replace(",1.83882e-02", ",")
    parent = [_result(_STUDY)] * 4
    change = [_result(small), _result(large), _result(one_sided), _result(no_energy)]
    # 1e-9 absolute beats 1e-10; 6.4e-6 relative (1e-6 of 0.155) beats 5.4e-6
    # (1e-7 of 0.0184); a cell or an error on one side only is no move
    assert diff_outputs.largest_moves(parent, change) == (
        "largest moves: rel_ev_error 1.00e-09 absolute at 2,8,gauss,1; "
        "ef_energy_error 6.44e-06 relative at 2,8,gauss,2")
    assert diff_outputs.largest_moves(parent[2:], change[2:]) is None
    assert diff_outputs.largest_moves(parent, parent) is None
    # the line follows the moved cells; the exit code is unchanged
    monkeypatch.setattr(diff_outputs, "all_jobs", lambda: [["a"], ["b"]])
    monkeypatch.setattr(diff_outputs, "_export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(diff_outputs, "_run_tree",
                        lambda tree, jobs: change[:2] if tree == diff_outputs.ROOT else parent[:2])
    assert diff_outputs.main(["--parent", "HEAD"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3] == ("largest moves: rel_ev_error 1.00e-09 absolute at 2,8,gauss,1; "
                         "ef_energy_error 6.44e-06 relative at 2,8,gauss,2")
    assert lines[-2].startswith("src/igadmm/*.py lines: ")


def test_jobs_run_in_process_on_this_tree():
    jobs = [["stencil", "-p", "2", "--rule", "exact"], ["study-1d", "-p", "0"]]
    (good, usage) = diff_outputs.collect(jobs, str(_PATH.parents[1]))
    assert good["rc"] == 0 and good["out"] and not good["err"]
    assert usage["rc"] == 2 and usage["err"]


def test_exit_code_is_1_on_any_difference(monkeypatch, capsys):
    monkeypatch.setattr(diff_outputs, "all_jobs", lambda: [["a"], ["b"]])
    monkeypatch.setattr(diff_outputs, "_export", lambda rev, into: "0" * 40)
    runs = {}
    monkeypatch.setattr(diff_outputs, "_run_tree",
                        lambda tree, jobs: runs[tree == diff_outputs.ROOT])
    runs[False] = runs[True] = [_result("x"), _result(_STUDY)]
    assert diff_outputs.main(["--parent", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 jobs against 000000000000: 0 differ, 0 study cells moved")
    runs[True] = [_result("x"), _result(_STUDY.replace("3.41278e-05", "3.41279e-05"))]
    assert diff_outputs.main(["--parent", "HEAD"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 jobs against 000000000000: 1 differ, 1 study cells moved")


def test_sweep_covers_every_report_with_its_json():
    jobs = diff_outputs.sweep()
    assert all(argv[-2:] == ["--json", "-"] for argv in jobs)
    assert {argv[0] for argv in jobs} == {"verify", "stencil", "tau", "rules", "study-1d",
                                          "study-2d", "dispersion"}
    stencils = {(int(argv[2]), argv[argv.index("--rule") + 1], argv[argv.index("--form") + 1])
                for argv in jobs if "--rule" in argv and argv[0] == "stencil"}
    assert {label for p, label, _ in stencils if p < 7} == {
        "exact", "dmm", "gauss", "blend:gl", "minrule+"}
    # every label at p = 7..10 but the point rules, tabulated for p <= 3
    labels = {label for label in _WORKLOADS.STENCIL_LABELS if not label.startswith("minrule")}
    assert {(p, label, form) for p, label, form in stencils if p >= 7} == {
        (p, label, form) for p in range(7, 11) for label in labels
        for form in ("mass", "stiffness")}
    for ps in ("1,2,3,4,5,6,7,8,9", "10,11,12"):
        assert ["tau", "--p", ps, "--pair", "all", "--json", "-"] in jobs
    rules = [argv[1:-2] for argv in jobs if argv[0] == "rules"]  # from --family on
    assert {(argv[1], argv[3]) for argv in rules if argv[2] == "--points"} == {
        (family, points) for family in ("gauss", "lobatto", "radau") for points in ("4", "12")}
    assert {argv[1] for argv in rules} == {"gauss", "lobatto", "radau", "dmm", "blend"}
    # each dispersion mass row at p = 6 and 7, with its fit and coefficient
    fits = {(argv[2], argv[4]) for argv in jobs
            if argv[0] == "dispersion" and "--coefficient" in argv and "--csv" not in argv}
    assert fits == {(p, label) for p in ("6", "7") for label in _WORKLOADS.DISPERSION_ROWS}
    # every mode of the N = 3 space, p + 1 of them, for each degree and rule
    tiny = {(argv[2], argv[argv.index("--rules") + 1]) for argv in jobs
            if argv[0] == "study-1d" and "--energy" in argv
            and argv[argv.index("--meshes") + 1] == "3,4"
            and argv[argv.index("--modes") + 1] == ",".join(map(str, range(1, int(argv[2]) + 2)))}
    assert tiny == {(str(p), rule) for p in range(1, 7) for rule in diff_outputs.SWEEP_RULES}
    # an energy ladder one element short of the block the assembly reads the
    # basis in, one past it and one past two blocks
    block = _ELEMENT_BLOCK
    assert any({block - 1, block + 1, 2 * block + 1}
               <= {int(N) for N in argv[argv.index("--meshes") + 1].split(",")}
               for argv in jobs if argv[0] == "study-1d" and "--energy" in argv)
    csv = [argv[0] for argv in jobs if "--csv" in argv]
    assert "dispersion" in csv and "study-1d" in csv
    assert any({"--fit", "--coefficient"} <= set(argv) for argv in jobs
               if argv[0] == "dispersion" and "--csv" in argv)


def test_sweep_reports_run_with_one_usage_and_one_computation_error():
    jobs = [argv for argv in diff_outputs.sweep() if not {"--energy", "--verify-kron"} & set(argv)]
    results = diff_outputs.collect(jobs, str(_PATH.parents[1]))
    assert sorted(r["rc"] for r in results if r["rc"]) == [1, 2]
    assert all(r["err"].startswith("error: ") for r in results if r["rc"])
    assert all(r["out"] and not r["err"] for r in results if not r["rc"])


def test_line_counts_of_both_trees_precede_the_summary(monkeypatch, capsys, tmp_path):
    def export(rev, into):
        package = os.path.join(into, "tree", "src", "igadmm")
        os.makedirs(package)
        for name, text in (("a.py", "x = 1\ny = 2\n"), ("b.py", "z = 3\n"), ("c.txt", "-\n")):
            with open(os.path.join(package, name), "w") as fh:
                fh.write(text)
        return "0" * 40

    monkeypatch.setattr(diff_outputs, "all_jobs", lambda: [["a"]])
    monkeypatch.setattr(diff_outputs, "_export", export)
    monkeypatch.setattr(diff_outputs, "_run_tree", lambda tree, jobs: [_result("x")])
    assert diff_outputs.main(["--parent", "HEAD"]) == 0
    count = diff_outputs.line_count(diff_outputs.ROOT)
    assert count > 1000
    assert capsys.readouterr().out.splitlines() == [
        f"src/igadmm/*.py lines: 3 -> {count}",
        "1 jobs against 000000000000: 0 differ, 0 study cells moved"]
