"""Command line behavior: golden lines, exit codes, JSON schema, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from igadmm import assembly, cli, eigensolve
from igadmm.cli import _ROW_RULES, _STUDY_RULES, main
from igadmm.splines import BSplineSpace
from igadmm.stencils import IdentityCheck, IdentityReport


@pytest.fixture(scope="module")
def schema():
    text = resources.files("igadmm").joinpath("data/report_schema.json").read_text()
    return json.loads(text)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_verify_passes_and_reports(capsys):
    rc, out, _ = _run(capsys, ["verify", "--p-max", "3",
                               "--fg-p-max", "4", "--fg-m-max", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert lines[-1].startswith("PASS total (")


def test_stencil_exact_rows(capsys):
    rc, out, _ = _run(capsys, ["stencil", "-p", "1", "--form", "stiffness"])
    assert rc == 0
    assert out.splitlines() == ["k=0 2", "k=1 -1"]
    rc, out, _ = _run(capsys, ["stencil", "-p", "2"])
    assert out.splitlines() == ["k=0 11/20", "k=1 13/60", "k=2 1/120"]


def test_stencil_dmm_shorthand(capsys):
    rc, long_form, _ = _run(capsys, ["stencil", "-p", "4", "--rule", "dmm"])
    rc2, short_form, _ = _run(capsys, ["stencil", "-p", "4", "--dmm"])
    rc3, both, _ = _run(capsys, ["stencil", "-p", "4", "--rule", "dmm", "--dmm"])
    assert rc == rc2 == rc3 == 0
    assert long_form == short_form == both
    assert long_form.splitlines()[-1] == "k=4 13/3628800"


def test_stencil_rule_induced_row(capsys):
    rc, out, _ = _run(capsys, ["stencil", "-p", "2", "--rule", "gp"])
    assert rc == 0
    assert out.splitlines() == ["k=0 13/24", "k=1 2/9", "k=2 1/144"]


def test_stencil_minimizing_point_rule_labels(capsys):
    # the induced rows rationalize to the same fractions the direct
    # constructions print, for either sign variant
    rc, plus, _ = _run(capsys, ["stencil", "-p", "2", "--rule", "minrule+"])
    rc2, minus, _ = _run(capsys, ["stencil", "-p", "2", "--rule", "minrule-"])
    _, direct, _ = _run(capsys, ["stencil", "-p", "2", "--dmm"])
    assert rc == rc2 == 0
    assert plus == minus == direct
    rc, stiff, _ = _run(capsys, ["stencil", "-p", "2", "--rule", "minrule+",
                                 "--form", "stiffness"])
    assert rc == 0
    assert stiff.splitlines() == ["k=0 1", "k=1 -1/3", "k=2 -1/6"]


@pytest.mark.parametrize("form", ["mass", "stiffness"])
@pytest.mark.parametrize("label", _ROW_RULES)
def test_every_row_label_prints_a_row(capsys, label, form):
    rc, out, _ = _run(capsys, ["stencil", "-p", "2", "--rule", label, "--form", form])
    assert rc == 0
    assert [line.split(" ")[0] for line in out.splitlines()] == ["k=0", "k=1", "k=2"]


def test_minimized_stiffness_row_is_the_exact_one(capsys):
    rc, minimized, _ = _run(capsys, ["stencil", "-p", "3", "--rule", "dmm",
                                     "--form", "stiffness"])
    _, exact, _ = _run(capsys, ["stencil", "-p", "3", "--rule", "exact",
                                "--form", "stiffness"])
    assert rc == 0
    assert minimized == exact


@pytest.mark.parametrize("command,labels", [
    ("stencil", _ROW_RULES),
    ("dispersion", _ROW_RULES),
    ("study-1d", _STUDY_RULES),
    ("study-2d", _STUDY_RULES),
])
def test_help_names_every_label(capsys, command, labels):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    words = capsys.readouterr().out.replace(",", " ").split()
    assert all(label in words for label in labels)


def test_tau_exact_and_degenerate(capsys):
    rc, out, _ = _run(capsys, ["tau", "--p", "2", "--pair", "gl"])
    assert rc == 0
    assert out.strip() == "p=2 pair=gl tau=1/3 (3.33333e-01)"
    rc, out, _ = _run(capsys, ["tau", "--p", "1", "--pair", "lr"])
    assert rc == 0
    assert out.strip() == "p=1 pair=lr degenerate"


def test_rules_output(capsys):
    rc, out, _ = _run(capsys, ["rules", "--family", "gauss", "--points", "1"])
    assert rc == 0
    assert out.splitlines() == [
        "label=G1 exactness=1",
        "node=5.00000e-01 weight=1.00000e+00",
    ]
    rc, out, _ = _run(capsys, ["rules", "--family", "dmm", "-p", "3"])
    assert rc == 0
    assert "weight=-4.53333e-02" in out  # the negative-weight rule


def test_error_exit_codes(capsys):
    for argv in (["stencil", "-p", "2", "--rule", "nosuch"],
                 # --dmm is --rule dmm, so no other rule may come with it
                 ["stencil", "-p", "2", "--rule", "gauss", "--dmm"],
                 ["stencil", "-p", "2", "--rule", "exact", "--dmm"]):
        rc, out, err = _run(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error:")
    with pytest.raises(SystemExit) as exc:
        main(["stencil"])  # missing required -p
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["study-1d", "study-2d"])
@pytest.mark.parametrize("bad", [
    ["--modes", "0"],
    ["--modes", "1,-2"],
    ["--meshes", "64"],
    ["--meshes", "1,8"],
    ["--meshes", "8,0"],
    ["--meshes", "4,4"],
    ["--meshes", "8,4"],
    ["-p", "0"],
    ["--rules", "foo"],
    ["--rules", "gauss,foo"],
    ["--rules", "blend:xy"],
    ["--rules", ","],
    ["--meshes", "8,x"],
    ["--modes", "1.5"],
])
def test_bad_study_inputs_are_usage_errors(capsys, command, bad):
    rc, out, err = _run(capsys, [command, "-p", "2", "--rules", "gauss"] + bad)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("kron", ["1", "-3", "129", "128"])
def test_bad_kronecker_mesh_is_a_usage_error(capsys, kron):
    # 129 elements at p = 2 and 128 at p = 3 both give 16641 2D unknowns,
    # over assembly.KRON_MAX_DIM = 16384; the check comes before any solve
    p = "3" if kron == "128" else "2"
    rc, out, err = _run(capsys, ["study-2d", "-p", p, "--rules", "gauss",
                                 "--verify-kron", kron])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --verify-kron")


@pytest.mark.parametrize("argv", [
    ["verify", "--p-max", "0"],
    ["verify", "--fg-p-max", "1"],
    ["verify", "--fg-m-max", "1"],
    ["tau", "--p", ""],
    ["tau", "--p", ","],
    ["tau", "--p", "0"],
    ["tau", "--p", "2,0"],
    ["stencil", "-p", "0"],
    ["stencil", "-p", "0", "--rule", "gauss"],
    ["dispersion", "-p", "0"],
    ["dispersion", "-p", "2", "--min", "0"],
    ["dispersion", "-p", "2", "--max", "-1"],
    ["dispersion", "-p", "2", "--samples", "0"],
    ["dispersion", "-p", "2", "--samples", "1", "--fit"],
    ["rules", "--family", "gauss", "--points", "0"],
    ["rules", "--family", "lobatto", "--points", "1"],
    ["rules", "--family", "radau", "--points", "0"],
    ["rules", "--family", "blend", "-p", "0"],
    ["rules", "--family", "dmm", "-p", "0"],
    ["tau", "--p", "two"],
])
def test_bad_degrees_and_samplings_are_usage_errors(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_a_fit_over_one_wavenumber_is_a_usage_error(monkeypatch, capsys):
    # --min equal to --max gives one distinct wavenumber, no slope to fit:
    # refused before any sample is taken; without --fit it is a curve
    argv = ["dispersion", "-p", "2", "--min", "0.1", "--max", "0.1", "--samples", "3"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0 and len(out.splitlines()) == 4

    def forbidden(*args, **kwargs):
        raise AssertionError("a sample before the check")

    monkeypatch.setattr(cli.dispersion, "sample_curve", forbidden)
    rc, out, err = _run(capsys, argv + ["--fit"])
    assert (rc, out) == (2, "")
    assert err == "error: --fit needs --min and --max to differ: 0.1, 0.1\n"


@pytest.mark.parametrize("command", ["study-1d", "study-2d"])
@pytest.mark.parametrize("modes", ["1,1", "2,1,2"])
def test_a_repeated_mode_is_a_usage_error(capsys, command, modes):
    # a study keys its errors by mode: a repeated mode would collect two
    # errors per mesh, which no rate fit takes
    rc, out, err = _run(capsys, [command, "-p", "2", "--meshes", "8,16", "--rules", "gauss",
                                 "--modes", modes])
    assert rc == 2
    assert out == ""
    assert err == f"error: --modes names a mode twice: {modes!r}\n"


@pytest.mark.parametrize("command", ["study-1d", "study-2d"])
@pytest.mark.parametrize("rules", ["gauss,gauss", "dmm,radau,dmm", "gauss, gauss"])
@pytest.mark.parametrize("from_config", [False, True])
def test_a_repeated_rule_is_a_usage_error(tmp_path, capsys, command, rules, from_config):
    # a repeated rule would print its cells and its (rule, mode) rates twice
    argv = [command, "-p", "2", "--meshes", "8,16"]
    if from_config:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"rules": rules}))
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--rules", rules]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: --rules names a rule twice: {rules!r}\n"


@pytest.mark.parametrize("argv,config", [
    (["--max", "inf"], None),
    (["--min", "inf", "--max", "inf"], None),
    ([], '{"max": "inf"}'),
    ([], '{"max": 1e999}'),
    ([], '{"min": "Infinity"}'),
])
def test_an_infinite_wavenumber_is_a_usage_error(tmp_path, capsys, argv, config):
    # an infinite bound samples inf and nan errors
    head = []
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(config)
        head = ["--config", str(cfg)]
    rc, out, err = _run(capsys, head + ["dispersion", "-p", "2"] + argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --min and --max need finite wavenumbers > 0")


@pytest.mark.parametrize("argv,flag", [
    (["study-1d", "-p", "2", "--meshes", "8,x"], "--meshes"),
    (["study-2d", "-p", "2", "--modes", "1.5"], "--modes"),
    (["tau", "--p", "two"], "--p"),
])
def test_integer_lists_name_their_flag(capsys, argv, flag):
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {flag} needs comma-separated integers")


@pytest.mark.parametrize("argv,flag", [
    (["stencil", "-p", "2", "--rule", "blend:xx"], "--rule"),
    (["stencil", "-p", "2", "--form", "stiffness", "--rule", "nosuch"], "--rule"),
    (["tau", "--pair", "xx"], "--pair"),
    (["tau", "--p", "2", "--pair", "gl,xx"], "--pair"),
    (["tau", "--pair", ","], "--pair"),
    (["rules", "--family", "blend", "-p", "2", "--pair", "xx"], "--pair"),
    (["dispersion", "-p", "2", "--rule", "nosuch"], "--rule"),
    (["dispersion", "-p", "2", "--rule", "blend:xx", "--fit"], "--rule"),
])
def test_unknown_labels_and_pairs_are_usage_errors(capsys, argv, flag):
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {flag} needs names from")


def test_pair_of_another_family_is_not_read(capsys):
    # --pair belongs to --family blend; the Gauss rule ignores it
    rc, out, _ = _run(capsys, ["rules", "--family", "gauss", "--pair", "xx"])
    assert rc == 0
    assert out.startswith("label=G2 ")


def test_classical_labels_name_their_rules():
    got = {label: cli._rule(3, label).label for label in _STUDY_RULES[:7]}
    assert got == {"gauss": "G4", "G": "G4", "gp": "G3", "lobatto": "L4", "L": "L4",
                   "radau": "R3", "R": "R3"}


def test_narrow_longdouble_fails_a_study(monkeypatch, capsys):
    from igadmm import eigensolve

    monkeypatch.setattr(eigensolve, "LONGDOUBLE_IS_WIDE", False)
    for argv in (["study-1d", "-p", "2", "--meshes", "8,16"],
                 ["study-2d", "-p", "2", "--meshes", "8,16", "--verify-kron", "4"]):
        rc, out, err = _run(capsys, argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and "longdouble" in err


def test_degenerate_blend_study_is_a_computation_error(capsys):
    # a known label whose rule pair has no blend ratio at this degree
    rc, out, err = _run(capsys, ["study-1d", "-p", "1", "--rules", "blend:lr"])
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("meshes, N", [("16,32", 16), ("256,512", 256)])
def test_an_indefinite_mass_fails_a_study_on_either_solver_route(capsys, meshes, N):
    # the p = 3 Legendre/Radau blend has a mass matrix with a negative
    # eigenvalue; 16 elements take the dense solve, 256 the Lanczos one
    rc, out, err = _run(capsys, ["study-1d", "-p", "3", "--rules", "blend:gr",
                                 "--meshes", meshes, "--modes", "1,2"])
    assert (rc, out) == (1, "")
    assert err == f"error: blend:gr at p=3, N={N}: the mass matrix is not positive definite\n"


def test_any_other_dense_solve_failure_is_a_computation_error(monkeypatch, capsys):
    # with the mass factored, a dense solve failure is not a mass error:
    # numpy's LinAlgError, a ValueError, reaches the user as it is
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("the eigensolver did not converge")

    monkeypatch.setattr(eigensolve, "_dense_eigh", failing)
    rc, out, err = _run(capsys, ["study-1d", "-p", "3", "--meshes", "16,32", "--modes", "1"])
    assert (rc, out, err) == (1, "", "error: the eigensolver did not converge\n")


def test_too_many_modes_is_a_computation_error(capsys):
    rc, out, err = _run(capsys, ["study-1d", "-p", "2", "--meshes", "4,8",
                                 "--modes", "9"])
    assert rc == 1
    assert out == ""
    assert err == "error: only 4 discrete modes, requested 9\n"


@pytest.mark.parametrize("order", ["4", "5"])
def test_dispersion_coefficient_without_a_prediction_is_a_usage_error(capsys, order):
    # the minimized row cancels the order-4 term at p=2, and 5 is neither 2p
    # nor 2p+2: both name the orders that can be checked
    rc, out, err = _run(capsys, ["dispersion", "-p", "2", "--rule", "dmm",
                                 "--coefficient", order])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "2p+2 = 6" in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("study1d_p2_energy.txt",
     ["study-1d", "-p", "2", "--energy", "--meshes", "8,16,32", "--rules", "gauss,radau,dmm"]),
    ("study1d_p3_energy_json.txt",
     ["study-1d", "-p", "3", "--energy", "--meshes", "16,32,64", "--rules", "gauss,dmm",
      "--json", "-"]),
    ("study2d_p2_kron.txt",
     ["study-2d", "-p", "2", "--meshes", "4,8,16", "--rules", "dmm", "--verify-kron", "8"]),
    ("tau_p123_all.txt", ["tau", "--p", "1,2,3", "--pair", "all"]),
    ("stencil_p3_blend_gl.txt", ["stencil", "-p", "3", "--rule", "blend:gl"]),
    ("dispersion_p2_dmm_fit_c6.txt",
     ["dispersion", "-p", "2", "--rule", "dmm", "--fit", "--coefficient", "6"]),
    ("study2d_p3_kron.txt",
     ["study-2d", "-p", "3", "--meshes", "4,8,16", "--modes", "1,2,3",
      "--rules", "gauss,radau", "--verify-kron", "6"]),
    ("tau_p78_all.txt", ["tau", "--p", "7,8", "--pair", "all"]),
    ("stencil_p6_stiffness_blend_pr.txt",
     ["stencil", "-p", "6", "--form", "stiffness", "--rule", "blend:pr"]),
    ("rules_blend_p3_gl.txt", ["rules", "--family", "blend", "-p", "3", "--pair", "gl"]),
    ("verify_p4_fg6.txt", ["verify", "--p-max", "4", "--fg-p-max", "6", "--fg-m-max", "6"]),
    ("verify_p12_fg20.txt",
     ["verify", "--p-max", "12", "--fg-p-max", "20", "--fg-m-max", "20"]),
])
def test_study_outputs_match_golden_files(capsys, name, argv):
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("argv,kind", [
    (["verify", "--p-max", "2", "--fg-p-max", "3", "--fg-m-max", "3"], "verify"),
    (["stencil", "-p", "2", "--dmm"], "stencil"),
    (["tau", "--p", "1,2"], "tau"),
    (["rules", "--family", "blend", "-p", "2", "--pair", "gl"], "rules"),
    (["study-1d", "-p", "2", "--meshes", "8,16", "--modes", "1",
      "--rules", "gauss", "--energy"], "study"),
    (["study-2d", "-p", "1", "--meshes", "4,8", "--modes", "1,2",
      "--rules", "gauss"], "study"),
    (["dispersion", "-p", "1", "--samples", "3", "--fit",
      "--coefficient", "2"], "dispersion"),
])
def test_json_reports_validate(tmp_path, capsys, schema, argv, kind):
    path = tmp_path / "report.json"
    extra = ["--json", str(path)]
    if kind in ("study", "dispersion"):
        extra += ["--csv", str(tmp_path / "out.csv")]
    rc = main(argv + extra)
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(path.read_text())
    assert payload["kind"] == kind
    jsonschema.validate(payload, schema)


def _text_and_report(capsys, argv):
    """The text lines and the JSON report of one run with --json -."""
    rc, out, _ = _run(capsys, argv + ["--json", "-"])
    lines = out.splitlines()
    cut = lines.index("{")
    return rc, lines[:cut], json.loads("\n".join(lines[cut:cut + lines[cut:].index("}") + 1]))


def _text_numbers(line):
    """The numbers a text line shows, as printed: integers, fractions and
    six-digit floats, but not the digits inside a rule label such as G3."""
    return re.findall(r"(?<![\w.])-?\d[\d./]*(?:e[-+]\d+)?", line)


def _report_numbers(report):
    """The report's strings, and its integers as text, in the order the
    text shows them."""
    kind = report["kind"]
    if kind == "verify":
        nums = [f for s in report["suites"]
                for f in ([] if s["p"] is None else [s["p"]]) + [s["checks"]]]
        return nums + [sum(s["checks"] for s in report["suites"])]
    if kind == "stencil":
        return [f for e in report["entries"] for f in (e["offset"], e["fraction"] or e["value"])]
    if kind == "tau":
        return [f for e in report["entries"]
                for f in [e["p"]] + ([e["tau_fraction"]] if e["tau_fraction"] else [])
                + ([] if e["tau"] == "degenerate" else [e["tau"]])]
    if kind == "rules":
        return [report["exactness"]] + [f for pair in zip(report["nodes"], report["weights"])
                                        for f in pair]
    if kind == "study":
        return [r[key] for r in report["rows"]
                for key in ("p", "N", "mode", "rel_ev_error", "ef_energy_error") if key in r]
    coefficient = report["coefficient"] or {}
    return ([f for s in report["samples"] for f in (s["wavenumber"], s["rel_error"])]
            + ([report["fit_order"]] if report["fit_order"] else [])
            + [coefficient[key] for key in ("order", "measured", "predicted", "rel_deviation")
               if key in coefficient])


@pytest.mark.parametrize("argv", [
    ["verify", "--p-max", "3", "--fg-p-max", "3", "--fg-m-max", "3"],
    ["stencil", "-p", "6", "--rule", "gauss"],
    ["stencil", "-p", "3", "--dmm", "--form", "stiffness"],
    ["tau", "--p", "1,2,8", "--pair", "all"],
    ["rules", "--family", "blend", "-p", "2", "--pair", "gl"],
    ["rules", "--family", "dmm", "-p", "3", "--sign", "-1"],
    ["study-1d", "-p", "2", "--meshes", "8,16", "--modes", "1,3", "--rules", "gauss,dmm",
     "--energy"],
    ["study-2d", "-p", "2", "--meshes", "4,8", "--modes", "1,2", "--rules", "radau",
     "--verify-kron", "4"],
    ["dispersion", "-p", "2", "--rule", "dmm", "--samples", "4", "--fit",
     "--coefficient", "6"],
    ["dispersion", "-p", "3", "--rule", "radau", "--samples", "3"],
])
def test_text_shows_the_strings_of_the_json_report(capsys, argv):
    rc, lines, report = _text_and_report(capsys, argv)
    assert rc == 0
    assert [n for line in lines for n in _text_numbers(line)] == [
        str(n) for n in _report_numbers(report)]
    if report["kind"] == "verify":
        assert [line.split()[0] for line in lines] == (
            ["FAIL" if s["failures"] else "PASS" for s in report["suites"]]
            + ["PASS" if report["ok"] else "FAIL"])
    if report["kind"] == "tau":
        assert [line.endswith(" degenerate") for line in lines] == [
            e["tau"] == "degenerate" for e in report["entries"]]
    if report["kind"] == "study":
        assert lines[0] == "p,N,rule,mode,rel_ev_error,ef_energy_error"
        assert [line.split(",")[2] for line in lines[1:]] == [r["rule"] for r in report["rows"]]
        assert [line.endswith(",") for line in lines[1:]] == [
            "ef_energy_error" not in r for r in report["rows"]]


def test_verify_words_and_exit_code_come_from_the_failure_counts(monkeypatch, capsys):
    failing = IdentityReport((IdentityCheck("row sum", 2, None, 0),
                              IdentityCheck("second moment", 2, None, 1)))
    passing = IdentityReport((IdentityCheck("row sum", 3, None, 0),))
    monkeypatch.setattr(cli, "run_verify", lambda *args: (
        False, [("base-identities", 2, failing), ("coefficient-recursion", None, passing)]))
    rc, lines, report = _text_and_report(capsys, ["verify"])
    assert rc == 1
    assert lines == ["FAIL base-identities p=2 (2 checks)",
                     "PASS coefficient-recursion (1 checks)", "FAIL total (3 checks)"]
    assert report == {"kind": "verify", "ok": False, "suites": [
        {"name": "base-identities", "p": 2, "checks": 2, "failures": 1},
        {"name": "coefficient-recursion", "p": None, "checks": 1, "failures": 0}]}


def test_study_rows_render_to_csv_and_json(monkeypatch, capsys):
    rows = [cli.ErrorRow(2, 8, "gauss", 1, 3.41234e-5, 1.2e-3),
            cli.ErrorRow(2, 16, "gauss", 1, 2.1e-6, None)]
    monkeypatch.setattr(cli, "run_study", lambda *args, **kwargs: (
        rows, [{"rule": "gauss", "mode": 1, "rate": 4.02}]))
    rc, lines, report = _text_and_report(capsys, ["study-1d", "-p", "2"])
    assert rc == 0
    assert lines == ["p,N,rule,mode,rel_ev_error,ef_energy_error",
                     "2,8,gauss,1,3.41234e-05,1.20000e-03",
                     "2,16,gauss,1,2.10000e-06,"]  # the missing energy error stays empty
    assert report["rows"][0]["rel_ev_error"] == "3.41234e-05"
    assert "ef_energy_error" not in report["rows"][1]
    assert report["rates"] == [{"rule": "gauss", "mode": 1, "rate": "4.02000e+00"}]


def test_a_study_cell_that_rounds_to_0_gives_a_nan_rate(monkeypatch, capsys, schema):
    # a cell exactly 0, as 6,144,gp,4 of a p = 6 ladder reads at one BLAS
    # thread, has no logarithm: its series' rate is nan, and the study
    # exits 0 with a report that validates
    relative_ev_errors, solved = eigensolve.relative_ev_errors, []

    def zero_on_the_second_mesh(*args):
        errs = relative_ev_errors(*args)
        solved.append(args)
        if len(solved) == 2:
            errs[0] = 0
        return errs

    monkeypatch.setattr(eigensolve, "relative_ev_errors", zero_on_the_second_mesh)
    rc, out, err = _run(capsys, ["study-1d", "-p", "2", "--meshes", "8,16,32",
                                 "--modes", "1,2", "--rules", "gauss", "--json", "-"])
    assert (rc, err) == (0, "")
    assert "2,16,gauss,1,0.00000e+00," in out.splitlines()
    report = json.loads(out[out.index("{"):])
    jsonschema.validate(report, schema)
    rates = [r["rate"] for r in report["rates"]]
    assert rates[0] == "nan" and 3.5 < float(rates[1]) < 4.5


def test_study_csv_contents(tmp_path, capsys):
    path = tmp_path / "study.csv"
    rc = main(["study-1d", "-p", "2", "--meshes", "8,16", "--modes", "1",
               "--rules", "gauss", "--csv", str(path)])
    capsys.readouterr()
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "p,N,rule,mode,rel_ev_error,ef_energy_error"
    first = lines[1].split(",")
    assert first[:4] == ["2", "8", "gauss", "1"]
    assert abs(float(first[4]) - 3.4e-5) < 0.25 * 3.4e-5


def test_kron_check_line(capsys):
    rc, out, _ = _run(capsys, ["study-2d", "-p", "1", "--meshes", "4,8",
                               "--modes", "1", "--rules", "gauss",
                               "--verify-kron", "4", "--csv", "-"])
    assert rc == 0
    line = [ln for ln in out.splitlines() if ln.startswith("# kron")][0]
    assert float(line.rsplit(" ", 1)[1]) < 1e-10


def test_kron_cross_check_solves_only_the_1d_pair(monkeypatch):
    # one solve, of the 1D pair, and the 2D operators applied to a block of
    # tensor pairs of its modes: no np.kron product, no 2D solve
    solved = []
    generalized_eig = eigensolve.generalized_eig

    def recorded(K, M, count=None):
        solved.append((K, M, count))
        return generalized_eig(K, M, count)

    monkeypatch.setattr(eigensolve, "generalized_eig", recorded)
    monkeypatch.setattr(np, "kron", lambda *args: pytest.fail("np.kron product"))
    assert 0 < cli.kron_cross_check(2, 24, "dmm") < 1e-17
    (K, M, count), = solved
    pair = cli._pair(BSplineSpace(2, 24), "dmm")
    assert isinstance(K, assembly.SymBandMatrix) and isinstance(M, assembly.SymBandMatrix)
    assert np.array_equal(K.bands, pair.stiffness.bands)
    assert np.array_equal(M.bands, pair.mass.bands)
    assert count == 12


@pytest.mark.parametrize("out", ["--json", "--csv"])
def test_the_json_report_carries_the_kron_deviation(tmp_path, capsys, schema, out):
    # the stdout line after the report, and the one key of the JSON report,
    # show the same string, with the report on stdout or in a file
    argv = ["study-2d", "-p", "2", "--meshes", "4,8", "--modes", "1", "--rules", "dmm",
            "--verify-kron", "6"]
    path = tmp_path / "out"
    rc, stdout, _ = _run(capsys, argv + (["--json", str(path)] if out == "--json"
                                         else ["--csv", str(path), "--json", "-"]))
    assert rc == 0
    report = json.loads(path.read_text() if out == "--json"
                        else stdout[: stdout.rindex("}") + 1])
    line = stdout.splitlines()[-1]
    assert line == f"# kron-vs-tensor max rel deviation at N=6: {report['kron_vs_tensor']}"
    assert float(report["kron_vs_tensor"]) < 1e-10
    jsonschema.validate(report, schema)
    # without --verify-kron the report has no such key
    rc, stdout, _ = _run(capsys, argv[:-2] + ["--json", "-"])
    assert rc == 0 and "kron_vs_tensor" not in json.loads(stdout[stdout.index("{"):])


def test_kron_deviation_is_taken_in_longdouble():
    # float64 rounding of both spectra would read 1.3e-16 and exactly 0 here
    assert cli.kron_cross_check(1, 12, "gauss") < 1e-17
    assert cli.kron_cross_check(2, 8, "dmm") > 0


@pytest.mark.parametrize("label", _STUDY_RULES)
def test_every_study_label_passes_the_kronecker_check(capsys, label):
    rc, out, _ = _run(capsys, ["study-2d", "-p", "2", "--meshes", "4,8", "--modes", "1",
                               "--rules", label, "--verify-kron", "4"])
    assert rc == 0
    line = [ln for ln in out.splitlines() if ln.startswith("# kron")][0]
    assert float(line.rsplit(" ", 1)[1]) < 1e-10


def test_study_rate_on_a_non_doubling_ladder(capsys):
    # N grows by 1.5 per step; the Gauss eigenvalue error falls as N^-2p
    rc, out, _ = _run(capsys, ["study-1d", "-p", "2", "--rules", "gauss", "--modes", "1",
                               "--meshes", "8,12,18,27", "--json", "-"])
    assert rc == 0
    report = json.loads(out[out.index("{"):])
    assert abs(float(report["rates"][0]["rate"]) - 4.0) < 0.1


def test_default_grid_is_numpys_geomspace():
    # bit for bit on the default grid; elsewhere numpy's vectorized log10 and
    # power may move an inner value by an ulp
    assert cli._geomspace(0.05, 0.5, 9) == np.geomspace(0.05, 0.5, 9).tolist()
    assert cli._geomspace(0.05, 0.5, 1) == [0.05]
    grid = cli._geomspace(0.01, 3.0, 33)
    assert grid[0] == 0.01 and grid[-1] == 3.0
    assert np.allclose(grid, np.geomspace(0.01, 3.0, 33), rtol=4e-16, atol=0)


def test_dispersion_fit_and_alias(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rc = main(["dispersion", "-p", "1", "--min", "0.01", "--max", "0.1",
               "--samples", "5", "--fit", "--rule", "dmm", "--csv", str(a)])
    rc2 = main(["dispersion", "-p", "1", "--min", "0.01", "--max", "0.1",
                "--samples", "5", "--fit", "--mass", "dmm", "--csv", str(b)])
    capsys.readouterr()
    assert rc == rc2 == 0
    assert a.read_bytes() == b.read_bytes()
    fit_line = [ln for ln in a.read_text().splitlines()
                if ln.startswith("# fit_order")][0]
    assert abs(float(fit_line.split()[-1]) - 4.0) < 0.1


def test_outputs_are_deterministic(tmp_path, capsys):
    paths = []
    for tag in ("one", "two"):
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        rc = main(["study-1d", "-p", "2", "--meshes", "8,16", "--modes", "1,2",
                   "--rules", "gauss,dmm", "--csv", str(csv), "--json", str(js)])
        assert rc == 0
        paths.append((csv, js))
    capsys.readouterr()
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_config_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"rule": "dmm"}))
    rc, from_cfg, _ = _run(capsys, ["--config", str(cfg), "stencil", "-p", "2"])
    assert rc == 0
    _, want, _ = _run(capsys, ["stencil", "-p", "2", "--rule", "dmm"])
    assert from_cfg == want
    rc, overridden, _ = _run(capsys, ["--config", str(cfg), "stencil",
                                      "-p", "2", "--rule", "exact"])
    assert rc == 0
    assert overridden != from_cfg
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    rc, _, err = _run(capsys, ["--config", str(bad), "stencil", "-p", "2"])
    assert rc == 2
    assert "config" in err


@pytest.mark.parametrize("content,word", [
    ('{"p_mx": 3}', "p_mx"),
    ('{"rule": "dmm", "func": null}', "func"),
    ('{"config": "other.json"}', "config"),
    ("{not json", "config"),
])
def test_bad_config_is_a_usage_error(tmp_path, capsys, content, word):
    cfg = tmp_path / "config.json"
    cfg.write_text(content)
    rc, out, err = _run(capsys, ["--config", str(cfg), "stencil", "-p", "2"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and word in err


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    rc, out, err = _run(capsys, ["--config", str(tmp_path / "none.json"), "tau"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: config")


def test_config_keys_of_other_subcommands_are_accepted(tmp_path, capsys):
    # one file may serve several subcommands: keys of another one are unused
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"p_max": 2, "fg_p_max": 3, "fg_m_max": 3,
                               "meshes": "8,16", "verify_kron": 4}))
    rc, out, _ = _run(capsys, ["--config", str(cfg), "verify"])
    assert rc == 0
    _, want, _ = _run(capsys, ["verify", "--p-max", "2", "--fg-p-max", "3",
                               "--fg-m-max", "3"])
    assert out == want


@pytest.mark.parametrize("content,word", [
    ('{"p_max": 2.5}', "p_max"),
    ('{"p_max": "three"}', "p_max"),
    ('{"p_max": true}', "p_max"),
    ('{"p_max": null}', "p_max"),
    ('{"fg_p_max": [3]}', "fg_p_max"),
    ('{"json": 1.5, "p_max": {"a": 1}}', "p_max"),
])
def test_config_values_of_the_wrong_type_are_usage_errors(tmp_path, capsys, content, word):
    cfg = tmp_path / "config.json"
    cfg.write_text(content)
    rc, out, err = _run(capsys, ["--config", str(cfg), "verify"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: config") and word in err and "Traceback" not in err


@pytest.mark.parametrize("content,argv", [
    ('{"sign": 2}', ["rules", "--family", "dmm"]),
    ('{"form": "volume"}', ["stencil", "-p", "2"]),
    ('{"fit": 1}', ["dispersion", "-p", "2"]),
    ('{"min": "small"}', ["dispersion", "-p", "2"]),
    ('{"p": "2,3"}', ["stencil", "-p", "2"]),
])
def test_config_values_outside_their_option_are_usage_errors(tmp_path, capsys, content, argv):
    cfg = tmp_path / "config.json"
    cfg.write_text(content)
    rc, out, err = _run(capsys, ["--config", str(cfg)] + argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: config")


def test_config_values_are_taken_as_their_options_take_text(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    # an int for an int option, a number for a float one, a string list, a
    # flag, and p = 2 for tau's comma-list --p as for the studies' degree
    cfg.write_text(json.dumps({"p": 2, "meshes": "8,16", "modes": "1", "energy": True,
                               "rules": "gauss", "min": 1, "samples": 3}))
    rc, out, _ = _run(capsys, ["--config", str(cfg), "study-1d", "-p", "2"])
    assert rc == 0
    _, want, _ = _run(capsys, ["study-1d", "-p", "2", "--meshes", "8,16", "--modes", "1",
                               "--rules", "gauss", "--energy"])
    assert out == want
    rc, out, _ = _run(capsys, ["--config", str(cfg), "tau", "--pair", "gl"])
    assert rc == 0 and out.startswith("p=2 pair=gl")
    rc, out, _ = _run(capsys, ["--config", str(cfg), "dispersion", "-p", "2", "--max", "2"])
    assert rc == 0
    _, want, _ = _run(capsys, ["dispersion", "-p", "2", "--min", "1", "--max", "2",
                               "--samples", "3"])
    assert out == want


def _exit(capsys, argv):
    """Exit code, stdout and stderr of a call, argparse's own exits included."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parsers_are_built_once_per_process(monkeypatch, tmp_path, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parsers.cache_clear()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"rule": "dmm"}))
    for argv in (["stencil", "-p", "2"], ["--config", str(cfg), "stencil", "-p", "2"],
                 ["stencil"]):
        _exit(capsys, argv)
    # the root parser and one per subcommand, no --config pre-parser
    assert len(built) == 8 and built[0] == "igadmm"


def test_import_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import argparse\n"
         "built = []\n"
         "init = argparse.ArgumentParser.__init__\n"
         "argparse.ArgumentParser.__init__ = "
         "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
         "import igadmm.cli\n"
         "print(len(built), igadmm.cli._parsers.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_config_does_not_outlive_its_call(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"rule": "dmm", "form": "stiffness"}))
    plain = ["k=0 11/20", "k=1 13/60", "k=2 1/120"]
    rc, out, _ = _exit(capsys, ["--config", str(cfg), "stencil", "-p", "2"])
    assert rc == 0 and out.splitlines() != plain
    rc, out, _ = _exit(capsys, ["stencil", "-p", "2"])
    assert rc == 0 and out.splitlines() == plain
    # a usage error (no -p) in a call that names a config
    rc, out, err = _exit(capsys, ["--config", str(cfg), "stencil"])
    assert rc == 2 and out == "" and "-p" in err
    rc, out, _ = _exit(capsys, ["stencil", "-p", "2"])
    assert rc == 0 and out.splitlines() == plain


def test_help_and_usage_errors_repeat_byte_for_byte(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"rule": "dmm", "p_max": 2}))
    commands = ["verify", "stencil", "tau", "rules", "study-1d", "study-2d", "dispersion"]
    asked = ([["-h"]] + [[command, "-h"] for command in commands]
             + [["stencil"], ["nosuchcommand"], ["stencil", "-p", "2", "--bogus"],
                ["rules", "--family", "nosuch"]])
    others = [["--config", str(cfg), "stencil", "-p", "3"], ["tau", "--p", "2"],
              ["--config", str(cfg), "dispersion"], ["stencil", "-p", "0"]]
    runs = []
    for _ in range(2):
        for argv in others:
            _exit(capsys, argv)
        runs.append([_exit(capsys, argv) for argv in asked])
    assert runs[0] == runs[1]
    assert all(rc == 0 and out.startswith("usage: igadmm") for rc, out, _ in runs[0][:8])
    assert all(rc == 2 and err.startswith("usage: igadmm") for rc, _, err in runs[0][8:])


def test_config_is_read_only_before_the_subcommand(tmp_path, capsys):
    # usage errors come from igadmm's parser, not from a private pre-parser
    rc, out, err = _exit(capsys, ["--config"])
    assert rc == 2 and out == ""
    assert err.startswith("usage: igadmm ")
    assert err.endswith("igadmm: error: argument --config: expected one argument\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"rule": "dmm"}))
    for path in (str(cfg), str(tmp_path / "none.json")):
        rc, out, err = _exit(capsys, ["stencil", "-p", "2", "--config", path])
        assert rc == 2 and out == ""
        assert err.startswith("usage: igadmm ")
        assert err.endswith(f"igadmm: error: unrecognized arguments: --config {path}\n")


@pytest.mark.parametrize("argv", [
    ["stencil", "-p", "2", "--json", "{missing}/x.json"],
    ["study-2d", "-p", "2", "--meshes", "4,8", "--rules", "gauss", "--csv", "{missing}/x.csv"],
    ["study-1d", "-p", "2", "--csv", "-", "--json", "{missing}/x.json"],
    ["verify", "--json", "{missing}/x.json"],
    ["dispersion", "-p", "2", "--csv", "{missing}/x.csv"],
    ["--config", "{config}", "tau"],
])
def test_output_into_a_missing_directory_is_a_usage_error(monkeypatch, tmp_path, capsys,
                                                          argv):
    def computed(*args, **kwargs):
        raise AssertionError("computed before the output paths were checked")

    for name in ("_row", "run_study", "run_verify"):
        monkeypatch.setattr(cli, name, computed)
    missing = tmp_path / "missing"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"json": f"{missing}/x.json"}))
    argv = [arg.format(missing=missing, config=config) for arg in argv]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --") and f"directory {missing} does not exist" in err


@pytest.mark.parametrize("argv,message", [
    (["stencil", "-p", "2", "--json", "{directory}"], "error: --json {directory}: is a directory"),
    (["stencil", "-p", "2", "--json", ""], "error: --json: empty file name"),
    (["study-2d", "-p", "2", "--meshes", "4,8", "--rules", "gauss", "--csv", "{directory}"],
     "error: --csv {directory}: is a directory"),
    (["dispersion", "-p", "2", "--csv", ""], "error: --csv: empty file name"),
    (["--config", "{config}", "tau"], "error: --json {directory}: is a directory"),
])
def test_output_to_a_directory_or_an_empty_name_is_a_usage_error(monkeypatch, tmp_path,
                                                                 capsys, argv, message):
    def computed(*args, **kwargs):
        raise AssertionError("computed before the output paths were checked")

    for name in ("_row", "run_study", "run_verify"):
        monkeypatch.setattr(cli, name, computed)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"json": str(tmp_path)}))
    argv = [arg.format(directory=tmp_path, config=config) for arg in argv]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err == message.format(directory=tmp_path) + "\n"


@pytest.mark.parametrize("argv", [
    ["dispersion", "-p", "2", "--csv", "out", "--json", "out"],
    ["dispersion", "-p", "2", "--csv", "./out", "--json", "out"],
    ["study-1d", "-p", "2", "--csv", "out", "--json", "sub/../out"],
    ["--config", "config.json", "study-2d", "-p", "2", "--csv", "out"],
])
def test_csv_and_json_naming_one_file_is_a_usage_error(monkeypatch, tmp_path, capsys, argv):
    def computed(*args, **kwargs):
        raise AssertionError("computed before the output paths were checked")

    for name in ("_row", "run_study"):
        monkeypatch.setattr(cli, name, computed)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "config.json").write_text(json.dumps({"json": "out"}))
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: --csv ") and err.endswith(" name the same file\n")
    assert not (tmp_path / "out").exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "igadmm.cli", "tau", "--p", "3", "--pair", "gg"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "tau=13/3" in proc.stdout


def test_import_does_not_load_scipy_special():
    # the rule builders seed their nodes in float64 Newton on the Legendre
    # recurrence; scipy.special's roots would add about 0.07 s to every
    # command's start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, igadmm.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# a fresh interpreter that imports igadmm, after the modules named in a comma
# list (none for ""), runs the argv lists given as JSON through cli.main and
# prints, as JSON, numpy and the scipy modules loaded after each import and
# after each run, and each run's exit code and captured streams
_PROBE = """
import contextlib, importlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m in ("numpy", "scipy") or m.startswith("scipy."))

for name in filter(None, sys.argv[1].split(",")):
    importlib.import_module(name)
import igadmm
report = {"igadmm": loaded()}
import igadmm.cli
report["cli"] = loaded()
report["runs"] = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = igadmm.cli.main(argv)
    report["runs"].append({"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                           "loaded": loaded()})
print(json.dumps(report))
"""


def _probe(preload, jobs=()):
    proc = subprocess.run([sys.executable, "-c", _PROBE, preload, json.dumps(list(jobs))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# a fresh interpreter that runs the argv lists given as JSON through
# cli.main and prints, as JSON, each run's exit code and how often it
# called the node builders: quadrature._float_roots, which seeds the nodes
# of every classical rule, and quadrature._legendre_series on an mpf, the
# Newton polishing and the closed-form weights
_NODE_PROBE = """
import contextlib, io, json, sys
import igadmm.cli
from igadmm import quadrature

calls = {"seeds": 0, "newton": 0, "built": []}
seeds, series = quadrature._float_roots, quadrature._legendre_series

def counted_seeds(coeffs, fixed):
    calls["seeds"] += 1
    calls["built"].append([len(coeffs) - 1, list(fixed)])
    return seeds(coeffs, fixed)

def counted_series(coeffs, x):
    calls["newton"] += type(x).__name__ == "mpf"
    return series(coeffs, x)

quadrature._float_roots, quadrature._legendre_series = counted_seeds, counted_series
runs = []
for argv in json.loads(sys.argv[1]):
    calls.update(seeds=0, newton=0, built=[])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = igadmm.cli.main(argv)
    runs.append({"rc": rc, **calls})
print(json.dumps(runs))
"""


def test_rows_and_ratios_never_build_a_quadrature_node():
    # rows, ratios and study assembly read rules through their moments
    exact = [["tau", "--p", "8", "--pair", "all"],
             ["stencil", "-p", "6", "--rule", "blend:gl"],
             ["dispersion", "-p", "5", "--rule", "lobatto", "--fit"],
             ["study-1d", "-p", "2", "--meshes", "4,8", "--rules", "gauss"],
             ["study-1d", "-p", "3", "--meshes", "4,8", "--rules", "radau,lobatto,gp,dmm"]]
    # the energy error integrates on the nodes of the (p + 5)-point Gauss
    # rule alone; the rules report prints the nodes
    energy = [["study-1d", "-p", "2", "--energy", "--meshes", "4,8",
               "--rules", "gauss,radau,lobatto,dmm"]]
    rules = [["rules", "--family", "gauss", "--points", "9"]]
    proc = subprocess.run([sys.executable, "-c", _NODE_PROBE,
                           json.dumps(exact + energy + rules)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [run["rc"] for run in runs] == [0] * 7
    assert all(run["seeds"] == run["newton"] == 0 for run in runs[:5]), runs
    # one series of degree 7, P_7, with no fixed root: the 7-point Gauss rule
    assert runs[5]["built"] == [[7, []]] and runs[5]["newton"] > 0, runs[5]
    assert runs[6]["built"] == [[9, []]] and runs[6]["newton"] > 0, runs[6]


def _streams(report):
    return [{k: run[k] for k in ("rc", "out", "err")} for run in report["runs"]]


def test_import_does_not_load_scipy():
    # numpy takes about 0.15 s and 13 MB to import; only a study needs it,
    # and scipy's LAPACK and BLAS modules
    report = _probe("")
    assert report["igadmm"] == [] and report["cli"] == []


def test_the_exact_commands_never_load_numpy_and_their_output_does_not_depend_on_it():
    jobs = [["verify", "--p-max", "3", "--fg-p-max", "4", "--fg-m-max", "4"],
            *(["stencil", "-p", "3", "--rule", rule] for rule in ("dmm", "blend:gl", "minrule+")),
            ["tau", "--p", "1,2,3", "--pair", "all"],
            *(["rules", "--family", family, "--points", "4"]
              for family in ("gauss", "lobatto", "radau")),
            ["rules", "--family", "dmm", "-p", "3"],
            ["rules", "--family", "blend", "-p", "3", "--pair", "pr"],
            ["dispersion", "-p", "2", "--rule", "dmm", "--fit", "--coefficient", "6"],
            ["dispersion", "-p", "3", "--rule", "gauss", "--min", "0.01", "--max", "1",
             "--samples", "17", "--fit"]]
    lazy, preload = _probe("", jobs), _probe("numpy", jobs)
    assert all(run["rc"] == 0 for run in lazy["runs"])
    assert all(run["loaded"] == [] for run in lazy["runs"])
    assert preload["cli"] == ["numpy"]
    assert _streams(lazy) == _streams(preload)


def test_only_a_solve_loads_scipy_and_the_output_does_not_depend_on_it():
    scipy_free = [["stencil", "-p", "3", "--rule", "dmm"],
                  ["tau", "--p", "3", "--pair", "all"],
                  ["rules", "--family", "gauss", "--points", "4"],
                  ["dispersion", "-p", "2", "--rule", "dmm", "--fit", "--coefficient", "6"],
                  ["verify", "--p-max", "3"]]
    # pencil orders below and above eigensolve._BANDED_MIN_N: dense eigh, then
    # Lanczos; the Kronecker check at N = 16 solves its 1D pencil densely
    dense = ["study-1d", "-p", "2", "--meshes", "32,64", "--modes", "8"]
    lanczos = ["study-1d", "-p", "2", "--meshes", "192,256", "--modes", "8"]
    kron = ["study-2d", "-p", "2", "--meshes", "4,8", "--rules", "dmm", "--modes", "1,2",
            "--verify-kron", "16"]
    assert 64 < eigensolve._BANDED_MIN_N <= 192
    jobs = scipy_free + [dense, lanczos, kron]
    # every solve needs only scipy's LAPACK and BLAS extension modules, not
    # the scipy.linalg package, whose import costs more than a study's
    # compute, nor scipy.sparse, nor the top scipy package's __init__: a run
    # that has loaded them prints the same bytes
    lazy = _probe("", jobs)
    preload = _probe("scipy.linalg,scipy.sparse.linalg", jobs)
    *cheap, after_dense, after_lanczos, after_kron = lazy["runs"]
    assert all(run["rc"] == 0 for run in lazy["runs"])
    assert all(run["loaded"] == [] for run in cheap)
    assert "numpy" in after_dense["loaded"]
    for run in (after_dense, after_lanczos, after_kron):
        assert [name for name in run["loaded"] if name != "numpy"] == [
            "scipy.linalg._fblas", "scipy.linalg._flapack"]
    assert "kron-vs-tensor" in after_kron["out"]
    assert {"numpy", "scipy.linalg", "scipy.sparse.linalg"} <= set(preload["cli"])
    assert _streams(lazy) == _streams(preload)


# a fresh interpreter that runs a dense, a Lanczos and a Kronecker-checked study
# through cli.main, then imports scipy.linalg and scipy.sparse.linalg (or
# imports them first, with argv[1] "before"), and prints as JSON which of
# the scipy and scipy.linalg packages were loaded for the studies, whether
# scipy's LAPACK and BLAS functions are the very objects the package
# called, and what scipy's own solvers return
_IMPORT_ORDER = """
import contextlib, io, json, sys
if sys.argv[1] == "before":
    import scipy.linalg, scipy.sparse.linalg
import igadmm.cli
from igadmm import eigensolve

called = {}
f2py = eigensolve._f2py

def recorded(name):
    module = f2py(name)
    called[name] = module
    return module

eigensolve._f2py = recorded
for argv in (["study-1d", "-p", "2", "--meshes", "32,64", "--modes", "2"],
             ["study-1d", "-p", "2", "--meshes", "192,256", "--modes", "2"],
             ["study-2d", "-p", "2", "--meshes", "4,8", "--rules", "dmm", "--verify-kron",
              "16"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert igadmm.cli.main(argv) == 0
packages = [name for name in ("scipy", "scipy.linalg") if name in sys.modules]
import numpy as np
import scipy.linalg, scipy.sparse, scipy.sparse.linalg
lapack, blas = called["_flapack"], called["_fblas"]
A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
report = {
    "packages": packages,
    "registered": [sys.modules["scipy.linalg." + name] is called[name]
                   for name in ("_flapack", "_fblas")],
    "origins": [module.__spec__.origin for module in (lapack, blas)],
    "linalg_dir": scipy.linalg.__path__[0],
    "same": [scipy.linalg.lapack.dpbtrf is lapack.dpbtrf,
             scipy.linalg.lapack.dpbtrs is lapack.dpbtrs,
             scipy.linalg.lapack.dsygvd is lapack.dsygvd,
             scipy.linalg.lapack.dsyevd is lapack.dsyevd,
             scipy.linalg.blas.dtbmv is blas.dtbmv],
    "eigh": scipy.linalg.eigh(A, np.eye(3), eigvals_only=True).tolist(),
    "cholesky_banded": scipy.linalg.cholesky_banded(
        np.array([[0.0, 1.0, 1.0], [4.0, 3.0, 2.0]])).tolist(),
    "eigsh": sorted(scipy.sparse.linalg.eigsh(scipy.sparse.csr_matrix(A), k=1,
                                              return_eigenvectors=False).tolist()),
}
print(json.dumps(report))
"""


@pytest.mark.parametrize("order", ["after", "before"])
def test_scipy_linalg_imports_before_or_after_a_study_share_its_lapack_and_blas(order):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ORDER, order],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # a study alone runs neither scipy/__init__.py nor scipy/linalg/__init__.py:
    # the extension modules come from the linalg directory, loaded by their spec
    assert report["packages"] == (["scipy", "scipy.linalg"] if order == "before" else [])
    assert report["registered"] == [True, True]
    assert all(os.path.dirname(origin) == report["linalg_dir"]
               for origin in report["origins"])
    assert report["same"] == [True] * 5
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    want = np.linalg.eigvalsh(A)
    assert np.allclose(report["eigh"], want, rtol=1e-14, atol=0)
    assert np.allclose(report["eigsh"], want[-1:], rtol=1e-10, atol=0)
    # scipy's upper band storage of the Cholesky factor R, A = R^T R
    R = np.linalg.cholesky(A).T
    assert np.allclose(report["cholesky_banded"],
                       [[0.0, R[0, 1], R[1, 2]], [R[0, 0], R[1, 1], R[2, 2]]],
                       rtol=1e-14, atol=0)


def test_a_study_calls_no_numpy_lapack_routine(no_numpy_lapack, capsys):
    # every LAPACK call of a study goes to scipy's _flapack; numpy's own
    # LAPACK, another OpenBLAS build, never runs
    for argv in (["study-1d", "-p", "2", "--meshes", "32,64", "--modes", "2", "--energy"],
                 ["study-1d", "-p", "2", "--meshes", "192,256", "--modes", "2", "--energy"],
                 ["study-2d", "-p", "2", "--meshes", "4,8", "--rules", "dmm",
                  "--verify-kron", "16"]):
        assert main(argv) == 0, capsys.readouterr().err
    assert "kron-vs-tensor" in capsys.readouterr().out
