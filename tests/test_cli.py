"""Command line behavior: golden lines, exit codes, JSON schema, determinism."""

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from igadmm.cli import main


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
    assert rc == rc2 == 0
    assert long_form == short_form
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
    rc, _, err = _run(capsys, ["stencil", "-p", "2", "--rule", "nosuch"])
    assert rc == 1
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
])
def test_bad_study_inputs_are_usage_errors(capsys, command, bad):
    rc, out, err = _run(capsys, [command, "-p", "2", "--rules", "gauss"] + bad)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,argv", [
    ("study1d_p2_energy.txt",
     ["study-1d", "-p", "2", "--energy", "--meshes", "8,16,32", "--rules", "gauss,radau,dmm"]),
    ("study1d_p3_energy_json.txt",
     ["study-1d", "-p", "3", "--energy", "--meshes", "16,32,64", "--rules", "gauss,dmm",
      "--json", "-"]),
    ("study2d_p2_kron.txt",
     ["study-2d", "-p", "2", "--meshes", "4,8,16", "--rules", "dmm", "--verify-kron", "8"]),
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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "igadmm.cli", "tau", "--p", "3", "--pair", "gg"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "tau=13/3" in proc.stdout
