"""The paired-benchmark summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_counts_wins_losses_and_ties():
    summary = bench_pairs.summarize([(1.0, 0.5), (1.2, 0.6), (0.9, 1.0), (1.1, 1.1)],
                                    "lower")
    parent, change = summary["parent"], summary["change"]
    # inclusive quartiles of 0.9, 1.0, 1.1, 1.2 and of 0.5, 0.6, 1.0, 1.1
    assert (parent["q1"], parent["median"], parent["q3"]) == pytest.approx(
        (0.975, 1.05, 1.125))
    assert (change["q1"], change["median"], change["q3"]) == pytest.approx(
        (0.575, 0.8, 1.025))
    assert parent["runs"] == [1.0, 1.2, 0.9, 1.1]
    assert (summary["pairs"], summary["change_wins"], summary["change_losses"]) == (4, 2, 1)
    assert summary["median_gain"] == pytest.approx(0.25)
    assert summary["median_gain_share"] == pytest.approx(0.25 / 1.05)
    assert summary["parent_iqr"] == pytest.approx(0.15)
    assert summary["gain_holds"] is False  # 2 wins of 4


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_parent_iqr():
    parent = [1.0 + 0.01 * i for i in range(10)]  # IQR 0.045
    nine_wins = list(zip(parent, [0.8] * 9 + [1.5]))
    summary = bench_pairs.summarize(nine_wins, "lower")
    assert summary["change_wins"] == 9 and summary["gain_holds"] is True
    eight_wins = list(zip(parent, [0.8] * 8 + [1.5, 1.5]))
    assert bench_pairs.summarize(eight_wins, "lower")["gain_holds"] is False
    narrow = [(a, a - 0.001) for a in parent]  # ten wins, gap 0.001
    summary = bench_pairs.summarize(narrow, "lower")
    assert summary["change_wins"] == 10 and summary["gain_holds"] is False
    # where higher is better the same numbers are nine losses
    summary = bench_pairs.summarize(nine_wins, "higher")
    assert (summary["change_wins"], summary["change_losses"]) == (1, 9)
    assert summary["median_gain"] == pytest.approx(-0.245)
    assert summary["gain_holds"] is False


def test_single_pair_and_seed_lists():
    summary = bench_pairs.summarize([(2.0, 1.0)], "lower")
    assert summary["parent"]["q1"] == summary["parent"]["q3"] == 2.0
    assert summary["gain_holds"] is True
    assert bench_pairs._seeds("4001-4003,4007") == [4001, 4002, 4003, 4007]


def test_process_time_is_median_setup_plus_median_raw_pass_wall():
    # run.py's record: set-up from probes and passes, wall_s from passes
    record = {"samples": {"setup_s": [0.5, 0.2, 0.3],
                          "wall_s": [1.0, 1.4, 1.2, 3.0],
                          "cpu_s": [0.9, 1.3, 1.1, 2.9],
                          "peak_rss_mb": [40.0, 41.0, 40.5, 40.0]}}
    assert bench_pairs.process_s(record) == pytest.approx(0.3 + 1.3)


def _record(correct=True, failed=0, wall=1.0):
    metrics = {"setup_s": 0.2, "wall_s": wall, "cpu_s": wall, "peak_rss_mb": 40.0}
    return {"correct": correct, "attempted": 10, "failed": failed, "process_s": 1.2,
            "metrics": metrics}


def test_a_workload_is_correct_only_when_every_run_is():
    good = {"parent": _record(), "change": _record()}
    assert bench_pairs.all_correct([good, good])
    assert not bench_pairs.all_correct([good, {"parent": _record(), "change": _record(False)}])
    # a run.py record with a failed job is not correct either way
    assert not bench_pairs.all_correct([{"parent": _record(failed=1), "change": _record()}])


@pytest.mark.parametrize("bad", [None, "exact-tables"])
def test_a_run_that_is_not_correct_exits_1_after_writing_the_file(monkeypatch, tmp_path,
                                                                  capsys, bad):
    (tmp_path / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "_export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench_pairs, "_copy_checkout", lambda into: None)

    def fake_run(tree, workload, seed, seconds):
        changed = os.path.basename(tree) == "change"
        return _record(failed=int(changed and workload == bad), wall=0.9 if changed else 1.0)

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    rc = bench_pairs.main(["--parent", "HEAD", "--number", "7", "--seeds", "1-2",
                           "--workload", "kron-2d", "--workload", "exact-tables"])
    report = json.loads((tmp_path / "BENCH_7.json").read_text())
    verdicts = {name: w["all_correct"] for name, w in report["workloads"].items()}
    assert verdicts == {"kron-2d": True, "exact-tables": bad is None}
    assert rc == (0 if bad is None else 1)
    last = capsys.readouterr().err.splitlines()[-1]
    assert (last == "runs not correct or with failed jobs: exact-tables") == (bad is not None)


def test_within_bound_allows_the_bound_share_of_the_parent_median():
    # medians 4.0 against 5.0: worse by a quarter of the parent's
    worse = [(4.0, 5.0)] * 3
    assert bench_pairs.summarize(worse, "lower", 0.25)["within_bound"] is True
    assert bench_pairs.summarize(worse, "lower", 0.125)["within_bound"] is False
    # where higher is better, 4.0 against 3.0 is worse by a quarter
    fewer = [(4.0, 3.0)] * 3
    assert bench_pairs.summarize(fewer, "higher", 0.25)["within_bound"] is True
    assert bench_pairs.summarize(fewer, "higher", 0.125)["within_bound"] is False
    # a gain is within any bound; no bound gives no verdict
    assert bench_pairs.summarize(fewer, "lower", 0.0)["within_bound"] is True
    summary = bench_pairs.summarize(worse, "lower")
    assert summary["bound"] is None and summary["within_bound"] is None


def test_metrics_out_of_their_bound_are_reported(monkeypatch, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pairs, "_export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench_pairs, "_copy_checkout", lambda into: None)
    # the change's wall_s and cpu_s are 1.5 against 1.0, past their 0.25
    # bound; setup_s and peak_rss_mb are the same on both sides
    monkeypatch.setattr(bench_pairs, "_run", lambda tree, workload, seed, seconds:
                        _record(wall=1.5 if os.path.basename(tree) == "change" else 1.0))
    rc = bench_pairs.main(["--parent", "HEAD", "--number", "7", "--seeds", "1-2",
                           "--workload", "kron-2d"])
    assert rc == 0
    metrics = json.loads((tmp_path / "BENCH_7.json").read_text())["workloads"]["kron-2d"][
        "metrics"]
    assert {name: (m["bound"], m["within_bound"]) for name, m in metrics.items()} == {
        "setup_s": (0.25, True), "wall_s": (0.25, False), "cpu_s": (0.25, False),
        "peak_rss_mb": (0.1, True)}
    lines = capsys.readouterr().err.splitlines()[-2:]
    assert lines == [
        "kron-2d wall_s out of bound: change median 1.5 against parent median 1, bound 0.25",
        "kron-2d cpu_s out of bound: change median 1.5 against parent median 1, bound 0.25"]


def test_both_sides_run_outside_the_checkout_and_the_change_has_its_edits(monkeypatch,
                                                                          tmp_path):
    # a committed file edited in the working tree, a new untracked file and
    # an ignored one: the parent tree has the commit, the change tree the
    # edit and the new file, and no run starts in the checkout
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text((_PATH.parents[1] / "BENCHMARK.json").read_text())
    (repo / "perfbench" / "run.py").write_text("committed\n")
    (repo / ".gitignore").write_text("out/\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
                        "commit.gpgsign=false", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "perfbench" / "run.py").write_text("edited\n")
    (repo / "perfbench" / "new.py").write_text("untracked\n")
    (repo / "out").mkdir()
    (repo / "out" / "left.json").write_text("ignored\n")
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    trees, seen = [], {}

    def fake_run(tree, workload, seed, seconds):
        trees.append(tree)
        seen[os.path.basename(tree)] = {str(path.relative_to(tree)): path.read_text()
                                        for path in Path(tree).rglob("*") if path.is_file()}
        return _record()

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    assert bench_pairs.main(["--parent", "HEAD", "--number", "7", "--seeds", "1",
                             "--workload", "kron-2d"]) == 0
    assert len(set(trees)) == 2
    assert all(os.path.commonpath([tree, str(repo)]) != str(repo) for tree in trees)
    parent, change = seen["tree"], seen["change"]
    assert parent["perfbench/run.py"] == "committed\n" and "perfbench/new.py" not in parent
    assert change["perfbench/run.py"] == "edited\n"
    assert change["perfbench/new.py"] == "untracked\n"
    assert "out/left.json" not in change and ".gitignore" in change
