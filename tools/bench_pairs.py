"""Paired benchmark runs of a parent commit against the working tree.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent REV --number N \\
        --workload exact-tables --seeds 4001-4010 [--workload kron-2d ...]

The parent commit is exported with ``git archive`` into a temporary
directory, and the change, the files of this checkout that git lists as
tracked or as untracked but not ignored (uncommitted edits included), is
copied beside it: both sides run from a copy outside the checkout.  For
each workload and seed, ``perfbench/run.py --trace 0`` runs once in each
tree, alternating which side runs first; both sides get the same seed
and --seconds.  BENCH_<N>.json, at the repository root, receives every
run's metrics and, per workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles, the pairs the change won and lost, and
whether the gain rule holds: the change wins at least nine tenths of the
pairs, ties counting for neither, and the medians differ by more than the
parent's interquartile range.  Each such metric also gets within_bound:
the change's median is no worse than the parent's median by more than the
metric's bound in BENCHMARK.json, a share of the parent's median; a line
on standard error names each metric out of its bound.

Beside those metrics, under "not_in_benchmark_json", each run also gives
process_s: the median set-up plus the median raw per-pass wall time, read
from the record run.py leaves in the tree's perfbench/out/.  It is the time
a fresh process spends on import and the whole job list together, so it
shows a cost moved from import into the first job that uses it, which the
per-job medians of wall_s mostly hide.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def _spread(values: list[float]) -> dict:
    """Median and quartiles of one side's runs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": list(values)}


def summarize(pairs: list[tuple[float, float]], better: str,
              bound: float | None = None) -> dict:
    """Each side's spread, the change's wins, the gain rule and, with a
    bound, whether the change's median is worse than the parent's by no
    more than that share of it, for (parent, change) pairs of one metric
    where "lower" or "higher" is better; within_bound is None without one."""
    sign = 1.0 if better == "lower" else -1.0
    parent = _spread([a for a, _ in pairs])
    change = _spread([b for _, b in pairs])
    wins = sum(sign * (a - b) > 0 for a, b in pairs)
    losses = sum(sign * (a - b) < 0 for a, b in pairs)
    gap = sign * (parent["median"] - change["median"])
    iqr = parent["q3"] - parent["q1"]
    return {
        "parent": parent,
        "change": change,
        "pairs": len(pairs),
        "change_wins": wins,
        "change_losses": losses,
        "median_gain": gap,
        "median_gain_share": gap / parent["median"] if parent["median"] else None,
        "parent_iqr": iqr,
        "gain_holds": wins >= WIN_SHARE * len(pairs) and gap > iqr,
        "bound": bound,
        "within_bound": None if bound is None else -gap <= bound * abs(parent["median"]),
    }


def all_correct(runs: list[dict]) -> bool:
    """Whether every run of both sides of every pair was correct with no
    failed job."""
    return all(pair[side]["correct"] and pair[side]["failed"] == 0
               for pair in runs for side in ("parent", "change"))


def _seeds(text: str) -> list[int]:
    """"4001-4010" or "4001,4003" as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _export(rev: str, into: str) -> str:
    """The full hash of rev, whose files git archive writes into the directory."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = os.path.join(into, "parent.tar")
    subprocess.run(["git", "archive", "-o", archive, sha], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(into, "tree"), filter="data")
    os.remove(archive)
    return sha


def _copy_checkout(into: str) -> None:
    """Copy the checkout's tracked files and its untracked files that are
    not ignored, as they are on disk, into the directory; a tracked file
    deleted from the working tree is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def process_s(record: dict) -> float:
    """Median set-up plus median raw per-pass wall time of one run.py record."""
    samples = record["samples"]
    return statistics.median(samples["setup_s"]) + statistics.median(samples["wall_s"])


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in tree."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = os.path.join(tree, "perfbench", "out",
                          f"result-{workload}-seed{seed}-trace0.json")
    with open(record) as fh:
        process = process_s(json.load(fh))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "process_s": process,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--number", required=True, type=int,
                        help="N of the BENCH_<N>.json file written")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds,
                        help="one pair per seed: 4001-4010 or 4001,4003")
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = {m["name"]: (m["better"], m["bound"])
                      for m in json.load(fh)["end_to_end"]}
    workloads = {}
    with tempfile.TemporaryDirectory() as scratch:
        parent = _export(args.parent, scratch)
        trees = {"parent": os.path.join(scratch, "tree"),
                 "change": os.path.join(scratch, "change")}
        _copy_checkout(trees["change"])
        for workload in args.workload:
            runs = []
            for index, seed in enumerate(args.seeds):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(trees[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{pair[side]['metrics'].get('wall_s')}", file=sys.stderr)
                runs.append(pair)
            workloads[workload] = {
                "seeds": args.seeds,
                "all_correct": all_correct(runs),
                "metrics": {name: summarize([(r["parent"]["metrics"][name],
                                              r["change"]["metrics"][name]) for r in runs],
                                            better, bound)
                            for name, (better, bound) in end_to_end.items()},
                "not_in_benchmark_json": {
                    "process_s": summarize([(r["parent"]["process_s"],
                                             r["change"]["process_s"]) for r in runs],
                                           "lower")},
                "runs": runs,
            }
    report = {"parent": parent, "change": "working tree", "seconds": args.seconds,
              "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                       "python": platform.python_version()},
              "workloads": workloads}
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    for workload, summary in workloads.items():
        for name, metric in summary["metrics"].items():
            if not metric["within_bound"]:
                print(f"{workload} {name} out of bound: change median "
                      f"{metric['change']['median']:.6g} against parent median "
                      f"{metric['parent']['median']:.6g}, bound {metric['bound']}",
                      file=sys.stderr)
    wrong = [name for name, summary in workloads.items() if not summary["all_correct"]]
    if wrong:
        print(f"runs not correct or with failed jobs: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
