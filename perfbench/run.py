"""igadmm benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload study-1d-fine --seed 1 --seconds 35 --trace 0

Every pass runs the workload's whole job list in a fresh interpreter
(perfbench/worker.py) with BLAS pinned to one thread.  Passes repeat until
--seconds have gone by; metrics are medians over the passes.

--trace 0 reports the end-to-end metrics: setup_s (fresh interpreter until
``import igadmm.cli`` returns, from dedicated probes and from every pass),
wall_s and cpu_s (the job list, import excluded: the sum over the jobs of
each job's median over the passes, scaled to a reference CPU speed by a
calibration loop run in each pass) and peak_rss_mb.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/layertrace.py, with trace.overhead_s the traced minus
the untraced wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A job that exits non-zero or
fails its output check (perfbench/checks.py) counts as failed; failed /
attempted is the fail ratio.  A full record, with the run conditions and
every sample, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

from checks import check_job, ev_floor, load_reference  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 5  # import-only interpreters per run, after one discarded warm-up
MIN_PASSES = 3  # untraced passes per --trace 0 run, even past --seconds
PASS_TIMEOUT_S = 150.0
DEADLINE_S = 160.0  # start no pass that could end after this
# the ceiling on ev_floor: the seed's floor may not rise by more than this share
EV_FLOOR_BOUND = 0.25
# least allowance for the layer self times to sum to the traced wall time
SELF_SUM_SHARE = 0.01
# worker.calibrate() on the 2-vCPU VM the benchmark was built on, when quiet
REFERENCE_CALIBRATION_S = 0.0125


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    # At two threads on a 2-vCPU machine the first large eigh of a fresh
    # process sometimes stalls for about a second (see NOTES.md).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(spec: dict | None, env: dict):
    """Run one worker; returns (setup_s, report or None for a probe)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
            raise BenchError(f"worker did not start: {err.strip()[-2000:]}")
        payload = "" if spec is None else json.dumps(spec) + "\n"
        out, err = proc.communicate(payload, timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        return setup_s, (json.loads(out.splitlines()[-1]) if spec is not None else None)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {PASS_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def job_median_sum(reports, key: str, scaled: bool = True) -> float:
    """Sum over the jobs of each job's median time across the passes.

    On a shared machine a pass now and then runs a job or two at half
    speed; the median of each job drops those bursts, where the median of
    whole passes keeps them whenever they fall in most passes.  Slower
    spells that last minutes hit whole runs; scaled times divide them out
    with the pass's calibration loop, to seconds at REFERENCE_CALIBRATION_S.
    """
    per_job = defaultdict(list)
    for report in reports:
        scale = REFERENCE_CALIBRATION_S / report["calibration_s"] if scaled else 1.0
        for index, result in zip(report["order"], report["jobs"]):
            per_job[index].append(result[key] * scale)
    return sum(statistics.median(times) for times in per_job.values())


def _summary(values) -> str:
    return (f"median {statistics.median(values):.6g} min {min(values):.6g} "
            f"max {max(values):.6g} n={len(values)}")


def _metric_units(kind: str) -> list[tuple[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def run(args) -> tuple[list[str], dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "igadmm", "cli.py")):
        raise BenchError(f"no igadmm sources under {ROOT}/src; run from the repository root")
    reference = load_reference()
    env = _child_env()
    rng = random.Random(args.seed)
    jobs = jobs_for(args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    spawn(None, env)  # warm-up: bytecode and file caches, not timed
    setups = [spawn(None, env)[0] for _ in range(SETUP_PROBES)]

    passes = []  # (traced, report)
    durations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if durations and elapsed + max(durations) > DEADLINE_S:
            break
        untraced = sum(1 for traced, _ in passes if not traced)
        traced = len(passes) - untraced
        # start another pass while that ends the run nearer to --seconds
        over = bool(durations) and elapsed + statistics.mean(durations) / 2 > args.seconds
        if args.trace:
            done = over and untraced and traced == untraced
            want_trace = traced < untraced
        else:
            done = over and untraced >= MIN_PASSES
            want_trace = False
        if done:
            break
        order = list(jobs)
        rng.shuffle(order)
        spans = (os.path.join(OUT_DIR, f"spans-{tag}-pass{len(passes)}.json")
                 if want_trace else None)
        t_pass = time.perf_counter()
        setup_s, report = spawn({"jobs": order, "trace": want_trace, "spans": spans}, env)
        durations.append(time.perf_counter() - t_pass)
        setups.append(setup_s)
        report["order"] = [jobs.index(argv) for argv in order]
        passes.append((want_trace, report))
    if not passes:
        raise BenchError("no pass fitted in the time limit")
    return evaluate(args, reference, setups, passes, tag)


def evaluate(args, reference, setups, passes, tag) -> tuple[list[str], dict]:
    jobs = jobs_for(args.workload)
    attempted = failed = 0
    problems = []
    floors = []
    for traced, report in passes:
        floor_cells = []
        for index, result in zip(report["order"], report["jobs"]):
            argv = jobs[index]
            found, cells = check_job(argv, result["rc"], result["out"], reference)
            attempted += 1
            floor_cells += cells
            if found:
                failed += 1
                problems.append({"job": " ".join(argv), "traced": traced,
                                 "problems": found[:5], "stderr": result["err"][-500:]})
        floors.append(ev_floor(floor_cells))
    plain = [r for traced, r in passes if not traced]
    traced_reports = [r for traced, r in passes if traced]
    cond = plain[0]["conditions"]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace} "
             f"passes {len(plain)}+{len(traced_reports)} traced",
             f"conditions {json.dumps(cond, sort_keys=True)}"]
    gates = []

    measured = [(floor, cell) for floor, cell in floors if floor is not None]
    if measured:
        ceiling = reference["ev_floor"] * (1 + EV_FLOOR_BOUND)
        worst, cell = max(measured)
        wide = cond["longdouble_eps"] < cond["float64_eps"]
        lines.append(f"ev_floor {worst:.6e} 1 at p,N,rule,mode={tuple(cell)}; "
                     f"seed {reference['ev_floor']:.6e}, ceiling {ceiling:.6e}"
                     + ("" if wide else "; INVALID: longdouble is not wider than float64"))
        if not wide:
            gates.append("longdouble is not wider than float64: ev_floor invalid")
        elif worst > ceiling:
            gates.append(f"ev_floor {worst:.6e} above ceiling {ceiling:.6e}")

    end_to_end, per_layer = _metric_units("end_to_end"), _metric_units("per_layer")
    samples = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["wall_s"] = job_median_sum(plain, "wall_s")
    values["cpu_s"] = job_median_sum(plain, "cpu_s")
    metrics = {}
    if args.trace:
        # layer times are scaled like wall_s, pass by pass, so they add up to it
        timed = {name for name, unit in per_layer if unit == "s"}
        layers = {name: [r["layers"][name] * REFERENCE_CALIBRATION_S / r["calibration_s"]
                         if name in timed else r["layers"][name]
                         for r in traced_reports]
                  for name in traced_reports[0]["layers"]}
        overhead = job_median_sum(traced_reports, "wall_s") - values["wall_s"]
        # overhead is a difference of two noisy sums and can read near zero
        # or below it, so the allowance is at least a hundredth of the pass;
        # each pass is checked in its own unscaled seconds
        for r in traced_reports:
            gap = r["layers"]["trace.wall_s"] - r["layers"]["trace.self_sum_s"]
            allowance = max(abs(overhead) * r["calibration_s"] / REFERENCE_CALIBRATION_S,
                            SELF_SUM_SHARE * r["layers"]["trace.wall_s"])
            if not abs(gap) <= allowance:
                gates.append(f"layer self times miss traced wall_s by {gap:.4f} s, "
                             f"more than {allowance:.4f} s")
        for name, unit in per_layer:
            value = overhead if name == "trace.overhead_s" else statistics.median(layers[name])
            metrics[name] = {"value": value, "unit": unit}
        lines.append(f"unscaled trace.self_sum_s {_summary(layers['trace.self_sum_s'])} s "
                     f"(traced wall_s {_summary(layers['trace.wall_s'])} s)")
    else:
        for name, unit in end_to_end:
            metrics[name] = {"value": values[name], "unit": unit}
    for name, unit in end_to_end:
        lines.append(f"{name} {values[name]:.6g} {unit} (passes: {_summary(samples[name])})")
    lines.append(f"unscaled wall_s {job_median_sum(plain, 'wall_s', scaled=False):.6g} s, "
                 f"cpu_s {job_median_sum(plain, 'cpu_s', scaled=False):.6g} s; calibration_s "
                 f"{_summary([r['calibration_s'] for r in plain])} s, "
                 f"reference {REFERENCE_CALIBRATION_S}")
    if args.trace:
        for name, unit in per_layer:
            lines.append(f"{name} {metrics[name]['value']:.6g} {unit}")
    lines.append(f"fail_ratio {failed / attempted:.6g} 1 ({failed}/{attempted} jobs)")
    for gate in gates:
        lines.append(f"FAILED CHECK {gate}")
    for item in problems[:10]:
        lines.append(f"FAILED JOB {json.dumps(item)}")

    result = {"correct": failed == 0 and not gates, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump({"result": result, "conditions": cond, "samples": samples,
                   "calibration_s": [r["calibration_s"] for r in plain],
                   "ev_floor": floors, "gates": gates, "problems": problems,
                   "layers": [r["layers"] for r in traced_reports]}, fh, indent=1)
        fh.write("\n")
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
