"""One pass of a workload in a fresh interpreter.

Run by run.py, never by hand.  Protocol on the standard streams:

1. import ``igadmm.cli``, then print ``ready`` (run.py times the span from
   process start to this line as one set-up sample);
2. read one JSON line ``{"jobs": [[argv...], ...], "trace": bool,
   "spans": path or null}``; end of input instead means a set-up probe,
   and the worker exits;
3. run the jobs one after another through ``igadmm.cli.main`` with their
   standard output and error captured, and print one JSON line with the
   outputs and timings of each job and of the whole list, a calibration
   loop's time before and after the list, the peak resident set size and
   the run conditions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS that numpy and scipy bundle."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    found[os.path.basename(path)] = getter()
                    break
    return found


def conditions() -> dict:
    import mpmath
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "float64_eps": float(np.finfo(np.float64).eps),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


CALIBRATION_LOOPS = 200_000


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the CPU's current speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def run_jobs(cli, jobs, tracer) -> list[dict]:
    results = []
    for index, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a job's crash is a failed job, not a failed pass
                traceback.print_exc()
                rc = -1
        results.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                        "wall_s": time.perf_counter() - t0,
                        "cpu_s": time.process_time() - c0})
    return results


def main() -> int:
    channel = sys.stdout
    import igadmm.cli as cli

    channel.write("ready\n")
    channel.flush()
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    spec = json.loads(line)
    tracer = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    calibration_before = calibrate()
    t0 = time.perf_counter()
    c0 = time.process_time()
    results = run_jobs(cli, spec["jobs"], tracer)
    cpu_s = time.process_time() - c0
    wall_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calibration_s": (calibration_before + calibrate()) / 2,
        "peak_rss_mb": peak_kb / 1024.0,
        "jobs": results,
        "conditions": conditions(),
    }
    if tracer is not None:
        bytes_out = sum(len(r["out"].encode()) for r in results)
        report["layers"] = tracer.summary(wall_s, bytes_out)
        if spec.get("spans"):
            tracer.write_spans(spec["spans"], t0)
    channel.write(json.dumps(report) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
