"""Build reference.json from the current code.

The reference is built once, from the seed code, and is not rebuilt to
make a mismatch go away: a later change that alters an output either
keeps it within the windows in checks.py or fails the benchmark.

Usage, from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, job_id, jobs_for  # noqa: E402


def main() -> int:
    import igadmm.cli as cli
    from igadmm import dispersion, dmm, stencils

    reference = {
        "dmm_coefficient": {
            str(p): float(dispersion.error_expansion(
                p, stencils.stiffness_stencil(p), dmm.dmm_stencil(p))[1])
            for p in (2, 3)
        },
        "outputs": {},
    }
    for name in WORKLOADS:
        jobs = jobs_for(name)
        for argv, result in zip(jobs, worker.run_jobs(cli, jobs, None)):
            if result["rc"] != 0:
                print(f"{job_id(argv)} exited {result['rc']}: {result['err']}",
                      file=sys.stderr)
                return 1
            reference["outputs"][job_id(argv)] = result["out"]
    floor_cells = []
    for name in WORKLOADS:
        for argv in jobs_for(name):
            if argv[0] == "study-1d":
                cells, _, _ = checks.parse_study(reference["outputs"][job_id(argv)])
                floor_cells += [(k, ev) for k, (ev, _) in cells.items()
                                if checks.is_floor_cell(k, argv, reference)]
    reference["ev_floor"], cell = checks.ev_floor(floor_cells)
    reference["ev_floor_cell"] = list(cell)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"ev_floor {reference['ev_floor']:.5e} at {cell}; "
          f"{len(reference['outputs'])} job outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
