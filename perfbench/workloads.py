"""The benchmark's workloads: fixed lists of ``igadmm`` command lines.

Each workload is a closed loop in one process: one job at a time, the next
starting when the previous one returns.  The seed only shuffles the order
of the jobs; the set of jobs never changes.  NOTES.md says why each
workload exists and which layers it loads.
"""

from __future__ import annotations

STUDY_RULES = ("gauss", "radau", "dmm")
MODES = "1,2,4"

# every label the stencil subcommand accepts
STENCIL_LABELS = (
    "exact", "dmm", "gauss", "gp", "lobatto", "radau",
    "blend:gg", "blend:gl", "blend:gr", "blend:pl", "blend:pr", "blend:lr",
    "minrule+", "minrule-",
)

# mass rows for the dispersion jobs; the minimized ones fit order 2p + 2
DISPERSION_ROWS = ("exact", "gp", "lobatto", "radau", "dmm", "blend:gl")
MINIMIZED_ROWS = ("dmm", "blend:gl")


def _study_1d_fine() -> list[list[str]]:
    jobs = []
    for p in (2, 3):
        for rule in STUDY_RULES:
            jobs.append(["study-1d", "-p", str(p), "--energy",
                         "--meshes", "64,128,256,512", "--rules", rule,
                         "--modes", MODES, "--json", "-"])
    # the p=3 DMM ladder reaches the roundoff floor that ev_floor reads
    jobs.append(["study-1d", "-p", "3", "--meshes", "512,1024", "--rules", "dmm",
                 "--modes", MODES, "--json", "-"])
    return jobs


def _kron_2d() -> list[list[str]]:
    jobs = []
    for p, meshes, kron in ((2, "8,16,32,64", 24), (3, "4,8,16,32", 16)):
        for rule in STUDY_RULES:
            job = ["study-2d", "-p", str(p), "--meshes", meshes, "--rules", rule,
                   "--modes", MODES, "--json", "-"]
            if rule == "dmm":
                # --verify-kron cross-checks the first rule of --rules
                job += ["--verify-kron", str(kron)]
            jobs.append(job)
    return jobs


def _exact_tables() -> list[list[str]]:
    jobs = [["verify", "--p-max", "12", "--fg-p-max", "20", "--fg-m-max", "20"]]
    for p in range(1, 9):
        jobs.append(["tau", "--p", str(p), "--pair", "all"])
    for p in range(1, 7):
        for label in STENCIL_LABELS:
            # the p=1 Lobatto/Radau pair is degenerate and the minimizing
            # point rules are tabulated for p <= 3: both exit 1 by design
            if (p, label) == (1, "blend:lr"):
                continue
            if label.startswith("minrule") and p > 3:
                continue
            jobs.append(["stencil", "-p", str(p), "--rule", label])
    for p in range(1, 6):
        for label in DISPERSION_ROWS:
            # a minimized row has no order-2p term, so it is checked at 2p + 2
            order = 2 * p + 2 if label in MINIMIZED_ROWS else 2 * p
            jobs.append(["dispersion", "-p", str(p), "--rule", label,
                         "--fit", "--coefficient", str(order)])
    return jobs


WORKLOADS = {
    "study-1d-fine": _study_1d_fine,
    "kron-2d": _kron_2d,
    "exact-tables": _exact_tables,
}


def jobs_for(name: str) -> list[list[str]]:
    return WORKLOADS[name]()


def job_id(argv: list[str]) -> str:
    return " ".join(argv)
