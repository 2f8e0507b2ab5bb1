"""Outside-in layer tracer for the igadmm modules.

The tracer replaces module attributes with timing wrappers: every function
defined in an ``igadmm`` module, in every ``igadmm`` namespace that binds
it (so names rebound by ``from ... import``, such as
``igadmm.assembly.nonzero_basis`` or ``igadmm.eigensolve._assemble_full``,
are covered too), plus ``scipy.linalg.eigh``.  A module is a layer.

A call is timed when it crosses from one layer into another, or when the
function is in ``NAMED``; a call inside its own layer otherwise runs
unwrapped, so the layer's self time already includes it.  A layer's self
time is the duration of its timed calls minus the part covered by timed
calls they made.  Timed calls become spans (name, start, end, parent span,
job index) kept in memory; calls into ``AGGREGATED`` layers, the per-point
spline evaluations, are only counted and timed in total, and their private
helpers are left unwrapped.

Methods of the package's classes are not wrapped: their time belongs to the
layer that calls them (``SymBandMatrix.matvec`` inside the Rayleigh
refinement counts as eigensolve, ``ErrorTable.to_csv`` as cli).
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("splines", "stencils", "dmm", "quadrature", "assembly",
          "eigensolve", "dispersion", "cli")

# layers whose calls are too many and too short to keep as spans
AGGREGATED = frozenset({"splines"})

# timed even when called from their own layer, for the per-layer metrics
NAMED = frozenset({
    "eigensolve.generalized_eig", "eigensolve._as_operator", "eigensolve.eigh",
    "eigensolve.energy_error", "eigensolve._exact_forms",
    "eigensolve.relative_ev_errors", "eigensolve.tensor_spectrum_2d",
    "quadrature.quadrature_mass_stencil", "quadrature.quadrature_stiffness_stencil",
    "quadrature.optimal_blend",
    "dispersion.dispersion_error", "dispersion.rayleigh", "dispersion.coefficient_check",
    "cli.kron_cross_check",
})

# rule builders whose functools caches give the rule-cache counts
RULE_BUILDERS = ("gauss_legendre", "gauss_lobatto", "gauss_radau", "dmm_rule")

BASIS_CALLS = ("splines.nonzero_basis", "splines.nonzero_basis_derivatives")


def _is_traceable(value) -> bool:
    if inspect.isfunction(value):
        return True
    # functools.lru_cache / cache wrappers
    return callable(value) and hasattr(value, "cache_info") and hasattr(value, "__wrapped__")


class Tracer:
    """Span and counter store for one pass; install() wraps the package."""

    def __init__(self):
        # frame: [layer, time covered by timed children, span id]
        self.stack = [["bench", 0.0, -1]]
        self.job = -1
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.entries = Counter()  # timed calls entering a layer from another
        self.counts = Counter()
        # one record per eigensolve: [eigenvalue array, modes refined, modes read]
        self.solves = []
        self._solve_by_eigs = {}
        self.blend_args = set()
        self._next_id = 0
        self._rule_caches = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import scipy.linalg

        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("igadmm.") and mod is not None}
        wrappers = {}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if not _is_traceable(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if home not in modules:
                    continue
                layer = home.split(".", 1)[1]
                if layer in AGGREGATED and value.__name__.startswith("_"):
                    # private helpers of a hot layer only run inside its
                    # public calls, which are timed already
                    continue
                key = id(value)
                if key not in wrappers:
                    wrappers[key] = self._wrap(value, f"{layer}.{value.__name__}", layer)
                setattr(mod, attr, wrappers[key])
        quadrature = modules["igadmm.quadrature"]
        self._rule_caches = [getattr(quadrature, n).__wrapped__ for n in RULE_BUILDERS]
        scipy.linalg.eigh = self._wrap(scipy.linalg.eigh, "eigensolve.eigh", "eigensolve")

    def _wrap(self, fn, name: str, layer: str):
        if layer in AGGREGATED:
            return self._wrap_aggregated(fn, name, layer)
        tracer = self
        named = name in NAMED
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if parent[0] == layer and not named:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [layer, 0.0, sid]
            stack.append(frame)
            mark = len(tracer.solves)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                tracer.self_s[layer] += dur - frame[1]
                tracer.calls[name] += 1
                tracer.inclusive[name] += dur
                if parent[0] != layer:
                    tracer.entries[layer] += 1
                tracer.spans.append((sid, name, t0, t1, parent[2], tracer.job))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result, mark)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_aggregated(self, fn, name: str, layer: str):
        # An aggregated layer calls no other layer, so a call needs no frame
        # of its own: its whole duration is self time.
        stack, self_s, calls = self.stack, self.self_s, self.calls
        inclusive, entries = self.inclusive, self.entries

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                parent[1] += dur
                self_s[layer] += dur
                calls[name] += 1
                inclusive[name] += dur
                entries[layer] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------ solves

    def _read(self, eigenvalues, modes: int) -> None:
        rec = self._solve_by_eigs.get(id(eigenvalues))
        if rec is not None:
            rec[2] = max(rec[2], int(modes))

    # ------------------------------------------------------------ output

    def summary(self, wall_s: float, bytes_out: int) -> dict:
        """Per-layer metrics of this pass, named as in BENCHMARK.json."""
        inc, calls, counts = self.inclusive, self.calls, self.counts
        refined = sum(rec[1] for rec in self.solves)
        used = sum(rec[2] for rec in self.solves)
        hits = sum(c.cache_info().hits for c in self._rule_caches)
        misses = sum(c.cache_info().misses for c in self._rule_caches)
        m = {
            "splines.basis_calls": sum(calls[n] for n in BASIS_CALLS),
            "assembly.calls": self.entries["assembly"],
            "assembly.dofs": counts["assembly.dofs"],
            "assembly.kron_entries": counts["assembly.kron_bytes"],
            "eigensolve.eigh_s": inc["eigensolve.eigh"],
            "eigensolve.eigh_n3": counts["eigensolve.eigh_n3"],
            "eigensolve.refine_s": (inc["eigensolve.generalized_eig"]
                                    - inc["eigensolve.eigh"]
                                    - inc["eigensolve._as_operator"]),
            "eigensolve.modes_refined": refined,
            "eigensolve.modes_used": used,
            "eigensolve.refine_useful_ratio": used / refined if refined else 0.0,
            "eigensolve.energy_s": inc["eigensolve.energy_error"],
            "eigensolve.energy_calls": calls["eigensolve.energy_error"],
            "eigensolve.exact_forms_s": inc["eigensolve._exact_forms"],
            "quadrature.rule_cache_hits": hits,
            "quadrature.rule_cache_misses": misses,
            "quadrature.blend_calls": calls["quadrature.optimal_blend"],
            "quadrature.blend_distinct": len(self.blend_args),
            "quadrature.induced_row_s": (inc["quadrature.quadrature_mass_stencil"]
                                         + inc["quadrature.quadrature_stiffness_stencil"]),
            "stencils.checks": counts["stencils.checks"],
            "dispersion.samples": (calls["dispersion.dispersion_error"]
                                   + calls["dispersion.rayleigh"]
                                   + calls["dispersion.coefficient_check"]),
            "cli.bytes_out": bytes_out,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_s[layer]
        m["trace.self_sum_s"] = sum(self.self_s[layer] for layer in LAYERS)
        m["trace.wall_s"] = wall_s
        return m

    def write_spans(self, path: str, origin: float) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "name", "start_s", "end_s", "parent", "job"],
                "spans": [[sid, name, t0 - origin, t1 - origin, parent, job]
                          for sid, name, t0, t1, parent, job in self.spans],
                "aggregated": {name: {"calls": self.calls[name],
                                      "total_s": self.inclusive[name]}
                               for name in self.calls
                               if name.split(".", 1)[0] in AGGREGATED},
            }, fh)
            fh.write("\n")


# ---------------------------------------------------------------- hooks
# Each hook sees the bound arguments and the result of a timed call, and
# `mark`, the number of eigensolves recorded before the call started.


def _on_generalized_eig(tr, args, result, mark):
    rec = [result.eigenvalues, len(result.eigenvalues), 0]
    tr.solves.append(rec)
    tr._solve_by_eigs[id(result.eigenvalues)] = rec


def _on_eigh(tr, args, result, mark):
    n = np.shape(args["a"])[0]
    tr.counts["eigensolve.eigh_n3"] += n ** 3


def _on_relative_ev_errors(tr, args, result, mark):
    spectrum = args["spectrum"]
    if hasattr(spectrum, "eigenvalues"):
        tr._read(spectrum.eigenvalues, args["count"])


def _on_energy_error(tr, args, result, mark):
    tr._read(args["spectrum"].eigenvalues, args["mode"])


def _on_tensor_spectrum_2d(tr, args, result, mark):
    # the smallest sums use 1D modes i with e_i + e_1 <= largest sum kept
    eigs = args["eigs_1d"]
    if args["count"] is None or not len(result):
        return
    e = np.asarray(eigs, dtype=np.longdouble)
    tr._read(eigs, int(np.count_nonzero(e + e[0] <= result[-1])))


def _on_kron_cross_check(tr, args, result, mark):
    # the Kronecker solve inside the check compares its first `count` modes;
    # the 1D solve's use was already recorded by tensor_spectrum_2d
    for rec in tr.solves[mark:]:
        if rec[2] == 0:
            rec[2] = int(args["count"])


def _on_assembly_1d(tr, args, result, mark):
    tr.counts["assembly.dofs"] += result.stiffness.n


def _on_assemble_2d(tr, args, result, mark):
    tr.counts["assembly.dofs"] += result.stiffness.shape[0]
    tr.counts["assembly.kron_bytes"] += result.stiffness.nbytes + result.mass.nbytes


def _on_assemble_full(tr, args, result, mark):
    tr.counts["assembly.dofs"] += result.shape[1]


def _on_optimal_blend(tr, args, result, mark):
    tr.blend_args.add((args["p"], args["pair"]))


def _on_identity_suite(tr, args, result, mark):
    tr.counts["stencils.checks"] += len(result.checks)


_HOOKS = {
    "eigensolve.generalized_eig": _on_generalized_eig,
    "eigensolve.eigh": _on_eigh,
    "eigensolve.relative_ev_errors": _on_relative_ev_errors,
    "eigensolve.energy_error": _on_energy_error,
    "eigensolve.tensor_spectrum_2d": _on_tensor_spectrum_2d,
    "cli.kron_cross_check": _on_kron_cross_check,
    "assembly.assemble_1d": _on_assembly_1d,
    "assembly.assemble_1d_dmm": _on_assembly_1d,
    "assembly.assemble_2d": _on_assemble_2d,
    "assembly._assemble_full": _on_assemble_full,
    "quadrature.optimal_blend": _on_optimal_blend,
    "stencils.verify_base_identities": _on_identity_suite,
    "stencils.verify_ab_identity": _on_identity_suite,
    "stencils.fg_verify": _on_identity_suite,
    "dmm.verify_dmm_identity": _on_identity_suite,
}
