"""Per-layer counters and timers installed from outside the package.

:class:`Tracer` rebinds module-level entry points of ``setasp.parser``,
``setasp.solver`` and ``setasp.gz`` with wrappers that count calls and
time them.  No source file is touched; :meth:`Tracer.uninstall` puts the
originals back.

Only outermost calls are counted: ``cl_satisfies`` and ``reduct`` recurse
through their own module globals, so the wrapper sees the recursive calls
too and passes them straight through.  ``s_satisfies`` is wrapped in
``setasp.solver``, where the search calls it; its recursion goes through
``setasp.interp`` and is not seen at all.

A name the package no longer has is skipped and every metric fed only by
it is reported as absent (``None``).
"""

from __future__ import annotations

import time
from collections import defaultdict

# metric name -> unit; the order is the report order
LAYER_METRICS = {
    "parser.parse_s": "s",
    "domain.build_s": "s",
    "domain.values": "count",
    "domain.set_layer_programs": "count",
    "solver.ground_s": "s",
    "solver.ground_formulas": "count",
    "solver.intsets": "count",
    "solver.viability_s": "s",
    "solver.relevant_atoms": "count",
    "solver.there_candidates": "count",
    "solver.there_models": "count",
    "solver.there_model_ratio": "ratio",
    "solver.minimality_s": "s",
    "solver.stable_models": "count",
    "solver.stable_ratio": "ratio",
    "interp.sat_t_calls": "count",
    "interp.sat_t_s": "s",
    "interp.sat_h_calls": "count",
    "interp.sat_h_s": "s",
    "gz.relevant_atoms": "count",
    "gz.check_s": "s",
    "gz.classical_checks": "count",
    "gz.reduct_s": "s",
    "gz.minimality_s": "s",
    "gz.minimality_checks": "count",
    "gz.classical_models": "count",
    "gz.stable_models": "count",
    "trace.overhead_frac": "ratio",
}

# ratio metric -> (numerator, denominator), computed per pass
RATIOS = {
    "solver.there_model_ratio": ("solver.there_models", "solver.there_candidates"),
    "solver.stable_ratio": ("solver.stable_models", "solver.there_models"),
}


class Tracer:
    """Wrappers plus the per-pass totals they fill in.  ``clock`` times the
    calls; the benchmark passes one that leaves out its calibration
    samples."""

    def __init__(self, setasp_modules, clock=time.perf_counter):
        self.modules = setasp_modules
        self.clock = clock
        self.totals = defaultdict(float)
        self.absent = set()
        self._depth = defaultdict(int)
        self._saved = []

    # -- installation

    def install(self):
        parser, solver, gz, interp = (
            self.modules[n] for n in ("parser", "solver", "gz", "interp")
        )
        here = interp.H
        totals = self.totals
        depth = self._depth

        def on_parse(args, result, elapsed):
            totals["parser.parse_s"] += elapsed

        def on_domain(args, result, elapsed):
            totals["domain.build_s"] += elapsed
            totals["domain.values"] += len(result)
            totals["domain.set_layer_programs"] += bool(result.has_set_layer)

        def on_ground(args, result, elapsed):
            totals["solver.ground_s"] += elapsed
            totals["solver.ground_formulas"] += len(result.formulas)
            totals["solver.intsets"] += len(result.universe.intsets)

        def on_viability(args, result, elapsed):
            totals["solver.viability_s"] += elapsed
            totals["solver.relevant_atoms"] += len(result)

        def on_countermodel(args, result, elapsed):
            totals["solver.minimality_s"] += elapsed
            totals["solver.there_models"] += 1
            totals["solver.stable_models"] += result is None

        def on_s_satisfies(args, result, elapsed):
            world = "h" if args[1] == here else "t"
            totals[f"interp.sat_{world}_calls"] += 1
            totals[f"interp.sat_{world}_s"] += elapsed

        def on_cl_satisfies(args, result, elapsed):
            if depth["gz.reduct"]:
                return  # part of gz.reduct_s
            if depth["gz._has_smaller_model"]:
                totals["gz.minimality_checks"] += 1
            else:
                totals["gz.classical_checks"] += 1
                totals["gz.check_s"] += elapsed

        def on_reduct(args, result, elapsed):
            totals["gz.reduct_s"] += elapsed

        def on_smaller(args, result, elapsed):
            totals["gz.minimality_s"] += elapsed
            totals["gz.classical_models"] += 1
            totals["gz.stable_models"] += not result

        def on_gz_relevant(args, result, elapsed):
            totals["gz.relevant_atoms"] += len(result)

        self._wrap(parser, "parse_program", on_parse, ["parser.parse_s"])
        self._wrap(
            solver, "build_active_domain", on_domain,
            ["domain.build_s", "domain.values", "domain.set_layer_programs"],
        )
        ground_metrics = ["solver.ground_s", "solver.ground_formulas", "solver.intsets"]
        self._wrap(solver, "ground_theory", on_ground, ground_metrics)
        self._wrap(gz, "ground_theory", on_ground, ground_metrics, key="solver.ground_theory")
        self._wrap(
            solver, "relevant_atoms", on_viability,
            ["solver.viability_s", "solver.relevant_atoms"],
        )
        self._wrap(
            solver, "find_countermodel", on_countermodel,
            ["solver.minimality_s", "solver.there_models", "solver.stable_models"],
        )
        self._wrap(
            solver, "s_satisfies", on_s_satisfies,
            ["interp.sat_t_calls", "interp.sat_t_s", "interp.sat_h_calls", "interp.sat_h_s"],
        )
        self._wrap(
            gz, "cl_satisfies", on_cl_satisfies,
            ["gz.check_s", "gz.classical_checks", "gz.minimality_checks"],
        )
        self._wrap(gz, "reduct", on_reduct, ["gz.reduct_s"])
        self._wrap(
            gz, "_has_smaller_model", on_smaller,
            ["gz.minimality_s", "gz.classical_models", "gz.stable_models"],
        )
        self._wrap(gz, "_gz_relevant_atoms", on_gz_relevant, ["gz.relevant_atoms"])

    def _wrap(self, module, name, on_exit, metrics, key=None):
        original = getattr(module, name, None)
        if original is None:
            self.absent.update(metrics)
            return
        key = key or f"{module.__name__.rpartition('.')[2]}.{name}"
        depth = self._depth
        clock = self.clock

        def wrapper(*args, **kwargs):
            if depth[key]:
                return original(*args, **kwargs)
            depth[key] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                depth[key] -= 1
            on_exit(args, result, clock() - start)
            return result

        setattr(module, name, wrapper)
        self._saved.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    # -- results

    def candidates(self, report):
        """Add the there-candidates a ``find_stable_models`` report counted."""
        count = getattr(getattr(report, "stats", None), "candidates", None)
        if count is None:
            self.absent.add("solver.there_candidates")
        else:
            self.totals["solver.there_candidates"] += count

    def take_pass(self):
        """This pass's totals, ratios included; resets the totals."""
        out = dict(self.totals)
        for name, (num, den) in RATIOS.items():
            if out.get(den):
                out[name] = out.get(num, 0) / out[den]
        self.totals.clear()
        return out
