"""Spans around calls into each bpsvortex module, and the per-layer metrics.

``instrument`` replaces public callables with wrappers that record a span
(id, parent, name, start, end, plus counts read from the arguments or the
return value).  Each callable is wrapped under the name its caller looks it
up by: ``runner``, ``newton`` and ``cli`` import functions into their own
namespaces, so those bindings are replaced, while methods are replaced on
their classes.  Spans stay in memory and are written out when the pass ends.

The wrappers live in the benchmark, not in ``src/``; they only time and count
and never change arguments or results, so a traced pass must produce the same
``results`` bit for bit as an untraced one.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Serial span recorder: one thread, properly nested spans."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str,
             counts: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``counts(args, out)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, out))
            return out

        return traced

    def wrap_factory(self, fn: Callable, name: str, product_name: str) -> Callable:
        """``fn`` returns a callable; trace both the call and every use of its product."""
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap(traced(*args, **kwargs), product_name)

        return factory


def _array_bytes(args, out):
    # bytes the call reads (its field argument) and writes (its result);
    # args[0] is the grid instance
    return {"bytes": args[1].nbytes + out.nbytes}


def _solution_counts(args, out):
    return {"iters": out.iterations}


def _continuation_counts(args, out):
    # Solution.iterations counts Picard trials; grad_history logs one
    # residual per accepted trial
    return {"trials": out.iterations, "accepted": len(out.grad_history)}


def instrument(tracer: Tracer) -> None:
    """Install span wrappers at every layer boundary the CLI passes through."""
    from bpsvortex import (cli, config, diagnostics, energy, fixedpoint, grids,
                           newton, runner)

    def rebind(owner, attr, name, counts=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, counts))

    # config: parse_config and runner's function-local imports read the
    # module attribute, cli holds its own binding
    rebind(config, "validate_config", "config.validate")
    rebind(cli, "validate_config", "config.validate")
    rebind(cli, "run", "runner.run")
    rebind(runner, "dump_fields", "runner.dump_fields")
    rebind(runner, "emit_plot_data", "runner.emit_plot_data")
    rebind(runner, "build_background", "backgrounds.build")
    rebind(newton, "build_background", "backgrounds.build")
    rebind(runner, "solve", "newton.solve", _solution_counts)
    rebind(runner, "continuation_solve", "fixedpoint.continuation", _continuation_counts)
    rebind(fixedpoint, "apply_T", "fixedpoint.apply_T")
    rebind(runner, "build_diagnostics", "diagnostics.build")
    rebind(diagnostics, "decay_fit", "diagnostics.decay_fit")

    model = energy.EnergyModel
    rebind(model, "energy", "energy.energy")
    rebind(model, "gradient", "energy.gradient")
    model.hessian_operator = tracer.wrap_factory(
        model.hessian_operator, "energy.hessian_setup", "energy.hessian_apply")
    model.preconditioner = tracer.wrap_factory(
        model.preconditioner, "energy.precond_setup", "energy.precond_apply")

    for cls in (grids.TorusGrid, grids.PlaneGrid):
        rebind(cls, "laplacian", "grids.laplacian", _array_bytes)
    rebind(grids.TorusGrid, "poisson_solve_zero_mean", "grids.poisson", _array_bytes)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

S, COUNT, BYTES = "s", "count", "bytes"

# name -> (unit, better); the order is the order of the printed report
PER_LAYER = {
    "config.validate_calls": (COUNT, "lower"),
    "config.validate_s": (S, "lower"),
    "backgrounds.build_calls": (COUNT, "lower"),
    "backgrounds.build_s": (S, "lower"),
    "newton.solve_calls": (COUNT, "lower"),
    "newton.iters": (COUNT, "lower"),
    "newton.self_s": (S, "lower"),
    "newton.linesearch_evals": (COUNT, "lower"),
    "newton.linesearch_useful_ratio": ("ratio", "higher"),
    "energy.energy_calls": (COUNT, "lower"),
    "energy.gradient_calls": (COUNT, "lower"),
    "energy.hessian_applies": (COUNT, "lower"),
    "energy.precond_applies": (COUNT, "lower"),
    "energy.hessian_self_s": (S, "lower"),
    "energy.precond_s": (S, "lower"),
    "energy.cg_per_newton_iter": ("applies/iter", "lower"),
    "grids.laplacian_calls": (COUNT, "lower"),
    "grids.laplacian_s": (S, "lower"),
    "grids.poisson_calls": (COUNT, "lower"),
    "grids.poisson_s": (S, "lower"),
    "grids.bytes_computed": (BYTES, "lower"),
    "fixedpoint.continuation_s": (S, "lower"),
    "fixedpoint.picard_trials": (COUNT, "lower"),
    "fixedpoint.picard_accepted": (COUNT, "lower"),
    "fixedpoint.useful_ratio": ("ratio", "higher"),
    "fixedpoint.apply_T_calls": (COUNT, "lower"),
    "fixedpoint.apply_T_self_s": (S, "lower"),
    "diagnostics.build_calls": (COUNT, "lower"),
    "diagnostics.build_s": (S, "lower"),
    "diagnostics.decay_fit_calls": (COUNT, "lower"),
    "diagnostics.decay_fit_s": (S, "lower"),
    "runner.output_calls": (COUNT, "lower"),
    "runner.output_s": (S, "lower"),
    "runner.output_bytes": (BYTES, "lower"),
    "runner.self_s": (S, "lower"),
    "trace.overhead_s": (S, "lower"),
    "cli.wall_s": (S, "lower"),
}

# counts that must repeat exactly across passes of one seed
EXACT = tuple(name for name, (unit, _) in PER_LAYER.items()
              if unit in (COUNT, BYTES) and name != "runner.output_bytes")


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (all but the three whole-pass ones)."""
    by_name = defaultdict(list)
    covered = defaultdict(int)
    for sp in spans:
        by_name[sp["name"]].append(sp)
        if sp["parent"] is not None:
            covered[sp["parent"]] += sp["end"] - sp["start"]

    def calls(name):
        return len(by_name[name])

    def total_s(*names):
        return sum(sp["end"] - sp["start"] for n in names for sp in by_name[n]) / 1e9

    def self_s(name):
        return sum(sp["end"] - sp["start"] - covered[sp["id"]] for sp in by_name[name]) / 1e9

    def field(name, key):
        return sum(sp[key] for sp in by_name[name])

    solve_ids = {sp["id"] for sp in by_name["newton.solve"]}
    # every energy evaluation inside a solve except the one at the initial state
    ls_evals = (sum(1 for sp in by_name["energy.energy"] if sp["parent"] in solve_ids)
                - len(solve_ids))
    iters = field("newton.solve", "iters")
    trials = field("fixedpoint.continuation", "trials")
    accepted = field("fixedpoint.continuation", "accepted")
    hessian_applies = calls("energy.hessian_apply")
    return {
        "config.validate_calls": calls("config.validate"),
        "config.validate_s": total_s("config.validate"),
        "backgrounds.build_calls": calls("backgrounds.build"),
        "backgrounds.build_s": total_s("backgrounds.build"),
        "newton.solve_calls": len(solve_ids),
        "newton.iters": iters,
        "newton.self_s": self_s("newton.solve"),
        "newton.linesearch_evals": ls_evals,
        "newton.linesearch_useful_ratio": _ratio(iters, ls_evals),
        "energy.energy_calls": calls("energy.energy"),
        "energy.gradient_calls": calls("energy.gradient"),
        "energy.hessian_applies": hessian_applies,
        "energy.precond_applies": calls("energy.precond_apply"),
        "energy.hessian_self_s": self_s("energy.hessian_apply"),
        "energy.precond_s": total_s("energy.precond_apply"),
        "energy.cg_per_newton_iter": _ratio(hessian_applies, iters),
        "grids.laplacian_calls": calls("grids.laplacian"),
        "grids.laplacian_s": total_s("grids.laplacian"),
        "grids.poisson_calls": calls("grids.poisson"),
        "grids.poisson_s": total_s("grids.poisson"),
        "grids.bytes_computed": field("grids.laplacian", "bytes") + field("grids.poisson", "bytes"),
        "fixedpoint.continuation_s": total_s("fixedpoint.continuation"),
        "fixedpoint.picard_trials": trials,
        "fixedpoint.picard_accepted": accepted,
        "fixedpoint.useful_ratio": _ratio(accepted, trials),
        "fixedpoint.apply_T_calls": calls("fixedpoint.apply_T"),
        "fixedpoint.apply_T_self_s": self_s("fixedpoint.apply_T"),
        "diagnostics.build_calls": calls("diagnostics.build"),
        "diagnostics.build_s": total_s("diagnostics.build"),
        "diagnostics.decay_fit_calls": calls("diagnostics.decay_fit"),
        "diagnostics.decay_fit_s": total_s("diagnostics.decay_fit"),
        "runner.output_calls": calls("runner.dump_fields") + calls("runner.emit_plot_data"),
        "runner.output_s": total_s("runner.dump_fields", "runner.emit_plot_data"),
        "runner.self_s": self_s("runner.run"),
    }


def run_metrics(traced: List[dict], untraced_walls: List[float]):
    """Per-layer metrics of a run: medians of times, counts that must agree.

    ``traced`` holds one dict per traced pass with ``spans``, ``wall_s`` and
    ``output_bytes``.  Returns ``(metrics, mismatches)``; ``mismatches`` names
    every exact count that differed between passes.
    """
    per_pass = []
    for rec in traced:
        m = pass_metrics(rec["spans"])
        m["runner.output_bytes"] = rec["output_bytes"]
        per_pass.append(m)
    mismatches = [name for name in EXACT
                  if len({m[name] for m in per_pass}) != 1]
    metrics = {name: per_pass[0][name] if name in EXACT
               else statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    untraced_wall = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced_wall
    metrics["cli.wall_s"] = untraced_wall
    return metrics, mismatches
