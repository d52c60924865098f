"""Command dispatch, result persistence (report and exact field dump) and plot data.

``run(command, config)`` executes one of ``check | solve | sweep | compare``
and returns ``(exit_code, report)``; the report is also written to
``output.report_path``.  Exit codes: 0 success, 2 existence threshold
violated (non-existence is a definite outcome, not an error), 3 solver
failed to converge.  Both solvers reject a trial state that overflows, so a
divergent iteration ends as non-convergence with a report.  A solver that
fails outright (``Overflow`` outside a trial, ``NonZeroMeanRhs`` from a
broken zero-mean invariant) raises out of ``run`` without a report;
``cli.main`` prints it as ``solver error: ...`` and also returns 3.

A command the configuration cannot run raises :class:`ValidationError`
before any work: ``compare`` (Newton and the fixed-point path, on either
torus model) on a plane configuration, and ``sweep`` without a ``sweep``
section.  ``cli.main`` returns 1 for that, for an unreadable or invalid
configuration and for i/o errors.

One step, ``_evaluate``, turns a configuration into results: the threshold
gate, the solvers (the fixed-point path takes no settings; its schedule and
tolerances are fixed in :mod:`bpsvortex.fixedpoint`), the cross-method
difference and the diagnostics.
``check``, ``solve`` and ``compare`` call it on the configuration; a
``sweep`` row calls it on its point configuration (``RunConfig.sweep_points``)
as ``check`` does, or as a Newton ``solve`` with action ``solve``, and reads
the row from the results.

Every numeric entry under the report's ``results`` key is a deterministic
function of the configuration; wall-clock data lives under ``timings``
(solvers, diagnostics, field and plot output, total) so bitwise comparison of
reruns stays meaningful.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .backgrounds import build_background, check_existence
from .config import RunConfig, fixedpoint_problems
from .diagnostics import (annulus_bins, build_diagnostics, decay_annulus, radial_profile,
                          reconstruct_physical)
from .errors import ValidationError
from .fixedpoint import continuation_solve
from .grids import PlaneGrid
from .newton import SolverSettings, Solution, solve

EXIT_OK = 0
EXIT_THRESHOLD = 2
EXIT_NOT_CONVERGED = 3


def _threshold_dict(cfg: RunConfig, grid, params) -> dict:
    if cfg.mode == "plane":
        # plane solutions exist for every vortex distribution; no finite margin
        return {"model": cfg.model, "solvable": True, "margin": None}
    report = check_existence(cfg.make_vortex_config(), grid, params, model=cfg.model)
    out = {"model": report.model, "solvable": report.solvable, "margin": report.margin}
    if report.model == "base":
        out["c1"], out["c2"] = report.c1, report.c2
    else:
        out["alpha1"], out["alpha2"] = report.alpha1, report.alpha2
    return out


def _newton_summary(sol: Solution) -> dict:
    return {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "grad_sup_final": sol.grad_history[-1] if sol.grad_history else None,
        "energy_final": sol.energy_history[-1] if sol.energy_history else None,
        "message": sol.message,
        "steps": sol.newton_steps,
    }


def _fixedpoint_summary(sol: Solution) -> dict:
    # continuation_solve logs the relative residual |T(x) - x| / (1 + |x|)
    # of every accepted trial in grad_history and counts trials as iterations
    return {
        "converged": sol.converged,
        "trials": sol.iterations,
        "residual_final": sol.grad_history[-1] if sol.grad_history else None,
        "message": sol.message,
        "stages": sol.stages,
    }


def _resolve(path_text: str, out_dir: Optional[Path]) -> Path:
    path = Path(path_text)
    if out_dir is not None and not path.is_absolute():
        path = out_dir / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(report: dict, cfg: RunConfig, out_dir: Optional[Path]):
    path = cfg.output.get("report_path")
    if path:
        _resolve(path, out_dir).write_text(json.dumps(report, indent=2) + "\n")


def dump_fields(state, bg, params, path_text: str, config_hash: str,
                out_dir: Optional[Path] = None) -> None:
    """Exact field dump: ``<base>.bin`` plus its ``<base>.meta.json`` sidecar.

    ``<base>`` is ``path_text`` without its last suffix (``fields.csv`` and
    ``fields`` both give ``fields``; ``run.a.csv`` gives ``run.a``).  The
    ``.bin`` holds ``u, v, kappa, phi_abs, a12, b12`` as consecutive
    little-endian float64 blocks in row-major node order; the sidecar names
    the fields, their shape and the grid the node coordinates follow from.
    """
    base = _resolve(path_text, out_dir).with_suffix("")
    grid = bg.grid
    physical = reconstruct_physical(state, bg, params)
    columns = {
        "u": bg.u0 + state[0], "v": bg.v0 + state[1] - state[0],
        "kappa": physical.kappa, "phi_abs": physical.phi_abs,
        "a12": physical.a12, "b12": physical.b12,
    }
    with open(base.with_name(base.name + ".bin"), "wb") as fh:
        for values in columns.values():
            fh.write(np.ascontiguousarray(values, dtype="<f8").data)
    meta = {
        "dtype": "<f8",
        "order": "row-major",
        "shape": list(grid.shape),
        "fields": list(columns),
        "grid": ({"mode": "torus", "Lx": grid.Lx, "Ly": grid.Ly, "nx": grid.nx, "ny": grid.ny}
                 if not isinstance(grid, PlaneGrid)
                 else {"mode": "plane", "R": grid.R, "n": grid.n}),
        "config_hash": config_hash,
    }
    base.with_name(base.name + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def emit_plot_data(state, bg, params, path_text: str,
                   out_dir: Optional[Path] = None) -> None:
    """Radial-profile CSV (``r,mean_u2v2,mean_grad2``) for plane runs."""
    grid = bg.grid
    if not isinstance(grid, PlaneGrid):
        return
    r_min, r_max = decay_annulus(grid, bg.cfg, params)
    if not (bg.cfg.phi_zeros or bg.cfg.kappa_zeros):
        r_min = grid.h  # no vortex core to stay clear of
    nbins = max(8, annulus_bins(grid, r_min, r_max))
    prof = radial_profile(state, bg, r_min, r_max, nbins)
    path = _resolve(path_text, out_dir)
    with open(path, "w") as fh:
        fh.write("r,mean_u2v2,mean_grad2\n")
        for r, mf, mg in zip(prof.r, prof.mean_fields_sq, prof.mean_grads_sq):
            fh.write(f"{float(r)!r},{float(mf)!r},{float(mg)!r}\n")


def _evaluate(cfg: RunConfig, method: Optional[str], results: dict, timings: dict,
              fit_decay: bool = True):
    """Threshold gate, the solvers of ``method`` and the diagnostics of the best state.

    ``method`` is ``None`` (threshold only), ``"newton"``, ``"fixedpoint"`` or
    ``"both"``.  Fills ``results`` and ``timings``; returns ``(exit_code,
    best, bg)``, where ``best`` and ``bg`` are ``None`` unless a solver ran.
    """
    grid, params, vcfg = cfg.make_grid(), cfg.make_params(), cfg.make_vortex_config()
    threshold = results["threshold"] = _threshold_dict(cfg, grid, params)
    if not threshold["solvable"]:
        return EXIT_THRESHOLD, None, None
    if method is None:
        return EXIT_OK, None, None

    bg = build_background(vcfg, grid, params)
    exit_code = EXIT_OK
    newton_sol = fixed_sol = None
    if method in ("newton", "both"):
        t0 = time.perf_counter()
        settings = SolverSettings(tol_grad_sup=cfg.solver["tol"],
                                  max_iters=cfg.solver["max_iters"])
        newton_sol = solve(cfg.mode, cfg.model, vcfg, grid, params,
                           settings=settings, background=bg)
        timings["newton_s"] = time.perf_counter() - t0
        results["newton"] = _newton_summary(newton_sol)
        if not newton_sol.converged:
            exit_code = EXIT_NOT_CONVERGED
    if method in ("fixedpoint", "both"):
        t0 = time.perf_counter()
        fixed_sol = continuation_solve(bg, params)
        timings["fixedpoint_s"] = time.perf_counter() - t0
        results["fixedpoint"] = _fixedpoint_summary(fixed_sol)
        if not fixed_sol.converged:
            exit_code = EXIT_NOT_CONVERGED
    if newton_sol is not None and fixed_sol is not None:
        results["cross_method_sup_diff"] = float(
            np.max(np.abs(newton_sol.state - fixed_sol.state)))
    best = newton_sol if newton_sol is not None else fixed_sol
    if best.converged:
        t0 = time.perf_counter()
        results["diagnostics"] = build_diagnostics(best.state, cfg.mode, cfg.model, bg, vcfg,
                                                   params, fit_decay=fit_decay).to_dict()
        timings["diagnostics_s"] = time.perf_counter() - t0
    return exit_code, best, bg


def _analytic_slack(vcfg, grid, params, model) -> float:
    """Distance of lambda*|Omega| above the analytic solvability line(s)."""
    lam_area = params.lam * grid.area
    if model == "base" or vcfg.m == 0:
        return lam_area - 2.0 * math.pi * vcfg.n
    return min(lam_area - 2.0 * math.pi * (vcfg.m + vcfg.n),
               lam_area - math.pi * (3 * vcfg.m + vcfg.n))


def _run_sweep(cfg: RunConfig, out_dir: Optional[Path], results: dict) -> int:
    """One row per sweep point: a ``check``, or with action ``solve`` a Newton solve."""
    method = "newton" if cfg.sweep["action"] == "solve" else None
    rows = []
    worst_exit = EXIT_OK
    for index, (assignment, pcfg) in enumerate(cfg.sweep_points):
        point: dict = {}
        exit_code, _, _ = _evaluate(pcfg, method, point, {}, fit_decay=False)
        row = {"index": index, **assignment,
               "solvable": point["threshold"]["solvable"],
               "margin": point["threshold"]["margin"],
               "analytic_slack": (_analytic_slack(pcfg.make_vortex_config(), pcfg.make_grid(),
                                                  pcfg.make_params(), pcfg.model)
                                  if pcfg.mode == "torus" else None)}
        if "newton" in point:
            row["converged"] = point["newton"]["converged"]
            row["grad_sup_final"] = point["newton"]["grad_sup_final"]
            if "diagnostics" in point:
                row["residual_sup"] = max(point["diagnostics"]["residual_sup"])
        if exit_code == EXIT_NOT_CONVERGED:
            worst_exit = exit_code
        rows.append(row)
    results["rows"] = rows

    plots_path = cfg.output.get("plots_path")
    if plots_path:
        path = _resolve(plots_path, out_dir)
        keys = sorted({k for row in rows for k in row})
        with open(path, "w") as fh:
            fh.write(",".join(keys) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(row[k])) if isinstance(row.get(k), float)
                                  else "" if row.get(k) is None else str(row[k])
                                  for k in keys) + "\n")
    return worst_exit


def run(command: str, cfg: RunConfig, out_dir: Optional[str] = None):
    """Execute one command; writes the report and returns (exit_code, report)."""
    if command not in ("check", "solve", "sweep", "compare"):
        raise ValueError(f"unknown command {command!r}")
    if command == "compare":
        problems = fixedpoint_problems(cfg.mode, "compare")
        if problems:
            raise ValidationError(problems)
    if command == "sweep" and cfg.sweep is None:
        raise ValidationError([("sweep", "the sweep command requires a 'sweep' section")])
    out = Path(out_dir) if out_dir else None
    report = {
        "artifact": {"name": "bpsvortex", "version": __version__,
                     "config_hash": cfg.config_hash()},
        "command": command,
        "config": cfg.echo(),
    }
    results: dict = {}
    timings: dict = {}
    t_start = time.perf_counter()

    if command == "sweep":
        exit_code = _run_sweep(cfg, out, results)
    else:
        method = {"check": None, "compare": "both"}.get(command, cfg.solver["method"])
        exit_code, best, bg = _evaluate(cfg, method, results, timings)
        if best is not None and best.converged:
            t0 = time.perf_counter()
            params = cfg.make_params()
            if cfg.output.get("fields_path"):
                dump_fields(best.state, bg, params, cfg.output["fields_path"],
                            cfg.config_hash(), out)
            if cfg.output.get("plots_path"):
                emit_plot_data(best.state, bg, params, cfg.output["plots_path"], out)
            timings["output_s"] = time.perf_counter() - t0

    timings["total_s"] = time.perf_counter() - t_start
    report["results"] = results
    report["timings"] = timings
    report["exit_code"] = exit_code
    _write_report(report, cfg, out)
    return exit_code, report
