"""Command dispatch, result persistence and plot-data emission.

``run(command, config)`` executes one of ``check | solve | sweep | compare``
and returns ``(exit_code, report)``; the report is also written to
``output.report_path``.  Exit codes: 0 success, 2 existence threshold
violated (non-existence is a definite outcome, not an error), 3 solver
failed to converge.  A solver that fails outright (``Overflow`` from a
divergent iterate, ``NonZeroMeanRhs`` from a broken zero-mean invariant)
raises out of ``run`` without a report; ``cli.main`` prints it as
``solver error: ...`` and also returns 3.  ``compare`` on a configuration
the fixed-point path cannot solve raises :class:`ValidationError` before
any work; ``cli.main`` returns 1 for that, for an unreadable or invalid
configuration and for i/o errors.

Every numeric entry under the report's ``results`` key is a deterministic
function of the configuration; wall-clock data lives under ``timings`` so
bitwise comparison of reruns stays meaningful.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from itertools import repeat
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .backgrounds import build_background, check_existence
from .config import RunConfig, fixedpoint_problems
from .diagnostics import build_diagnostics, radial_profile, reconstruct_physical
from .errors import ThresholdViolated, ValidationError
from .fixedpoint import ContinuationSchedule, continuation_solve
from .grids import PlaneGrid
from .newton import SolverSettings, Solution, solve

EXIT_OK = 0
EXIT_THRESHOLD = 2
EXIT_NOT_CONVERGED = 3


def _solver_settings(cfg: RunConfig) -> SolverSettings:
    return SolverSettings(tol_grad_sup=cfg.solver["tol"], max_iters=cfg.solver["max_iters"])


def _schedule(cfg: RunConfig) -> ContinuationSchedule:
    steps = int(cfg.solver["continuation_steps"])
    return ContinuationSchedule(t_values=tuple((k + 1) / steps for k in range(steps)))


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


def _solution_summary(sol: Solution) -> dict:
    summary = {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "grad_sup_final": sol.grad_history[-1] if sol.grad_history else None,
        "energy_final": sol.energy_history[-1] if sol.energy_history else None,
        "message": sol.message,
    }
    if sol.stages is not None:
        summary["stages"] = sol.stages
    return summary


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


def dump_fields(state, physical, bg, path_text: str, config_hash: str,
                out_dir: Optional[Path] = None) -> None:
    """Write field dumps: CSV (full precision) plus raw binary with sidecar.

    ``<base>.csv`` holds ``x,y,u,v,kappa,phi_abs,a12,b12`` in row-major node
    order; ``<base>.bin`` holds the same field columns as consecutive
    little-endian float64 blocks, described by ``<base>.meta.json``.
    """
    base = _resolve(path_text, out_dir)
    if base.suffix:
        base = base.with_suffix("")
    grid = bg.grid
    X, Y = grid.nodes()
    u = bg.u0 + state[0]
    v = bg.v0 + state[1] - state[0]
    columns = {
        "x": X, "y": Y, "u": u, "v": v,
        "kappa": physical.kappa, "phi_abs": physical.phi_abs,
        "a12": physical.a12, "b12": physical.b12,
    }
    names = list(columns)
    field_names = names[2:]
    # nodes() is an ij meshgrid: x is constant along a grid row, y repeats
    # the same axis in every row, so both are formatted once
    x_text = [repr(val) for val in X[:, 0].tolist()]
    y_text = [repr(val) for val in Y[0].tolist()]
    with open(base.with_suffix(".csv"), "w") as fh:
        fh.write(",".join(names) + "\n")
        for i, x_i in enumerate(x_text):
            row = [map(repr, columns[name][i].tolist()) for name in field_names]
            fh.write("\n".join(map(",".join, zip(repeat(x_i), y_text, *row))) + "\n")

    with open(base.with_suffix(".bin"), "wb") as fh:
        for name in field_names:
            fh.write(np.ascontiguousarray(columns[name], dtype="<f8").data)
    meta = {
        "dtype": "<f8",
        "order": "row-major",
        "shape": list(grid.shape),
        "fields": field_names,
        "grid": ({"mode": "torus", "Lx": grid.Lx, "Ly": grid.Ly, "nx": grid.nx, "ny": grid.ny}
                 if not isinstance(grid, PlaneGrid)
                 else {"mode": "plane", "R": grid.R, "n": grid.n}),
        "config_hash": config_hash,
    }
    base.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def emit_plot_data(state, bg, cfg_obj, params, path_text: str,
                   out_dir: Optional[Path] = None) -> None:
    """Radial-profile CSV (``r,mean_u2v2,mean_grad2``) for plane runs."""
    grid = bg.grid
    if not isinstance(grid, PlaneGrid):
        return
    pts = list(cfg_obj.phi_zeros) + list(cfg_obj.kappa_zeros)
    r_v = max((math.hypot(px, py) for (px, py) in pts), default=0.0)
    r_min = r_v + 3.0 / math.sqrt(params.lam) if pts else grid.h
    r_max = 0.8 * grid.R
    nbins = max(8, int((r_max - r_min) / (2.0 * grid.h)))
    prof = radial_profile(state, bg, r_min, r_max, nbins)
    path = _resolve(path_text, out_dir)
    with open(path, "w") as fh:
        fh.write("r,mean_u2v2,mean_grad2\n")
        for r, mf, mg in zip(prof.r, prof.mean_fields_sq, prof.mean_grads_sq):
            fh.write(f"{float(r)!r},{float(mf)!r},{float(mg)!r}\n")


def _run_solvers(cfg: RunConfig, method: str, grid, params, vcfg, results: dict,
                 timings: dict):
    """Execute the solver methods of ``method``; returns (exit_code, best_state, bg)."""
    settings = _solver_settings(cfg)
    bg = build_background(vcfg, grid, params)
    exit_code = EXIT_OK
    newton_sol = fixed_sol = None

    if method in ("newton", "both"):
        t0 = time.perf_counter()
        newton_sol = solve(cfg.mode, cfg.model, vcfg, grid, params,
                           settings=settings, background=bg)
        timings["newton_s"] = time.perf_counter() - t0
        results["newton"] = _solution_summary(newton_sol)
        if not newton_sol.converged:
            exit_code = EXIT_NOT_CONVERGED
    if method in ("fixedpoint", "both"):
        t0 = time.perf_counter()
        fixed_sol = continuation_solve(_schedule(cfg), bg, vcfg, params)
        timings["fixedpoint_s"] = time.perf_counter() - t0
        results["fixedpoint"] = _solution_summary(fixed_sol)
        if not fixed_sol.converged:
            exit_code = EXIT_NOT_CONVERGED
    if newton_sol is not None and fixed_sol is not None:
        results["cross_method_sup_diff"] = float(
            np.max(np.abs(newton_sol.state - fixed_sol.state)))
    best = newton_sol if newton_sol is not None else fixed_sol
    return exit_code, best, bg


def _sweep_point_config(cfg: RunConfig, assignments: dict) -> RunConfig:
    """The validated config of one sweep point.

    ``validate_config`` checked every sweep value against the rule of the
    field it replaces, so the point applies the same conversions directly.
    """
    changes = {"sweep": None}
    for param, value in assignments.items():
        if param == "lambda":
            changes["lam"] = float(value)
        elif param == "tau":
            changes["tau"] = None if value is None else float(value)
        elif param == "n":
            changes["phi_zeros"] = cfg.phi_zeros[: int(value)]
        elif param == "m":
            changes["kappa_zeros"] = cfg.kappa_zeros[: int(value)]
        elif param == "resolution":
            changes["grid"] = ({"nx": int(value), "ny": int(value)} if cfg.mode == "torus"
                               else {"n": int(value)})
    return dataclasses.replace(cfg, **changes)


def _analytic_slack(vcfg, grid, params, model) -> float:
    """Distance of lambda*|Omega| above the analytic solvability line(s)."""
    lam_area = params.lam * grid.area
    if model == "base" or vcfg.m == 0:
        return lam_area - 2.0 * math.pi * vcfg.n
    return min(lam_area - 2.0 * math.pi * (vcfg.m + vcfg.n),
               lam_area - math.pi * (3 * vcfg.m + vcfg.n))


def _run_sweep(cfg: RunConfig, out_dir: Optional[Path], results: dict, timings: dict) -> int:
    sweep = cfg.sweep or {}
    params1 = [(sweep["param"], v) for v in sweep["values"]]
    if "param2" in sweep:
        points = [{p1: v1, sweep["param2"]: v2}
                  for (p1, v1) in params1 for v2 in sweep["values2"]]
    else:
        points = [{p1: v1} for (p1, v1) in params1]

    rows = []
    worst_exit = EXIT_OK
    for index, assignment in enumerate(points):
        pcfg = _sweep_point_config(cfg, assignment)
        grid = pcfg.make_grid()
        params = pcfg.make_params()
        vcfg = pcfg.make_vortex_config()
        row = {"index": index, **assignment}
        threshold = _threshold_dict(pcfg, grid, params)
        row["solvable"] = threshold["solvable"]
        row["margin"] = threshold["margin"]
        row["analytic_slack"] = (_analytic_slack(vcfg, grid, params, pcfg.model)
                                 if pcfg.mode == "torus" else None)
        if sweep.get("action") == "solve" and threshold["solvable"]:
            bg = build_background(vcfg, grid, params)
            sol = solve(pcfg.mode, pcfg.model, vcfg, grid, params,
                        settings=_solver_settings(pcfg), background=bg)
            row["converged"] = sol.converged
            row["grad_sup_final"] = sol.grad_history[-1] if sol.grad_history else None
            if sol.converged:
                diag = build_diagnostics(sol.state, pcfg.mode, pcfg.model, bg, vcfg,
                                         params, fit_decay=False)
                row["residual_sup"] = max(diag.residual_sup)
            else:
                worst_exit = EXIT_NOT_CONVERGED
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
                                  else str(row.get(k, "")) for k in keys) + "\n")
    return worst_exit


def run(command: str, cfg: RunConfig, out_dir: Optional[str] = None):
    """Execute one command; writes the report and returns (exit_code, report)."""
    if command not in ("check", "solve", "sweep", "compare"):
        raise ValueError(f"unknown command {command!r}")
    if command == "compare":
        problems = fixedpoint_problems(cfg.mode, cfg.model, "compare")
        if problems:
            raise ValidationError(problems)
    out = Path(out_dir) if out_dir else None
    grid = cfg.make_grid()
    params = cfg.make_params()
    vcfg = cfg.make_vortex_config()

    report = {
        "artifact": {"name": "bpsvortex", "version": __version__,
                     "config_hash": cfg.config_hash()},
        "command": command,
        "config": cfg.echo(),
    }
    results: dict = {}
    timings: dict = {}
    t_start = time.perf_counter()
    exit_code = EXIT_OK

    if command == "sweep":
        if cfg.sweep is None:
            raise ValueError("sweep command requires a 'sweep' section in the config")
        exit_code = _run_sweep(cfg, out, results, timings)
    else:
        threshold = _threshold_dict(cfg, grid, params)
        results["threshold"] = threshold
        if command == "check":
            exit_code = EXIT_OK if threshold["solvable"] else EXIT_THRESHOLD
        elif not threshold["solvable"]:
            exit_code = EXIT_THRESHOLD
        else:
            method = "both" if command == "compare" else cfg.solver["method"]
            try:
                exit_code, best, bg = _run_solvers(cfg, method, grid, params, vcfg,
                                                   results, timings)
            except ThresholdViolated:  # pragma: no cover - gated above
                exit_code, best, bg = EXIT_THRESHOLD, None, None
            if best is not None and best.converged:
                diag = build_diagnostics(best.state, cfg.mode, cfg.model, bg, vcfg, params)
                results["diagnostics"] = diag.to_dict()
                physical = reconstruct_physical(best.state, bg, params)
                if cfg.output.get("fields_path"):
                    dump_fields(best.state, physical, bg, cfg.output["fields_path"],
                                cfg.config_hash(), out)
                if cfg.output.get("plots_path"):
                    emit_plot_data(best.state, bg, vcfg, params,
                                   cfg.output["plots_path"], out)

    timings["total_s"] = time.perf_counter() - t_start
    report["results"] = results
    report["timings"] = timings
    report["exit_code"] = exit_code
    _write_report(report, cfg, out)
    return exit_code, report
