"""Command dispatch, result persistence (report and exact field dump) and plot data.

``run(command, config)`` executes one of ``check | solve | sweep | compare``
and returns ``(exit_code, report)``; the report is also written to
``output.report_path``.  Exit codes: 0 success, 2 existence threshold
violated (non-existence is a definite outcome, not an error), 3 solver
failed to converge.  Newton rejects a trial state that overflows and the
fixed point stops at an overflowing map application, so a divergent
iteration ends as non-convergence with a report.  A solver that fails
outright (``Overflow`` outside an iteration, ``NonZeroMeanRhs`` from a
broken zero-mean invariant) raises out of ``run`` without a report;
``cli.main`` prints it as ``solver error: ...`` and also returns 3.

A command the configuration cannot run raises :class:`ValidationError`
before any work: ``compare`` (Newton and the fixed-point path, on either
torus model) on a plane configuration, and ``sweep`` without a ``sweep``
section.  ``cli.main`` returns 1 for that, for an unreadable or invalid
configuration, for i/o errors and for a background whose vortex
cores fall between the nodes (:class:`~bpsvortex.errors.UnresolvedCore`,
raised out of ``run``).

One step, ``_evaluate``, turns a configuration into results: the threshold
gate, the solvers, the cross-method difference and the diagnostics.  The
command alone picks the solvers: ``check`` runs none, ``solve`` runs
Newton, and ``compare`` runs Newton and then the fixed point (which takes
no settings; its relaxation, window and tolerances are fixed in
:mod:`bpsvortex.fixedpoint`).  The diagnostics are always those of Newton's
state.  The zero sets name the variant in the threshold block
(``c1``/``c2`` without kappa zeros, ``alpha1``/``alpha2`` with them); the
configured ``model`` only passes to the label checks of ``solve`` and
``build_diagnostics``.  ``check``, ``solve`` and ``compare`` call it on the
configuration; a ``sweep`` row calls it with its action (``check`` or
``solve``) on its point configuration (``RunConfig.sweep_points``), where a
``solve`` may reuse the backgrounds and start from the states of earlier
rows (see ``_run_sweep``), and reads the row from the results.  ``compare``
hands both solvers one background handle, so that its coarse level is built
once; a lone ``solve`` hands none, and its coarse background ends with the
coarse level.  A resolving level's background is built for each solve that
goes through it (:func:`~bpsvortex.newton.solve_levels`).

Every numeric entry under the report's ``results`` key is a deterministic
function of the configuration; wall-clock data lives under ``timings``
(solvers and their coarse levels, diagnostics, field and plot output, total)
so bitwise comparison of reruns stays meaningful.  Each solver's section
reports its fine level and lists ``Solution.levels`` as they are.

A plane run's plot data are the diagnostics' radial profile, over the one
window of :func:`~bpsvortex.diagnostics.profile_window`; the runner holds no
window of its own.

``run`` computes on one BLAS thread, whatever ``OPENBLAS_NUM_THREADS`` says,
and gives the host process its thread count back when it returns: OpenBLAS
splits a matrix product into blocks by its thread count, so the plane's dense
sine transforms, and with them a plane run's ``results``, changed in their
last bits with it.  The pin goes through ``scipy_openblas_set_num_threads64_``
of the OpenBLAS that numpy's wheel bundles (in ``numpy.libs``, looked up once
when this module loads); a numpy built against another BLAS is left as it
is.  The count is one per process, so ``run`` calls in several threads take
turns.  Other library calls (``bpsvortex.solve``, ``build_diagnostics``) run
on the host's thread count.  On the 2-vCPU host the benchmark was built on, a
second thread bought nothing: one n = 384 forward transform took 5.2 ms on
one thread and 5.6 ms on two.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .backgrounds import build_background, check_existence
from .config import RunConfig
from .diagnostics import (build_diagnostics, profile_window, radial_profile,
                          reconstruct_physical)
from .errors import ValidationError
from .fixedpoint import continuation_solve
from .grids import PlaneGrid
from .newton import SolverSettings, Solution, _sup, solve

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_THRESHOLD = 2
EXIT_NOT_CONVERGED = 3


def _threshold_dict(vcfg, grid, params) -> dict:
    # the zero set names the variant: base when the kappa zero set is empty
    model = "extended" if vcfg.m else "base"
    if isinstance(grid, PlaneGrid):
        # plane solutions exist for every vortex distribution; no finite margin
        return {"model": model, "solvable": True, "margin": None}
    report = check_existence(vcfg, grid, params)
    keys = ("alpha1", "alpha2") if vcfg.m else ("c1", "c2")
    return {"model": model, "solvable": report.solvable, "margin": report.margin,
            **dict(zip(keys, report.constraints))}


def _newton_summary(sol: Solution) -> dict:
    return {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "grad_sup_final": sol.grad_history[-1] if sol.grad_history else None,
        "energy_final": sol.energy_history[-1] if sol.energy_history else None,
        "message": sol.message,
        "levels": sol.levels,
    }


def _fixedpoint_summary(sol: Solution) -> dict:
    return {
        "converged": sol.converged,
        "trials": sol.iterations,
        "residual_final": sol.grad_history[-1] if sol.grad_history else None,
        "omega": sol.omega,
        "message": sol.message,
        "levels": sol.levels,
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
                   out_dir: Optional[Path] = None, profile=None) -> None:
    """Radial-profile CSV (``r,mean_u2v2,mean_grad2``) for plane runs.

    ``profile`` is the radial profile of ``state`` that the caller has (the
    diagnostics', ``DiagnosticsReport.profile``); without it the profile is
    computed over the same window, :func:`~bpsvortex.diagnostics.profile_window`.
    An empty annulus writes the header alone.
    """
    if not isinstance(bg.grid, PlaneGrid):
        return
    prof = profile if profile is not None else radial_profile(
        state, bg, *profile_window(bg, params))
    path = _resolve(path_text, out_dir)
    with open(path, "w") as fh:
        fh.write("r,mean_u2v2,mean_grad2\n")
        for r, mf, mg in zip(prof.r, prof.mean_fields_sq, prof.mean_grads_sq):
            fh.write(f"{float(r)!r},{float(mf)!r},{float(mg)!r}\n")


def _problem(cfg: RunConfig):
    """The ``(vcfg, grid, params)`` a configuration describes."""
    return cfg.make_vortex_config(), cfg.make_grid(), cfg.make_params()


def _evaluate(cfg: RunConfig, command: str, results: dict, timings: dict,
              fit_decay: bool = True, problem=None, background=None, levels=None, start=None):
    """Threshold gate, the solvers of ``command`` and the diagnostics of Newton's state.

    ``command`` is ``"check"`` (threshold only), ``"solve"`` (Newton) or
    ``"compare"`` (Newton, then the fixed point).  ``problem`` is
    ``_problem(cfg)`` when the caller has made it, and ``background`` its
    background, built here when the solvers run without it.  A caller that
    hands ``levels``, the background handle of
    :func:`~bpsvortex.newton.solve_levels`, continues a sweep path: Newton
    then keeps its coarse level (``Solution.coarse_modes``).  ``compare``
    makes one for its two solvers.  ``start`` is called only when the
    solvers run; ``start()`` makes Newton's predictors, the initial state
    and its coarse coefficients (a cold solve when ``start`` is ``None``).
    Fills ``results`` and ``timings``; returns ``(exit_code, newton, bg,
    profile)``, where ``newton`` (Newton's solution) and ``bg`` are ``None``
    unless the solvers ran, and ``profile`` is the diagnostics' radial
    profile (``DiagnosticsReport.profile``) or ``None``.
    """
    vcfg, grid, params = problem or _problem(cfg)
    threshold = results["threshold"] = _threshold_dict(vcfg, grid, params)
    if not threshold["solvable"]:
        return EXIT_THRESHOLD, None, None, None
    if command == "check":
        return EXIT_OK, None, None, None

    bg = background if background is not None else build_background(vcfg, grid, params)
    # a sweep path's handle keeps its rows' coarse coefficients; compare's
    # shares the coarse level between its two solvers
    keep_coarse = levels is not None
    if command == "compare":
        levels = []
    exit_code = EXIT_OK
    t0 = time.perf_counter()
    settings = SolverSettings(tol_grad_sup=cfg.solver["tol"],
                              max_iters=cfg.solver["max_iters"])
    # the predictors go on through a list that the call empties, so that
    # this frame does not hold them (see ``solve``)
    predictors = start() if start else [None, None]
    newton_sol = solve(cfg.mode, cfg.model, vcfg, grid, params, settings=settings,
                       init=predictors.pop(0), background=bg, levels=levels,
                       coarse_init=predictors.pop(), keep_coarse=keep_coarse)
    timings["newton_s"] = time.perf_counter() - t0
    if newton_sol.coarse_s is not None:
        timings["newton_coarse_s"] = newton_sol.coarse_s
    results["newton"] = _newton_summary(newton_sol)
    # past the solve the run reads the state, and the diagnostics the
    # Laplacians the solve ended with; the solution lets go of both of
    # its spectral arrays, so that neither outlives that use
    laplacians = newton_sol.laplacians
    newton_sol.modes = newton_sol.laplacians = None
    if not newton_sol.converged:
        exit_code = EXIT_NOT_CONVERGED
    if command == "compare":
        t0 = time.perf_counter()
        fixed_sol = continuation_solve(bg, params, levels)
        timings["fixedpoint_s"] = time.perf_counter() - t0
        if fixed_sol.coarse_s is not None:
            timings["fixedpoint_coarse_s"] = fixed_sol.coarse_s
        results["fixedpoint"] = _fixedpoint_summary(fixed_sol)
        if not fixed_sol.converged:
            exit_code = EXIT_NOT_CONVERGED
        # the difference goes into the fixed point's state, which nothing
        # reads afterwards
        results["cross_method_sup_diff"] = _sup(
            np.subtract(newton_sol.state, fixed_sol.state, out=fixed_sol.state))
    profile = None
    if newton_sol.converged:
        t0 = time.perf_counter()
        report = build_diagnostics(newton_sol.state, cfg.mode, cfg.model, bg, vcfg, params,
                                   fit_decay=fit_decay, laplacians=laplacians)
        results["diagnostics"] = report.to_dict()
        profile = report.profile
        timings["diagnostics_s"] = time.perf_counter() - t0
    return exit_code, newton_sol, bg, profile


def _analytic_slack(vcfg, grid, params) -> float:
    """Distance of lambda*|Omega| above the analytic solvability lines."""
    lam_area = params.lam * grid.area
    return min(lam_area - 2.0 * math.pi * (vcfg.m + vcfg.n),
               lam_area - math.pi * (3 * vcfg.m + vcfg.n))


def _path_start(path, lam):
    """Where a row at ``lam`` starts: ``(start_row, secant_row, start)``.

    ``path`` lists the last two converged rows of the row's path as
    ``(index, lambda, state, coarse)``, oldest first, ``coarse`` the row's
    coefficients on the path's coarse level (``Solution.coarse_modes``,
    ``None`` on a grid without one).  With none the row solves cold
    (``start`` is ``None``, and Newton starts from its coarse level); with
    one, or two at equal lambda, ``start()`` gives copies of the newest
    row's pair ``(state, coarse)``, the fine and the coarse predictor.
    Otherwise it gives the secant p2 + r (p2 - p1) of both, with
    r = (lam - lambda2) / (lambda2 - lambda1) clamped to [-1, 1], so it
    never extrapolates further than the last step.  ``start`` builds it in
    the older row's storage, which is spent then: it takes the older row
    off ``path`` and keeps no reference to the predictors, which the
    solve then holds alone.
    """
    if not path:
        return None, None, None
    row2, lam2, *newest = path[-1]
    if len(path) == 1 or path[0][1] == lam2:
        return row2, None, lambda: [None if p2 is None else p2.copy() for p2 in newest]
    row1, lam1 = path[0][:2]
    r = min(1.0, max(-1.0, (lam - lam2) / (lam2 - lam1)))

    def secant():
        _, _, *older = path.pop(0)
        for p1, p2 in zip(older, newest):
            if p1 is not None:
                np.subtract(p1, p2, out=p1)
                np.multiply(p1, -r, out=p1)
                np.add(p1, p2, out=p1)
        return older

    return row2, row1, secant


def _run_sweep(cfg: RunConfig, out_dir: Optional[Path], results: dict) -> int:
    """One row per sweep point: a ``check``, or with action ``solve`` a Newton solve.

    Consecutive rows whose backgrounds have equal inputs (zero sets and
    grid), as in a lambda sweep, form one continuation path: the first
    solved row builds the background, and the path keeps it and a
    background handle for its coarse level (built once too), and each row's
    Newton starts from the path's last converged rows (see ``_path_start``):
    cold, from a copy of the newest, or from the secant through the last
    two.  A path carries two arrays per row, its state and its coefficients
    on the coarse level (``Solution.coarse_modes``), from which the same
    rule builds the fine and the coarse predictor; how a row goes through
    the coarse level is the level rule of
    :func:`~bpsvortex.newton.solve_levels`.
    A solved row records the newest as ``start_row`` and the older row of a
    secant as ``secant_row`` (``None`` for a copy or cold start), its fine
    Newton ``iterations``, and its Newton's ``levels``, which the CSV leaves
    out.
    A row that does not converge seeds nothing, and the next row starts
    from a copy of the newest converged row, since a secant start spends
    the older row's storage.  A change of any background input
    (``resolution``, ``n``, ``m``) starts a new path with fresh backgrounds
    and a cold start.  Each row makes its own grid, which holds no array
    until an operator caches its tables on it; the path's solves run on its
    background's grid, that of its first solved row.
    """
    rows = []
    worst_exit = EXIT_OK
    path_key = path_bg = path_levels = None
    path = []
    for index, (assignment, pcfg) in enumerate(cfg.sweep_points):
        problem = vcfg, grid, params = _problem(pcfg)
        key = (vcfg, grid)
        if key != path_key:
            path_key, path_bg, path_levels, path = key, None, [], []
        start_row, secant_row, start = _path_start(path, params.lam)
        point: dict = {}
        exit_code, sol, bg, _ = _evaluate(pcfg, cfg.sweep["action"], point, {},
                                          fit_decay=False, problem=problem, background=path_bg,
                                          levels=path_levels, start=start)
        if bg is not None:
            path_bg = bg
        row = {"index": index, **assignment,
               "solvable": point["threshold"]["solvable"],
               "margin": point["threshold"]["margin"],
               "analytic_slack": (_analytic_slack(vcfg, grid, params)
                                  if pcfg.mode == "torus" else None)}
        if "newton" in point:
            summary = point["newton"]
            row.update(start_row=start_row, secant_row=secant_row, levels=summary["levels"],
                       converged=summary["converged"], iterations=summary["iterations"],
                       grad_sup_final=summary["grad_sup_final"])
            path = path[-1:] + ([(index, params.lam, sol.state, sol.coarse_modes)]
                                if sol.converged else [])
            if "diagnostics" in point:
                row["residual_sup"] = max(point["diagnostics"]["residual_sup"])
        if exit_code == EXIT_NOT_CONVERGED:
            worst_exit = exit_code
        rows.append(row)
    results["rows"] = rows

    plots_path = cfg.output.get("plots_path")
    if plots_path:
        path = _resolve(plots_path, out_dir)
        # the level records stay in the report: the CSV holds scalars only
        keys = sorted({k for row in rows for k in row} - {"levels"})
        with open(path, "w") as fh:
            fh.write(",".join(keys) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(row[k])) if isinstance(row.get(k), float)
                                  else "" if row.get(k) is None else str(row[k])
                                  for k in keys) + "\n")
    return worst_exit


def _openblas_threads(libraries) -> Optional[tuple]:
    """The thread-count getter and setter of the OpenBLAS in the directory ``libraries``, or ``None``.

    Read with ``os.listdir``, which costs the import about 0.4 ms less than a
    pathlib glob.
    """
    try:
        names = sorted(os.listdir(libraries))
    except OSError:
        return None
    for name in names:
        if not name.startswith("libscipy_openblas"):
            continue
        try:
            library = ctypes.cdll.LoadLibrary(os.path.join(libraries, name))
            get_threads = library.scipy_openblas_get_num_threads64_
            set_threads = library.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        # int openblas_get_num_threads(void), void openblas_set_num_threads(int)
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        return get_threads, set_threads
    return None


# numpy's bundled OpenBLAS, which a numpy wheel keeps in numpy.libs next to
# the package; found once per process
OPENBLAS = _openblas_threads(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                          "numpy.libs"))
_BLAS_PIN = threading.RLock()


@contextmanager
def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread inside the block (module docstring).

    The thread count it found is set again on the way out; without that
    library (``OPENBLAS`` is ``None``) the block runs as it is.  The block
    holds ``_BLAS_PIN`` throughout: the count is process-wide, so a block in
    another thread waits, instead of restoring the count under a running one.
    """
    with _BLAS_PIN:
        if OPENBLAS is None:
            yield
            return
        get_threads, set_threads = OPENBLAS
        threads = get_threads()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(threads)


def run(command: str, cfg: RunConfig, out_dir: Optional[str] = None):
    """Execute one command on one BLAS thread; writes the report and returns (exit_code, report)."""
    if command not in ("check", "solve", "sweep", "compare"):
        raise ValueError(f"unknown command {command!r}")
    if command == "compare" and cfg.mode == "plane":
        raise ValidationError([("compare", "fixed-point path requires mode='torus'")])
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

    with _one_blas_thread():
        if command == "sweep":
            exit_code = _run_sweep(cfg, out, results)
        else:
            exit_code, sol, bg, profile = _evaluate(cfg, command, results, timings)
            if sol is not None and sol.converged:
                t0 = time.perf_counter()
                params = cfg.make_params()
                if cfg.output.get("fields_path"):
                    dump_fields(sol.state, bg, params, cfg.output["fields_path"],
                                cfg.config_hash(), out)
                if cfg.output.get("plots_path"):
                    emit_plot_data(sol.state, bg, params, cfg.output["plots_path"], out,
                                   profile=profile)
                timings["output_s"] = time.perf_counter() - t0

    timings["total_s"] = time.perf_counter() - t_start
    report["results"] = results
    report["timings"] = timings
    report["exit_code"] = exit_code
    _write_report(report, cfg, out)
    return exit_code, report
