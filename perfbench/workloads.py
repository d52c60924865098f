"""Benchmark workloads: seeded config generators and correctness gates.

Each workload turns a seed into one JSON run configuration, names the CLI
command that runs it, and checks the report of a finished pass.  Nothing here
imports bpsvortex at module level, so the generator runs without the package;
only a workload's ``deep_check`` solves anything.

The solver's work depends on the vortices' relative geometry (over random
pairs on the 256^2 torus, 393-487 Picard iterations and 5-6 Newton steps), so
the torus generators draw a rigid motion of a fixed arrangement: a uniform
translation of the cell and one of the eight symmetries of the square.  The
continuum problem is invariant under both, the square symmetries map the grid
onto itself, and the grid sees a translation only through sub-node offsets.
That keeps the work per pass constant from seed to seed (444 Picard
iterations and 5 Newton steps on every seed tried) and leaves the per-seed
spread a measure of the program.  The plane generator
draws the two vortices uniformly in the disc |p| <= 2 (the plane is not
translation invariant, and there the work barely depends on the positions).

Tolerances are the ones pinned in tests/test_acceptance.py, except the plane
flux tolerance, which no test pins (see ``PLANE_FLUX_REL_TOL``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

TOL = 1e-9  # solver.tol: the stated accuracy of every timed solution

FLUX_REL_TOL = 1e-6  # criterion 04
CONSTRAINT_TOL = 1e-6  # criterion 03
CROSS_METHOD_TOL = 1e-6  # criterion 05
RESIDUAL_SUP_TOL = 1e-8  # criterion 01, per solved sweep row
# The truncated plane carries no exact flux identity: Dirichlet truncation at
# R = 12 leaves flux_b about 2.2% above 4*pi on plane-solve.  5% separates
# that from a lost or extra vortex (a 50% change at n = 2).
PLANE_FLUX_REL_TOL = 0.05

MIN_SEPARATION = 1.0  # smallest allowed pairwise (minimum-image) distance


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_config: Callable[[int], dict]
    check: Callable[[dict, int], List[str]]
    # gates that need the library; run once per run, on the first pass
    deep_check: Optional[Callable[[dict], List[str]]] = None


def _min_image_distance(p, q, L):
    dx = abs(p[0] - q[0]) % L
    dy = abs(p[1] - q[1]) % L
    return math.hypot(min(dx, L - dx), min(dy, L - dy))


def _rigid_torus_motion(rng: random.Random, fractions, L):
    """Seeded translation plus square symmetry of points given as cell fractions."""
    swap = rng.random() < 0.5
    sx = rng.choice((-1.0, 1.0))
    sy = rng.choice((-1.0, 1.0))
    x0 = rng.uniform(0.0, L)
    y0 = rng.uniform(0.0, L)
    out = []
    for fx, fy in fractions:
        if swap:
            fx, fy = fy, fx
        out.append([(x0 + sx * fx * L) % L, (y0 + sy * fy * L) % L])
    return out


def _check_separation(points, distance):
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if distance(points[i], points[j]) < MIN_SEPARATION:
                raise ValueError(f"points {i} and {j} closer than {MIN_SEPARATION}")


# ---------------------------------------------------------------------------
# torus-compare
# ---------------------------------------------------------------------------

COMPARE_AREA = 20.0
COMPARE_PAIR = ((0.0, 0.0), (0.37, 0.21))  # cell fractions; separation 0.43 L


def compare_config(seed: int) -> dict:
    L = math.sqrt(COMPARE_AREA)
    pts = _rigid_torus_motion(random.Random(seed), COMPARE_PAIR, L)
    _check_separation(pts, lambda p, q: _min_image_distance(p, q, L))
    return {
        "mode": "torus", "model": "base", "lambda": 1.0,
        "domain": {"Lx": L, "Ly": L}, "grid": {"nx": 256, "ny": 256},
        "phi_zeros": pts, "kappa_zeros": [],
        "solver": {"tol": TOL},
        "output": {"report_path": "report.json"},
    }


def _check_flux(diag, m, n, failures, rel_tol):
    target_b = 2.0 * math.pi * (m + n)
    target_a = 2.0 * math.pi * m
    if not abs(diag["flux_b"] - target_b) <= rel_tol * target_b:
        failures.append(f"flux_b {diag['flux_b']!r} not within {rel_tol} of {target_b!r}")
    # criterion 04 scales the flux_a tolerance by 2 pi m, or by 2 pi n when m = 0
    if not abs(diag["flux_a"] - target_a) <= rel_tol * (target_a or target_b):
        failures.append(f"flux_a {diag['flux_a']!r} not within {rel_tol} of {target_a!r}")


def _check_constraints(diag, failures):
    errs = diag.get("constraint_errors")
    if errs is None or not max(errs) <= CONSTRAINT_TOL:
        failures.append(f"constraint errors {errs} exceed {CONSTRAINT_TOL}")


def check_compare(report: dict, exit_code: int) -> List[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}, expected 0")
    res = report.get("results", {})
    for method in ("newton", "fixedpoint"):
        if not res.get(method, {}).get("converged"):
            failures.append(f"{method} did not converge")
    diff = res.get("cross_method_sup_diff")
    if diff is None or not diff <= CROSS_METHOD_TOL:
        failures.append(f"cross-method sup diff {diff} exceeds {CROSS_METHOD_TOL}")
    diag = res.get("diagnostics")
    if diag is None:
        return failures + ["no diagnostics in report"]
    _check_flux(diag, 0, len(report["config"]["phi_zeros"]), failures, FLUX_REL_TOL)
    _check_constraints(diag, failures)
    return failures


# ---------------------------------------------------------------------------
# plane-solve
# ---------------------------------------------------------------------------

PLANE_LAMBDA = 4.0
PLANE_R = 12.0
PLANE_DISC = 2.0  # vortices lie in |p| <= 2, so the decay annulus exists


def plane_config(seed: int) -> dict:
    rng = random.Random(seed)
    pts = []
    while len(pts) < 2:
        r = PLANE_DISC * math.sqrt(rng.random())
        a = rng.uniform(0.0, 2.0 * math.pi)
        p = [r * math.cos(a), r * math.sin(a)]
        if all(math.dist(p, q) >= MIN_SEPARATION for q in pts):
            pts.append(p)
    return {
        "mode": "plane", "model": "base", "lambda": PLANE_LAMBDA,
        "domain": {"R": PLANE_R}, "grid": {"n": 384},
        "phi_zeros": pts, "kappa_zeros": [],
        "solver": {"tol": TOL},
        "output": {"report_path": "report.json", "fields_path": "fields.csv",
                   "plots_path": "profile.csv"},
    }


def check_plane(report: dict, exit_code: int) -> List[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}, expected 0")
    res = report.get("results", {})
    if not res.get("newton", {}).get("converged"):
        failures.append("newton did not converge")
    diag = res.get("diagnostics")
    if diag is None:
        return failures + ["no diagnostics in report"]
    _check_flux(diag, 0, len(report["config"]["phi_zeros"]), failures, PLANE_FLUX_REL_TOL)
    decay = diag.get("decay")
    lam = report["config"]["lambda"]
    # criterion 09
    if (decay is None
            or not decay["rate_fields"] >= math.sqrt(0.9 * lam)
            or not abs(decay["rate_fields"] - lam) / lam <= 0.15
            or not decay["rate_gradients"] >= math.sqrt(2.0 * 0.9 * lam)):
        failures.append(f"decay rates {decay} miss criterion 09")
    return failures


# ---------------------------------------------------------------------------
# torus-sweep
# ---------------------------------------------------------------------------

SWEEP_AREA = 50.0
SWEEP_PHI = ((0.12, 0.18), (0.58, 0.22), (0.31, 0.69))
SWEEP_KAPPA = ((0.80, 0.62),)
# lambda in units of the threshold 2 pi (m + n) / |Omega|; the first lies below
SWEEP_FACTORS = (0.9, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9)


def sweep_config(seed: int) -> dict:
    L = math.sqrt(SWEEP_AREA)
    pts = _rigid_torus_motion(random.Random(seed), SWEEP_PHI + SWEEP_KAPPA, L)
    _check_separation(pts, lambda p, q: _min_image_distance(p, q, L))
    n, m = len(SWEEP_PHI), len(SWEEP_KAPPA)
    lam_star = 2.0 * math.pi * (m + n) / SWEEP_AREA
    return {
        "mode": "torus", "model": "extended", "lambda": 1.0,
        "domain": {"Lx": L, "Ly": L}, "grid": {"nx": 96, "ny": 96},
        "phi_zeros": pts[:n], "kappa_zeros": pts[n:],
        "solver": {"tol": TOL},
        "sweep": {"param": "lambda", "values": [f * lam_star for f in SWEEP_FACTORS],
                  "action": "solve"},
        "output": {"report_path": "report.json", "plots_path": "sweep.csv"},
    }


def check_sweep(report: dict, exit_code: int) -> List[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}, expected 0")
    cfg = report["config"]
    rows = report.get("results", {}).get("rows", [])
    if len(rows) != len(cfg["sweep"]["values"]):
        return failures + [f"{len(rows)} sweep rows for {len(cfg['sweep']['values'])} values"]
    n, m = len(cfg["phi_zeros"]), len(cfg["kappa_zeros"])
    area = cfg["domain"]["Lx"] * cfg["domain"]["Ly"]
    for row in rows:
        lam_area = row["lambda"] * area
        expected = (lam_area > 2.0 * math.pi * (m + n)
                    and (m == 0 or lam_area > math.pi * (3 * m + n)))
        if row["solvable"] != expected:
            failures.append(f"row {row['index']}: solvable {row['solvable']}, expected {expected}")
        elif expected and not (row.get("converged")
                               and row["residual_sup"] <= RESIDUAL_SUP_TOL):
            failures.append(f"row {row['index']}: not converged to residual {RESIDUAL_SUP_TOL}")
    if all(row["solvable"] for row in rows):
        failures.append("no sub-threshold row reported unsolvable")
    return failures


def check_sweep_rows(report: dict) -> List[str]:
    """Flux and constraint gates for every solvable sweep row.

    The sweep report carries only a residual per row, so each solvable row is
    solved again through the library API and its diagnostics are checked.
    Runs outside every timed region.
    """
    import bpsvortex as bv

    failures = []
    cfg = report["config"]
    for row in report["results"]["rows"]:
        if not row["solvable"]:
            continue
        raw = dict(cfg, **{"lambda": row["lambda"]})
        raw.pop("sweep")
        rc = bv.validate_config(raw)
        grid, params, vcfg = rc.make_grid(), rc.make_params(), rc.make_vortex_config()
        bg = bv.build_background(vcfg, grid, params)
        sol = bv.solve(rc.mode, rc.model, vcfg, grid, params,
                       settings=bv.SolverSettings(tol_grad_sup=rc.solver["tol"]),
                       background=bg)
        if not sol.converged:
            failures.append(f"row {row['index']}: library re-solve did not converge")
            continue
        diag = bv.build_diagnostics(sol.state, rc.mode, rc.model, bg, vcfg, params,
                                    fit_decay=False).to_dict()
        row_failures: List[str] = []
        _check_flux(diag, vcfg.m, vcfg.n, row_failures, FLUX_REL_TOL)
        _check_constraints(diag, row_failures)
        failures += [f"row {row['index']}: {f}" for f in row_failures]
    return failures


WORKLOADS = {
    w.name: w for w in (
        Workload("torus-compare", "compare", compare_config, check_compare),
        Workload("plane-solve", "solve", plane_config, check_plane),
        Workload("torus-sweep", "sweep", sweep_config, check_sweep, check_sweep_rows),
    )
}
