"""Executable checks on computed solutions and physical field reconstruction.

Everything here consumes converged states uniformly through the two weighted
exponentials ``e^u = e^{u0} e^{s0}`` and ``e^v = e^{v0} e^{s1 - s0}`` and the
background's remainder sources, which cover base and extended variants on
both domains.  Fluxes are integrals of the algebraic right-hand sides (never
of numerical second derivatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .backgrounds import (Background, PhysicalParams, VortexConfig,
                          build_background, check_existence)
from .energy import _exp_pair
from .errors import AnnulusTooThin
from .grids import PlaneGrid, TorusGrid, random_smooth_field
from .newton import SolverSettings, solve

# allowed excess over the maximum-principle bounds: the continuum solution
# obeys them exactly, the discrete one may overshoot 1 by a discretization
# error that does not grow under refinement
BOUND_TOLERANCE = 0.05
# fewer radial bins (of about two cells each) leave the log-linear decay
# fit to a handful of noisy points
DECAY_MIN_BINS = 8
# bins whose angular average is below this fraction of the peak are
# roundoff, not decay, and are left out of the fit
DECAY_FLOOR_REL = 1e-10
# sup norm of each random initial field of the uniqueness probe: an O(1)
# start away from the solution, small enough to stay far from overflow
PROBE_AMPLITUDE = 0.5


def pde_residual(state, bg: Background, params: PhysicalParams):
    """(l2, sup) residual of each governing equation over the grid's interior.

    The reduced system is restated here from the background's sources,
    independently of the energy gradient that it checks.
    """
    lam = params.lam
    grid = bg.grid
    eU, eV = _exp_pair(state, bg)
    r1 = grid.interior(grid.laplacian(state[0]) - lam * (2.0 * eU - eV - 1.0) - bg.src_u)
    r2 = grid.interior(grid.laplacian(state[1]) - 2.0 * lam * (eV - 1.0) - bg.src_f)
    return tuple((math.sqrt(grid.inner(r, r)), float(np.max(np.abs(r)))) for r in (r1, r2))


def _curvatures(state, bg: Background, lam: float):
    # curvature densities (a12, b12) from the algebraic right-hand sides
    eU, eV = _exp_pair(state, bg)
    return -(lam / 2.0) * (2.0 * eU - eV - 1.0), -lam * (eV - 1.0)


def flux_report(state, bg: Background, params: PhysicalParams) -> Tuple[float, float]:
    """Total fluxes of the two gauge fields from the algebraic curvature densities."""
    a12, b12 = _curvatures(state, bg, params.lam)
    return bg.grid.integrate(a12), bg.grid.integrate(b12)


@dataclass(frozen=True)
class BoundReport:
    max_exp_u_excess: float  # max(e^u) - 1
    max_exp_v_excess: float  # max(e^v) - 1
    intermediate_excess: float  # max(2 e^u) - (max(e^v) + 1)
    ok: bool  # every excess is at most BOUND_TOLERANCE


def pointwise_bounds(state, bg: Background) -> BoundReport:
    """Maximum-principle bounds e^u <= 1, e^v <= 1 (and 2 e^u <= max e^v + 1)."""
    eU, eV = _exp_pair(state, bg)
    exc_u = float(eU.max()) - 1.0
    exc_v = float(eV.max()) - 1.0
    inter = float((2.0 * eU).max()) - (float(eV.max()) + 1.0)
    ok = exc_u <= BOUND_TOLERANCE and exc_v <= BOUND_TOLERANCE and inter <= BOUND_TOLERANCE
    return BoundReport(exc_u, exc_v, inter, ok)


def verify_lagrange_multipliers(state, bg: Background,
                                params: PhysicalParams) -> Tuple[float, float]:
    """Least-squares fit of the two constraint multipliers on a torus solution.

    With ``(s0, s1)`` the state, the constrained first-order conditions read

        lap s0 = -lam - l1 * e^v + l2 * e^u + src_u
        lap s1 = -2 lam + 2 l1 * e^v + src_f

    with the weighted exponentials e^u = e^{u0 + s0}, e^v = e^{v0 + s1 - s0}
    and the background's sources (4 pi m / |Omega| and 4 pi (m + n) / |Omega|),
    in both torus models; the analytic values are l1 = lam, l2 = 2 lam.
    """
    lam = params.lam
    grid: TorusGrid = bg.grid
    eU, eV = _exp_pair(state, bg)
    a = grid.laplacian(state[0]) + lam - bg.src_u
    b = grid.laplacian(state[1]) + 2.0 * lam - bg.src_f
    ip = grid.inner
    mat = np.array([
        [5.0 * ip(eV, eV), -ip(eV, eU)],
        [-ip(eU, eV), ip(eU, eU)],
    ])
    rhs = np.array([-ip(eV, a) + 2.0 * ip(eV, b), ip(eU, a)])
    l1, l2 = np.linalg.solve(mat, rhs)
    return float(l1), float(l2)


@dataclass(frozen=True)
class RadialProfile:
    r: np.ndarray
    mean_fields_sq: np.ndarray  # angular average of u^2 + v^2
    mean_grads_sq: np.ndarray  # angular average of |grad u|^2 + |grad v|^2


def radial_profile(state, bg: Background, r_min: float, r_max: float,
                   nbins: int) -> RadialProfile:
    """Angular averages of the squared fields and gradients over radial bins."""
    grid: PlaneGrid = bg.grid
    u = bg.u0 + state[0]
    v = bg.v0 + state[1] - state[0]
    X, Y = grid.nodes()
    r = np.sqrt(X ** 2 + Y ** 2)
    ux, uy = np.gradient(u, grid.h)
    vx, vy = np.gradient(v, grid.h)
    f2 = (u ** 2 + v ** 2).ravel()
    g2 = (ux ** 2 + uy ** 2 + vx ** 2 + vy ** 2).ravel()
    edges = np.linspace(r_min, r_max, nbins + 1)
    rf = r.ravel()
    sums_f, _ = np.histogram(rf, bins=edges, weights=f2)
    sums_g, _ = np.histogram(rf, bins=edges, weights=g2)
    counts, _ = np.histogram(rf, bins=edges)
    keep = counts > 0
    centers = 0.5 * (edges[:-1] + edges[1:])[keep]
    return RadialProfile(centers, sums_f[keep] / counts[keep], sums_g[keep] / counts[keep])


def _log_linear_rate(r, y):
    # Beyond the profile minimum, Dirichlet truncation error (which grows
    # toward the boundary) dominates the exponentially small true fields,
    # so the fit stops there; a relative floor drops discretization noise.
    stop = int(np.argmin(y)) + 1
    if stop < DECAY_MIN_BINS:
        stop = y.size
    r, y = r[:stop], y[:stop]
    keep = y > DECAY_FLOOR_REL * float(y.max())
    if int(keep.sum()) < DECAY_MIN_BINS:
        raise AnnulusTooThin(f"only {int(keep.sum())} usable radial bins "
                             f"(need {DECAY_MIN_BINS})")
    slope = np.polyfit(r[keep], np.log(y[keep]), 1)[0]
    return -float(slope)


def decay_annulus(grid: PlaneGrid, cfg: VortexConfig,
                  params: PhysicalParams) -> Tuple[float, float]:
    """``(r_min, r_max)`` of the decay fit: from three core lengths
    1/sqrt(lam) beyond the outermost vortex to 0.8 R, inside the truncation
    boundary."""
    pts = list(cfg.phi_zeros) + list(cfg.kappa_zeros)
    r_v = max((math.hypot(px, py) for (px, py) in pts), default=0.0)
    return r_v + 3.0 / math.sqrt(params.lam), 0.8 * grid.R


def annulus_bins(grid: PlaneGrid, r_min: float, r_max: float) -> int:
    """Number of radial bins of about two grid cells each in [r_min, r_max]."""
    return int((r_max - r_min) / (2.0 * grid.h))


def decay_fit(state, bg: Background, cfg: VortexConfig, params: PhysicalParams):
    """Fitted radial decay rates of ln(u^2+v^2) and ln(|grad u|^2+|grad v|^2).

    The fit runs over the :func:`decay_annulus`; bins whose angular average
    falls below ``DECAY_FLOOR_REL`` of the peak are dropped (discretization
    noise floor).
    """
    grid: PlaneGrid = bg.grid
    r_min, r_max = decay_annulus(grid, cfg, params)
    if r_max <= r_min:
        raise AnnulusTooThin(f"empty annulus [{r_min:.3g}, {r_max:.3g}]")
    nbins = annulus_bins(grid, r_min, r_max)
    if nbins < DECAY_MIN_BINS:
        raise AnnulusTooThin(f"annulus supports only {nbins} radial bins "
                             f"(need {DECAY_MIN_BINS})")
    prof = radial_profile(state, bg, r_min, r_max, nbins)
    if prof.r.size < DECAY_MIN_BINS:
        raise AnnulusTooThin(f"only {prof.r.size} radial bins (need {DECAY_MIN_BINS})")
    rate_fields = _log_linear_rate(prof.r, prof.mean_fields_sq)
    rate_grads = _log_linear_rate(prof.r, prof.mean_grads_sq)
    return rate_fields, rate_grads, (r_min, r_max)


@dataclass
class PhysicalFields:
    kappa: np.ndarray
    phi_abs: np.ndarray
    a12: np.ndarray
    b12: np.ndarray


def reconstruct_physical(state, bg: Background, params: PhysicalParams) -> PhysicalFields:
    """Physical fields from a converged state.

    ``phi_abs`` carries the closed-form background factor, so it vanishes
    exactly at plane vortex points; the curvature densities come from the
    algebraic right-hand sides.
    """
    kappa = np.sqrt(bg.exp_u0) * np.exp(0.5 * state[0])
    phi_abs = np.sqrt(bg.exp_v0) * np.exp(0.5 * (state[1] - state[0]))
    return PhysicalFields(kappa, phi_abs, *_curvatures(state, bg, params.lam))


def uniqueness_probe(mode: str, model: str, cfg: VortexConfig, grid,
                     params: PhysicalParams, seeds: int,
                     settings: Optional[SolverSettings] = None) -> float:
    """Largest pairwise sup-distance between solves from random states (seeds 0, 1, ...)."""
    bg = build_background(cfg, grid, params)
    states = []
    for k in range(seeds):
        rng = np.random.default_rng(k)
        init = np.stack([random_smooth_field(grid, rng, PROBE_AMPLITUDE),
                         random_smooth_field(grid, rng, PROBE_AMPLITUDE)])
        sol = solve(mode, model, cfg, grid, params, settings=settings,
                    init=init, background=bg)
        if not sol.converged:
            raise RuntimeError(f"probe solve {k} failed: {sol.message}")
        states.append(sol.state)
    spread = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            spread = max(spread, float(np.max(np.abs(states[i] - states[j]))))
    return spread


@dataclass
class DiagnosticsReport:
    residual_l2: Tuple[float, float]
    residual_sup: Tuple[float, float]
    constraint_errors: Optional[Tuple[float, float]] = None
    flux_a: float = 0.0
    flux_b: float = 0.0
    bound_violation: Optional[Dict[str, float]] = None
    lagrange: Optional[Tuple[float, float]] = None
    decay: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict:
        out = {
            "residual_l2": list(self.residual_l2),
            "residual_sup": list(self.residual_sup),
            "flux_a": self.flux_a,
            "flux_b": self.flux_b,
        }
        if self.constraint_errors is not None:
            out["constraint_errors"] = list(self.constraint_errors)
        if self.bound_violation is not None:
            out["bound_violation"] = self.bound_violation
        if self.lagrange is not None:
            out["lagrange"] = list(self.lagrange)
        if self.decay is not None:
            out["decay"] = self.decay
        return out


def build_diagnostics(state, mode: str, model: str, bg: Background,
                      cfg: VortexConfig, params: PhysicalParams,
                      fit_decay: bool = True) -> DiagnosticsReport:
    """Aggregate every check applicable to the given variant."""
    (l2_1, sup_1), (l2_2, sup_2) = pde_residual(state, bg, params)
    fa, fb = flux_report(state, bg, params)
    report = DiagnosticsReport(residual_l2=(l2_1, l2_2), residual_sup=(sup_1, sup_2),
                               flux_a=fa, flux_b=fb)
    grid = bg.grid
    if mode == "torus":
        targets = check_existence(cfg, grid, params, model=model).constraints
        eU, eV = _exp_pair(state, bg)
        report.constraint_errors = tuple(abs(grid.integrate(e) - c) / abs(c)
                                         for e, c in zip((eV, eU), targets))
        bounds = pointwise_bounds(state, bg)
        report.bound_violation = {
            "max_exp_u_excess": bounds.max_exp_u_excess,
            "max_exp_v_excess": bounds.max_exp_v_excess,
            "intermediate_excess": bounds.intermediate_excess,
        }
        report.lagrange = verify_lagrange_multipliers(state, bg, params)
    elif fit_decay and (cfg.n + cfg.m) > 0:
        try:
            rate_f, rate_g, window = decay_fit(state, bg, cfg, params)
            report.decay = {"rate_fields": rate_f, "rate_gradients": rate_g,
                            "r_min": window[0], "r_max": window[1]}
        except AnnulusTooThin:
            report.decay = None
    return report
