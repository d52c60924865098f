"""Executable checks on computed solutions and physical field reconstruction.

:func:`build_diagnostics` is the one entry point of the equation checks
(residual, fluxes, constraints, bounds, multipliers and decay).  They
consume states uniformly through the two weighted exponentials
``e^u = e^{u0} e^{s0}`` and ``e^v = e^{v0} e^{s1 - s0}`` and the
background's source densities, which cover base and extended variants on
both domains.  Every check reads its problem (grid, zero sets and sources)
from the :class:`Background`; ``build_diagnostics`` keeps the run's labels
only to check them against it.  Fluxes are integrals of the algebraic
right-hand sides (never of numerical second derivatives); within one report
the checks share one Laplacian per state slice and one evaluation of the
weighted exponentials.  A Newton solution comes with those Laplacians, and
then the report makes no transform.  A plane run has one radial window,
:func:`profile_window`, and one radial profile over it: the decay fit runs
over it and the report keeps it for the plot data, also when the annulus is
too thin (or empty) for a fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .backgrounds import (Background, PhysicalParams, VortexConfig,
                          check_existence, check_labels)
from .energy import _exp_pair
from .errors import AnnulusTooThin
from .grids import PlaneGrid, TorusGrid

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


def _pde_residual(laps, exps, bg: Background, params: PhysicalParams):
    # (l2, sup) residual of each governing equation over the grid's
    # interior, from the Laplacians of both state slices and the weighted
    # exponentials (e^u, e^v): the reduced system restated from the
    # background's sources, independently of the energy gradient it checks
    lam = params.lam
    grid = bg.grid
    eU, eV = exps
    r1 = grid.interior(laps[0] - lam * (2.0 * eU - eV - 1.0) - bg.src_u)
    r2 = grid.interior(laps[1] - 2.0 * lam * (eV - 1.0) - bg.src_f)
    return tuple((math.sqrt(grid.inner(r, r)), float(np.max(np.abs(r)))) for r in (r1, r2))


def _curvatures(exps, lam: float):
    # curvature densities (a12, b12) from the algebraic right-hand sides
    eU, eV = exps
    return -(lam / 2.0) * (2.0 * eU - eV - 1.0), -lam * (eV - 1.0)


def _fluxes(exps, grid, lam: float) -> Tuple[float, float]:
    # total fluxes of the two gauge fields from the algebraic curvatures
    a12, b12 = _curvatures(exps, lam)
    return grid.integrate(a12), grid.integrate(b12)


def _bounds(exps) -> Dict[str, float]:
    # maximum-principle bounds e^u <= 1, e^v <= 1 and 2 e^u <= max e^v + 1:
    # each excess, and ok when every excess is at most BOUND_TOLERANCE
    eU, eV = exps
    exc_u = float(eU.max()) - 1.0
    exc_v = float(eV.max()) - 1.0
    inter = float((2.0 * eU).max()) - (float(eV.max()) + 1.0)
    ok = exc_u <= BOUND_TOLERANCE and exc_v <= BOUND_TOLERANCE and inter <= BOUND_TOLERANCE
    return {"max_exp_u_excess": exc_u, "max_exp_v_excess": exc_v,
            "intermediate_excess": inter, "ok": ok}


def _lagrange_fit(laps, exps, bg: Background, params: PhysicalParams):
    # least-squares fit of the two constraint multipliers on a torus
    # solution, whose constrained first-order conditions read
    #     lap s0 = -lam - l1 e^v + l2 e^u + src_u,
    #     lap s1 = -2 lam + 2 l1 e^v + src_f
    # in both torus models; the analytic values are l1 = lam, l2 = 2 lam
    lam = params.lam
    grid: TorusGrid = bg.grid
    eU, eV = exps
    a = laps[0] + lam - bg.src_u
    b = laps[1] + 2.0 * lam - bg.src_f
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
    window: Tuple[float, float, int]  # (r_min, r_max, nbins) of the bins


def radial_profile(state, bg: Background, r_min: float, r_max: float,
                   nbins: int) -> RadialProfile:
    """Angular averages of the squared fields and gradients over radial bins.

    ``nbins`` uniform bins span [r_min, r_max]; bins without a node are left
    out, and no bins (an empty annulus) give an empty profile.
    """
    if nbins == 0:
        empty = np.empty(0)
        return RadialProfile(empty, empty, empty, (r_min, r_max, nbins))
    grid: PlaneGrid = bg.grid
    x, y = grid.axes()
    r = np.sqrt(x[:, None] ** 2 + y[None, :] ** 2)
    # u^2 + v^2 and ((u_x^2 + u_y^2) + v_x^2) + v_y^2, accumulated one field
    # and one gradient at a time
    u = bg.u0 + state[0]
    g2 = np.zeros(grid.shape)
    for d in np.gradient(u, grid.h):
        g2 += np.square(d, out=d)
    f2 = np.square(u, out=u)
    v = bg.v0 + state[1] - state[0]
    for d in np.gradient(v, grid.h):
        g2 += np.square(d, out=d)
    f2 += np.square(v, out=v)
    del u, v, d
    f2, g2 = f2.ravel(), g2.ravel()
    # uniform bins: numpy sums each bin by itself (a bincount).  Given an
    # edges array it takes differences of one cumulative sum over all nodes
    # sorted by r instead, which wipes out the small far-field bins
    window = dict(bins=nbins, range=(r_min, r_max))
    rf = r.ravel()
    sums_f, edges = np.histogram(rf, weights=f2, **window)
    sums_g, _ = np.histogram(rf, weights=g2, **window)
    counts, _ = np.histogram(rf, **window)
    keep = counts > 0
    centers = 0.5 * (edges[:-1] + edges[1:])[keep]
    return RadialProfile(centers, sums_f[keep] / counts[keep], sums_g[keep] / counts[keep],
                         (r_min, r_max, nbins))


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


def profile_window(bg: Background, params: PhysicalParams) -> Tuple[float, float, int]:
    """``(r_min, r_max, nbins)`` of a plane run's radial profile.

    The annulus runs from three core lengths 1/sqrt(lam) beyond the
    outermost vortex (beyond the origin without vortices) to 0.8 R, inside
    the truncation boundary, in bins of about two grid cells each; an empty
    annulus has no bins.
    """
    pts = bg.cfg.phi_zeros + bg.cfg.kappa_zeros
    r_v = max((math.hypot(px, py) for (px, py) in pts), default=0.0)
    r_min, r_max = r_v + 3.0 / math.sqrt(params.lam), 0.8 * bg.grid.R
    return r_min, r_max, max(0, int((r_max - r_min) / (2.0 * bg.grid.h)))


def decay_fit(state, bg: Background, params: PhysicalParams,
              profile: Optional[RadialProfile] = None):
    """Fitted radial decay rates of ln(u^2+v^2) and ln(|grad u|^2+|grad v|^2).

    The fit runs over the :func:`radial_profile` of the
    :func:`profile_window`, which the caller may pass as ``profile``; bins
    whose angular average falls below ``DECAY_FLOOR_REL`` of the peak are
    dropped (discretization noise floor).  Raises :class:`AnnulusTooThin`
    when fewer than ``DECAY_MIN_BINS`` bins hold nodes or are usable.
    """
    prof = profile if profile is not None else radial_profile(
        state, bg, *profile_window(bg, params))
    if prof.r.size < DECAY_MIN_BINS:
        raise AnnulusTooThin(f"only {prof.r.size} radial bins (need {DECAY_MIN_BINS})")
    rate_fields = _log_linear_rate(prof.r, prof.mean_fields_sq)
    rate_grads = _log_linear_rate(prof.r, prof.mean_grads_sq)
    return rate_fields, rate_grads, prof.window[:2]


@dataclass
class PhysicalFields:
    kappa: np.ndarray
    phi_abs: np.ndarray
    a12: np.ndarray
    b12: np.ndarray


def reconstruct_physical(state, bg: Background, params: PhysicalParams) -> PhysicalFields:
    """Physical fields from a converged state.

    ``phi_abs`` carries the closed-form background factor, so it vanishes
    exactly at vortex points on a node, on both grids; the curvature
    densities come from the algebraic right-hand sides.
    """
    kappa = np.sqrt(bg.exp_u0) * np.exp(0.5 * state[0])
    phi_abs = np.sqrt(bg.exp_v0) * np.exp(0.5 * (state[1] - state[0]))
    return PhysicalFields(kappa, phi_abs, *_curvatures(_exp_pair(state, bg), params.lam))


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
    # the decay fit's radial profile, for the plot data; not reported
    profile: Optional[RadialProfile] = None

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
                      fit_decay: bool = True,
                      laplacians: Optional[np.ndarray] = None) -> DiagnosticsReport:
    """Aggregate every check that applies to the problem of ``bg``.

    ``mode``, ``model`` and ``cfg`` are checked by :func:`check_labels`
    (``ValueError`` when they disagree with ``bg``) and otherwise unused.
    ``laplacians`` are the stacked Laplacians of the state's slices when the
    solver has them (:attr:`~bpsvortex.newton.Solution.laplacians`): the
    report then makes no transform.  Else it takes them from the rounded
    node values of ``state``, whose roundoff they amplify by up to K_max
    (about 2 (pi/h)^2): the residual then has a floor of about
    K_max 1e-16 |s|.  A plane decay fit keeps the radial
    profile it ran over in ``report.profile``, also when the annulus is too
    thin for a fit (``report.decay`` is then ``None``).
    """
    check_labels(mode, model, cfg, bg.grid, bg)
    report = _equation_checks(state, bg, params, laplacians)
    if isinstance(bg.grid, PlaneGrid) and fit_decay and (bg.cfg.n + bg.cfg.m) > 0:
        report.profile = radial_profile(state, bg, *profile_window(bg, params))
        try:
            rate_f, rate_g, window = decay_fit(state, bg, params, report.profile)
            report.decay = {"rate_fields": rate_f, "rate_gradients": rate_g,
                            "r_min": window[0], "r_max": window[1]}
        except AnnulusTooThin:
            pass
    return report


def _equation_checks(state, bg: Background, params: PhysicalParams,
                     laps=None) -> DiagnosticsReport:
    # every check that reads the Laplacians or the weighted exponentials,
    # each computed once here (the Laplacians unless given) and released
    # before the decay fit
    grid = bg.grid
    if laps is None:
        laps = grid.laplacian(state[0]), grid.laplacian(state[1])
    exps = _exp_pair(state, bg)
    (l2_1, sup_1), (l2_2, sup_2) = _pde_residual(laps, exps, bg, params)
    fa, fb = _fluxes(exps, grid, params.lam)
    report = DiagnosticsReport(residual_l2=(l2_1, l2_2), residual_sup=(sup_1, sup_2),
                               flux_a=fa, flux_b=fb, bound_violation=_bounds(exps))
    if isinstance(grid, TorusGrid):
        targets = check_existence(bg.cfg, grid, params).constraints
        eU, eV = exps
        report.constraint_errors = tuple(abs(grid.integrate(e) - c) / abs(c)
                                         for e, c in zip((eV, eU), targets))
        report.lagrange = _lagrange_fit(laps, exps, bg, params)
    return report
