"""Vortex configurations, existence thresholds and smooth background data.

The singular vortex sources are absorbed into background functions before any
solve.  On the plane the background is known in closed form:

    v0(x)   = sum_s ln( r_s^2 / (r_s^2 + tau) ),      r_s = |x - p_s|,
    e^{v0}  = prod_s r_s^2 / (r_s^2 + tau)            (exactly 0 at each p_s),
    h2(x)   = sum_s 4 tau / (tau + r_s^2)^2           (integral 4*pi per vortex).

On the torus each point source is regularized by the same bump profile,
periodized over the 5x5 nearest image cells and renormalized so that its cell
integral is exactly 4*pi; the background then solves the zero-mean Poisson
problem for (source - 4*pi*n/|Omega|) and is gauged to mean zero.  A second
background (u0, from the kappa zero set) enters the extended model and is
identically trivial when that set is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import PointOutsideDomain
from .grids import PlaneGrid, TorusGrid


@dataclass(frozen=True)
class PhysicalParams:
    """Coupling lambda and bump core scale tau.

    ``tau=None`` selects the per-domain default: ``(3*dx)^2`` on the torus
    (ties the regularized core width to the grid, so refinement sharpens the
    sources) and 0.2 on the plane.  The plane value matters because the
    smooth remainder of the log field carries an algebraic tail ~ tau/r^2
    that the homogeneous Dirichlet truncation cuts off; keeping tau small
    keeps that truncation mismatch below the exponentially small far fields.
    """

    lam: float
    tau: Optional[float] = None

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")
        if self.tau is not None and not self.tau > 0.0:
            raise ValueError("tau must be positive")

    def resolved_tau(self, grid) -> float:
        if self.tau is not None:
            return self.tau
        if isinstance(grid, TorusGrid):
            return (3.0 * grid.dx) ** 2
        return 0.2


@dataclass(frozen=True)
class VortexConfig:
    """Prescribed zero sets: phi_zeros (n points) and kappa_zeros (m points)."""

    phi_zeros: tuple = ()
    kappa_zeros: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "phi_zeros", tuple((float(p[0]), float(p[1])) for p in self.phi_zeros))
        object.__setattr__(self, "kappa_zeros", tuple((float(q[0]), float(q[1])) for q in self.kappa_zeros))

    @property
    def n(self) -> int:
        return len(self.phi_zeros)

    @property
    def m(self) -> int:
        return len(self.kappa_zeros)


@dataclass(frozen=True)
class ThresholdReport:
    """Solvability constants for the doubly periodic problem.

    Base model (m = 0):      c1 = |Omega| - 2 pi n / lambda,   c2 = (c1 + |Omega|)/2,
                             solvable iff 2 pi n < lambda |Omega|.
    Extended model:          alpha1 = |Omega| - 2 pi (m+n)/lambda,
                             alpha2 = (alpha1 + |Omega| - 4 pi m/lambda)/2,
                             solvable iff both are positive.

    ``margin`` is the smallest slack among the required strict inequalities
    (in the same units as the constants, so margin = 0 exactly on the line).
    """

    model: str
    solvable: bool
    margin: float
    c1: Optional[float] = None
    c2: Optional[float] = None
    alpha1: Optional[float] = None
    alpha2: Optional[float] = None

    @property
    def constraints(self) -> Tuple[float, float]:
        """Targets of ``(int e^v, int e^u)``: ``(c1, c2)`` or ``(alpha1, alpha2)``."""
        return (self.c1, self.c2) if self.model == "base" else (self.alpha1, self.alpha2)


def check_existence(cfg: VortexConfig, domain: TorusGrid, params: PhysicalParams,
                    model: Optional[str] = None) -> ThresholdReport:
    """Evaluate the torus existence thresholds; ``model=None`` picks it by ``cfg.m``.

    Raises ``ValueError`` for ``model="base"`` with a nonempty kappa zero set;
    a configuration below the threshold is reported, not raised.

    The strict inequalities are evaluated in the multiplicative form
    (e.g. ``2 pi n < lambda |Omega|``) and the reported constants are divided
    through by lambda afterwards, so the boolean and the sign of the margin
    agree bit-for-bit even exactly on the threshold line.
    """
    lam = params.lam
    area = domain.area
    n, m = cfg.n, cfg.m
    if model is None:
        model = "extended" if m > 0 else "base"
    if model == "base":
        if m != 0:
            raise ValueError("base model requires an empty kappa zero set")
        c1 = (lam * area - 2.0 * math.pi * n) / lam
        c2 = 0.5 * (c1 + area)
        solvable = 2.0 * math.pi * n < lam * area
        return ThresholdReport(model="base", solvable=solvable, margin=c1, c1=c1, c2=c2)
    alpha1 = (lam * area - 2.0 * math.pi * (m + n)) / lam
    alpha2 = (lam * area - math.pi * (3 * m + n)) / lam
    solvable = (2.0 * math.pi * (m + n) < lam * area) and (math.pi * (3 * m + n) < lam * area)
    return ThresholdReport(model="extended", solvable=solvable,
                           margin=min(alpha1, alpha2), alpha1=alpha1, alpha2=alpha2)


@dataclass
class Background:
    """Smooth background data for one configuration on one grid.

    ``exp_u0``/``u0`` come from the kappa zero set and are trivial
    (ones/zeros) in the base model.  With the background split off, the
    smooth remainder ``(s0, s1)`` of the fields solves the same reduced
    system on both grids,

        lap s0 = lam (2 e^u - e^v - 1) + src_u,
        lap s1 = 2 lam (e^v - 1) + src_f,

    and only the remainder sources ``(src_u, src_f)`` depend on the domain.
    On the torus the background potentials absorb the point sources less
    their means, which leaves the constants 4 pi m/|Omega| and
    4 pi (m+n)/|Omega|; on the plane they are the kappa source density h1
    and h1 + h2, with h2 the phi source density.
    """

    grid: object
    cfg: VortexConfig
    exp_v0: np.ndarray
    v0: np.ndarray
    exp_u0: np.ndarray
    u0: np.ndarray
    src_u: object  # float on the torus, array on the plane
    src_f: object


def _bump_sum(x, y, cx, cy, tau):
    # sum over centres (cx, cy) of 4*tau / (tau + r^2)^2; centres include
    # periodic images when the caller periodizes.
    acc = np.zeros((x.size, y.size))
    X = x[:, None]
    Y = y[None, :]
    for k in range(cx.size):
        r2 = (X - cx[k]) ** 2 + (Y - cy[k]) ** 2
        acc += 4.0 * tau / (tau + r2) ** 2
    return acc


def _log_factors(x, y, cx, cy, tau):
    # product of r^2/(r^2+tau) over centres plus the clamped log of the same
    # product; the product form is exact (0.0) at nodes coinciding with a centre.
    X = x[:, None]
    Y = y[None, :]
    prod = np.ones((x.size, y.size))
    logsum = np.zeros((x.size, y.size))
    for k in range(cx.size):
        r2 = (X - cx[k]) ** 2 + (Y - cy[k]) ** 2
        fac = r2 / (r2 + tau)
        prod *= fac
        logsum += np.where(fac > 0.0, np.log(np.maximum(fac, 1e-320)), -750.0)
    return prod, np.maximum(logsum, -700.0)


def _check_points_plane(points, grid: PlaneGrid):
    for i, (px, py) in enumerate(points):
        if not (-grid.R < px < grid.R and -grid.R < py < grid.R):
            raise PointOutsideDomain(f"point {i} at ({px}, {py}) outside (-R, R)^2")


def _check_points_torus(points, grid: TorusGrid):
    for i, (px, py) in enumerate(points):
        if not (0.0 <= px < grid.Lx and 0.0 <= py < grid.Ly):
            raise PointOutsideDomain(f"point {i} at ({px}, {py}) outside [0,Lx)x[0,Ly)")


def build_background_plane(cfg: VortexConfig, grid: PlaneGrid, params: PhysicalParams) -> Background:
    """Closed-form plane background for both zero sets."""
    _check_points_plane(cfg.phi_zeros, grid)
    _check_points_plane(cfg.kappa_zeros, grid)
    tau = params.resolved_tau(grid)
    x, y = grid.axes()

    def one_set(points):
        if not points:
            ones = np.ones(grid.shape)
            zeros = np.zeros(grid.shape)
            return ones, zeros, zeros.copy()
        cx = np.array([p[0] for p in points])
        cy = np.array([p[1] for p in points])
        prod, logsum = _log_factors(x, y, cx, cy, tau)
        dens = _bump_sum(x, y, cx, cy, tau)
        return prod, logsum, dens

    exp_v0, v0, h2 = one_set(cfg.phi_zeros)
    exp_u0, u0, h1 = one_set(cfg.kappa_zeros)
    return Background(grid=grid, cfg=cfg, exp_v0=exp_v0, v0=v0, exp_u0=exp_u0, u0=u0,
                      src_u=h1, src_f=h1 + h2)


def _periodized_source(points, grid: TorusGrid, tau: float) -> np.ndarray:
    """Sum of periodized bumps, each normalized to cell integral 4*pi exactly.

    The 5x5 image sum is taken around the minimum-image displacement, so the
    neglected tail is uniform in the vortex position and whole-node shifts of
    a configuration permute the source nodes exactly (translation
    equivariance of everything downstream).
    """
    x, y = grid.axes()
    shifts = np.arange(-2, 3)
    cx = (-shifts * grid.Lx).repeat(shifts.size)
    cy = np.tile(-shifts * grid.Ly, shifts.size)
    total = np.zeros(grid.shape)
    for (px, py) in points:
        dxw = x - px
        dxw -= grid.Lx * np.round(dxw / grid.Lx)
        dyw = y - py
        dyw -= grid.Ly * np.round(dyw / grid.Ly)
        bump = _bump_sum(dxw, dyw, cx, cy, tau)
        total += bump * (4.0 * math.pi / grid.integrate(bump))
    return total


def build_background_torus(cfg: VortexConfig, grid: TorusGrid, params: PhysicalParams) -> Background:
    """Torus background via regularized sources and zero-mean Poisson solves."""
    _check_points_torus(cfg.phi_zeros, grid)
    _check_points_torus(cfg.kappa_zeros, grid)
    tau = params.resolved_tau(grid)

    def one_set(points):
        if not points:
            return np.ones(grid.shape), np.zeros(grid.shape)
        rhs = _periodized_source(points, grid, tau)
        rhs -= 4.0 * math.pi * len(points) / grid.area
        rhs -= rhs.mean()  # kill quadrature roundoff in the mean
        pot = grid.poisson_solve_zero_mean(rhs, out=rhs)
        return np.exp(pot), pot

    exp_v0, v0 = one_set(cfg.phi_zeros)
    exp_u0, u0 = one_set(cfg.kappa_zeros)
    m, n, area = cfg.m, cfg.n, grid.area
    return Background(grid=grid, cfg=cfg, exp_v0=exp_v0, v0=v0, exp_u0=exp_u0, u0=u0,
                      src_u=4.0 * math.pi * m / area, src_f=4.0 * math.pi * (m + n) / area)


def build_background(cfg: VortexConfig, grid, params: PhysicalParams) -> Background:
    if isinstance(grid, TorusGrid):
        return build_background_torus(cfg, grid, params)
    return build_background_plane(cfg, grid, params)
