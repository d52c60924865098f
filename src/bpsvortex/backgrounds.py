"""Vortex configurations, existence thresholds and smooth background data.

The singular vortex sources are absorbed into background functions before any
solve.  Both grids use one localized profile per vortex p_s: with
s = r_s^2 / tau,

    v0(x)   = sum_s ln(1 - e^{-s}),
    e^{v0}  = prod_s (1 - e^{-s})                     (exactly 0 at each p_s),
    h2(x)   = sum_s (4/tau) (s - 1 + e^{-s}) e^{-s} / (1 - e^{-s})^2,

so that lap v0 = 4 pi sum_s delta_{p_s} - h2, with h2 smooth, positive, of
integral 4 pi per vortex and decaying like s e^{-s}.  r_s is the free-space
distance on the plane and the minimum-image distance on the torus, so no
image sum and no Poisson solve enter.  The core scale tau only splits the
singular part from the smooth remainder: the solution does not depend on it
beyond discretization error, so the domain fixes it (:func:`core_scale`).
On the torus it is min(Lx, Ly)^2/144, so that the minimum image cuts each
profile at s >= 36, below roundoff.  A second background (u0, from
the kappa zero set) enters the extended model and is trivial when that set
is empty.

The zero sets pick the model: an empty kappa zero set is the base model, in
the backgrounds, in the one threshold formula of :func:`check_existence`
(whose :class:`ThresholdReport` carries one pair of constraint targets) and
in everything that reads a :class:`Background`.  The labels ``mode`` and
``model`` of a run are only checked against the grid and the zero sets, by
:func:`check_labels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import PointOutsideDomain, UnresolvedCore
from .grids import TorusGrid

# below this s = r^2/tau the closed form of h2 cancels, and its series
# (4/tau)(1/2 - s/6 + s^3/180) is exact to roundoff
SERIES_S = 1e-3
# beyond this s a profile adds exactly nothing in float64: from s = 37.5 on,
# e^{-s} < 2^-54, so f = 1 - e^{-s} rounds to 1.0, ln f to 0.0 and h2 to 0.0
# (its factor e^{-s} is computed as 1 - f)
CUTOFF_S = 40.0


@dataclass(frozen=True)
class PhysicalParams:
    """The coupling lambda, the one physical parameter of the system."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")


def core_scale(grid) -> float:
    """The core scale tau of ``grid``'s background profile, fixed by its domain.

    tau splits each point source into the singular profile and a smooth
    remainder; the solution does not depend on it beyond discretization
    error.  On the torus it is min(Lx, Ly)^2/144, the largest tau whose
    profile the minimum image cuts at s = L^2/(4 tau) >= 36; on the plane
    it is 0.2.  Neither depends on the resolution, so every level of a
    coarse-to-fine solve shares one background split, and a grid resolves
    the core when it spaces its nodes at most sqrt(tau)/3 apart
    (``coarsest``).
    """
    if isinstance(grid, TorusGrid):
        return min(grid.Lx, grid.Ly) ** 2 / 144.0
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

    With n phi zeros and m kappa zeros the constraint targets of
    ``(int e^v, int e^u)`` are

        alpha1 = |Omega| - 2 pi (m+n)/lambda,   alpha2 = |Omega| - pi (3m+n)/lambda,

    and the problem is solvable iff both are positive.  An empty kappa zero
    set is the base model: the targets are C1 = |Omega| - 2 pi n/lambda and
    C2 = (C1 + |Omega|)/2, and the threshold is 2 pi n < lambda |Omega|.

    ``margin`` is the smaller target, the smallest slack among the required
    strict inequalities (margin = 0 exactly on the line).
    """

    solvable: bool
    constraints: Tuple[float, float]

    @property
    def margin(self) -> float:
        return min(self.constraints)


def check_existence(cfg: VortexConfig, domain: TorusGrid,
                    params: PhysicalParams) -> ThresholdReport:
    """Evaluate the torus existence thresholds of ``cfg``'s zero sets.

    A configuration below the threshold is reported, not raised.  The strict
    inequalities are evaluated in the multiplicative form (e.g.
    ``2 pi (m+n) < lambda |Omega|``) and the reported constants are divided
    through by lambda afterwards, so the boolean and the sign of the margin
    agree bit-for-bit even exactly on the threshold line.
    """
    lam_area = params.lam * domain.area
    n, m = cfg.n, cfg.m
    alpha1 = (lam_area - 2.0 * math.pi * (m + n)) / params.lam
    alpha2 = (lam_area - math.pi * (3 * m + n)) / params.lam
    solvable = (2.0 * math.pi * (m + n) < lam_area) and (math.pi * (3 * m + n) < lam_area)
    return ThresholdReport(solvable=solvable, constraints=(alpha1, alpha2))


def check_labels(mode: str, model: str, cfg: VortexConfig, grid, bg=None) -> None:
    """Raise ``ValueError`` unless the labels ``mode``, ``model`` fit ``grid``, ``cfg``.

    ``mode`` names the grid's kind and ``model`` must be ``"extended"`` when
    ``cfg`` has kappa zeros; ``"extended"`` with an empty kappa zero set is
    the base model.  A given background must have been built for ``cfg`` on
    ``grid``.  Nothing is computed from the labels: the problem is the
    background's.
    """
    if mode != ("torus" if isinstance(grid, TorusGrid) else "plane"):
        raise ValueError(f"mode {mode!r} does not match the {type(grid).__name__}")
    if model not in ("base", "extended"):
        raise ValueError(f"unknown model {model!r}")
    if model == "base" and cfg.m != 0:
        raise ValueError("base model requires an empty kappa zero set")
    if bg is not None and (bg.cfg != cfg or bg.grid != grid):
        raise ValueError("background was built for another configuration or grid")


@dataclass(frozen=True)
class Background:
    """Smooth background data for one configuration on one grid; frozen, like the grid.

    ``exp_u0``/``u0`` come from the kappa zero set and ``exp_v0``/``v0``
    from the phi zero set; an empty zero set gives the scalars 1.0 and 0.0.
    With the background split off, the smooth remainder ``(s0, s1)`` of the
    fields solves the same reduced system on both grids,

        lap s0 = lam (2 e^u - e^v - 1) + src_u,
        lap s1 = 2 lam (e^v - 1) + src_f,

    with the source densities ``src_u = h1`` (kappa zero set) and
    ``src_f = h1 + h2`` (h2 from the phi zero set), each 0.0 when its zero
    sets are empty.  On the torus their cell means are 4 pi m/|Omega| and
    4 pi (m+n)/|Omega|.
    """

    grid: object
    cfg: VortexConfig
    exp_v0: object  # array, or a float for an empty zero set
    v0: object
    exp_u0: object
    u0: object
    src_u: object
    src_f: object


def _check_points(points, grid, torus: bool):
    for i, (px, py) in enumerate(points):
        if torus:
            if not (0.0 <= px < grid.Lx and 0.0 <= py < grid.Ly):
                raise PointOutsideDomain(f"point {i} at ({px}, {py}) outside [0,Lx)x[0,Ly)")
        elif not (-grid.R < px < grid.R and -grid.R < py < grid.R):
            raise PointOutsideDomain(f"point {i} at ({px}, {py}) outside (-R, R)^2")


def _within(d, cut):
    # the slice of the increasing offsets d with |d| <= cut
    return slice(np.searchsorted(d, -cut), np.searchsorted(d, cut, side="right"))


def _add_profile(dx, dy, tau, exp_f, log_f, dens):
    """Fold one vortex's profile into ``exp_f``, ``log_f`` and ``dens``, in place.

    ``dx``, ``dy`` are the axis offsets of the nodes from the vortex, and the
    three fields views of the nodes they span.
    """
    s, f, g = np.empty((3, dx.size, dy.size))
    np.add.outer(dx * dx / tau, dy * dy / tau, out=s)  # s = r^2 / tau
    np.negative(s, out=f)
    np.expm1(f, out=f)
    np.negative(f, out=f)  # f = 1 - e^{-s}, exactly 0.0 on the vortex
    exp_f *= f
    log_f += np.log(np.maximum(f, 1e-300, out=g), out=g)
    # below SERIES_S the closed form of h2 cancels; f = 1 there keeps it finite
    near = np.nonzero(s < SERIES_S)
    s_near = s[near]
    f[near] = 1.0
    np.subtract(s, f, out=g)  # s - 1 + e^{-s}
    g *= np.subtract(1.0, f, out=s)  # times e^{-s}
    g /= np.multiply(f, f, out=f)
    g[near] = 0.5 - s_near / 6.0 + s_near ** 3 / 180.0
    g *= 4.0 / tau
    dens += g


def build_background(cfg: VortexConfig, grid, params: PhysicalParams) -> Background:
    """The background of ``cfg``'s zero sets on ``grid``: one profile per vortex.

    The offsets from a vortex are the minimum image on the torus and plain
    ones on the plane.  On the plane a profile is built only on the nodes of
    its box |x - p|_inf <= sqrt(CUTOFF_S tau): beyond it s > CUTOFF_S, where
    the profile adds exactly nothing, so the background is bitwise that of
    profiles built on the whole grid.  On the torus the box is the whole
    cell (the minimum image cuts s at L^2/(4 tau) >= 36), and each zero
    set's density is rescaled to the cell integral 4 pi per vortex, which
    the trapezoid rule misses only by roundoff.  On either grid a zero set
    whose density is zero on every node (each core of scale sqrt(tau) far
    from every node; on the plane, each box empty of nodes) raises
    :class:`UnresolvedCore`.  An empty zero set gives the scalars 1.0, 0.0
    and 0.0.
    The background depends on ``cfg`` and ``grid`` alone; ``params`` is not
    read.
    """
    torus = isinstance(grid, TorusGrid)
    _check_points(cfg.phi_zeros, grid, torus)
    _check_points(cfg.kappa_zeros, grid, torus)
    tau = core_scale(grid)
    cut = math.sqrt(CUTOFF_S * tau)
    x, y = grid.axes()

    def one_set(points):
        if not points:
            return 1.0, 0.0, 0.0
        exp_f, log_f, dens = np.ones(grid.shape), np.zeros(grid.shape), np.zeros(grid.shape)
        for px, py in points:
            dx, dy = x - px, y - py
            if torus:
                dx -= grid.Lx * np.round(dx / grid.Lx)
                dy -= grid.Ly * np.round(dy / grid.Ly)
                box = (slice(None), slice(None))
            else:
                rows, cols = _within(dx, cut), _within(dy, cut)
                box, dx, dy = (rows, cols), dx[rows], dy[cols]
            _add_profile(dx, dy, tau, exp_f[box], log_f[box], dens[box])
        np.maximum(log_f, -700.0, out=log_f)
        if not np.count_nonzero(dens):  # no temporary, unlike dens.any()
            spacing = f"{grid.dx:.3g} x {grid.dy:.3g}" if torus else f"{grid.h:.3g}"
            raise UnresolvedCore(
                f"vortex cores of scale sqrt(tau) = {math.sqrt(tau):.3g} fall between "
                f"the nodes of spacing {spacing}: their source density is zero on "
                "every node")
        if torus:
            dens *= 4.0 * math.pi * len(points) / grid.integrate(dens)
        return exp_f, log_f, dens

    exp_u0, u0, src_u = one_set(cfg.kappa_zeros)
    exp_v0, v0, src_f = one_set(cfg.phi_zeros)
    src_f += src_u
    return Background(grid=grid, cfg=cfg, exp_v0=exp_v0, v0=v0, exp_u0=exp_u0, u0=u0,
                      src_u=src_u, src_f=src_f)
