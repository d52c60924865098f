"""Convex action functionals, their gradients and Hessian-direction products.

States are arrays of shape ``(2, nx, ny)``.  The slices hold the two unknowns
of each variant: ``(u, f)`` for the base model and ``(g, f)`` for the extended
one (``g`` absorbs the kappa background, so ``u = u0 + g``).  The extended
formulas reduce literally to the base formulas when the kappa zero set is
empty; both variants therefore share one implementation per domain, and
:class:`EnergyModel` differs between them only in validation.

Torus functional (extended form, scaled so the m = 0 case coincides exactly
with the base functional):

    E = 1/2 ||grad g||^2 + 1/4 ||grad f||^2
        + int [ lam*e^{v0+f-g} + 2*lam*e^{u0+g} ] dx
        + int [ (4 pi m/|O| - lam)*g + (2 pi (m+n)/|O| - lam)*f ] dx

Plane functional:

    E = int [ 1/(2 lam)|grad g|^2 + 1/(4 lam)|grad f|^2
              + 2(e^{u0+g} - e^{u0}) + (e^{v0+f-g} - e^{v0})
              + (h1/lam - 1)*g + ((h1+h2)/(2 lam) - 1)*f ] dx

Gradients are the exact first variations of these discrete energies in the
L^2 pairing with the area element, so a zero gradient is the discrete
Euler-Lagrange system; the plane gradient carries the 1/lam factors of the
plane functional (PDE residual = -lam * gradient componentwise there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backgrounds import Background, PhysicalParams, VortexConfig
from .errors import Overflow
from .grids import PlaneGrid, TorusGrid

MAX_EXPONENT = 700.0

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi


class EnergyBreakdown(NamedTuple):
    total: float
    gradient_part: float
    exponential_part: float
    linear_part: float


def _checked_exp(arg: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    m = float(arg.max())
    if m > MAX_EXPONENT:
        raise Overflow(f"exponent argument {m:.3g} exceeds {MAX_EXPONENT:g}")
    return np.exp(arg, out=out)


def _exp_pair(state, bg: Background):
    # e^u = e^{u0} e^{s0}, e^v = e^{v0} e^{s1 - s0}; the background factors are
    # bounded so guarding the smooth exponents suffices.
    eU = bg.exp_u0 * _checked_exp(state[0])
    eV = bg.exp_v0 * _checked_exp(state[1] - state[0])
    return eU, eV


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

def _torus_energy(state, bg, cfg, params) -> EnergyBreakdown:
    grid: TorusGrid = bg.grid
    lam = params.lam
    n, m = cfg.n, cfg.m
    dA = grid.dx * grid.dy
    eU, eV = _exp_pair(state, bg)
    lap0 = grid.laplacian(state[0])
    lap1 = grid.laplacian(state[1])
    grad_part = dA * (-0.5 * float(np.sum(state[0] * lap0)) - 0.25 * float(np.sum(state[1] * lap1)))
    exp_part = dA * float(np.sum(lam * eV + 2.0 * lam * eU))
    lin_part = dA * ((FOUR_PI * m / grid.area - lam) * float(np.sum(state[0]))
                     + (TWO_PI * (m + n) / grid.area - lam) * float(np.sum(state[1])))
    return EnergyBreakdown(grad_part + exp_part + lin_part, grad_part, exp_part, lin_part)


def _torus_gradient(state, bg, cfg, params) -> np.ndarray:
    grid: TorusGrid = bg.grid
    lam = params.lam
    n, m = cfg.n, cfg.m
    eU, eV = _exp_pair(state, bg)
    g0 = -grid.laplacian(state[0]) + lam * (2.0 * eU - eV - 1.0) + FOUR_PI * m / grid.area
    g1 = -0.5 * grid.laplacian(state[1]) + lam * (eV - 1.0) + TWO_PI * (m + n) / grid.area
    return np.stack([g0, g1])


def _torus_hessian_apply(state, direction, bg, cfg, params) -> np.ndarray:
    grid: TorusGrid = bg.grid
    lam = params.lam
    eU, eV = _exp_pair(state, bg)
    d0, d1 = direction[0], direction[1]
    h0 = -grid.laplacian(d0) + (2.0 * lam * eU + lam * eV) * d0 - lam * eV * d1
    h1 = -0.5 * grid.laplacian(d1) + lam * eV * (d1 - d0)
    return np.stack([h0, h1])


# ---------------------------------------------------------------------------
# plane
# ---------------------------------------------------------------------------

def _edge_energy(v: np.ndarray) -> float:
    # sum of squared forward differences over in-grid edges; with Dirichlet
    # zero states this equals h^2 * sum |grad v|^2 (midpoint rule) and its
    # exact derivative at interior nodes is -2 h^2 * (5-point Laplacian).
    return float(np.sum(np.diff(v, axis=0) ** 2)) + float(np.sum(np.diff(v, axis=1) ** 2))


def _zero_boundary(a: np.ndarray) -> np.ndarray:
    a[0, :] = 0.0
    a[-1, :] = 0.0
    a[:, 0] = 0.0
    a[:, -1] = 0.0
    return a


def _plane_energy(state, bg, cfg, params) -> EnergyBreakdown:
    grid: PlaneGrid = bg.grid
    lam = params.lam
    w = grid.trapezoid_weights
    eU, eV = _exp_pair(state, bg)
    grad_part = (0.5 / lam) * _edge_energy(state[0]) + (0.25 / lam) * _edge_energy(state[1])
    exp_part = float(np.sum(w * (2.0 * (eU - bg.exp_u0) + (eV - bg.exp_v0))))
    lin_part = float(np.sum(w * ((bg.h1 / lam - 1.0) * state[0]
                                 + ((bg.h1 + bg.h2) / (2.0 * lam) - 1.0) * state[1])))
    return EnergyBreakdown(grad_part + exp_part + lin_part, grad_part, exp_part, lin_part)


def _plane_gradient(state, bg, cfg, params) -> np.ndarray:
    grid: PlaneGrid = bg.grid
    lam = params.lam
    eU, eV = _exp_pair(state, bg)
    g0 = (-1.0 / lam) * grid.laplacian(state[0]) + (2.0 * eU - eV - 1.0) + bg.h1 / lam
    g1 = (-0.5 / lam) * grid.laplacian(state[1]) + (eV - 1.0) + (bg.h1 + bg.h2) / (2.0 * lam)
    return np.stack([_zero_boundary(g0), _zero_boundary(g1)])


def _plane_hessian_apply(state, direction, bg, cfg, params) -> np.ndarray:
    grid: PlaneGrid = bg.grid
    lam = params.lam
    eU, eV = _exp_pair(state, bg)
    d0, d1 = direction[0], direction[1]
    h0 = (-1.0 / lam) * grid.laplacian(d0) + (2.0 * eU + eV) * d0 - eV * d1
    h1 = (-0.5 / lam) * grid.laplacian(d1) + eV * (d1 - d0)
    return np.stack([_zero_boundary(h0), _zero_boundary(h1)])


@dataclass
class EnergyModel:
    """Bundles one variant's energy, gradient and Hessian over fixed data."""

    mode: str  # "torus" | "plane"
    model: str  # "base" | "extended"
    bg: Background
    cfg: VortexConfig
    params: PhysicalParams

    def __post_init__(self):
        if self.mode not in ("torus", "plane"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.model not in ("base", "extended"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "base" and self.cfg.m != 0:
            raise ValueError("base model requires an empty kappa zero set")
        is_torus = isinstance(self.bg.grid, TorusGrid)
        if is_torus != (self.mode == "torus"):
            raise ValueError("background grid does not match mode")

    @property
    def grid(self):
        return self.bg.grid

    def zero_state(self) -> np.ndarray:
        return np.zeros((2,) + self.grid.shape)

    def energy(self, state) -> EnergyBreakdown:
        if self.mode == "torus":
            return _torus_energy(state, self.bg, self.cfg, self.params)
        return _plane_energy(state, self.bg, self.cfg, self.params)

    def gradient(self, state) -> np.ndarray:
        if self.mode == "torus":
            return _torus_gradient(state, self.bg, self.cfg, self.params)
        return _plane_gradient(state, self.bg, self.cfg, self.params)

    def hessian_apply(self, state, direction) -> np.ndarray:
        if self.mode == "torus":
            return _torus_hessian_apply(state, direction, self.bg, self.cfg, self.params)
        return _plane_hessian_apply(state, direction, self.bg, self.cfg, self.params)

    def _hessian_scales(self):
        # (c, c * lam) for Hessian = c * [[-Delta + lam (2e^U + e^V), -lam e^V],
        #                                 [-lam e^V, -Delta/2 + lam e^V]];
        # c * lam is exactly 1.0 on the plane
        lam = self.params.lam
        return (1.0, lam) if self.mode == "torus" else (1.0 / lam, 1.0)

    def hessian_operator(self, state):
        """Hessian application with the exponential factors frozen at ``state``.

        Same values as :meth:`hessian_apply` (to roundoff), with the
        coefficient fields computed once per state.
        """
        eU, eV = _exp_pair(state, self.bg)
        grid = self.grid
        c, c_lam = self._hessian_scales()
        off = np.multiply(eV, c_lam, out=eV)
        diag = np.multiply(eU, 2.0 * c_lam, out=eU)
        diag += off
        plane = self.mode == "plane"

        def apply_h(d):
            out = np.empty_like(d)
            h0, h1 = out
            grid.laplacian(d[0], out=h0)
            h0 *= -c
            h0 += diag * d[0]
            h0 -= off * d[1]
            grid.laplacian(d[1], out=h1)
            h1 *= -0.5 * c
            h1 += off * (d[1] - d[0])
            if plane:
                _zero_boundary(h0)
                _zero_boundary(h1)
            return out

        return apply_h

    def inner(self, a, b) -> float:
        """L^2 pairing of state pairs (area element included).

        On the plane the pairing uses the interior cell measure h^2 (states
        and gradients vanish on the boundary ring), which is the metric in
        which the gradient is the exact first variation of the energy.
        """
        if self.mode == "torus":
            g = self.grid
            return float(np.sum(a * b)) * g.dx * g.dy
        return float(np.sum(a * b)) * self.grid.h ** 2

    def preconditioner(self):
        """Exact per-mode inverse of the Hessian in the far field.

        At e^U = e^V = 1 the Hessian has constant coefficients.  On a mode of
        ``-laplacian`` with eigenvalue K (Fourier modes on the torus, sine
        modes of the interior on the plane; see ``grid.modal_forward``) it is
        the 2x2 block

            c * [[K + 3 lam, -lam], [-lam, K/2 + lam]]
              = c * lam * [[2d + 1, -1], [-1, d]],     d = K / (2 lam) + 1,

        with c = 1 on the torus and 1/lam on the plane.  Its determinant
        (c lam)^2 (2d - 1)(d + 1) is positive for every K >= 0, the constant
        torus mode included, so the inverse

            [[d, 1], [1, 2d + 1]] / (c lam (2d - 1)(d + 1))

        is symmetric positive definite on both grids.  The returned callable
        applies it to a stacked residual; on the plane the result vanishes on
        the boundary ring.  Its three coefficient buffers, in the grid's
        modal layout, are allocated here once and reused by every apply.
        """
        grid = self.grid
        c_lam = self._hessian_scales()[1]
        d = grid.laplacian_eigenvalues() / (2.0 * self.params.lam)
        d += 1.0
        inv_det = 1.0 / ((2.0 * d - 1.0) * (d + 1.0) * c_lam)
        # shape and dtype of the grid's coefficients (complex rfft2 layout on
        # the torus, real interior sine modes on the plane)
        coeffs = grid.modal_forward(np.zeros(grid.shape))
        buffers = (coeffs, np.empty_like(coeffs), np.empty_like(coeffs))

        def apply_minv(r):
            a, b, t = buffers
            out = np.empty_like(r)
            grid.modal_forward(r[0], out=a)
            grid.modal_forward(r[1], out=b)
            np.multiply(d, a, out=t)
            t += b
            t *= inv_det
            grid.modal_inverse(t, out=out[0])
            # a + (2d + 1) b, built in place
            a += b
            b *= d
            b *= 2.0
            a += b
            a *= inv_det
            grid.modal_inverse(a, out=out[1])
            return out

        return apply_minv
