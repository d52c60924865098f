"""Convex action functionals, their gradients and Hessian-direction products.

States are arrays of shape ``(2, nx, ny)``.  The slices hold the two unknowns
of each variant: ``(u, f)`` for the base model and ``(g, f)`` for the extended
one (``g`` absorbs the kappa background, so ``u = u0 + g``).  The extended
formulas reduce literally to the base formulas when the kappa zero set is
empty, so both variants share one implementation: :class:`EnergyModel`
takes the variant and the domain from its background.

With ``(s0, s1)`` the state, ``e^U = e^{u0 + s0}``, ``e^V = e^{v0 + s1 - s0}``
and ``(src_u, src_f)`` the background's remainder sources, both grids minimize

    E = c int [ 1/2 |grad s0|^2 + 1/4 |grad s1|^2 + lam (2 e^U + e^V)
                + (src_u - lam) s0 + (src_f / 2 - lam) s1 ] dA,

with c = 1 on the torus and c = 1/lam on the plane, where the exponential
term is taken relative to the background, 2 (e^U - e^{u0}) + (e^V - e^{v0}),
so that it is integrable and E(0) = 0.  The gradient

    c [ -lap s0 + lam (2 e^U - e^V - 1) + src_u,
        -lap s1 / 2 + lam (e^V - 1) + src_f / 2 ]

vanishes exactly on the reduced system, and the Hessian is

    c [[-lap + lam (2 e^U + e^V), -lam e^V], [-lam e^V, -lap / 2 + lam e^V]].

Both are written once, in the scale pair (c, c lam): (1, lam) on the torus,
(1/lam, 1) on the plane.  They are the exact first and second variations of
the discrete energies in the grid's L^2 pairing ``grid.inner``; on the plane
they vanish on the Dirichlet boundary ring, where states are held at zero.
The energy is written once too, with the grid's quadrature ``grid.integrate``
and the grid's Dirichlet form ``grid.dirichlet_form`` for int |grad s|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .backgrounds import Background, PhysicalParams
from .errors import Overflow
from .grids import TorusGrid

MAX_EXPONENT = 700.0


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


@dataclass
class EnergyModel:
    """One variant's energy, gradient and Hessian over fixed background data.

    The variant (base or extended) and the domain are those of ``bg``.
    """

    bg: Background
    params: PhysicalParams

    def __post_init__(self):
        # the scale pair (c, c lam) of the module docstring, with c also held
        # as its inverse: the sources are divided by 1/c (on the plane that
        # is h1 / lam), and the plane's c lam is exactly 1
        lam = self.params.lam
        self._inv_c, self._c_lam = (1.0, lam) if isinstance(self.grid, TorusGrid) else (lam, 1.0)
        self._c = 1.0 / self._inv_c

    @property
    def grid(self):
        return self.bg.grid

    def zero_state(self) -> np.ndarray:
        return np.zeros((2,) + self.grid.shape)

    def _scaled_sources(self):
        # c src_u and c src_f / 2
        return self.bg.src_u / self._inv_c, self.bg.src_f / (2.0 * self._inv_c)

    def energy(self, state) -> EnergyBreakdown:
        grid, c, c_lam, bg = self.grid, self._c, self._c_lam, self.bg
        eU, eV = _exp_pair(state, bg)
        lin_u, lin_f = self._scaled_sources()
        grad_part = ((0.5 * c) * grid.dirichlet_form(state[0])
                     + (0.25 * c) * grid.dirichlet_form(state[1]))
        exp_part = c_lam * grid.integrate(2.0 * (eU - bg.exp_u0) + (eV - bg.exp_v0))
        lin_part = grid.integrate((lin_u - c_lam) * state[0] + (lin_f - c_lam) * state[1])
        return EnergyBreakdown(grad_part + exp_part + lin_part, grad_part, exp_part, lin_part)

    def gradient(self, state) -> np.ndarray:
        grid, c, c_lam = self.grid, self._c, self._c_lam
        eU, eV = _exp_pair(state, self.bg)
        lin_u, lin_f = self._scaled_sources()
        g0 = -c * grid.laplacian(state[0]) + c_lam * (2.0 * eU - eV - 1.0) + lin_u
        g1 = -0.5 * c * grid.laplacian(state[1]) + c_lam * (eV - 1.0) + lin_f
        return np.stack([grid.zero_boundary(g0), grid.zero_boundary(g1)])

    def hessian_apply(self, state, direction) -> np.ndarray:
        """Hessian times ``direction``, straight from the formula.

        The reference that :meth:`hessian_operator` is checked against.
        """
        grid, c, c_lam = self.grid, self._c, self._c_lam
        eU, eV = _exp_pair(state, self.bg)
        d0, d1 = direction[0], direction[1]
        h0 = -c * grid.laplacian(d0) + (2.0 * c_lam * eU + c_lam * eV) * d0 - c_lam * eV * d1
        h1 = -0.5 * c * grid.laplacian(d1) + c_lam * eV * (d1 - d0)
        return np.stack([grid.zero_boundary(h0), grid.zero_boundary(h1)])

    def hessian_operator(self, state):
        """Hessian application with the exponential factors frozen at ``state``.

        Same values as :meth:`hessian_apply` (to roundoff), with the
        coefficient fields computed once per state.
        """
        eU, eV = _exp_pair(state, self.bg)
        grid, c, c_lam = self.grid, self._c, self._c_lam
        off = np.multiply(eV, c_lam, out=eV)
        diag = np.multiply(eU, 2.0 * c_lam, out=eU)
        diag += off

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
            grid.zero_boundary(h0)
            grid.zero_boundary(h1)
            return out

        return apply_h

    def preconditioner(self):
        """Exact per-mode inverse of the Hessian in the far field.

        At e^U = e^V = 1 the Hessian has constant coefficients.  On a mode of
        ``-laplacian`` with eigenvalue K (Fourier modes on the torus, sine
        modes of the interior on the plane; see ``grid.modal_forward``) it is
        the 2x2 block

            c * [[K + 3 lam, -lam], [-lam, K/2 + lam]]
              = c * lam * [[2d + 1, -1], [-1, d]],     d = K / (2 lam) + 1,

        with the scale pair (c, c lam) of the module docstring.  Its determinant
        (c lam)^2 (2d - 1)(d + 1) is positive for every K >= 0, the constant
        torus mode included, so the inverse

            [[d, 1], [1, 2d + 1]] / (c lam (2d - 1)(d + 1))

        is symmetric positive definite on both grids.  The returned callable
        applies it to a stacked residual; on the plane the result vanishes on
        the boundary ring.  Its three coefficient buffers, in the grid's
        modal layout, are allocated here once and reused by every apply.
        """
        grid, c_lam = self.grid, self._c_lam
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
