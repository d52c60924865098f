"""Convex action functionals, their gradients and Hessian-direction products.

States are arrays of shape ``(2, nx, ny)``.  The slices hold the two unknowns
of each variant: ``(u, f)`` for the base model and ``(g, f)`` for the extended
one (``g`` absorbs the kappa background, so ``u = u0 + g``).  The extended
formulas reduce literally to the base formulas when the kappa zero set is
empty, so both variants share one implementation: :class:`EnergyModel`
takes the variant and the domain from its background.

With ``(s0, s1)`` the state, ``e^U = e^{u0 + s0}``, ``e^V = e^{v0 + s1 - s0}``
and ``(src_u, src_f)`` the background's source densities, both grids minimize

    E = int [ 1/2 |grad s0|^2 + 1/4 |grad s1|^2 + lam (2 e^U + e^V)
              + (src_u - lam) s0 + (src_f / 2 - lam) s1 ] dA,

where the exponential term is taken relative to the background,
2 (e^U - e^{u0}) + (e^V - e^{v0}), so that it is integrable and E(0) = 0.
The gradient

    [ -lap s0 + lam (2 e^U - e^V - 1) + src_u,
      -lap s1 / 2 + lam (e^V - 1) + src_f / 2 ]

is minus the residuals (r1, r2 / 2) of the reduced system, so a sup-norm
gradient tolerance bounds the first equation's residual by itself and the
second's by twice itself, on both grids.  The Hessian is

    [[-lap + lam (2 e^U + e^V), -lam e^V], [-lam e^V, -lap / 2 + lam e^V]].

Both are the exact first and second variations of the discrete energies in
the grid's L^2 pairing ``grid.inner``; on the plane they vanish on the
Dirichlet boundary ring, where states are held at zero.  The energy is
written once too, with the grid's quadrature ``grid.integrate`` and the
grid's Dirichlet form for int |grad s|^2 (:meth:`EnergyModel.dirichlet`).

Newton carries each state's mode coefficients in the grid's Laplacian
eigenbasis (``grid.to_modes``), and hands them in: the energy then takes
its gradient part from :meth:`EnergyModel.dirichlet` (Parseval, no
transform), and the gradient its Laplacians from ``grid.laplacians`` (one
inverse transform per slice).  Called on a state alone, the energy pays two
forward transforms and the gradient two each way.  Transform counts here
are per field: on the torus the two fields of a pair go through one stacked
FFT pass (see :mod:`bpsvortex.grids`), which computes each of them as a
single transform would, bit for bit.  The gradient is written into one
pair.

Newton's linear algebra runs on mode coefficients too.  ``linearize``
splits the Hessian at a state as A = M + W.  M is the Hessian with constant
coefficients at the state's mean masses a = <e^U> and b = <e^V>, diagonal
per mode; on the torus its constant-mode block is the Galerkin projection of
A onto the constant fields, so that mode is exact.  W is the pointwise
remainder.  ``linearize`` lays out M's coefficients c = (c0, c1) and W's
fields w = (wu, wv) as pairs.  ``hessian_operator`` applies M + W with two
inverse and two forward transforms, W through the grid's pair kernel
``grid.pointwise_product`` (on the torus one stacked FFT pass each way), and
``preconditioner`` inverts M mode by mode with none, in three operations
over the pair.
W runs in the grid's ``product_dtype``: on the plane in float32, its two
fields wu, wv, its physical field and its four dense sine transforms, at
half the cost of float64 (the transforms round the direction's coefficients
to float32 and return theirs in float64); on the torus in float64.
Everything else stays float64: M, the preconditioner, CG's vectors and
inner products, the gradient, the energy and the state.  The plane product
is then off by about 2e-8 of its size, while an inexact Newton step needs
it only to its forcing term (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
Anal. 19, 1982).  Every forcing term above about 2e-8 is met as before; a
step solved to the 1e-10 floor stops with a true residual near 2e-8 |g|
instead, and the stopping rule, which reads the float64 gradient, is
unchanged.

On the torus the energy also reports the masses (int e^U, int e^V), from
which :func:`constraint_shift` moves a state (and its coefficients) onto
both integral constraints in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .backgrounds import Background, PhysicalParams, check_existence
from .errors import Overflow, SingularHessian
from .grids import TorusGrid

MAX_EXPONENT = 700.0


class EnergyBreakdown(NamedTuple):
    """The energy and its three parts.

    On the torus ``masses`` holds (int e^U, int e^V), the input of
    :func:`constraint_shift`; it is ``None`` on the plane.
    """

    total: float
    gradient_part: float
    exponential_part: float
    linear_part: float
    masses: Optional[Tuple[float, float]] = None


class Linearization(NamedTuple):
    """The Hessian at one state as A = M + W (see :meth:`EnergyModel.linearize`).

    ``mean_exp`` holds the mean masses (a, b) that M is built at.  M is
    ``lam_b`` [[c0, -1], [-1, c1]] per mode, with ``c`` the stacked pair
    (c0, c1), and ``inv_det`` is 1 / (lam_b (c0 c1 - 1)), all mode-sized; W
    is pointwise, through the stacked physical fields ``w`` = (wu, wv) (in
    the grid's ``product_dtype``).
    """

    mean_exp: Tuple[float, float]
    lam_b: float
    c: np.ndarray
    inv_det: np.ndarray
    w: np.ndarray


def _checked_exp(arg: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    m = float(arg.max())
    if m > MAX_EXPONENT:
        raise Overflow(f"exponent argument {m:.3g} exceeds {MAX_EXPONENT:g}")
    return np.exp(arg, out=out)


def _exp_pair(state, bg: Background, out=(None, None)):
    # e^u = e^{u0} e^{s0}, e^v = e^{v0} e^{s1 - s0}, written to the pair ``out``
    # when given; the background factors are bounded so guarding the smooth
    # exponents suffices.
    eU = np.multiply(bg.exp_u0, _checked_exp(state[0]), out=out[0])
    eV = np.multiply(bg.exp_v0, _checked_exp(state[1] - state[0]), out=out[1])
    return eU, eV


def constraint_shift(state, masses, bg: Background, params: PhysicalParams,
                     modes: Optional[np.ndarray] = None) -> float:
    """Shift a torus ``state`` in place onto both integral constraints.

    ``masses`` are (int e^U, int e^V) at ``state`` (``EnergyBreakdown.masses``)
    and (C1, C2) the targets of :func:`check_existence`.  The constants
    a = ln(C2 / int e^U) and d = ln(C1 / int e^V) are added as s0 += a and
    s1 += a + d, after which int e^U = C2 and int e^V = C1.  Those are the
    zeros of the energy's derivatives along the two constant modes, and the
    energy is convex, so the shift minimizes it over them: it never rises.
    Returns the energy change in closed form (the source densities integrate
    to 4 pi m and 4 pi (m + n)),

        lam (2 (C2 - int e^U) + (C1 - int e^V))
            + a (4 pi m - lam |Omega|) + (a + d) (2 pi (m + n) - lam |Omega|).

    ``modes``, the state's coefficients (``grid.to_modes``) when the caller
    carries them, move with it: a constant c adds c nx ny to the constant
    mode [0, 0] of the unnormalized rfft2, and nothing else.
    Costs no exponential and no transform.  A mass that underflows to 0
    leaves the constant-mode block singular and raises
    :class:`SingularHessian`; one that overflows raises :class:`Overflow`.
    """
    grid, lam, cfg = bg.grid, params.lam, bg.cfg
    iu, iv = masses
    if not (iu > 0.0 and iv > 0.0):
        raise SingularHessian(f"mean e^U = {iu / grid.area:.3e}, "
                              f"mean e^V = {iv / grid.area:.3e}")
    if not (iu < math.inf and iv < math.inf):
        raise Overflow(f"int e^U = {iu:.3e}, int e^V = {iv:.3e}")
    c1, c2 = check_existence(cfg, grid, params).constraints
    a = math.log(c2) - math.log(iu)  # a quotient of the two could overflow
    d = math.log(c1) - math.log(iv)
    state[0] += a
    state[1] += a + d
    if modes is not None:
        modes[0, 0, 0] += a * grid.nx * grid.ny
        modes[1, 0, 0] += (a + d) * grid.nx * grid.ny
    lam_area = lam * grid.area
    return (lam * (2.0 * (c2 - iu) + (c1 - iv)) + a * (4.0 * math.pi * cfg.m - lam_area)
            + (a + d) * (2.0 * math.pi * (cfg.m + cfg.n) - lam_area))


@dataclass
class EnergyModel:
    """One variant's energy, gradient and Hessian over fixed background data.

    The variant (base or extended) and the domain are those of ``bg``.
    """

    bg: Background
    params: PhysicalParams

    @property
    def grid(self):
        return self.bg.grid

    def zero_state(self) -> np.ndarray:
        return np.zeros((2,) + self.grid.shape)

    def energy(self, state, gradient_part: Optional[float] = None) -> EnergyBreakdown:
        """The energy of ``state`` and its parts; on the torus also its masses.

        ``gradient_part`` is the state's 1/2 D(s0) + 1/4 D(s1), when the
        caller has it from the state's mode coefficients (:meth:`dirichlet`);
        without it the energy transforms the state forward first.
        """
        grid, lam, bg = self.grid, self.params.lam, self.bg
        eU, eV = _exp_pair(state, bg)
        if gradient_part is None:
            gradient_part = self.dirichlet(grid.to_modes(state))
        exp_part = lam * grid.integrate(2.0 * (eU - bg.exp_u0) + (eV - bg.exp_v0))
        masses = ((grid.integrate(eU), grid.integrate(eV))
                  if isinstance(grid, TorusGrid) else None)
        # the linear term accumulates in eV's storage: (src_f / 2 - lam) s1
        # there, then (src_u - lam) s0 + that
        lin = np.divide(bg.src_f, 2.0, out=eV)
        lin -= lam
        lin *= state[1]
        lin_part = grid.integrate(np.add((bg.src_u - lam) * state[0], lin, out=lin))
        return EnergyBreakdown(gradient_part + exp_part + lin_part, gradient_part, exp_part,
                               lin_part, masses)

    def dirichlet(self, modes: np.ndarray) -> float:
        """The energy's gradient part 1/2 D(s0) + 1/4 D(s1), from the state's coefficients.

        ``modes`` are the mode coefficients of a state (``grid.to_modes``);
        Parseval, with no transform.
        """
        grid = self.grid
        return 0.5 * grid.modal_dirichlet(modes[0]) + 0.25 * grid.modal_dirichlet(modes[1])

    def gradient(self, state, laplacians: Optional[np.ndarray] = None) -> np.ndarray:
        """The energy gradient at ``state``.

        ``laplacians`` are the stacked Laplacians of the state's two slices,
        when the caller has them (``grid.laplacians`` of the state's mode
        coefficients, one inverse transform each); without them the gradient
        transforms the state first.
        """
        grid, lam, bg = self.grid, self.params.lam, self.bg
        if laplacians is None:
            laplacians = grid.laplacians(grid.to_modes(state))
        eU, eV = _exp_pair(state, bg)
        # both slices written into one pair, with the operations of
        # -lap s0 + lam (2 e^U - e^V - 1) + src_u and
        # -lap s1 / 2 + lam (e^V - 1) + src_f / 2 in their order; the
        # exponential terms are formed in the storage of eU and eV
        grad = np.empty((2,) + grid.shape)
        g0, g1 = grad
        eU *= 2.0
        eU -= eV
        eU -= 1.0
        eU *= lam
        np.negative(laplacians[0], out=g0)
        g0 += eU
        g0 += bg.src_u
        np.multiply(laplacians[1], -0.5, out=g1)
        eV -= 1.0
        eV *= lam
        g1 += eV
        g1 += np.divide(bg.src_f, 2.0, out=eU)
        return grid.zero_boundary(grad)

    def linearize(self, state) -> Linearization:
        """The Hessian at ``state``, split as A = M + W (see :class:`Linearization`).

        M is the Hessian with the mean masses a = <e^U> and b = <e^V> (over
        ``grid.interior``) in place of e^U and e^V.  On a mode of
        ``-laplacian`` with eigenvalue K (Fourier modes on the torus, sine
        modes of the interior on the plane; see ``grid.modal_forward``) it is
        the 2x2 block

            [[K + lam (2a + b), -lam b], [-lam b, K/2 + lam b]]
              = lam b [[c0, -1], [-1, c1]],
            c1 = x + 1, c0 = 2x + 2a/b + 1,  x = K / (2 lam b),

        with determinant K^2/2 + lam (a + 3b/2) K + 2 lam^2 a b
        = (lam b)^2 (c0 c1 - 1), where c0 c1 - 1 = (2x + 3 + 2a/b) x + 2a/b
        is computed without cancellation: every term is nonnegative.  On the
        torus the block at K = 0 is the projection of A onto the constant
        fields, so M is exact on the constant mode.  W = A - M is pointwise:
        with wu = 2 lam (e^U - a) and wv = lam (e^V - b) it maps (p0, p1) to
        (wu p0 - q1, q1), q1 = wv (p1 - p0).

        Costs the one exponential pair of the state.  Raises
        :class:`SingularHessian` when the block has no finite inverse, which
        happens only when a mean mass underflows (on the torus, K = 0 needs
        a > 0 and b > 0).
        """
        grid, lam = self.grid, self.params.lam
        exps = np.empty((2,) + grid.shape)
        eU, eV = _exp_pair(state, self.bg, out=exps)
        a, b = grid.interior(eU).mean(), grid.interior(eV).mean()
        # K, whose storage becomes the inverse determinant, and the pair c,
        # whose slice c1 holds x until c0 and the determinant have read it
        inv_det = grid.laplacian_eigenvalues()
        c = np.empty((2,) + inv_det.shape)
        c0, x = c
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                lam_b = lam * b
                ratio = 2.0 * a / b
                np.divide(inv_det, 2.0 * lam_b, out=x)
                np.multiply(x, 2.0, out=inv_det)
                inv_det += 3.0 + ratio
                inv_det *= x
                inv_det += ratio
                inv_det *= lam_b
                np.reciprocal(inv_det, out=inv_det)
            except FloatingPointError:
                raise SingularHessian(f"mean e^U = {a:.3e}, mean e^V = {b:.3e}") from None
        np.multiply(x, 2.0, out=c0)
        c0 += 1.0 + ratio
        x += 1.0
        eU -= a
        eU *= 2.0 * lam
        eV -= b
        eV *= lam
        # (wu, wv) in the dtype of the grid's Hessian products: rounded once
        # on the plane, the pair itself on the torus
        w = exps.astype(grid.product_dtype, copy=False)
        return Linearization((float(a), float(b)), float(lam_b), c, inv_det, w)

    def hessian_operator(self, lin: Linearization):
        """Hessian application on mode coefficients, at the state of ``lin``.

        The returned callable maps the coefficient pair of a direction (see
        ``grid.to_modes``) to that of its Hessian product (the formula in the
        module docstring, through the transforms).  It applies A = M + W of
        :meth:`linearize`: M per mode in float64, W through the grid's pair
        kernel ``grid.pointwise_product``, at two inverse and two forward
        transforms per pair in the grid's ``product_dtype`` (one stacked
        pass each way on the torus).  That is float32 on the plane, where
        the product is exact to about 1e-7 of |W p| (see the module
        docstring), and float64 on the torus, exact to roundoff.  The
        callable holds ``lin``; the kernel makes its physical fields per
        apply (one field on the plane, one pair on the torus).
        """
        grid = self.grid
        lam_b, w = lin.lam_b, lin.w
        c0, c1 = lin.c

        def apply_h(p):
            out = np.empty_like(p)
            h0, h1 = out
            # W p in one pair kernel: the coefficients of (wu p0, q1) with
            # q1 = wv (p1 - p0), then those of q0 = wu p0 - q1 by linearity
            h0[...] = p[0]
            np.subtract(p[1], p[0], out=h1)
            grid.pointwise_product(out, w, out=out)
            h0 -= h1
            # + M p = lam b [[c0, -1], [-1, c1]] p
            m = np.multiply(c0, p[0])
            m -= p[1]
            m *= lam_b
            h0 += m
            np.multiply(c1, p[1], out=m)
            m -= p[0]
            m *= lam_b
            h1 += m
            return out

        return apply_h

    def preconditioner(self, lin: Linearization):
        """Exact per-mode inverse of the block M of ``lin``.

        M^-1 = [[c1, 1], [1, c0]] / (lam b (c0 c1 - 1)) is symmetric positive
        definite on every mode (see :meth:`linearize`).  The returned
        callable applies it to the coefficient pair of a residual, mode by
        mode, with no transform: (c1 r0 + r1, c0 r1 + r0) inv_det, as three
        ufuncs over the pair.
        """
        c_swapped, inv_det = lin.c[::-1], lin.inv_det

        def apply_minv(r):
            out = np.multiply(c_swapped, r)
            out += r[::-1]
            out *= inv_det
            return out

        return apply_minv
