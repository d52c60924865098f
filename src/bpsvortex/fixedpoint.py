"""Fixed-point continuation: the second, independent route to the torus solution.

The iteration works in the zero-mean space X of pairs ``(u', w')`` (arrays of
shape ``(2, nx, ny)`` whose slices both have vanishing cell average), the
remainders of ``u = u0 + u_bar + u'`` and ``v = v0 + v_bar + w'`` after the
backgrounds and the field means.  For a homotopy parameter ``t`` the map
``apply_T`` assembles the normalized right-hand sides

    E_u = C2*e^{t u0 + u'}/I[e^{t u0 + u'}],   E_v = C1*e^{t v0 + w'}/I[e^{t v0 + w'}],
    R1 = lam*t*( 2*E_u - E_v - 1 ) + t*src_u,
    R2 = lam*t*( 3*E_v - 2*E_u - 1 ) + t*(src_f - src_u)

with the background's source densities ``(src_u, src_f)``, whose cell means
are 4 pi m/|Omega| and 4 pi (m+n)/|Omega| (``u0`` and ``src_u`` vanish in the
base model), and the constraint targets ``(C1, C2)`` of
``ThresholdReport.constraints``, which give both zero mean.  The map projects
out quadrature roundoff and inverts the Laplacian on each, so the output lies
in X again.  Fixed points of ``apply_T(., t)`` at ``t = 1`` solve the full
system; the two field means are recovered afterwards from the integral
constraints, by the same closed-form shift that Newton applies to its
iterates (:func:`~bpsvortex.energy.constraint_shift`).

``continuation_solve`` iterates the map at ``t = 1`` with Anderson
acceleration of depth ``ANDERSON_DEPTH`` (Walker & Ni, SIAM J. Numer. Anal.
49, 2011) and a relaxation ``omega`` fixed in advance from a bound on the
spectrum of the map's linearization, on each level of
:func:`~bpsvortex.newton.solve_levels`, which states the level rule.
Acceleration and the levels below the fine grid change the path to a fixed
point, not the fixed points, and no Newton solve enters, so the result stays
independent of Newton.  A map application that overflows (``Overflow`` from a divergent
iterate) ends the solve as non-convergence with a named message, as an
overflowing initial state does in Newton, instead of raising.  The solver
only passes ``t = 1``; other ``t`` give the paper's homotopy from the
trivial map at ``t = 0``.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .backgrounds import Background, PhysicalParams, check_existence
from .energy import _checked_exp, constraint_shift
from .errors import NonZeroMeanRhs, Overflow, ThresholdViolated
from .grids import TorusGrid
from .newton import Solution, solve_levels

# tolerance on the relative sup residual |T(x) - x| / (1 + |x|): tight
# enough that the two solvers agree far inside the 1e-6 of the cross-method
# check (about 1e-9 on a 256^2 two-vortex torus)
INNER_TOL = 1e-11
# map applications before the solve gives up
MAX_APPLIES = 5000
# differences in the Anderson window; each costs two held pairs
ANDERSON_DEPTH = 3


def apply_T(pair: np.ndarray, t: float, bg: Background, params: PhysicalParams,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """One application of the homotopy map at parameter ``t`` (factor included).

    The constraint targets are those of ``bg.cfg``.  The result is written
    to ``out`` (a new array when it is ``None``), which must not overlap
    ``pair``; ``pair`` is only read.
    """
    grid: TorusGrid = bg.grid
    c1, c2 = check_existence(bg.cfg, grid, params).constraints
    lam = params.lam
    if out is None:
        out = np.empty_like(pair)
    r1, r2 = out

    # dens_u in r1 and dens_v in r2; R1 needs both, so it goes to a new
    # field, then R2 is built in r2 and each Poisson solve writes its slice
    np.multiply(bg.u0, t, out=r1)
    r1 += pair[0]
    eu = _checked_exp(r1, out=r1)
    np.multiply(bg.v0, t, out=r2)
    r2 += pair[1]
    ev = _checked_exp(r2, out=r2)
    iu = grid.integrate(eu)
    iv = grid.integrate(ev)
    dens_u = np.multiply(eu, 2.0 * c2 / iu, out=r1)
    dens_v = np.multiply(ev, c1 / iv, out=r2)
    # the roundoff in a mean is that of the summands, which near the
    # threshold are far larger than the result
    scale = abs(t) * (lam * (float(dens_u.max()) + 3.0 * float(dens_v.max()) + 1.0)
                      + float(np.max(bg.src_f)) + float(np.max(bg.src_u)))
    rhs1 = np.subtract(dens_u, dens_v)
    rhs1 -= 1.0
    rhs1 *= lam
    rhs1 += bg.src_u
    rhs1 *= t
    rhs2 = dens_v
    rhs2 *= 3.0
    rhs2 -= dens_u
    rhs2 -= 1.0
    rhs2 *= lam
    rhs2 += bg.src_f
    rhs2 -= bg.src_u
    rhs2 *= t

    for k, r in enumerate((rhs1, rhs2)):
        m = float(r.mean())
        if abs(m) > 1e-8 * scale:
            # zero mean holds analytically; a large projection residual is a bug
            raise NonZeroMeanRhs(f"rhs {k} mean {m:.3e} too large relative to {scale:.3e}")
        r -= m
        grid.poisson_solve_zero_mean(r, out=out[k])
    return out


def continuation_solve(bg: Background, params: PhysicalParams,
                       levels: Optional[list] = None) -> Solution:
    """Solve ``x = T(x, 1)`` by damped, windowed Anderson steps, level by level.

    The levels and the start of each are those of
    :func:`~bpsvortex.newton.solve_levels`, whose background handle is
    ``levels``; the iteration runs on the zero-mean pair, from the zero pair
    or from the pair the level below gives.  A level converges once the
    relative residual is at most ``INNER_TOL``.  It gives up after
    ``MAX_APPLIES`` map applications, or at the first application that
    raises ``Overflow`` (a divergent iterate), and then reports the last
    iterate the map accepted.  ``iterations`` counts the map applications on
    ``bg.grid``, the overflowing one included, and ``grad_history`` logs the
    relative residual of each; each record of ``levels`` counts its level's.
    """
    grid: TorusGrid = bg.grid
    report = check_existence(bg.cfg, grid, params)
    if not report.solvable:
        raise ThresholdViolated(report)

    # T linearizes to -(Laplacian)^{-1} lam [[2, -1], [-2, 3]] acting on the
    # normalized densities, which the maximum principle keeps at most about
    # 1.  The coupling matrix has eigenvalues 1 and 4, and the inverse
    # Laplacian is at most 1/k_min^2 on zero-mean fields, so the spectrum of
    # T' lies in [-rho, 0] with rho = 4 lam / k_min^2.  Damping by
    # omega = 1/(1 + rho) maps it into [0, 1 - omega].  The cell, and with
    # it omega, is the same on every level.
    k_min = 2.0 * math.pi / max(grid.Lx, grid.Ly)
    omega = 1.0 / (1.0 + 4.0 * params.lam / k_min ** 2)

    def fixed_point(level_bg, start):
        # the map iterates on the pair's fields, not on their coefficients
        x = start[0]
        start.clear()
        if x is None:
            x = np.zeros((2,) + level_bg.grid.shape)
        pair, applies, residuals, message = _anderson(x, level_bg, params, omega)
        return Solution(pair, applies, residuals, [], not message, message, omega=omega)

    sol = solve_levels(bg, params, fixed_point, levels=levels)
    sol.state = _recover_state(sol.state, bg, params)
    return sol


def _anderson(x: np.ndarray, bg: Background, params: PhysicalParams, omega: float):
    """Iterate ``T(., 1)`` from the pair ``x``, which is taken over.

    With f(x) = T(x) - x, the step from x_k is

        x_{k+1} = x_k + omega*f_k - sum_i gamma_i*(dX_i + omega*dF_i),

    over the last ``ANDERSON_DEPTH`` differences dX_i = x_{i+1} - x_i and
    dF_i = f_{i+1} - f_i, with gamma the least-squares minimizer of
    |f_k - dF gamma| (Walker & Ni's Anderson(m) with mixing ``omega``).  The
    Gram matrix of the dF_i is held and gets one row of dot products per
    step, and the columns are stored as dX_i + omega*dF_i, so the loop
    holds x, f, one scratch pair and the 2*ANDERSON_DEPTH history pairs and
    allocates no other field.

    Returns ``(pair, applications, residuals, message)``: the last iterate
    the map accepted, the applications made, the relative residual of each
    accepted one, and an empty message on convergence.
    """
    depth = ANDERSON_DEPTH
    f = np.empty_like(x)
    scratch = np.empty_like(x)
    d_f = np.empty((depth,) + x.shape)
    cols = np.empty((depth,) + x.shape)  # dX_i + omega*dF_i
    gram = np.empty((depth, depth))
    proj = np.empty(depth)
    gamma = np.empty(depth)
    residuals: List[float] = []
    applies = 0
    slot = 0  # history slot of the last step
    while True:
        applies += 1
        try:
            apply_T(x, 1.0, bg, params, out=scratch)
        except Overflow as exc:
            if applies > 1:
                x -= cols[slot]  # back to the last iterate the map accepted
            return x, applies, residuals, f"map application {applies} overflowed: {exc}"
        scratch -= x
        residuals.append(max(float(scratch.max()), -float(scratch.min()))
                         / (1.0 + max(float(x.max()), -float(x.min()))))
        if residuals[-1] <= INNER_TOL:
            return x, applies, residuals, ""
        if applies == MAX_APPLIES:
            return x, applies, residuals, (f"no fixed point after {applies} map applications: "
                                           f"it reached MAX_APPLIES = {MAX_APPLIES}")
        f, scratch = scratch, f
        k = applies - 1
        n = min(k, depth)
        if k:
            # complete column k - 1; its dX, the last step, is in cols[slot]
            np.subtract(f, scratch, out=d_f[slot])
            cols[slot] += np.multiply(d_f[slot], omega, out=scratch)
            for i in range(n):
                gram[slot, i] = gram[i, slot] = float(np.vdot(d_f[slot], d_f[i]))
                proj[i] = float(np.vdot(d_f[i], f))
            gamma[:n] = np.linalg.lstsq(gram[:n, :n], proj[:n], rcond=None)[0]
        # the step goes to the next free slot or, once the window is full,
        # to the oldest column's, whose own term is applied there first
        slot = k % depth
        if k >= depth:
            cols[slot] *= -gamma[slot]
            cols[slot] += np.multiply(f, omega, out=scratch)
        else:
            np.multiply(f, omega, out=cols[slot])
        for i in range(n):
            if i != slot:
                cols[slot] -= np.multiply(cols[i], gamma[i], out=scratch)
        x += cols[slot]


def _recover_state(pair: np.ndarray, bg: Background, params: PhysicalParams) -> np.ndarray:
    """The Newton state of the zero-mean pair ``(u', w')``, field means included.

    ``(u', u' + w')`` is the state (g, f) = (u - u0, f) with both means
    left out, since v - v0 = f - g; :func:`constraint_shift` then adds the
    two means the integral constraints fix at t = 1.
    """
    grid: TorusGrid = bg.grid
    masses = (grid.integrate(np.exp(bg.u0 + pair[0])), grid.integrate(np.exp(bg.v0 + pair[1])))
    state = np.stack([pair[0], pair[0] + pair[1]])
    constraint_shift(state, masses, bg, params)
    return state
