"""Globally convergent damped Newton minimization of the convex functionals.

Newton directions come from conjugate gradients on the Hessian (positive
definite by strict convexity), step lengths from Armijo backtracking on the
energy.  A torus solve first checks the existence threshold and refuses to
iterate when it fails.  Failure to converge is reported through the returned
:class:`Solution` (``converged = False`` plus a message), not an exception,
so partial results stay inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .backgrounds import (PhysicalParams, VortexConfig, build_background,
                          check_existence)
from .energy import EnergyModel
from .errors import Overflow, ThresholdViolated


# Armijo sufficient-decrease constant: any value in (0, 1/2) lets the full
# Newton step through near the minimum; the usual 1e-4 accepts nearly
# every descending step
ARMIJO_C = 1e-4
# the step length halves on every rejected line-search trial
BACKTRACK_FACTOR = 0.5
# CG stops at this residual relative to the Newton right-hand side: each
# Newton system is solved nearly exactly, so the outer iteration keeps its
# quadratic convergence and never waits on an inexact step
CG_TOL = 1e-10
# CG iteration cap per Newton step; the preconditioned systems take a few
# tens of iterations, so it only stops a breakdown
CG_MAX_ITERS = 2000


@dataclass(frozen=True)
class SolverSettings:
    """Newton stopping rule: the sup-norm gradient tolerance and the iteration cap.

    The line-search and CG constants are module constants above; no run
    sets them differently.
    """

    tol_grad_sup: float = 1e-9
    max_iters: int = 100

    def __post_init__(self):
        for name in ("tol_grad_sup", "max_iters"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Solution:
    state: np.ndarray
    iterations: int
    grad_history: List[float]
    energy_history: List[float]
    converged: bool
    message: str = ""
    # fixed-point continuation only: one dict per t stage attempt
    stages: Optional[list] = None


def _pcg(apply_a, b, apply_minv):
    """Preconditioned conjugate gradients on stacked state pairs.

    ``b`` is consumed: it becomes the residual.  Updates are in place, with
    the operator result as the scratch of the ``x`` update, and each operator
    result is dropped before the next operator call, so the loop holds x, r,
    p and one operator result at a time.
    """
    x = np.zeros_like(b)
    b_norm = float(np.sqrt(np.vdot(b, b)))
    if b_norm == 0.0:
        return x
    r = b
    p = apply_minv(r)
    rz = float(np.vdot(r, p))
    for _ in range(CG_MAX_ITERS):
        ap = apply_a(p)
        pap = float(np.vdot(p, ap))
        if pap <= 0.0:
            break  # cannot happen for an SPD Hessian; guard against roundoff
        alpha = rz / pap
        ap *= alpha
        r -= ap
        x += np.multiply(p, alpha, out=ap)
        del ap
        if float(np.sqrt(np.vdot(r, r))) <= CG_TOL * b_norm:
            break
        z = apply_minv(r)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new
    return x


def minimize(model: EnergyModel, settings: SolverSettings, init: Optional[np.ndarray] = None) -> Solution:
    """Damped Newton descent on one variant's energy."""
    state = model.zero_state() if init is None else np.array(init, dtype=float)
    apply_minv = model.preconditioner()
    grad_history: List[float] = []
    energy_history: List[float] = []

    try:
        e_now = model.energy(state).total
    except Overflow as exc:
        return Solution(state, 0, [], [], False, f"overflow at initial state: {exc}")

    for it in range(settings.max_iters):
        grad = model.gradient(state)
        gsup = float(np.max(np.abs(grad)))
        grad_history.append(gsup)
        energy_history.append(e_now)
        if gsup <= settings.tol_grad_sup:
            return Solution(state, it, grad_history, energy_history, True)

        direction = _pcg(model.hessian_operator(state), -grad, apply_minv)
        slope = model.inner(grad, direction)
        if slope >= 0.0:  # roundoff-degenerate direction; fall back to steepest descent
            direction = -grad
            slope = model.inner(grad, direction)

        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            trial = state + alpha * direction
            try:
                e_trial = model.energy(trial).total
            except Overflow:
                e_trial = np.inf
            if e_trial <= e_now + ARMIJO_C * alpha * slope:
                accepted = True
                break
            if alpha == 1.0 and np.isfinite(e_trial):
                # near the minimum the energy decrease drowns in roundoff;
                # accept the full Newton step whenever it halves the
                # gradient (quadratic local convergence takes over there)
                if float(np.max(np.abs(model.gradient(trial)))) <= 0.5 * gsup:
                    accepted = True
                    break
            alpha *= BACKTRACK_FACTOR
        if not accepted:
            return Solution(state, it + 1, grad_history, energy_history, False,
                            "line search failed (step underflow)")
        state = trial
        e_now = e_trial

    grad = model.gradient(state)
    gsup = float(np.max(np.abs(grad)))
    grad_history.append(gsup)
    energy_history.append(e_now)
    if gsup <= settings.tol_grad_sup:
        return Solution(state, settings.max_iters, grad_history, energy_history, True)
    return Solution(state, settings.max_iters, grad_history, energy_history, False,
                    f"max_iters reached with sup gradient {gsup:.3e}")


def solve(mode: str, model: str, cfg: VortexConfig, grid, params: PhysicalParams,
          settings: Optional[SolverSettings] = None, init: Optional[np.ndarray] = None,
          background=None) -> Solution:
    """Solve one variant; torus variants are gated by the existence threshold."""
    settings = settings or SolverSettings()
    if mode == "torus":
        report = check_existence(cfg, grid, params, model=model)
        if not report.solvable:
            raise ThresholdViolated(report)
    bg = background if background is not None else build_background(cfg, grid, params)
    emodel = EnergyModel(mode=mode, model=model, bg=bg, cfg=cfg, params=params)
    return minimize(emodel, settings, init=init)

