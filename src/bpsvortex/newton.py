"""Globally convergent damped Newton minimization of the convex functionals.

Newton directions come from preconditioned conjugate gradients on the
Hessian (positive definite by strict convexity), step lengths from Armijo
backtracking on the energy.  CG runs on mode coefficients of the grid's
Laplacian eigenbasis, in the pairing ``grid.modal_inner``.  Each Newton step
linearizes once (``EnergyModel.linearize``): the Hessian with constant
coefficients at the iterate's mean masses is diagonal per mode there, and
its exact inverse is the preconditioner.
Every iterate s comes with its mode coefficients s_hat (``grid.to_modes``),
and a step with coefficients c moves them to s_hat + alpha c; each
line-search trial's state is brought back from its coefficients, so the two
agree to one transform's roundoff and never drift apart.  A step transforms
its gradient forward once (two transforms, one per state slice), each CG
iteration costs one Hessian apply (four transforms) and each line-search
trial two inverse ones.  The energy's gradient part is Parseval on s_hat
and costs none, and the gradient's Laplacians cost one inverse transform of
-K s_hat per slice.  These counts are per field; on the torus each pair
goes through one stacked FFT pass (``grid.to_modes``, ``grid.from_modes``,
``grid.laplacians`` and the Hessian's pair kernel), which halves the FFT
calls and changes no bit.  The method is an inexact Newton
method: CG stops at a relative residual, the forcing term, chosen per step
by choice 2 of Eisenstat & Walker ("Choosing the forcing terms in an inexact
Newton method", SIAM J. Sci. Comput. 17, 1996).  Early steps are solved
loosely; the forcing term shrinks with the gradient, which keeps the local
convergence superlinear, and a step that may be the last is solved to land
its gradient at a hundredth of the tolerance, no tighter.  A CG solve that
ends with a residual above its right-hand side gives no descent guarantee,
and its step takes steepest descent instead (``fallback: "cg_breakdown"``).
A tolerance below the gradient's roundoff floor ends as a named stall
(``STALL_STEPS``), not at ``max_iters``, and a state whose mass underflows,
so that the Hessian block has no finite inverse, ends with a named message
too.  So does a coupling so large that the Newton system leaves the float
range (``overflow in the Newton system: ...``): on the torus the gradient's
squared norm overflows from about lambda = 1e150, on the plane the
single-precision Hessian coefficients from about lambda = 1e38.
A solve runs on the problem's levels, coarsest first, and :func:`minimize`
solves each of them; :func:`solve_levels`, the level driver of both solvers,
states the level rule.
A torus solve first checks the existence threshold and refuses to iterate
when it fails.  It then follows the paper's split u = c + w: the start and
every accepted step are shifted by the constants that meet both integral
constraints (:func:`~bpsvortex.energy.constraint_shift`), which minimizes
the energy over the constant modes, the Hessian's worst-conditioned
direction near the threshold.  The shift takes its masses from the energy
evaluation that accepted the step and its energy change in closed form, so
it costs no exponential, transform or energy call; in s_hat it moves the
constant mode alone.  A full step that the line search accepts for halving
the gradient hands that gradient's Laplacians on to the next iteration (a
shift by constants leaves them as they are), and on the plane, which has no
constant mode and no shift, the gradient itself.  A converged solve returns
its final s_hat and the Laplacians of its last gradient
(:attr:`Solution.modes`, :attr:`Solution.laplacians`); the diagnostics take
the residuals from those without a transform.  Failure to converge is
reported through the returned :class:`Solution` (``converged = False`` plus
a message), not an exception, so partial results stay inspectable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import backgrounds
from .backgrounds import (Background, PhysicalParams, VortexConfig, build_background,
                          check_existence, check_labels)
from .energy import EnergyModel, constraint_shift
from .errors import Overflow, SingularHessian, ThresholdViolated
from .grids import TorusGrid


# Armijo sufficient-decrease constant: any value in (0, 1/2) lets the full
# Newton step through near the minimum; the usual 1e-4 accepts nearly
# every descending step
ARMIJO_C = 1e-4
# the step length halves on every rejected line-search trial
BACKTRACK_FACTOR = 0.5
# smallest forcing term: the last-step rule asks for less only when a
# gradient above 1e8 times the tolerance may drop under it in one step, and a
# relative CG residual far below 1e-10 is at roundoff level
CG_TOL = 1e-10
# forcing term of the first Newton step and cap on every later one: far from
# the minimum the quadratic model is a rough guide, so a tighter solve there
# buys no better step, and a 1e-2 relative residual still gives a descent
# direction close to the Newton step
ETA_MAX = 1e-2
# Eisenstat-Walker choice 2 with gamma = 0.9, alpha = 2:
# eta_k = 0.9 (|g_k| / |g_{k-1}|)^2 follows the observed quadratic decrease
# of the gradient.  Their safeguard max(eta_k, 0.9 eta_{k-1}^2), applied when
# 0.9 eta_{k-1}^2 > 0.1, never fires under the ETA_MAX cap (0.9 eta^2 <= 9e-5),
# so it is left out
EW_GAMMA = 0.9
# last-step rule: a step whose predicted gradient eta_k |g_k|_sup lies within
# LAST_STEP_WINDOW times the tolerance may be the last one, so it is solved
# to put the predicted gradient at LAST_STEP_MARGIN times the tolerance, no
# tighter (Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995,
# 6.3): choice 2 collapses there, and solving to it lands orders of magnitude
# under the tolerance for nothing.  A forcing term that only just reaches the
# tolerance can stop a hair above it and cost a whole extra Newton iteration
LAST_STEP_WINDOW = 10.0
LAST_STEP_MARGIN = 0.01
# CG iteration cap per Newton step; the preconditioned systems take a few
# tens of iterations, so it only stops a breakdown
CG_MAX_ITERS = 2000
# stall stop: a step solved under the last-step rule is predicted to land
# under the tolerance.  This many such steps that miss it and do not even
# halve the smallest sup gradient so far (the progress the line search asks
# of a full step near the minimum) mean the gradient sits at its roundoff
# floor.  The count never restarts: at the floor the line search may damp
# steps, and in the global phase the rule does not fire.  Near the existence
# threshold the rule fires several steps before convergence, while each step
# still cuts the gradient by more than half
STALL_STEPS = 3
# a level whose spectral tail (``grid.spectral_tail`` of its solution's
# coefficients) is at most this resolves its solution, and its prolongation
# starts the fine level at a sup gradient of about the tail's size or less
# (torus-compare: tails 5.6e-12 and 2.7e-11 give fine starts at 2.2e-11 and
# 3.2e-12), under the default tolerance tol_grad_sup = 1e-9; above it
# (plane-solve: 2.8e-7 to 6.9e-7, fine starts 1.6e-7 to 4.3e-7) a cold
# solve goes through the resolving level (see solve_levels).  One value for
# both solvers: the fixed point's INNER_TOL = 1e-11 would give torus-compare
# a 170^2 level that its 64^2 start does not need
RESOLVED_TAIL = 1e-9


@dataclass(frozen=True)
class SolverSettings:
    """Newton stopping rule: the sup-norm gradient tolerance and the iteration cap.

    The gradient is minus the residuals (r1, r2 / 2) of the reduced system on
    both grids (see :mod:`bpsvortex.energy`), so a solve that stops at
    ``tol_grad_sup`` has sup residuals at most ``tol_grad_sup`` for the first
    equation and ``2 tol_grad_sup`` for the second.  The line-search and CG
    constants are module constants above; no run sets them differently.
    """

    tol_grad_sup: float = 1e-9
    max_iters: int = 100

    def __post_init__(self):
        for name in ("tol_grad_sup", "max_iters"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Solution:
    """A solve's result on its fine grid, with one record per level it ran on.

    ``state`` is the fine level's last iterate and ``iterations`` its Newton
    steps or map applications; ``grad_history`` logs the sup gradient (the
    fixed point's relative residual) at each, ``energy_history`` Newton's
    energy, ``newton_steps`` Newton's work per step (forcing term, CG and
    line search, fallback taken), and ``omega`` is the fixed point's
    relaxation.  ``levels`` holds a record for every level of
    :func:`solve_levels`, coarsest first and the fine level last (one
    without a coarse level): its grid's ``shape``, its ``iterations`` and
    ``converged``, its first and last ``grad_history`` entry as
    ``sup_start`` and ``sup_final`` (``None`` when it is empty) and, on a
    Newton level, its ``newton_steps`` as ``steps``; a record holds no
    array.  ``coarse_s`` is the wall time of the levels below the fine grid.
    """

    state: np.ndarray
    iterations: int
    grad_history: List[float]
    energy_history: List[float]
    converged: bool
    message: str = ""
    omega: Optional[float] = None
    newton_steps: Optional[list] = None
    levels: Optional[List[dict]] = None
    coarse_s: Optional[float] = None
    # Newton only: the state's mode coefficients (``grid.to_modes``), carried
    # through the solve, and on convergence the stacked Laplacians of its two
    # slices, from its last gradient
    modes: Optional[np.ndarray] = None
    laplacians: Optional[np.ndarray] = None
    # with ``keep_coarse`` only: the coefficients on the coarse grid that a
    # continuation path carries (see solve_levels)
    coarse_modes: Optional[np.ndarray] = None


def _level_record(grid, sol: Solution) -> dict:
    """The :attr:`Solution.levels` record of ``sol``, a solve on ``grid``."""
    history = sol.grad_history or [None]
    record = {"shape": list(grid.shape), "iterations": sol.iterations,
              "converged": sol.converged, "sup_start": history[0], "sup_final": history[-1]}
    return record if sol.newton_steps is None else {**record, "steps": sol.newton_steps}


def _pcg(apply_a, b, apply_minv, inner, rel_tol):
    """Preconditioned conjugate gradients in the pairing ``inner``.

    Stops once the residual is at most ``rel_tol`` times ``|b|``.  Returns
    ``(x, iterations, final relative residual)``; ``iterations`` counts
    applies of ``apply_a``.

    ``b`` is consumed: it becomes the residual.  Updates are in place, with
    the operator result as the scratch of the ``x`` update, and each operator
    result is dropped before the next operator call, so the loop holds x, r,
    p and one operator result at a time.
    """
    x = np.zeros_like(b)
    b_norm = math.sqrt(inner(b, b))
    if b_norm == 0.0:
        return x, 0, 0.0
    r = b
    p = apply_minv(r)
    rz = inner(r, p)
    rel_res = 1.0
    iters = 0
    while iters < CG_MAX_ITERS:
        ap = apply_a(p)
        iters += 1
        pap = inner(p, ap)
        if pap <= 0.0:
            break  # cannot happen for an SPD Hessian; guard against roundoff
        alpha = rz / pap
        ap *= alpha
        r -= ap
        x += np.multiply(p, alpha, out=ap)
        del ap
        rel_res = math.sqrt(inner(r, r)) / b_norm
        if rel_res <= rel_tol:
            break
        z = apply_minv(r)
        rz_new = inner(r, z)
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new
    return x, iters, rel_res


def _sup(a) -> float:
    """max |a|, without the temporary |a| (a state pair at the fine grid).

    Adding 0.0 turns the -0.0 of a zero ``a`` (-a.min() is -0.0) into +0.0
    and leaves every nonzero value as it is.
    """
    return float(np.maximum(a.max(), -a.min())) + 0.0


def _forcing_term(g_norm: float, g_norm_prev: Optional[float], gsup: float,
                  tol: float) -> Tuple[float, bool]:
    """CG relative tolerance of one Newton step (see the constants above).

    Also returns whether the last-step rule set it.
    """
    if g_norm_prev is None:
        eta = ETA_MAX
    else:
        eta = min(ETA_MAX, EW_GAMMA * (g_norm / g_norm_prev) ** 2)
    last_step = eta * gsup <= LAST_STEP_WINDOW * tol
    if last_step:
        eta = min(ETA_MAX, LAST_STEP_MARGIN * tol / gsup)
    return max(eta, CG_TOL), last_step


def solve_levels(bg: Background, params: PhysicalParams, solve_level: Callable,
                 init: Optional[np.ndarray] = None, levels: Optional[list] = None,
                 coarse_init: Optional[np.ndarray] = None, keep_coarse: bool = False) -> Solution:
    """Solve ``bg``'s problem on its levels, coarsest first: the level rule of both solvers.

    The levels are ``[coarsest, bg.grid]``, ``[coarsest, resolving,
    bg.grid]`` or ``bg.grid`` alone where there is no coarsest.  The
    coarsest is ``bg.grid.coarsest(tau)``, the coarsest grid of the halving
    chain that resolves sqrt(tau), at the domain's core scale tau
    (:func:`~bpsvortex.backgrounds.core_scale`), the same on every level, so
    that all levels split the sources alike.  This is nested iteration in
    the sense of mesh independence (Allgower, Boehmer, Potra & Rheinboldt,
    SIAM J. Numer. Anal. 23, 1986): a level's solution coefficients,
    zero-padded onto the next level (``grid.prolong``, no transform), start
    it, and every level keeps the solver's stopping rule.  A fine level
    whose start already meets it costs one check and no step.

    The resolving level R (``bg.grid.resolving_level()``, two thirds of the
    fine grid's intervals per axis: 256 for a 384 plane, 64 for a 96^2
    torus) goes between the coarsest level and the fine grid in a cold
    solve whose coarsest solution is not resolved: its spectral tail
    (``grid.spectral_tail`` of its coefficients, the largest coefficient in
    the top third of the band in either axis over the largest) exceeds
    ``RESOLVED_TAIL``.  R starts from the prolonged coarsest solution, and
    its own solution starts the fine level, whatever its own tail: a solve
    goes through one resolving level at most.  Tails of the coarsest level
    at ``RESOLVED_TAIL`` = 1e-9:

    ============================  =============  ============
    case                          tail           levels
    ============================  =============  ============
    plane-solve, seeds 1-12       2.8e-7-6.9e-7  192, 256, 384
    torus-compare, Newton         5.6e-12        64, 256
    torus-compare, fixed point    2.7e-11        64, 256
    torus-sweep, cold row         2.0e-9         48, 64, 96
    ============================  =============  ============

    On plane-solve R takes one Newton iteration and hands the fine level a
    start at 3.4e-10-9.4e-10, under tol = 1e-9, so the fine level takes no
    step.  Warm sweep rows never go through R.

    ``solve_level(level_bg, start)`` solves the problem of the background
    ``level_bg`` on its grid alone and returns its :class:`Solution`.
    ``start`` is a list ``[state, modes]``, the start and its mode
    coefficients (``grid.to_modes``; ``None`` when the solver is to compute
    them), or ``[None, None]`` for the solver's zero start.  The call empties
    it, so that no frame above the level's solver holds the start while it
    runs.

    The levels below the fine grid go through one loop.  Each is solved and
    appends its record (:func:`_level_record`) to :attr:`Solution.levels`;
    when it converged, its coefficients (its solution's ``modes``, or
    without them those of its state) are prolonged into the next level's
    start.  R's start is a new pair of buffers, the fine level's the one
    allocated before the lower levels (see below).  A level that does not
    converge ends the walk, and the fine level then starts from ``init``
    (the zero start when cold).

    A cold solve (no ``init``) starts its coarse level from zero.  A warm
    one, from ``init`` (taken over, not copied; its coefficients cost one
    ``to_modes``), goes through the coarse level only with ``coarse_init``,
    the coarse predictor p_c (coefficients on the coarse grid, read only),
    and only where the coarse grid also resolves the core length
    1/sqrt(lambda) (``grid.resolves``); the coarse level starts from p_c.
    The fine level then starts from init + prolong(s_c - p_c), s_c the
    solution of the level below it, at two inverse transforms: the coarse
    correction of the tau-correction in FAS multigrid (Brandt, "Multi-level
    adaptive solutions to boundary-value problems", Math. Comp. 31, 1977),
    with init = p_c = 0 when cold.  A sweep path builds p_c from its rows'
    coarse coefficients as it builds ``init`` from their states, so that
    init - prolong(p_c) carries the fine-minus-coarse discretization defect
    along the path; on the torus-sweep workload a warm row's fine level
    then starts under its tolerance and takes no step.

    ``levels`` is the background handle: a list in which a caller that
    solves one problem more than once (a sweep path, ``compare``'s two
    solvers) keeps the coarsest level's background.  The first solve that
    needs it builds it there and later ones reuse it.  A coarse predictor
    comes with its level: ``coarse_init`` without a filled handle raises
    ``ValueError``.  Every other level below the fine grid, R always, has
    its background built for the call (through :func:`build_background`)
    and freed when its solve returns, so that the next level takes its
    place on the heap (one that outlived the coarse level cost plane-solve
    1.1-1.9 MB of peak RSS); a level's solution and grid go before the next
    level runs too.  The fine start and its coefficients are allocated
    before the coarse solve for the same reason: they sit below the lower
    levels' short-lived arrays, and the fine level reuses their space (a
    start made after them cost plane-solve 1.1 MB).

    Returns the fine level's solution with its :attr:`Solution.levels` and,
    after lower levels, :attr:`Solution.coarse_s`.
    With ``keep_coarse`` (a sweep row), :attr:`Solution.coarse_modes` holds
    the coefficients the path carries on the coarsest grid: s_c itself,
    held through the levels above it, or without it the restriction of the
    fine solution's ``modes``.  Without it s_c is dropped before the next
    level runs.
    """
    grid = bg.grid
    if coarse_init is not None and not levels:
        raise ValueError("coarse_init needs its level: pass the levels handle that the "
                         "solve of its coarse coefficients filled")
    # ``level`` is the next level below the fine grid to solve.  Only a path
    # keeps the coarsest grid past its level: one that no background holds
    # takes its cached bases along when it goes
    level = levels[0].grid if levels else grid.coarsest(backgrounds.core_scale(grid))
    coarse = level if keep_coarse else None
    base = None if init is None else grid.to_modes(init)
    fine = [init, base]
    records, seconds, kept = [], None, None
    if level is not None and (init is None or coarse_init is not None
                              and level.resolves(1.0 / math.sqrt(params.lam))):
        t0 = time.perf_counter()
        # a background the handle keeps outlives the solve, so it goes
        # below the start on the heap; one built for the call alone goes
        # above it and is freed when its level's solve returns
        if levels is not None and not levels:
            levels.append(build_background(bg.cfg, level, params))
        start, modes = np.empty((2,) + grid.shape), grid.empty_modes()
        begin = [None if init is None else level.from_modes(coarse_init), None]
        while level is not None:
            sol = solve_level(levels[0] if levels and not records
                              else build_background(bg.cfg, level, params), begin)
            records.append(_level_record(level, sol))
            coeffs = ((level.to_modes(sol.state) if sol.modes is None else sol.modes)
                      if sol.converged else None)
            del sol
            if level is coarse:
                kept = coeffs
            # R follows the coarsest level of a cold solve that does not
            # resolve its solution; any other converged level starts the fine one
            upper = (grid.resolving_level() if init is None and coeffs is not None
                     and len(records) == 1 and level.spectral_tail(coeffs) > RESOLVED_TAIL
                     else None)
            if upper is not None:
                begin = upper.prolong(level, coeffs, upper.empty_modes())
                begin = [upper.from_modes(begin), begin]
            elif coeffs is not None:
                grid.prolong(level, coeffs if init is None else np.subtract(coeffs, coarse_init),
                             modes)
                coeffs = None  # freed before the transform's temporaries are made
                if base is not None:
                    modes += base
                fine[:] = grid.from_modes(modes, out=start), modes
            level, coeffs = upper, None
        seconds = time.perf_counter() - t0
    level = init = base = start = modes = None
    sol = solve_level(bg, fine)
    if coarse is not None:
        sol.coarse_modes = (kept if kept is not None
                            else grid.restrict(coarse, sol.modes, coarse.empty_modes()))
    sol.levels, sol.coarse_s = records + [_level_record(grid, sol)], seconds
    return sol


def minimize(model: EnergyModel, settings: SolverSettings, init: Optional[np.ndarray] = None,
             modes: Optional[np.ndarray] = None) -> Solution:
    """Damped Newton descent on the energy of ``model``'s background, on its grid alone.

    A torus problem is first gated by its existence threshold.  There the
    start and every accepted step are shifted onto both integral constraints
    (:func:`constraint_shift`), at the masses of the energy evaluation that
    accepted them.  The start is ``init`` with its mode coefficients
    ``modes``, which cost one ``to_modes`` when not given, or without
    ``init`` the zero state.  A float ``init`` and its ``modes`` are taken
    over, not copied, and on the torus the shift moves both in place.  The
    plane never writes into its states, which vanish on the Dirichlet ring;
    an ``init`` that does not is copied with the ring set to zero (its
    coefficients, those of the interior, stay as they are).  Every iterate's
    coefficients are carried beside it, updated by the same linear steps,
    and returned in :attr:`Solution.modes`.
    """
    bg, params, grid = model.bg, model.params, model.grid
    torus = isinstance(grid, TorusGrid)
    if torus:
        report = check_existence(bg.cfg, grid, params)
        if not report.solvable:
            raise ThresholdViolated(report)
    if init is None:
        state, modes = model.zero_state(), grid.empty_modes()
        modes.fill(0.0)
    else:
        state = np.asarray(init, dtype=float)
        if not torus and (state[:, [0, -1]].any() or state[:, :, [0, -1]].any()):
            state = grid.zero_boundary(state.copy())
        if modes is None:
            modes = grid.to_modes(state)
    # drop this frame's second reference to the start, so that the first
    # step frees a start that no caller holds
    init = None
    inner = grid.modal_inner
    grad_history: List[float] = []
    energy_history: List[float] = []
    steps: List[dict] = []

    def finish(iterations, converged, message="", laplacians=None):
        # a step that fails after dropping its state returns it from its modes
        final = grid.from_modes(modes) if state is None else state
        return Solution(final, iterations, grad_history, energy_history, converged,
                        message, newton_steps=steps, modes=modes, laplacians=laplacians)

    def settle(breakdown) -> float:
        """The energy of ``state`` once the torus shift has moved it (and its modes)."""
        if not torus:
            return breakdown.total
        return breakdown.total + constraint_shift(state, breakdown.masses, bg, params, modes)

    try:
        breakdown = model.energy(state, model.dirichlet(modes))
        e_now = settle(breakdown)
    except Overflow as exc:
        return finish(0, False, f"overflow at initial state: {exc}")
    except SingularHessian as exc:
        return finish(0, False, f"singular Hessian block: {exc}")

    g_norm_prev = grad = laps = None
    last_step, stall_count, best = False, 0, math.inf
    for it in range(settings.max_iters + 1):
        if laps is None:
            laps = grid.laplacians(modes)
        if grad is None:
            grad = model.gradient(state, laps)
        gsup = _sup(grad)
        grad_history.append(gsup)
        energy_history.append(e_now)
        if gsup <= settings.tol_grad_sup:
            return finish(it, True, laplacians=laps)
        laps = None
        stall_count += last_step and gsup > 0.5 * best
        best = min(best, gsup)
        if stall_count == STALL_STEPS:
            return finish(it, False, f"stalled at sup gradient {gsup:.3e} (best {best:.3e}): "
                                     f"{STALL_STEPS} steps solved to land under tol "
                                     "did not halve the best")
        if it == settings.max_iters:
            return finish(it, False, f"max_iters reached with sup gradient {gsup:.3e}")
        # the Newton system H c = -g, solved on mode coefficients.  After the
        # linearization the step reads the state and the gradient through
        # their coefficients only, and the CG solve runs without either field
        # (the state goes first, so that the gradient's coefficients can take
        # its place on the heap).  A coupling so large that the Hessian's
        # coefficients or the gradient's squared norm leave the float range
        # ends the solve by name, before any non-finite number reaches CG
        try:
            with np.errstate(over="raise", invalid="raise"):
                lin = model.linearize(state)
                state = None
                rhs = grid.to_modes(grad)
                np.negative(rhs, out=rhs)
                grad = None
                g_norm = math.sqrt(inner(rhs, rhs))
                eta, last_step = _forcing_term(g_norm, g_norm_prev, gsup,
                                               settings.tol_grad_sup)
                g_norm_prev = g_norm
                coeffs, cg_iters, cg_rel_res = _pcg(model.hessian_operator(lin), rhs.copy(),
                                                    model.preconditioner(lin), inner, eta)
        except SingularHessian as exc:
            return finish(it, False, f"singular Hessian block: {exc}")
        except FloatingPointError as exc:
            return finish(it, False, f"overflow in the Newton system: {exc} "
                                     f"(lambda = {params.lam:.3g})")
        mean_exp = list(lin.mean_exp)
        # the line search needs neither; dropping the linearization's two
        # fields before the trials are formed keeps them off the peak
        del lin
        # the slope <g, c> of the energy along the step, by Parseval
        if cg_rel_res > 1.0:
            # a residual above |b| leaves the iterate no descent guarantee
            fallback = "cg_breakdown"
        else:
            slope, fallback = -inner(rhs, coeffs), None
            if slope >= 0.0:  # roundoff-degenerate direction
                fallback = "steepest_descent"
        if fallback:
            coeffs = rhs
            slope = -inner(rhs, rhs)
        del rhs

        # every trial is built from its coefficients, s = from_modes(s_hat +
        # alpha c), so that the state and its coefficients agree to one
        # inverse transform and their roundoff never accumulates; rejected
        # trials leave their storage to the next
        trial, trial_modes = np.empty((2,) + grid.shape), np.empty_like(modes)
        alpha = 1.0
        evals = 0
        accepted = False
        while alpha > 1e-14:
            np.multiply(coeffs, alpha, out=trial_modes)
            trial_modes += modes
            grid.from_modes(trial_modes, out=trial)
            evals += 1
            try:
                breakdown = model.energy(trial, model.dirichlet(trial_modes))
                e_trial = breakdown.total
            except Overflow:
                e_trial = np.inf
            if e_trial <= e_now + ARMIJO_C * alpha * slope:
                accepted = True
                break
            if alpha == 1.0 and np.isfinite(e_trial):
                # near the minimum the energy decrease drowns in roundoff;
                # accept the full Newton step whenever it halves the
                # gradient (quadratic local convergence takes over there)
                laps = grid.laplacians(trial_modes)
                grad = model.gradient(trial, laps)
                if _sup(grad) <= 0.5 * gsup:
                    accepted = True
                    fallback = fallback or "gradient_halved"
                    # the next iteration's Laplacians and, unless the torus
                    # shift moves the state, its gradient; a shift by
                    # constants leaves the Laplacians as they are
                    if torus:
                        grad = None
                    break
                grad = laps = None
            alpha *= BACKTRACK_FACTOR
        steps.append({"eta": eta, "cg_iters": cg_iters, "cg_rel_residual": cg_rel_res,
                      "alpha": alpha, "linesearch_evals": evals, "fallback": fallback,
                      "mean_exp": mean_exp})
        if not accepted:
            return finish(it + 1, False, "line search failed (step underflow)")
        # the step's coefficients do not outlive it: the next linearization
        # and CG solve run without them
        del coeffs
        state, modes = trial, trial_modes
        try:
            e_now = settle(breakdown)
        except SingularHessian as exc:
            return finish(it + 1, False, f"singular Hessian block: {exc}")


def solve(mode: str, model: str, cfg: VortexConfig, grid, params: PhysicalParams,
          settings: Optional[SolverSettings] = None, init: Optional[np.ndarray] = None,
          background=None, levels: Optional[list] = None,
          coarse_init: Optional[np.ndarray] = None, keep_coarse: bool = False) -> Solution:
    """Minimize the problem of ``cfg`` on ``grid`` (or of ``background``, built for them).

    ``mode`` and ``model`` are labels: :func:`check_labels` raises
    ``ValueError`` when they disagree with the grid, the zero set or
    ``background``.  The variant is the zero set's.  :func:`minimize` solves
    each level of :func:`solve_levels`, which takes ``init`` (taken over, not
    copied), ``levels``, ``coarse_init`` and ``keep_coarse``.
    """
    check_labels(mode, model, cfg, grid, background)
    bg = background if background is not None else build_background(cfg, grid, params)
    settings = settings or SolverSettings()
    # the start goes on through a list that the call empties, so that this
    # frame does not hold it: minimize frees a start that no caller holds
    # before its first CG solve
    start = [init]
    del init
    return solve_levels(bg, params, lambda level_bg, begin: minimize(
        EnergyModel(level_bg, params), settings, init=begin.pop(0), modes=begin.pop()),
        init=start.pop(), levels=levels, coarse_init=coarse_init, keep_coarse=keep_coarse)
