"""Fixed-point continuation: the second, independent route to the torus solution.

The iteration works in the zero-mean space X of pairs ``(u', w')`` (arrays of
shape ``(2, nx, ny)`` whose slices both have vanishing cell average), the
remainders of ``u = u0 + u_bar + u'`` and ``v = v0 + v_bar + w'`` after the
backgrounds and the field means.  For a homotopy parameter ``t`` the map
``apply_T`` assembles the normalized right-hand sides

    E_u = C2*e^{t u0 + u'}/I[e^{t u0 + u'}],   E_v = C1*e^{t v0 + w'}/I[e^{t v0 + w'}],
    R1 = lam*t*( 2*E_u - E_v - 1 ) + t*src_u,
    R2 = lam*t*( 3*E_v - 2*E_u - 1 ) + t*(src_f - src_u)

with the background's sources ``(src_u, src_f)`` (``u0`` and ``src_u`` vanish
in the base model) and the constraint targets ``(C1, C2)`` of
``ThresholdReport.constraints``, which give both zero mean.  The map projects
out quadrature roundoff and inverts the Laplacian on each, so the output lies
in X again.  Fixed points of ``apply_T(., t)`` at ``t = 1`` solve the full
system; the two field means are recovered from the integral constraints
afterwards.

Stages are solved by depth-1 Anderson acceleration of the same map (Walker &
Ni, SIAM J. Numer. Anal. 49, 2011) with a residual safeguard: a trial is
accepted only when it does not increase the residual, so the accepted
residual sequence of a stage is non-increasing, and a rejected Anderson
trial falls back to a damped Picard step whose relaxation halves whenever
the residual would increase.  Acceleration changes the path to a fixed
point, not the fixed points, so the result stays independent of Newton.
A trial whose map application overflows (``Overflow`` from a divergent
iterate) counts as rejected, as an overflowing trial does in Newton's line
search, so a stage that cannot proceed stalls instead of raising.

The schedule starts as the single stage ``t = 1`` from the zero pair.  When
a stage stalls, the midpoint between its ``t`` and the last converged one
(0 at first) is inserted before it, solved first and used as the stalled
stage's warm start, so ``t = 1/2, 1/4, ...`` are tried while every attempt
stalls; after ``MAX_REFINEMENTS`` insertions the solve gives up.
``Solution.stages`` records every stage attempt.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .backgrounds import Background, PhysicalParams, check_existence
from .energy import _checked_exp
from .errors import NonZeroMeanRhs, Overflow, ThresholdViolated
from .grids import TorusGrid
from .newton import Solution

# relaxation of the first damped Picard step of every stage; it grows by 1.2
# per accepted trial up to 1 and halves per rejected damped trial
OMEGA0 = 0.5
# stage tolerance on the relative sup residual |T(x) - x| / (1 + |x|):
# tight enough that the two solvers agree far inside the 1e-6 of the
# cross-method check (about 1e-9 on a 256^2 two-vortex torus)
INNER_TOL = 1e-11
# trials per stage before the stage counts as stalled
INNER_MAX_TRIALS = 5000
# midpoint insertions below t = 1 before the solve gives up
MAX_REFINEMENTS = 3


def zero_mean_pair(u_prime: np.ndarray, w_prime: np.ndarray) -> np.ndarray:
    """Stack two fields into an X element, verifying the zero-mean invariant."""
    pair = np.stack([np.asarray(u_prime, dtype=float), np.asarray(w_prime, dtype=float)])
    for k in (0, 1):
        scale = float(np.max(np.abs(pair[k]))) + 1e-300
        if abs(float(pair[k].mean())) > 1e-12 * scale:
            raise NonZeroMeanRhs(f"component {k} of pair is not zero-mean")
    return pair


def apply_T(pair: np.ndarray, t: float, bg: Background, params: PhysicalParams,
            c1: Optional[float] = None, c2: Optional[float] = None,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """One application of the homotopy map at parameter ``t`` (factor included).

    ``c1``, ``c2`` default to the constraint targets of ``bg.cfg``.  The
    result is written to ``out`` (a new array when it is ``None``), which
    must not overlap ``pair``; ``pair`` is only read.
    """
    grid: TorusGrid = bg.grid
    if c1 is None or c2 is None:
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
    lam_t = lam * t
    rhs1 = np.subtract(dens_u, dens_v)
    rhs1 -= 1.0
    rhs1 *= lam_t
    rhs1 += t * bg.src_u
    rhs2 = dens_v
    rhs2 *= 3.0
    rhs2 -= dens_u
    rhs2 -= 1.0
    rhs2 *= lam_t
    rhs2 += t * (bg.src_f - bg.src_u)

    for k, r in enumerate((rhs1, rhs2)):
        m = float(r.mean())
        scale = max(float(r.max()), -float(r.min())) + 1e-300
        if abs(m) > 1e-8 * scale:
            # zero mean holds analytically; a large projection residual is a bug
            raise NonZeroMeanRhs(f"rhs {k} mean {m:.3e} too large relative to {scale:.3e}")
        r -= m
        grid.poisson_solve_zero_mean(r, out=out[k])
    return out


def _residual(pair: np.ndarray, t_pair: np.ndarray, work: np.ndarray) -> float:
    scale = 1.0 + max(float(pair.max()), -float(pair.min()))
    diff = np.subtract(pair, t_pair, out=work)
    return max(float(diff.max()), -float(diff.min())) / scale


def _solve_stage(pair, t, bg, params, c1, c2, residual_log, stage_log=None):
    """Safeguarded Anderson iteration at one ``t``; returns (converged, pair, trials).

    With f(x) = T(x) - x, a depth-1 Anderson step from the iterate x_k
    mixes the last two images: ``T(x_k) - gamma*dG`` with ``dG = T(x_k) -
    T(x_{k-1})``, ``dF = f_k - f_{k-1}`` and the scalar least-squares
    coefficient ``gamma = <dF, f_k> / <dF, dF>``.  A trial is accepted only
    when its residual does not exceed the current one (up to 1e-12
    relative), so the accepted residuals of a stage never increase.  A
    rejected Anderson trial clears the history, and the next trial is the
    damped Picard step ``(1 - omega)*x + omega*T(x)``, with omega starting at
    ``OMEGA0``; omega grows by 1.2 (up to 1) on every acceptance and halves
    on every rejected damped trial.  The stage converges once the residual
    is at most ``INNER_TOL`` and gives up after ``INNER_MAX_TRIALS`` trials
    or once omega drops below 1e-8.  A trial whose map application raises
    ``Overflow`` has an infinite residual, so it is rejected like any other.
    Every trial counts, fallbacks included; each accepted residual is
    appended to ``residual_log`` and, when ``stage_log`` is given, one entry
    describing the stage (with the final omega) is appended to it.

    Works in four pair buffers (the iterate, its image, the trial and the
    trial's image), swapped when a trial is accepted, plus the two history
    slots; the dF slot is also the residual work buffer, since it is free
    from the moment gamma is computed until the history is rebuilt on
    acceptance.  The caller's ``pair`` is copied, not modified.
    """
    omega = OMEGA0
    pair = pair.copy()
    t_pair = apply_T(pair, t, bg, params, c1, c2, out=np.empty_like(pair))
    trial = np.empty_like(pair)
    t_trial = np.empty_like(pair)
    d_f = np.empty_like(pair)
    d_g = np.empty_like(pair)
    res = _residual(pair, t_pair, d_f)
    have_history = False
    trials = accepted = anderson_rejected = 0
    while res > INNER_TOL and trials < INNER_MAX_TRIALS:
        if have_history:
            np.subtract(t_pair, pair, out=trial)  # f_k
            d_f_sq = float(np.vdot(d_f, d_f))
            gamma = float(np.vdot(d_f, trial)) / d_f_sq if d_f_sq > 0.0 else 0.0
            np.multiply(d_g, gamma, out=trial)
            np.subtract(t_pair, trial, out=trial)
        else:
            # (1 - omega) * pair + omega * t_pair
            np.multiply(pair, 1.0 - omega, out=trial)
            trial += np.multiply(t_pair, omega, out=d_f)
        try:
            res_trial = _residual(trial, apply_T(trial, t, bg, params, c1, c2, out=t_trial), d_f)
        except Overflow:
            res_trial = math.inf
        trials += 1
        if res_trial <= res * (1.0 + 1e-12):
            # dG = T(trial) - T(pair), dF = dG - (trial - pair)
            np.subtract(t_trial, t_pair, out=d_g)
            np.subtract(trial, pair, out=d_f)
            np.subtract(d_g, d_f, out=d_f)
            have_history = True
            pair, trial = trial, pair
            t_pair, t_trial = t_trial, t_pair
            res = res_trial
            residual_log.append(res)
            accepted += 1
            omega = min(1.0, omega * 1.2)
        elif have_history:
            have_history = False
            anderson_rejected += 1
        else:
            omega *= 0.5
            if omega < 1e-8:
                break
    converged = res <= INNER_TOL
    if stage_log is not None:
        stage_log.append({"t": t, "omega": omega, "trials": trials, "accepted": accepted,
                          "anderson_rejected": anderson_rejected, "converged": converged})
    return converged, pair, trials


def continuation_solve(bg: Background, params: PhysicalParams) -> Solution:
    """Solve ``x = T(x, 1)`` from the zero pair, refining towards ``t = 0`` on a stall."""
    grid: TorusGrid = bg.grid
    report = check_existence(bg.cfg, grid, params)
    if not report.solvable:
        raise ThresholdViolated(report)
    c1, c2 = report.constraints

    pair = np.zeros((2,) + grid.shape)
    residual_log: List[float] = []
    stage_log: List[dict] = []
    pending = [1.0]
    refinements = 0
    total_iters = 0
    idx = 0
    while idx < len(pending):
        t = pending[idx]
        ok, pair_new, iters = _solve_stage(pair, t, bg, params, c1, c2,
                                           residual_log, stage_log)
        total_iters += iters
        if ok:
            pair = pair_new
            idx += 1
            continue
        refinements += 1
        if refinements > MAX_REFINEMENTS:
            state = _recover_state(pair_new, bg, c1, c2)
            return Solution(state, total_iters, residual_log, [], False,
                            f"stage t={t:.4g} exhausted iterations", stage_log)
        t_prev = pending[idx - 1] if idx > 0 else 0.0
        pending.insert(idx, 0.5 * (t_prev + t))

    state = _recover_state(pair, bg, c1, c2)
    return Solution(state, total_iters, residual_log, [], True, "", stage_log)


def _recover_state(pair: np.ndarray, bg: Background, c1: float, c2: float) -> np.ndarray:
    """Recover the field means from the integral constraints at t = 1."""
    grid: TorusGrid = bg.grid
    u_bar = math.log(c2) - math.log(grid.integrate(np.exp(bg.u0 + pair[0])))
    v_bar = math.log(c1) - math.log(grid.integrate(np.exp(bg.v0 + pair[1])))
    g = u_bar + pair[0]  # g = u - u0
    return np.stack([g, g + (v_bar + pair[1])])  # f = g + (v - v0)
