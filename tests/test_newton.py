import json
import math
import runpy
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bpsvortex as bv
from bpsvortex import newton, runner
from bpsvortex.runner import run
from bpsvortex.cli import main
from bpsvortex.config import parse_config
from bpsvortex.energy import EnergyModel
from bpsvortex.errors import Overflow, ThresholdViolated

from conftest import count_hessian_applies, random_state

L20 = math.sqrt(20.0)
ROOT = Path(__file__).resolve().parents[1]


def compare_workload_config(seed):
    """The torus-compare benchmark configuration of ``seed``."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    return workloads["compare_config"](seed)


class TestTrivialSolves:
    def test_empty_torus_config_converges_immediately(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        sol = bv.solve("torus", "base", bv.VortexConfig(), grid, bv.PhysicalParams(lam=1.0))
        assert sol.converged
        assert sol.iterations <= 2
        assert np.max(np.abs(sol.state)) < 1e-12

    def test_threshold_violation_refused_before_iterating(self):
        side = math.sqrt(2.0 * math.pi)
        grid = bv.TorusGrid(side, side, 16, 16)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0),))
        with pytest.raises(ThresholdViolated) as err:
            bv.solve("torus", "base", cfg, grid, bv.PhysicalParams(lam=1.0))
        assert not err.value.report.solvable

    @settings(deadline=None, database=None, derandomize=True, max_examples=25)
    @given(side=st.floats(3.0, 6.0), n=st.integers(1, 3), m=st.integers(0, 2),
           factor=st.floats(0.5, 2.0).filter(lambda f: abs(f - 1.0) > 1e-3),
           nodes=st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)),
                          min_size=5, max_size=5, unique=True))
    # a solvable case on which the second line binds (m > n)
    @example(side=4.0, n=1, m=2, factor=1.5, nodes=[(3, 5), (10, 20), (25, 7), (17, 28), (0, 0)])
    def test_threshold_sign_decides_the_outcome(self, side, n, m, factor, nodes):
        # lambda a factor above or below the binding line of the two
        # thresholds (the second one binds when m > n): above it Newton
        # converges, below it both solvers refuse the problem
        grid = bv.TorusGrid(side, side, 32, 32)
        zeros = tuple((i * grid.dx, j * grid.dy) for i, j in nodes)
        cfg = bv.VortexConfig(phi_zeros=zeros[:n], kappa_zeros=zeros[n:n + m])
        line = max(2.0 * math.pi * (m + n), math.pi * (3 * m + n)) / grid.area
        params = bv.PhysicalParams(lam=factor * line)
        model = "extended" if m else "base"
        assert bv.check_existence(cfg, grid, params).solvable == (factor > 1.0)
        if factor > 1.0:
            sol = bv.solve("torus", model, cfg, grid, params)
            assert sol.converged, sol.message
        else:
            with pytest.raises(ThresholdViolated):
                bv.solve("torus", model, cfg, grid, params)
            bg = bv.build_background(cfg, grid, params)
            with pytest.raises(ThresholdViolated):
                bv.continuation_solve(bg, params)


class TestConvergedProperties:
    def test_constraints_at_converged_solution(self, torus_criterion_setup,
                                               torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        sol = torus_criterion_solution
        c1 = 20.0 - 4.0 * math.pi
        c2 = 0.5 * (c1 + 20.0)
        eV = bg.exp_v0 * np.exp(sol.state[1] - sol.state[0])
        eU = np.exp(sol.state[0])
        assert abs(grid.integrate(eV) - c1) / c1 <= 1e-6
        assert abs(grid.integrate(eU) - c2) / c2 <= 1e-6

    def test_pde_residual_within_tolerance(self, torus_criterion_setup,
                                           torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        rep = bv.build_diagnostics(torus_criterion_solution.state, "torus", "base", bg, cfg,
                                   params)
        assert max(rep.residual_sup) <= 1e-8

    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_tol_bounds_the_residual(self, mode, request):
        # the gradient is minus (r1, r2 / 2) on both grids, so a converged
        # solve has |r1| <= tol and |r2| <= 2 tol; at lambda = 200 a gradient
        # scaled by 1 / lambda would leave residuals of order lambda tol
        tol = bv.SolverSettings().tol_grad_sup
        if mode == "torus":
            grid, params, cfg, bg = request.getfixturevalue("torus_criterion_setup")
            sol = request.getfixturevalue("torus_criterion_solution")
        else:
            grid, params = bv.PlaneGrid(2.0, 128), bv.PhysicalParams(lam=200.0)
            cfg = bv.VortexConfig(phi_zeros=((0.3, 0.0), (-0.3, 0.2)))
            bg = bv.build_background(cfg, grid, params)
            sol = bv.solve(mode, "base", cfg, grid, params, background=bg)
        assert sol.converged
        sup1, sup2 = bv.build_diagnostics(sol.state, mode, "base", bg, cfg, params,
                                          fit_decay=False).residual_sup
        assert sup1 <= tol and sup2 <= 2.0 * tol

    def test_energy_monotone_descent(self, torus_criterion_solution):
        e = torus_criterion_solution.energy_history
        # strictly decreasing while far from the minimum; roundoff-level slack
        # is allowed on the final gradient-acceptance step
        for a, b in zip(e, e[1:]):
            assert b <= a + 1e-12 * (1.0 + abs(a))
        assert e[-1] < e[0]

    def test_grad_history_recorded(self, torus_criterion_solution):
        sol = torus_criterion_solution
        assert len(sol.grad_history) == sol.iterations + 1
        assert sol.grad_history[-1] <= 1e-9


class TestUniquenessAndSymmetry:
    def test_two_random_starts_agree(self):
        grid = bv.TorusGrid(L20, L20, 64, 64)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.4 * L20, 0.5 * L20),))
        bg = bv.build_background(cfg, grid, params)
        sols = [bv.solve("torus", "base", cfg, grid, params, background=bg,
                         init=random_state(grid, seed=s)) for s in (1, 2)]
        assert all(s.converged for s in sols)
        diff = np.max(np.abs(sols[0].state - sols[1].state))
        scale = 1.0 + np.max(np.abs(sols[0].state))
        assert diff <= 1e-8 * scale

    @settings(deadline=None, database=None, derandomize=True, max_examples=20)
    @given(n=st.integers(1, 3), m=st.integers(0, 1), factor=st.floats(1.1, 3.0),
           shift=st.tuples(st.integers(0, 31), st.integers(0, 31)),
           points=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                     st.floats(0.0, 1.0, exclude_max=True)),
                           min_size=4, max_size=4))
    def test_translation_equivariance(self, n, m, factor, shift, points):
        # shifting all vortex points by whole grid cells permutes the nodes;
        # the computed solution follows up to roundoff, on both models
        grid = bv.TorusGrid(L20, L20, 32, 32)
        line = max(2.0 * math.pi * (m + n), math.pi * (3 * m + n)) / grid.area
        params = bv.PhysicalParams(lam=factor * line)
        zeros = tuple((L20 * x, L20 * y) for x, y in points)
        moved = tuple(((px + shift[0] * grid.dx) % grid.Lx, (py + shift[1] * grid.dy) % grid.Ly)
                      for px, py in zeros)
        model = "extended" if m else "base"
        sol_a, sol_b = (bv.solve("torus", model, bv.VortexConfig(pts[:n], pts[n:n + m]),
                                 grid, params) for pts in (zeros, moved))
        assert sol_a.converged and sol_b.converged
        rolled = np.roll(sol_a.state, shift, axis=(1, 2))
        assert np.max(np.abs(rolled - sol_b.state)) <= 1e-12


class TestSupNorm:
    def test_zero_is_positive_zero(self):
        # np.maximum(0.0, -0.0) is -0.0; the sup of a zero state is +0.0
        for zero in (0.0, -0.0):
            assert math.copysign(1.0, newton._sup(np.full((2, 4, 4), zero))) == 1.0

    def test_nonzero_values_bitwise_unchanged(self):
        rng = np.random.default_rng(3)
        for a in (rng.standard_normal((2, 8, 8)), -np.abs(rng.standard_normal(5)),
                  np.array([0.0, 5e-324])):
            assert newton._sup(a) == float(np.abs(a).max())


class TestPlaneSolve:
    def test_plane_boundary_smallness(self):
        # lambda=4 single vortex: fields fall below 1e-4 well inside R=10
        grid = bv.PlaneGrid(10.0, 256)
        params = bv.PhysicalParams(lam=4.0)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
        sol = bv.solve("plane", "base", cfg, grid, params)
        assert sol.converged
        u = sol.state[0]
        ring = np.concatenate([np.abs(u[1, 1:-1]), np.abs(u[-2, 1:-1]),
                               np.abs(u[1:-1, 1]), np.abs(u[1:-1, -2])])
        assert ring.max() <= 1e-4

    def test_initial_state_boundary_ring_zeroed(self):
        # states are held at zero on the Dirichlet ring; a nonzero ring in
        # init is dropped, not carried into a "converged" state
        grid = bv.PlaneGrid(6.0, 48)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.5, 0.0),))
        bg = bv.build_background(cfg, grid, params)
        init = np.full((2,) + grid.shape, 0.3)
        # a tolerance met at once returns the start state: only the ring is dropped
        start = bv.solve("plane", "base", cfg, grid, params, init=init, background=bg,
                         settings=bv.SolverSettings(tol_grad_sup=1e9)).state
        assert np.all(start[:, 1:-1, 1:-1] == 0.3)
        assert not start[:, [0, -1], :].any() and not start[:, :, [0, -1]].any()
        sol = bv.solve("plane", "base", cfg, grid, params, init=init, background=bg)
        ref = bv.solve("plane", "base", cfg, grid, params, background=bg)
        assert sol.converged and ref.converged
        ring = sol.state - np.stack([grid.zero_boundary(s.copy()) for s in sol.state])
        assert np.all(ring == 0.0)
        assert np.all(init == 0.3)  # the caller's array is copied
        assert np.max(np.abs(sol.state - ref.state)) <= 1e-8

    def test_ring_zero_start_is_taken_over(self):
        # a start that already vanishes on the ring is neither copied nor
        # written: a plane sweep row holds only the copy its path made
        grid = bv.PlaneGrid(6.0, 48)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.5, 0.0),))
        bg = bv.build_background(cfg, grid, params)
        init = random_state(grid, seed=3)
        kept = init.copy()
        start = bv.solve("plane", "base", cfg, grid, params, init=init, background=bg,
                         settings=bv.SolverSettings(tol_grad_sup=1e9)).state
        assert start is init
        sol = bv.solve("plane", "base", cfg, grid, params, init=init, background=bg)
        assert sol.converged and sol.state is not init
        assert init.tobytes() == kept.tobytes()

    def test_preconditioned_cg_applies_per_newton_iteration(self, monkeypatch):
        # the per-mode block inverse leaves ~5 Hessian applies per Newton
        # step here; plain CG took ~250
        grid = bv.PlaneGrid(8.0, 192)
        params = bv.PhysicalParams(lam=4.0)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
        bg = bv.build_background(cfg, grid, params)
        model = EnergyModel(bg, params)
        applies = count_hessian_applies(monkeypatch)
        sol = bv.minimize(model, bv.SolverSettings())
        assert sol.converged
        assert 0 < applies[0] <= 15 * sol.iterations

    def test_solution_energy_below_random_states(self):
        grid = bv.PlaneGrid(6.0, 32)
        params = bv.PhysicalParams(lam=1.3)
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3),))
        bg = bv.build_background(cfg, grid, params)
        model = EnergyModel(bg, params)
        sol = bv.solve("plane", "base", cfg, grid, params, background=bg)
        assert sol.converged
        e_min = model.energy(sol.state).total
        for seed in range(50):
            assert model.energy(random_state(grid, seed=seed)).total >= e_min


class TestExtendedVariants:
    def test_plane_extended_solve(self):
        grid = bv.PlaneGrid(8.0, 96)
        params = bv.PhysicalParams(lam=2.0)
        x, _ = grid.axes()
        q = (x[40], x[56])  # node-aligned kappa zero
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3),), kappa_zeros=(q,))
        bg = bv.build_background(cfg, grid, params)
        sol = bv.solve("plane", "extended", cfg, grid, params, background=bg)
        assert sol.converged
        rep = bv.build_diagnostics(sol.state, "plane", "extended", bg, cfg, params,
                                   fit_decay=False)
        assert max(rep.residual_sup) <= 2.0 * 2.0 * params.lam * 1e-9
        phys = bv.reconstruct_physical(sol.state, bg, params)
        # kappa vanishes exactly at its prescribed zero (background factor)
        assert phys.kappa[40, 56] == 0.0
        assert phys.phi_abs.min() >= 0.0

    def test_plane_reduction_m_zero(self):
        grid = bv.PlaneGrid(6.0, 32)
        params = bv.PhysicalParams(lam=1.3)
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3),))
        bg = bv.build_background(cfg, grid, params)
        base = bv.solve("plane", "base", cfg, grid, params, background=bg)
        ext = bv.solve("plane", "extended", cfg, grid, params, background=bg)
        assert np.max(np.abs(base.state - ext.state)) <= 1e-10


class TestInexactNewton:
    def test_torus_compare_workload_forcing_terms(self, monkeypatch):
        # the torus-compare benchmark configuration, Newton only, from an
        # explicit zero start on its own grid: solving every system to
        # CG_TOL took 61 Hessian applies; a last forcing term that only just
        # reaches tol stops at a sup gradient of 1.1e-9 and needs another
        # iteration.  The preconditioner built at the far field
        # (e^U = e^V = 1) instead of the mean masses took 25 applies, without
        # the constraint shift Newton took 5 iterations and 19 applies, and
        # solving a last step to the collapsed choice-2 term took 18
        cfg = parse_config(json.dumps(compare_workload_config(1)))
        grid, params, vcfg = cfg.make_grid(), cfg.make_params(), cfg.make_vortex_config()
        applies = count_hessian_applies(monkeypatch)
        sol = bv.solve("torus", "base", vcfg, grid, params,
                       settings=bv.SolverSettings(tol_grad_sup=cfg.solver["tol"]),
                       init=np.zeros((2,) + grid.shape))
        assert sol.converged and len(sol.levels) == 1
        assert sol.iterations == 4
        assert sol.grad_history[-1] <= cfg.solver["tol"]
        assert applies[0] <= 17

    def test_near_threshold_cg_work(self, monkeypatch):
        # two vortices on a 64^2 torus at lambda = lambda* (1 + 1e-4), where
        # the mean masses sit far from the vacuum: the far-field
        # preconditioner took 76 Hessian applies, and without the constraint
        # shift (the constant mode is the worst-conditioned direction here) 29
        grid = bv.TorusGrid(L20, L20, 64, 64)
        params = bv.PhysicalParams(lam=4.0 * math.pi / grid.area * (1.0 + 1e-4))
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        applies = count_hessian_applies(monkeypatch)
        sol = bv.solve("torus", "base", cfg, grid, params)
        assert sol.converged
        assert applies[0] <= 5

    @pytest.mark.parametrize("variant", ["plane", "extended-torus"])
    def test_state_matches_solves_at_cg_tol(self, monkeypatch, variant):
        if variant == "plane":
            mode, model = "plane", "base"
            grid = bv.PlaneGrid(8.0, 64)
            params = bv.PhysicalParams(lam=4.0)
            cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 0.8)))
        else:
            mode, model = "torus", "extended"
            grid = bv.TorusGrid(L20, L20, 48, 48)
            params = bv.PhysicalParams(lam=1.5)
            cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)),
                                  kappa_zeros=((0.5 * L20, 0.2 * L20),))
        bg = bv.build_background(cfg, grid, params)
        inexact = bv.solve(mode, model, cfg, grid, params, background=bg)
        exact_pcg = newton._pcg
        monkeypatch.setattr(newton, "_pcg",
                            lambda a, b, m, inner, rel_tol: exact_pcg(a, b, m, inner,
                                                                      newton.CG_TOL))
        exact = bv.solve(mode, model, cfg, grid, params, background=bg)
        assert inexact.converged and exact.converged
        assert np.max(np.abs(inexact.state - exact.state)) <= 1e-9

    def test_report_lists_newton_steps(self, tmp_path, monkeypatch):
        raw = {"mode": "torus", "model": "base", "lambda": 1.0,
               "domain": {"Lx": L20, "Ly": L20}, "grid": {"nx": 64},
               "phi_zeros": [[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]]}
        cfg = parse_config(json.dumps(raw))
        applies = count_hessian_applies(monkeypatch)
        code, report = run("solve", cfg, out_dir=str(tmp_path))
        assert code == 0
        summary = report["results"]["newton"]
        steps = summary["levels"][-1]["steps"]
        assert len(steps) == summary["iterations"] > 0
        assert sum(step["cg_iters"] for step in steps) == applies[0]
        for step in steps:
            assert set(step) == {"eta", "cg_iters", "cg_rel_residual", "alpha",
                                 "linesearch_evals", "fallback", "mean_exp"}
            assert len(step["mean_exp"]) == 2 and min(step["mean_exp"]) > 0.0
            assert newton.CG_TOL <= step["eta"] <= newton.ETA_MAX
            assert step["cg_rel_residual"] <= step["eta"]
            assert step["fallback"] in (None, "steepest_descent", "gradient_halved",
                                        "cg_breakdown")
        assert steps[0]["eta"] == newton.ETA_MAX


class TestIterationCap:
    def test_cap_at_the_converging_iteration(self):
        # a solve that converges at iteration k still converges with
        # max_iters = k, with the same state; k - 1 stops unconverged
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        bg = bv.build_background(cfg, grid, params)
        free = bv.solve("torus", "base", cfg, grid, params, background=bg)
        k = free.iterations
        assert free.converged and k >= 2
        capped = bv.solve("torus", "base", cfg, grid, params, background=bg,
                          settings=bv.SolverSettings(max_iters=k))
        assert capped.converged and capped.iterations == k and capped.message == ""
        assert capped.state.tobytes() == free.state.tobytes()
        assert capped.grad_history == free.grad_history
        short = bv.solve("torus", "base", cfg, grid, params, background=bg,
                         settings=bv.SolverSettings(max_iters=k - 1))
        assert not short.converged and short.iterations == k - 1
        assert short.message.startswith("max_iters reached")
        assert short.grad_history == free.grad_history[:k]


# a plane case whose sup gradient floors near 3e-13 from Newton step 7 on
# (the gradient of the carried mode coefficients; evaluated in long double,
# their true sup gradient there is about 8e-13)
FLOOR_CASE = {"mode": "plane", "model": "base", "lambda": 200.0, "domain": {"R": 2.0},
              "grid": {"n": 128}, "phi_zeros": [[0.3, 0.0], [-0.3, 0.2]],
              "solver": {"tol": 1e-13, "max_iters": 30}, "output": {"report_path": "r.json"}}


# FLOOR_CASE with a third vortex: its damped first step raises the sup
# gradient about ninefold
RISE_CASE = dict(FLOOR_CASE, phi_zeros=[[0.3, 0.0], [-0.3, 0.2], [0.0, -0.4]])


def floor_case_solve(tol, case=FLOOR_CASE, init=None):
    cfg = parse_config(json.dumps(case))
    return bv.solve("plane", "base", cfg.make_vortex_config(), cfg.make_grid(),
                    cfg.make_params(), settings=bv.SolverSettings(tol, 30), init=init)


class TestStallStop:
    def test_tolerance_below_the_roundoff_floor_ends_as_a_stall(self):
        # at the floor the line search may damp steps, so a damped step must
        # not restart the count
        k = newton.STALL_STEPS
        for tol in (1e-13, 1e-14):
            sol = floor_case_solve(tol)
            assert not sol.converged and sol.iterations <= 12
            assert sol.message.startswith("stalled at sup gradient")
            # the last k steps, and only those, were solved under the
            # last-step rule (the forcing term put the predicted gradient
            # within LAST_STEP_WINDOW tol) and did not halve the best sup
            # gradient before them
            g = sol.grad_history
            counted = [step["eta"] * g[i] <= newton.LAST_STEP_WINDOW * tol
                       and g[i + 1] > 0.5 * min(g[:i + 1])
                       for i, step in enumerate(sol.newton_steps)]
            assert counted == [False] * (sol.iterations - k) + [True] * k

    def test_stall_through_the_cli_exit_3(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(FLOOR_CASE))
        assert main(["--config", str(cfg_path), "--command", "solve",
                     "--out", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["exit_code"] == 3
        assert report["results"]["newton"]["message"].startswith("stalled at sup gradient")
        assert "diagnostics" not in report["results"]

    def test_slow_convergence_near_the_threshold_is_no_stall(self):
        # at lambda = lambda* (1 + 1e-8) the last-step rule first fires at a
        # sup gradient of 5e-7, five steps before convergence; each of those
        # steps cuts the gradient by more than half
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=4.0 * math.pi / grid.area * (1.0 + 1e-8))
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        sol = bv.solve("torus", "base", cfg, grid, params)
        assert sol.converged and sol.message == ""

    def test_damped_rise_of_the_gradient_is_no_stall(self):
        # the first step from zero on this grid (not from the coarse level)
        # is damped and raises the sup gradient threefold
        sol = floor_case_solve(1e-9, RISE_CASE, init=np.zeros((2, 128, 128)))
        assert sol.newton_steps[0]["alpha"] < 1.0
        assert sol.grad_history[1] > 3.0 * sol.grad_history[0]
        assert sol.converged and sol.message == ""


class TestLineSearch:
    def test_overflowing_trial_is_backtracked(self, monkeypatch):
        # the first line-search trial overflows; the step is halved, not raised
        energy = EnergyModel.energy
        calls = [0]

        def overflow_on_first_trial(self, state, *args):
            calls[0] += 1
            if calls[0] == 2:
                raise Overflow("exponent argument 812 exceeds 700")
            return energy(self, state, *args)

        monkeypatch.setattr(EnergyModel, "energy", overflow_on_first_trial)
        grid = bv.TorusGrid(L20, L20, 32, 32)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20),))
        sol = bv.solve("torus", "base", cfg, grid, bv.PhysicalParams(lam=1.0))
        assert sol.converged
        first = sol.newton_steps[0]
        assert first["alpha"] == 0.5 and first["linesearch_evals"] >= 2

    @pytest.mark.parametrize("mode", ["plane", "torus"])
    def test_gradient_of_a_halving_step_is_computed_once(self, monkeypatch, mode):
        # near the minimum whether the full step's energy passes Armijo is a
        # matter of roundoff; a sufficient decrease of 0.9 of the slope,
        # beyond the half a Newton step on a quadratic gives, fails it
        # there, so the steps that end both solves are accepted for halving
        # the gradient.  The plane hands that gradient on, so no state's
        # gradient is computed twice; the torus shift moves the accepted
        # state, so its next gradient is a new one, at the shifted state
        monkeypatch.setattr(newton, "ARMIJO_C", 0.9)
        states = []
        gradient = EnergyModel.gradient

        def recording(self, state, *args):
            states.append(state.tobytes())
            return gradient(self, state, *args)

        monkeypatch.setattr(EnergyModel, "gradient", recording)
        if mode == "plane":
            grid, lam, zeros = bv.PlaneGrid(12.0, 193), 4.0, ((0.0, 0.0),)
        else:
            grid, lam = bv.TorusGrid(L20, L20, 32, 32), 1.0
            zeros = ((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20))
        sol = bv.solve(mode, "base", bv.VortexConfig(phi_zeros=zeros), grid,
                       bv.PhysicalParams(lam=lam), init=np.zeros((2,) + grid.shape))
        assert sol.converged
        halved = [step["fallback"] for step in sol.newton_steps].count("gradient_halved")
        assert halved >= 1
        assert len(set(states)) == len(states)
        assert len(states) == sol.iterations + 1 + (halved if mode == "torus" else 0)


class TestDegenerateMasses:
    @pytest.mark.parametrize("level", [-50.0, -800.0])
    def test_underflowing_mass_ends_with_a_named_outcome(self, level):
        # s0 = s1 = level: mean e^U is about 1e-22 at -50 and exactly 0 at
        # -800, where the constant-mode block of the Hessian is singular and
        # the constraint shift has no finite logarithm; warnings are errors
        # under pytest
        grid = bv.TorusGrid(L20, L20, 32, 32)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        init = np.full((2,) + grid.shape, level)
        sol = bv.solve("torus", "base", cfg, grid, bv.PhysicalParams(lam=1.0), init=init)
        if level == -50.0:
            # the shift lifts the start by about 48, onto both constraints;
            # without it the first CG solve broke down (relative residual
            # 5.5e17) and the line search failed
            assert sol.converged and sol.message == ""
        assert sol.converged or sol.message.startswith(
            ("line search failed", "singular Hessian block"))
        assert not np.isnan(sol.state).any()


class TestConstraintShift:
    """Newton on the torus moves every iterate onto both integral constraints."""

    @staticmethod
    def near_threshold(eps):
        grid = bv.TorusGrid(L20, L20, 64, 64)
        params = bv.PhysicalParams(lam=4.0 * math.pi / grid.area * (1.0 + eps))
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        return grid, params, cfg

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_newton_matches_the_fixed_point_near_the_threshold(self, eps):
        # the constant mode's curvature lam <e^V> vanishes at the threshold;
        # without the shift the states differed by 9.3e-6 and 3.6e-2
        grid, params, cfg = self.near_threshold(eps)
        bg = bv.build_background(cfg, grid, params)
        newton_sol = bv.solve("torus", "base", cfg, grid, params, background=bg)
        fixed = bv.continuation_solve(bg, params)
        assert newton_sol.converged and fixed.converged
        assert np.max(np.abs(newton_sol.state - fixed.state)) <= 1e-8

    def test_compare_at_the_threshold_meets_the_constraints(self, tmp_path):
        # lambda* (1 + 1e-8): compare exited 0 with constraint_errors[0] 3.6e-2
        grid, params, cfg = self.near_threshold(1e-8)
        raw = {"mode": "torus", "model": "base", "lambda": params.lam,
               "domain": {"Lx": grid.Lx, "Ly": grid.Ly}, "grid": {"nx": 64},
               "phi_zeros": [list(p) for p in cfg.phi_zeros]}
        code, report = run("compare", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 0
        assert max(report["results"]["diagnostics"]["constraint_errors"]) <= 1e-6
        assert report["results"]["cross_method_sup_diff"] <= 1e-8


class TestCoarseStart:
    """A cold solve starts from its coarsest resolving grid."""

    @staticmethod
    def compare_cell(lam):
        # the torus-compare cell: 256^2, whose coarsest level is 64^2
        cfg = parse_config(json.dumps(dict(compare_workload_config(1), **{"lambda": lam})))
        grid, params, vcfg = cfg.make_grid(), cfg.make_params(), cfg.make_vortex_config()
        return grid, params, vcfg, bv.build_background(vcfg, grid, params)

    @pytest.mark.parametrize("lam", [4.0 * math.pi / 20.0 * (1.0 + 1e-8), 1.0, 30.0, 100.0,
                                     1000.0])
    def test_coarse_start_reaches_the_cold_solution_in_fewer_iterations(self, lam):
        # measured: fine iterations 2, 4, 4, 6, 7 cold and 0, 0, 0, 2, 3
        # from the levels below (from lambda = 30 on through the resolving
        # level 170^2), states equal to 1.3e-11
        grid, params, vcfg, bg = self.compare_cell(lam)
        cold = bv.solve("torus", "base", vcfg, grid, params, background=bg,
                        init=np.zeros((2,) + grid.shape))
        seq = bv.solve("torus", "base", vcfg, grid, params, background=bg)
        assert cold.converged and seq.converged
        assert len(cold.levels) == 1
        assert seq.levels[0]["shape"] == [64, 64] and seq.levels[0]["converged"]
        assert runner._newton_summary(seq)["levels"][-1]["sup_start"] == seq.grad_history[0]
        assert seq.iterations <= cold.iterations
        assert np.max(np.abs(seq.state - cold.state)) <= 1e-9

    def test_failed_coarse_solve_leaves_the_zero_start(self, monkeypatch):
        grid, params, vcfg, bg = self.compare_cell(1.0)
        minimize = newton.minimize

        def failing_on_the_coarse_grid(model, settings, init=None, **kwargs):
            if model.grid != grid:
                return newton.Solution(np.full((2,) + model.grid.shape, np.nan), 3, [1.0],
                                       [0.0], False, "stalled")
            return minimize(model, settings, init=init, **kwargs)

        monkeypatch.setattr(newton, "minimize", failing_on_the_coarse_grid)
        sol = bv.solve("torus", "base", vcfg, grid, params, background=bg)
        monkeypatch.undo()
        cold = bv.solve("torus", "base", vcfg, grid, params, background=bg,
                        init=np.zeros((2,) + grid.shape))
        assert sol.converged
        assert sol.levels[0] == {"shape": [64, 64], "iterations": 3, "converged": False,
                                 "sup_start": 1.0, "sup_final": 1.0}
        assert runner._newton_summary(sol)["levels"] == [sol.levels[0], {
            "shape": [256, 256], "iterations": sol.iterations, "converged": True,
            "sup_start": cold.grad_history[0], "sup_final": sol.grad_history[-1],
            "steps": sol.newton_steps}]
        assert sol.state.tobytes() == cold.state.tobytes()

    def test_cold_solve_keeps_its_coarse_solution_without_a_handle(self):
        # the coarse level's solution itself, as a solve of that level alone
        # from zero finds it
        grid, params, vcfg, bg = self.compare_cell(1.0)
        sol = bv.solve("torus", "base", vcfg, grid, params, background=bg, keep_coarse=True)
        assert sol.converged and sol.levels[0]["converged"]
        coarse = grid.coarsest(bv.backgrounds.core_scale(grid))
        alone = bv.minimize(EnergyModel(bv.build_background(vcfg, coarse, params), params),
                            bv.SolverSettings())
        assert sol.coarse_modes.tobytes() == alone.modes.tobytes()

    def test_coarse_predictor_needs_its_level(self):
        # a warm start with a coarse predictor but without the background
        # handle of the level it lives on is refused, not solved without it
        grid, params, vcfg, bg = self.compare_cell(1.0)
        levels = []
        first = bv.solve("torus", "base", vcfg, grid, params, background=bg, levels=levels,
                         keep_coarse=True)
        assert first.converged and len(levels) == 1
        with pytest.raises(ValueError, match="coarse_init"):
            bv.solve("torus", "base", vcfg, grid, params, background=bg,
                     init=first.state.copy(), coarse_init=first.coarse_modes, keep_coarse=True)
        again = bv.solve("torus", "base", vcfg, grid, params, background=bg, levels=levels,
                         init=first.state.copy(), coarse_init=first.coarse_modes,
                         keep_coarse=True)
        assert again.converged and again.levels[0]["converged"] and again.iterations == 0

    def test_plane_coarse_level(self):
        # the plane is spectral: the prolonged solution of the level below
        # (the resolving level, 86 nodes, above the 64-node coarsest) is
        # within 1e-5 of the 128-node one in sup gradient, so one Newton
        # step ends the fine solve
        grid, params = bv.PlaneGrid(4.0, 128), bv.PhysicalParams(lam=4.0)
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 0.8)))
        bg = bv.build_background(cfg, grid, params)
        seq = bv.solve("plane", "base", cfg, grid, params, background=bg)
        cold = bv.solve("plane", "base", cfg, grid, params, background=bg,
                        init=np.zeros((2,) + grid.shape))
        assert seq.converged and cold.converged
        assert seq.levels[0]["shape"] == [64, 64] and seq.levels[0]["converged"]
        assert 0 < seq.iterations <= 1 < cold.iterations
        assert seq.grad_history[0] <= 1e-5
        assert np.max(np.abs(seq.state - cold.state)) <= 1e-8


class TestResolvingLevel:
    """A cold solve whose coarsest solution is not resolved goes through the resolving level."""

    def test_plane_fine_level_takes_no_step(self):
        # R = 6, n = 193: the coarsest level 97 leaves a tail above
        # RESOLVED_TAIL, and the resolving level 129 hands the fine level a
        # start under its tolerance
        grid, params = bv.PlaneGrid(6.0, 193), bv.PhysicalParams(lam=4.0)
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 0.8)))
        bg = bv.build_background(cfg, grid, params)
        sol = bv.solve("plane", "base", cfg, grid, params, background=bg)
        cold = bv.solve("plane", "base", cfg, grid, params, background=bg,
                        init=np.zeros((2,) + grid.shape))
        assert sol.converged and cold.converged and sol.iterations == 0
        assert sol.levels[0]["shape"] == [97, 97] and sol.levels[0]["converged"]
        assert sol.levels[1].items() >= {"shape": [129, 129], "iterations": 1,
                                         "converged": True}.items()
        assert runner._newton_summary(sol)["levels"][-1]["sup_start"] == sol.grad_history[0]
        assert sol.grad_history[0] <= 1e-9
        assert np.max(np.abs(sol.state - cold.state)) <= 1e-8

    def test_one_resolving_level_at_most(self, monkeypatch):
        # the case above: the resolving level's own solution has a tail above
        # RESOLVED_TAIL too (1.9e-9), and still no second resolving level
        # follows it; the fine level starts from it and takes no step
        grid, params = bv.PlaneGrid(6.0, 193), bv.PhysicalParams(lam=4.0)
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 0.8)))
        tails = []
        minimize = newton.minimize

        def recorded(model, settings, **kwargs):
            sol = minimize(model, settings, **kwargs)
            if model.grid != grid:
                tails.append(model.grid.spectral_tail(sol.modes))
            return sol

        monkeypatch.setattr(newton, "minimize", recorded)
        sol = bv.solve("plane", "base", cfg, grid, params)
        assert sol.converged and sol.iterations == 0
        assert [record["shape"] for record in sol.levels[:-1]] == [[97, 97], [129, 129]]
        assert all(record["converged"] for record in sol.levels[:-1])
        assert len(tails) == 2 and min(tails) > newton.RESOLVED_TAIL

    def test_resolved_torus_keeps_two_levels(self, tmp_path, monkeypatch):
        # torus-compare at lambda = 1: the 64^2 tails of both solvers lie
        # under RESOLVED_TAIL, so neither goes through the resolving level,
        # and the results are bitwise those of the two-level path
        cfg = parse_config(json.dumps(compare_workload_config(1)))
        code, report = run("compare", cfg, out_dir=str(tmp_path / "rule"))
        monkeypatch.setattr(newton, "RESOLVED_TAIL", math.inf)
        two_level = run("compare", cfg, out_dir=str(tmp_path / "two"))[1]
        assert code == 0
        for method in ("newton", "fixedpoint"):
            levels = report["results"][method]["levels"]
            assert [record["shape"] for record in levels] == [[64, 64], [256, 256]]
        assert json.dumps(report["results"]) == json.dumps(two_level["results"])

    def test_large_coupling_plane_takes_no_more_fine_steps(self):
        # lambda = 1000, R = 2, n = 256: the core scale picks the 32-node
        # coarsest level, which under-resolves the core length 1/sqrt(lambda).
        # Prolonged straight to the fine grid, its solution starts it at sup
        # gradient 1.8e3, and the fine level takes 5 iterations from there.
        # Through the resolving level 171 the fine start is about 14
        grid, params = bv.PlaneGrid(2.0, 256), bv.PhysicalParams(lam=1000.0)
        cfg = bv.VortexConfig(phi_zeros=((0.3, 0.0), (-0.3, 0.2)))
        sol = bv.solve("plane", "base", cfg, grid, params)
        assert sol.converged and sol.levels[0]["shape"] == [32, 32]
        assert sol.levels[1]["shape"] == [171, 171]
        assert sol.levels[1]["converged"]
        assert sol.iterations <= 5
        assert sol.grad_history[0] <= 1e2


class TestCgBreakdown:
    def test_residual_above_the_rhs_takes_steepest_descent(self, monkeypatch):
        # a CG solve whose residual ends above |b| gives no descent
        # guarantee: its direction is replaced, whatever it holds
        pcg = newton._pcg
        calls = [0]

        def breaking_down_once(apply_a, b, apply_minv, inner, rel_tol):
            calls[0] += 1
            x, iters, rel_res = pcg(apply_a, b, apply_minv, inner, rel_tol)
            if calls[0] == 1:
                return -1e3 * x, iters, 5.5e17
            return x, iters, rel_res

        monkeypatch.setattr(newton, "_pcg", breaking_down_once)
        grid = bv.TorusGrid(L20, L20, 32, 32)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        sol = bv.solve("torus", "base", cfg, grid, bv.PhysicalParams(lam=1.0))
        assert sol.converged
        first = sol.newton_steps[0]
        assert first["fallback"] == "cg_breakdown" and first["cg_rel_residual"] == 5.5e17
        assert sol.energy_history[1] < sol.energy_history[0]
        assert all(step["fallback"] != "cg_breakdown" for step in sol.newton_steps[1:])


class TestSettingsValidation:
    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            bv.SolverSettings(tol_grad_sup=-1.0)
        with pytest.raises(ValueError):
            bv.SolverSettings(max_iters=0)



def carried_modes_steps(grid, solve_with):
    """Check the start and every accepted step of ``solve_with(settings)``.

    Each carries its state's mode coefficients to roundoff: ``modes`` is
    ``grid.to_modes(state)`` within 1e-12 of its size.  The start is the
    solve that converges at once (a huge tolerance), step k the solve capped
    at k iterations.  Returns the uncapped solution.
    """
    free = solve_with(bv.SolverSettings())
    assert free.converged
    capped = [solve_with(bv.SolverSettings(tol_grad_sup=1e6))]
    capped += [solve_with(bv.SolverSettings(max_iters=k)) for k in range(1, free.iterations + 1)]
    for k, sol in enumerate(capped):
        assert sol.iterations == k
        expected = grid.to_modes(sol.state)
        assert np.max(np.abs(sol.modes - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert capped[-1].state.tobytes() == free.state.tobytes()
    # the converged solution's Laplacians are its coefficients' own
    expected = grid.laplacians(free.modes)
    assert np.max(np.abs(free.laplacians - expected)) <= 1e-13 * np.max(np.abs(expected))
    return free


def two_vortex_torus(n):
    grid, params = bv.TorusGrid(L20, L20, n, n), bv.PhysicalParams(lam=1.0)
    cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
    return grid, params, cfg, bv.build_background(cfg, grid, params)


class TestCarriedModes:
    """Newton carries each iterate's mode coefficients beside it (``Solution.modes``)."""

    def test_torus_init_start_and_shift(self):
        # an init pays one to_modes; the constraint shift moves the constant
        # mode of the coefficients with the state
        grid, params, cfg, bg = two_vortex_torus(32)
        carried_modes_steps(grid, lambda settings: bv.solve(
            "torus", "base", cfg, grid, params, settings, init=np.zeros((2,) + grid.shape),
            background=bg))

    def test_plane_gradient_halved_hand_on(self, monkeypatch):
        # a sufficient decrease the steps near the minimum cannot meet makes
        # them take the halving path (see test_gradient_of_a_halving_step_is_computed_once)
        monkeypatch.setattr(newton, "ARMIJO_C", 0.9)
        grid, params = bv.PlaneGrid(12.0, 193), bv.PhysicalParams(lam=4.0)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
        bg = bv.build_background(cfg, grid, params)
        sol = carried_modes_steps(grid, lambda settings: bv.solve(
            "plane", "base", cfg, grid, params, settings, init=np.zeros((2,) + grid.shape),
            background=bg))
        assert "gradient_halved" in [step["fallback"] for step in sol.newton_steps]

    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_cold_start_from_the_prolonged_coarse_modes(self, monkeypatch, mode):
        # the coarse level shares the settings, so the start is checked as
        # the level driver hands it to the fine level, and the solve by its
        # result
        if mode == "torus":
            grid, params, cfg, bg = two_vortex_torus(128)
        else:
            grid, params = bv.PlaneGrid(4.0, 128), bv.PhysicalParams(lam=4.0)
            cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 0.8)))
            bg = bv.build_background(cfg, grid, params)
        starts = []
        minimize = newton.minimize

        def recording(model, settings, init=None, modes=None):
            if model.grid == grid:
                starts.append((init.copy(), modes.copy()))
            return minimize(model, settings, init=init, modes=modes)

        monkeypatch.setattr(newton, "minimize", recording)
        sol = bv.solve(mode, "base", cfg, grid, params, background=bg)
        assert sol.converged and sol.levels[0]["converged"] and sol.levels[0]["shape"] == [64, 64]
        assert len(starts) == 1
        for state, modes in (starts[0], (sol.state, sol.modes)):
            expected = grid.to_modes(state)
            assert np.max(np.abs(modes - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_secant_sweep_row(self):
        # the start of a sweep row on a lambda path: the clamped secant
        # through the last two converged rows (runner._path_start)
        # (the 32^2 grid has no coarse level, so the rows carry no coarse
        # coefficients)
        grid, params, cfg, bg = two_vortex_torus(32)
        path = []
        for index, lam in enumerate((1.0, 1.2)):
            sol = bv.solve("torus", "base", cfg, grid, bv.PhysicalParams(lam=lam), background=bg,
                           keep_coarse=True)
            assert sol.coarse_modes is None
            path.append((index, lam, sol.state, sol.coarse_modes))
        lam = 1.4
        _, secant_row, start = runner._path_start(path, lam)
        assert secant_row == 0
        init, coarse_init = start()
        assert coarse_init is None
        carried_modes_steps(grid, lambda settings: bv.solve(
            "torus", "base", cfg, grid, bv.PhysicalParams(lam=lam), settings,
            init=init.copy(), background=bg))


def step_budget(sol, start_forward, start_inverse):
    """Transforms of a Newton solve on its own grid: ``(forward, inverse)``.

    Per step: the gradient's coefficients (two forward), four per Hessian
    apply (two each way) and two inverse per line-search trial, which is
    built from its coefficients.  Per iterate, the Laplacians of its
    gradient: two inverse.  Plus what the start costs.
    """
    steps = sol.newton_steps
    forward = start_forward + sum(2 + 2 * step["cg_iters"] for step in steps)
    inverse = (start_inverse + sum(2 * step["cg_iters"] + 2 * step["linesearch_evals"]
                                   for step in steps) + 2 * (sol.iterations + 1))
    return forward, inverse


class TestTransformBudget:
    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_newton_step_budget(self, count_transforms, mode):
        # an init start costs one to_modes and nothing else: the energy's
        # gradient part is Parseval on the carried coefficients
        if mode == "torus":
            grid, params, cfg, bg = two_vortex_torus(32)
        else:
            grid, params = bv.PlaneGrid(6.0, 64), bv.PhysicalParams(lam=4.0)
            cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 0.8)))
            bg = bv.build_background(cfg, grid, params)
        sol = bv.solve(mode, "base", cfg, grid, params, init=np.zeros((2,) + grid.shape),
                       background=bg)
        assert sol.converged and sol.iterations >= 3
        forward, inverse = step_budget(sol, 2, 0)
        assert count_transforms == {("forward", grid.shape): forward,
                                    ("inverse", grid.shape): inverse}

    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_cold_start_makes_no_fine_forward_transform(self, count_transforms, mode):
        # the coarse solution's coefficients are zero-padded onto the fine
        # grid; only the start state costs transforms there, two inverse
        if mode == "torus":
            grid, params, cfg, bg = two_vortex_torus(128)
        else:
            grid, params = bv.PlaneGrid(4.0, 128), bv.PhysicalParams(lam=4.0)
            cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 0.8)))
            bg = bv.build_background(cfg, grid, params)
        sol = bv.solve(mode, "base", cfg, grid, params, background=bg)
        assert sol.converged and sol.levels[0]["shape"] == [64, 64]
        forward, inverse = step_budget(sol, 0, 2)
        assert count_transforms["forward", grid.shape] == forward
        assert count_transforms["inverse", grid.shape] == inverse


class TestUnheldStart:
    """A start that no caller holds is freed before the first CG solve."""

    def test_solve_frees_an_unheld_start(self, monkeypatch):
        grid, params, cfg, bg = two_vortex_torus(32)
        refs, alive = [], []
        pcg = newton._pcg

        def spy(*args):
            alive.append(refs[0]() is not None)
            return pcg(*args)

        def unheld_start():
            start = np.zeros((2,) + grid.shape)
            refs.append(weakref.ref(start))
            return start

        monkeypatch.setattr(newton, "_pcg", spy)
        sol = bv.solve("torus", "base", cfg, grid, params, init=unheld_start(), background=bg)
        assert sol.converged and len(alive) >= 2
        assert not any(alive)

    @pytest.mark.parametrize("mode", ["torus", "plane"])
    @pytest.mark.parametrize("keep", [False, True], ids=["lone", "kept"])
    def test_coarse_solution_is_freed_before_the_fine_level(self, monkeypatch, mode, keep):
        # both cases go through the coarse level 64^2 and the resolving
        # level 86^2.  A lone solve hands nothing of a lower level on: its
        # solution, its grid, with its cached bases, and its background are
        # dead before the next level runs.  A solve that keeps its coarse
        # level, a sweep row's with its background handle, keeps the
        # coarsest level's alive and hands that solution itself back in
        # Solution.coarse_modes; the resolving level's go all the same
        if mode == "torus":
            grid, params, cfg, bg = two_vortex_torus(128)
            params = bv.PhysicalParams(lam=10.0)
        else:
            grid, params = bv.PlaneGrid(4.0, 128), bv.PhysicalParams(lam=4.0)
            cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 0.8)))
            bg = bv.build_background(cfg, grid, params)
        levels = [] if keep else None
        refs, alive = [], []
        minimize = newton.minimize

        def recorded(model, settings, **kwargs):
            # which lower levels' solution, grid and background are alive
            # as this level starts
            alive.append([[ref() is not None for ref in level] for level in refs])
            sol = minimize(model, settings, **kwargs)
            if model.grid != grid:
                refs.append((weakref.ref(sol.modes), weakref.ref(model.grid),
                             weakref.ref(model.bg)))
            return sol

        monkeypatch.setattr(newton, "minimize", recorded)
        sol = bv.solve(mode, "base", cfg, grid, params, background=bg, levels=levels,
                       keep_coarse=keep)
        assert sol.converged and sol.levels[0]["converged"]
        assert sol.levels[1].items() >= {"shape": [86, 86], "iterations": 1,
                                         "converged": True}.items()
        assert len(levels or []) == keep
        assert alive == [[], [[keep] * 3], [[keep] * 3, [False] * 3]]
        assert (sol.coarse_modes is refs[0][0]()) if keep else sol.coarse_modes is None

    def test_secant_start_is_held_by_nobody(self):
        # the secant is built in the older row's storage, which leaves the
        # path; neither the path nor the start callable keeps either
        # predictor, the fine one or the coarse one
        fine, coarse = (2, 16, 16), (2, 8, 5)
        path = [(0, 1.0, np.full(fine, 1.0), np.full(coarse, 1.0 + 1.0j)),
                (1, 1.2, np.full(fine, 2.0), np.full(coarse, 2.0 + 2.0j))]
        _, secant_row, start = runner._path_start(path, 1.4)
        assert secant_row == 0
        state, coarse_state = start()
        # clamped secant 2 + (2 - 1)
        assert np.all(state == 3.0) and np.all(coarse_state == 3.0 + 3.0j)
        refs = [weakref.ref(state), weakref.ref(coarse_state)]
        del state, coarse_state
        assert [ref() for ref in refs] == [None, None]
        assert [row for row, *_ in path] == [1]
