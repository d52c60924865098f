import math

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex.energy import EnergyModel
from bpsvortex.errors import ThresholdViolated

from conftest import random_state

L20 = math.sqrt(20.0)


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
        res = bv.pde_residual(torus_criterion_solution.state, "torus", bg, cfg, params)
        assert max(res[0][1], res[1][1]) <= 1e-8

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

    def test_translation_equivariance(self):
        # shifting all vortex points by whole grid cells permutes the nodes;
        # the computed solution follows up to spectral roundoff
        grid = bv.TorusGrid(L20, L20, 64, 64)
        params = bv.PhysicalParams(lam=1.0)
        base_pts = ((0.25 * L20, 0.375 * L20), (0.625 * L20, 0.5 * L20))
        shift_nodes = (16, 8)
        shifted_pts = tuple(((px + shift_nodes[0] * grid.dx) % grid.Lx,
                             (py + shift_nodes[1] * grid.dy) % grid.Ly)
                            for (px, py) in base_pts)
        sol_a = bv.solve("torus", "base", bv.VortexConfig(phi_zeros=base_pts),
                         grid, params)
        sol_b = bv.solve("torus", "base", bv.VortexConfig(phi_zeros=shifted_pts),
                         grid, params)
        rolled = np.roll(sol_a.state, shift_nodes, axis=(1, 2))
        assert np.max(np.abs(rolled - sol_b.state)) <= 1e-9


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

    def test_preconditioned_cg_applies_per_newton_iteration(self):
        # the per-mode block inverse leaves ~8 Hessian applies per Newton
        # step here; plain CG took ~250
        grid = bv.PlaneGrid(8.0, 192)
        params = bv.PhysicalParams(lam=4.0)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
        bg = bv.build_background(cfg, grid, params)
        model = EnergyModel(mode="plane", model="base", bg=bg, cfg=cfg, params=params)
        applies = 0
        make_operator = model.hessian_operator

        def counting_operator(state):
            apply_h = make_operator(state)

            def counted(d):
                nonlocal applies
                applies += 1
                return apply_h(d)

            return counted

        model.hessian_operator = counting_operator
        sol = bv.minimize(model, bv.SolverSettings())
        assert sol.converged
        assert 0 < applies <= 15 * sol.iterations

    def test_solution_energy_below_random_states(self):
        grid = bv.PlaneGrid(6.0, 32)
        params = bv.PhysicalParams(lam=1.3)
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3),))
        bg = bv.build_background(cfg, grid, params)
        model = EnergyModel(mode="plane", model="base", bg=bg, cfg=cfg, params=params)
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
        bg = bv.build_background_plane(cfg, grid, params)
        sol = bv.solve("plane", "extended", cfg, grid, params, background=bg)
        assert sol.converged
        res = bv.pde_residual(sol.state, "plane", bg, cfg, params)
        assert max(res[0][1], res[1][1]) <= 2.0 * 2.0 * params.lam * 1e-9
        phys = bv.reconstruct_physical(sol.state, bg, params)
        # kappa vanishes exactly at its prescribed zero (background factor)
        assert phys.kappa[40, 56] == 0.0
        assert phys.phi_abs.min() >= 0.0

    def test_plane_reduction_m_zero(self):
        grid = bv.PlaneGrid(6.0, 32)
        params = bv.PhysicalParams(lam=1.3)
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3),))
        bg = bv.build_background_plane(cfg, grid, params)
        base = bv.solve("plane", "base", cfg, grid, params, background=bg)
        ext = bv.solve("plane", "extended", cfg, grid, params, background=bg)
        assert np.max(np.abs(base.state - ext.state)) <= 1e-10


class TestSettingsValidation:
    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            bv.SolverSettings(tol_grad_sup=-1.0)
        with pytest.raises(ValueError):
            bv.SolverSettings(max_iters=0)
