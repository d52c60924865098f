import math

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex.errors import AnnulusTooThin

L20 = math.sqrt(20.0)
L50 = math.sqrt(50.0)


@pytest.fixture(scope="module")
def plane_solution():
    grid = bv.PlaneGrid(10.0, 256)
    params = bv.PhysicalParams(lam=4.0)
    cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
    bg = bv.build_background_plane(cfg, grid, params)
    sol = bv.solve("plane", "base", cfg, grid, params, background=bg)
    assert sol.converged
    return grid, params, cfg, bg, sol


@pytest.fixture(scope="module")
def extended_solution():
    grid = bv.TorusGrid(L50, L50, 96, 96)
    params = bv.PhysicalParams(lam=1.0)
    cfg = bv.VortexConfig(phi_zeros=((0.3 * L50, 0.4 * L50), (0.7 * L50, 0.6 * L50)),
                          kappa_zeros=((0.5 * L50, 0.25 * L50),))
    bg = bv.build_background_torus(cfg, grid, params)
    sol = bv.solve("torus", "extended", cfg, grid, params, background=bg)
    assert sol.converged
    return grid, params, cfg, bg, sol


class TestPdeResidual:
    def test_zero_state_empty_config(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig()
        bg = bv.build_background_torus(cfg, grid, params)
        res = bv.pde_residual(np.zeros((2, 32, 32)), "torus", bg, cfg, params)
        assert max(res[0][1], res[1][1]) < 1e-13

    def test_converged_residual_within_tolerance(self, torus_criterion_setup,
                                                 torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        res = bv.pde_residual(torus_criterion_solution.state, "torus", bg, cfg, params)
        assert max(res[0][1], res[1][1]) <= 2e-9

    def test_perturbation_bumps_residual(self, torus_criterion_setup,
                                         torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        rng = np.random.default_rng(7)
        bump = 1e-3 * bv.random_smooth_field(grid, rng, 1.0)
        state = torus_criterion_solution.state + np.stack([bump, bump])
        res = bv.pde_residual(state, "torus", bg, cfg, params)
        # sup residual responds at the 1e-3 * lambda scale
        assert 1e-5 <= max(res[0][1], res[1][1]) <= 1.0


class TestFlux:
    def test_empty_config_zero_flux(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig()
        bg = bv.build_background_torus(cfg, grid, params)
        fa, fb = bv.flux_report(np.zeros((2, 32, 32)), bg, params)
        assert fa == pytest.approx(0.0, abs=1e-12)
        assert fb == pytest.approx(0.0, abs=1e-12)

    def test_single_vortex_quantization(self):
        grid = bv.TorusGrid(L20, L20, 64, 64)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.4 * L20, 0.5 * L20),))
        bg = bv.build_background_torus(cfg, grid, params)
        sol = bv.solve("torus", "base", cfg, grid, params, background=bg)
        fa, fb = bv.flux_report(sol.state, bg, params)
        assert abs(fb - 2.0 * math.pi) / (2.0 * math.pi) <= 1e-6
        assert abs(fa) <= 1e-6 * 2.0 * math.pi

    def test_extended_quantization(self, extended_solution):
        grid, params, cfg, bg, sol = extended_solution
        fa, fb = bv.flux_report(sol.state, bg, params)
        assert abs(fa - 2.0 * math.pi) / (2.0 * math.pi) <= 1e-6
        assert abs(fb - 6.0 * math.pi) / (6.0 * math.pi) <= 1e-6


class TestPointwiseBounds:
    def test_empty_config_boundary_case(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        bg = bv.build_background_torus(bv.VortexConfig(), grid, params)
        rep = bv.pointwise_bounds(np.zeros((2, 32, 32)), bg)
        assert rep.max_exp_u_excess == pytest.approx(0.0, abs=1e-14)
        assert rep.max_exp_v_excess == pytest.approx(0.0, abs=1e-14)
        assert rep.intermediate_excess == pytest.approx(0.0, abs=1e-14)

    def test_converged_solution_respects_bounds(self, torus_criterion_setup,
                                                torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        rep = bv.pointwise_bounds(torus_criterion_solution.state, bg)
        assert rep.ok
        assert rep.max_exp_u_excess <= 0.05
        assert rep.max_exp_v_excess <= 0.05
        assert rep.intermediate_excess <= 0.05


class TestLagrangeMultipliers:
    def test_converged_fit_recovers_analytic_values(self, torus_criterion_setup,
                                                    torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        l1, l2 = bv.verify_lagrange_multipliers(torus_criterion_solution.state,
                                                bg, cfg, params)
        assert abs(l1 / params.lam - 1.0) <= 1e-4
        assert abs(l2 / (2.0 * params.lam) - 1.0) <= 1e-4

    def test_empty_config_constant_balance(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.7)
        cfg = bv.VortexConfig()
        bg = bv.build_background_torus(cfg, grid, params)
        l1, l2 = bv.verify_lagrange_multipliers(np.zeros((2, 32, 32)), bg, cfg, params)
        assert l1 == pytest.approx(params.lam, rel=1e-10)
        assert l2 == pytest.approx(2.0 * params.lam, rel=1e-10)

    def test_corrupted_state_drifts(self, torus_criterion_setup,
                                    torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        rng = np.random.default_rng(11)
        state = torus_criterion_solution.state + 0.1 * np.stack(
            [bv.random_smooth_field(grid, rng, 1.0),
             bv.random_smooth_field(grid, rng, 1.0)])
        l1, l2 = bv.verify_lagrange_multipliers(state, bg, cfg, params)
        drift = abs(l1 / params.lam - 1.0) + abs(l2 / (2.0 * params.lam) - 1.0)
        assert drift > 1e-4  # negative control

    def test_requires_base_model(self, extended_solution):
        grid, params, cfg, bg, sol = extended_solution
        # the fit formulas assume the base-model system; extended input is a
        # caller error rather than a numeric one
        l1, l2 = bv.verify_lagrange_multipliers(sol.state, bg,
                                                bv.VortexConfig(cfg.phi_zeros), params)
        assert np.isfinite(l1) and np.isfinite(l2)


class TestDecayFit:
    def test_rates_meet_analytic_bounds(self, plane_solution):
        grid, params, cfg, bg, sol = plane_solution
        rate_f, rate_g, window = bv.decay_fit(sol.state, bg, cfg, params)
        assert rate_f >= math.sqrt(0.9 * params.lam)
        assert rate_g >= math.sqrt(2.0 * 0.9 * params.lam)
        assert abs(rate_f - 2.0 * math.sqrt(params.lam)) <= 0.15 * 2.0 * math.sqrt(params.lam)
        assert window[1] <= 0.8 * grid.R

    def test_annulus_too_thin(self, plane_solution):
        # a vortex at radius 6.4 moves the annulus start to 6.4 + 3/sqrt(4) =
        # 7.9, just inside its end 0.8 R = 8: too few bins to fit
        grid, params, cfg, bg, sol = plane_solution
        far = bv.VortexConfig(phi_zeros=((6.4, 0.0),))
        with pytest.raises(AnnulusTooThin):
            bv.decay_fit(sol.state, bg, far, params)


class TestReconstruct:
    def test_empty_config_trivial_fields(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        bg = bv.build_background_torus(bv.VortexConfig(), grid, params)
        phys = bv.reconstruct_physical(np.zeros((2, 32, 32)), bg, params)
        assert np.all(phys.kappa == 1.0)
        assert np.all(phys.phi_abs == 1.0)
        assert np.all(phys.a12 == 0.0)
        assert np.all(phys.b12 == 0.0)

    def test_phi_abs_vanishes_at_plane_vortex_node(self):
        grid = bv.PlaneGrid(6.0, 33)
        x, _ = grid.axes()
        p = (x[10], x[20])
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=(p,))
        bg = bv.build_background_plane(cfg, grid, params)
        sol = bv.solve("plane", "base", cfg, grid, params, background=bg)
        phys = bv.reconstruct_physical(sol.state, bg, params)
        assert phys.phi_abs[10, 20] == 0.0
        assert np.all(phys.kappa > 0.0)

    def test_algebraic_vs_derivative_curvature(self, plane_solution):
        # b12 from the algebraic right-hand side against -1/2 lap(u + v),
        # compared away from the vortex cores
        grid, params, cfg, bg, sol = plane_solution
        phys = bv.reconstruct_physical(sol.state, bg, params)
        u = bg.u0 + sol.state[0]
        v = bg.v0 + sol.state[1] - sol.state[0]
        b12_deriv = -0.5 * (grid.laplacian(u) + grid.laplacian(v))
        X, Y = grid.nodes()
        r = np.sqrt((X - cfg.phi_zeros[0][0]) ** 2 + (Y - cfg.phi_zeros[0][1]) ** 2)
        mask = (r > 3.0 * math.sqrt(bg.tau)) & (np.abs(X) < 0.9 * grid.R) \
            & (np.abs(Y) < 0.9 * grid.R)
        diff = np.max(np.abs((phys.b12 - b12_deriv)[mask]))
        scale = np.max(np.abs(phys.b12))
        # second-order stencil error level for this grid
        assert diff <= 20.0 * grid.h ** 2 * scale


class TestUniquenessProbe:
    def test_single_seed_zero_spread(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.4 * L20, 0.5 * L20),))
        assert bv.uniqueness_probe("torus", "base", cfg, grid, params, seeds=1) == 0.0

    def test_three_seeds_agree(self):
        grid = bv.TorusGrid(L20, L20, 64, 64)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.4 * L20, 0.5 * L20),))
        spread = bv.uniqueness_probe("torus", "base", cfg, grid, params, seeds=3)
        sol = bv.solve("torus", "base", cfg, grid, params)
        assert spread <= 1e-8 * (1.0 + np.max(np.abs(sol.state)))


class TestReportAssembly:
    def test_torus_base_report(self, torus_criterion_setup, torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        rep = bv.build_diagnostics(torus_criterion_solution.state, "torus", "base",
                                   bg, cfg, params)
        d = rep.to_dict()
        assert max(d["constraint_errors"]) <= 1e-6
        assert abs(d["flux_b"] - 4.0 * math.pi) / (4.0 * math.pi) <= 1e-6
        assert "lagrange" in d
        assert "bound_violation" in d

    def test_plane_report_has_decay(self, plane_solution):
        grid, params, cfg, bg, sol = plane_solution
        rep = bv.build_diagnostics(sol.state, "plane", "base", bg, cfg, params)
        d = rep.to_dict()
        assert d["decay"]["rate_fields"] > 1.0
        assert "constraint_errors" not in d
