import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bpsvortex as bv
from bpsvortex.backgrounds import SERIES_S, _add_profile
from bpsvortex.errors import PointOutsideDomain

L20 = math.sqrt(20.0)


class TestCheckExistence:
    def test_base_formulas(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0), (2.0, 2.0)))
        rep = bv.check_existence(cfg, grid, bv.PhysicalParams(lam=1.0))
        c1, c2 = rep.constraints
        assert c1 == pytest.approx(20.0 - 4.0 * math.pi, rel=1e-12)
        assert c2 == pytest.approx(0.5 * (c1 + 20.0), rel=1e-12)
        assert rep.solvable
        assert rep.margin == c1

    def test_empty_configuration_always_solvable(self):
        grid = bv.TorusGrid(1.0, 1.0, 16, 16)
        for lam in (1e-6, 1.0, 1e6):
            rep = bv.check_existence(bv.VortexConfig(), grid, bv.PhysicalParams(lam=lam))
            assert rep.solvable
            assert rep.constraints[0] == pytest.approx(grid.area)
            assert rep.constraints[1] == pytest.approx(grid.area)

    def test_boundary_case_not_solvable(self):
        # lambda=1, |Omega|=2*pi, n=1: the threshold line itself
        side = math.sqrt(2.0 * math.pi)
        grid = bv.TorusGrid(side, side, 16, 16)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0),))
        rep = bv.check_existence(cfg, grid, bv.PhysicalParams(lam=1.0))
        assert not rep.solvable
        assert abs(rep.margin) < 1e-12

    def test_extended_formulas(self):
        side = math.sqrt(50.0)
        grid = bv.TorusGrid(side, side, 32, 32)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0), (2.0, 2.0)),
                              kappa_zeros=((3.0, 3.0),))
        rep = bv.check_existence(cfg, grid, bv.PhysicalParams(lam=1.0))
        alpha1, alpha2 = rep.constraints
        assert alpha1 == pytest.approx(50.0 - 6.0 * math.pi, rel=1e-10)
        assert alpha2 == pytest.approx(0.5 * (alpha1 + 50.0 - 4.0 * math.pi), rel=1e-10)
        assert rep.solvable

    def test_monotone_in_vortex_number(self):
        grid = bv.TorusGrid(L20, L20, 16, 16)
        params = bv.PhysicalParams(lam=1.0)
        solvable = []
        for n in range(6):
            cfg = bv.VortexConfig(phi_zeros=tuple((0.5 + 0.1 * k, 0.5) for k in range(n)))
            solvable.append(bv.check_existence(cfg, grid, params).solvable)
        # once unsolvable, adding vortices never makes it solvable again
        for a, b in zip(solvable, solvable[1:]):
            assert a or not b

    def test_extended_reduces_to_base_at_m_zero(self):
        # with no kappa zeros the one formula gives the base model's
        # C1 = |Omega| - 2 pi n / lam and C2 = (C1 + |Omega|) / 2
        grid = bv.TorusGrid(L20, L20, 16, 16)
        params = bv.PhysicalParams(lam=0.7)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0), (2.0, 2.0)))
        rep = bv.check_existence(cfg, grid, params)
        lam_area = params.lam * grid.area
        c1 = (lam_area - 2.0 * math.pi * cfg.n) / params.lam
        assert rep.constraints == (c1, 0.5 * (c1 + grid.area))
        assert rep.margin == c1
        assert rep.solvable == (2.0 * math.pi * cfg.n < lam_area)

    @settings(deadline=None, database=None, derandomize=True, max_examples=200)
    @given(n=st.integers(0, 8), m=st.integers(0, 8), area=st.floats(0.5, 500.0),
           factor=st.floats(1.0, 50.0, exclude_min=True))
    def test_constraints_make_both_rhs_zero_mean(self, n, m, area, factor):
        # the fixed-point map's right-hand sides have zero mean exactly when
        # lam (2 C2 - C1 - |Omega|) + 4 pi m = 0 and
        # lam (3 C1 - 2 C2 - |Omega|) + 4 pi n = 0 for (C1, C2) = constraints
        line = max(2.0 * math.pi * (m + n), math.pi * (3 * m + n)) / area
        lam = factor * (line if line > 0.0 else 1.0)
        grid = bv.TorusGrid(1.0, area, 8, 8)
        cfg = bv.VortexConfig(phi_zeros=((0.5, 0.5),) * n, kappa_zeros=((0.5, 0.5),) * m)
        rep = bv.check_existence(cfg, grid, bv.PhysicalParams(lam=lam))
        # a factor within an ulp of 1 can round lam |Omega| onto the line,
        # so solvability is checked against the exact products, not assumed
        lam_area = lam * grid.area
        assert rep.solvable == (2.0 * math.pi * (m + n) < lam_area
                                and math.pi * (3 * m + n) < lam_area)
        c1, c2 = rep.constraints
        assert rep.margin == min(c1, c2)
        scale = lam * grid.area
        assert abs(lam * (2.0 * c2 - c1 - grid.area) + 4.0 * math.pi * m) <= 1e-13 * scale
        assert abs(lam * (3.0 * c1 - 2.0 * c2 - grid.area) + 4.0 * math.pi * n) <= 1e-13 * scale


class TestPlaneBackground:
    def test_empty_config(self):
        grid = bv.PlaneGrid(4.0, 33)
        bg = bv.build_background(bv.VortexConfig(), grid, bv.PhysicalParams(lam=1.0))
        assert np.all(bg.exp_v0 == 1.0)
        assert np.all(bg.src_f == 0.0)
        assert np.all(bg.v0 == 0.0)

    def test_single_vortex_closed_form(self):
        # node at (1, 0) exists for R=4, n=129; tau=1 gives 1 - e^{-1} there
        grid = bv.PlaneGrid(4.0, 129)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
        bg = bv.build_background(cfg, grid, bv.PhysicalParams(lam=1.0, tau=1.0))
        i = round((1.0 + 4.0) / grid.h)
        j = round((0.0 + 4.0) / grid.h)
        assert bg.exp_v0[i, j] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_exact_zero_at_vortex_node(self):
        grid = bv.PlaneGrid(4.0, 33)
        x, _ = grid.axes()
        p = (x[10], x[20])
        bg = bv.build_background(bv.VortexConfig(phi_zeros=(p,)), grid,
                                 bv.PhysicalParams(lam=1.0))
        assert bg.exp_v0[10, 20] == 0.0
        assert np.all(bg.exp_v0 >= 0.0)
        off_core = np.delete(bg.exp_v0.ravel(), 10 * 33 + 20)
        assert np.all(off_core > 0.0)

    def test_source_integral_matches_analytic_value(self):
        # integral of each profile's source over the full plane is 4*pi; it
        # decays like s e^{-s}, so truncation to [-R, R]^2 misses nothing
        grid = bv.PlaneGrid(20.0, 257)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0), (1.0, -2.0)))
        tau = 1.0
        bg = bv.build_background(cfg, grid, bv.PhysicalParams(lam=1.0, tau=tau))
        target = 4.0 * math.pi * cfg.n
        assert abs(grid.integrate(bg.src_f) - target) <= 1e-10 * target

    def test_v0_floor(self):
        grid = bv.PlaneGrid(4.0, 33)
        x, _ = grid.axes()
        bg = bv.build_background(bv.VortexConfig(phi_zeros=((x[10], x[20]),)),
                                 grid, bv.PhysicalParams(lam=1.0))
        assert np.all(np.isfinite(bg.v0))
        assert bg.v0.min() >= -700.0

    def test_rejects_outside_point(self):
        grid = bv.PlaneGrid(4.0, 33)
        with pytest.raises(PointOutsideDomain):
            bv.build_background(bv.VortexConfig(phi_zeros=((4.5, 0.0),)),
                                grid, bv.PhysicalParams(lam=1.0))


class TestTorusBackground:
    def test_empty_config(self):
        grid = bv.TorusGrid(2.0, 2.0, 16, 16)
        bg = bv.build_background(bv.VortexConfig(), grid, bv.PhysicalParams(lam=1.0))
        assert np.all(bg.v0 == 0.0)
        assert np.all(bg.exp_v0 == 1.0)

    def test_source_normalized_exactly(self):
        # each zero set's density is rescaled to cell integral 4 pi per vortex
        grid = bv.TorusGrid(L20, L20, 64, 64)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0), (3.1, 0.2)), kappa_zeros=((2.0, 4.0),))
        bg = bv.build_background(cfg, grid, bv.PhysicalParams(lam=1.0))
        assert grid.integrate(bg.src_u) == pytest.approx(4.0 * math.pi * cfg.m, rel=1e-14)
        assert grid.integrate(bg.src_f) == pytest.approx(4.0 * math.pi * (cfg.m + cfg.n),
                                                         rel=1e-14)

    def test_exact_zero_at_node_aligned_zeros(self):
        # the point sources stay points: e^{v0} vanishes at the zeros, one
        # of them a minimum image away across the cell boundary
        grid = bv.TorusGrid(L20, L20, 64, 64)
        x, y = grid.axes()
        nodes = ((10, 20), (63, 0), (40, 41))
        cfg = bv.VortexConfig(phi_zeros=tuple((x[i], y[j]) for i, j in nodes))
        bg = bv.build_background(cfg, grid, bv.PhysicalParams(lam=1.0))
        for i, j in nodes:
            assert bg.exp_v0[i, j] == 0.0
        assert np.count_nonzero(bg.exp_v0) == grid.nx * grid.ny - len(nodes)
        assert np.all(np.isfinite(bg.v0)) and bg.v0.min() >= -700.0

    def test_tau_above_the_minimum_image_bound_refused(self):
        grid = bv.TorusGrid(L20, 2.0 * L20, 32, 64)
        bound = bv.backgrounds.torus_tau_bound(grid.Lx, grid.Ly)
        assert bound == min(grid.Lx, grid.Ly) ** 2 / 144.0
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0),))
        bv.build_background(cfg, grid, bv.PhysicalParams(lam=1.0, tau=bound))
        with pytest.raises(ValueError, match="exceeds"):
            bv.build_background(cfg, grid, bv.PhysicalParams(lam=1.0, tau=1.01 * bound))
        # the default never exceeds the bound, however coarse the grid
        coarse = bv.TorusGrid(L20, L20, 8, 8)
        assert bv.PhysicalParams(lam=1.0).resolved_tau(coarse) == pytest.approx(bound)

    def test_core_suppression_at_fine_resolution(self):
        # the profile vanishes at the node on the vortex
        grid = bv.TorusGrid(L20, L20, 256, 256)
        p = (0.5 * L20, 0.5 * L20)
        bg = bv.build_background(bv.VortexConfig(phi_zeros=(p,)), grid,
                                 bv.PhysicalParams(lam=1.0))
        i = round(p[0] / grid.dx)
        j = round(p[1] / grid.dy)
        assert bg.exp_v0[i, j] <= 1e-3 * bg.exp_v0.max()

    def test_rejects_outside_point(self):
        grid = bv.TorusGrid(2.0, 2.0, 16, 16)
        with pytest.raises(PointOutsideDomain):
            bv.build_background(bv.VortexConfig(phi_zeros=((2.0, 0.5),)),
                                grid, bv.PhysicalParams(lam=1.0))

    def test_base_model_kappa_fields_trivial(self, torus_criterion_setup):
        grid, params, cfg, bg = torus_criterion_setup
        assert np.all(bg.exp_u0 == 1.0)
        assert np.all(bg.u0 == 0.0)
        assert bg.src_u == 0.0


class TestSourceSeries:
    def test_series_matches_closed_form_at_the_switch(self):
        # just below SERIES_S the series gives h2, from SERIES_S on the
        # closed form; at the switch both are exact to roundoff
        tau = 0.7
        dx = np.sqrt(tau * SERIES_S * np.array([1.0 - 1e-12, 1.0 + 1e-12]))
        dy = np.zeros(1)
        exp_f, log_f, dens = np.ones((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))
        s = dx * dx / tau
        assert s[0] < SERIES_S <= s[1]
        _add_profile(dx, dy, tau, exp_f, log_f, dens, *np.empty((3, 2, 1)))
        assert dens[0, 0] == pytest.approx(dens[1, 0], rel=1e-12)
        assert dens[0, 0] == pytest.approx((4.0 / tau) * (0.5 - SERIES_S / 6.0), rel=1e-10)
        assert exp_f[:, 0] == pytest.approx(-np.expm1(-s), rel=1e-15)


class TestPointSourceLimit:
    """The torus solves the point-source system: tau and the grid only split and sample it."""

    P = ((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20))

    @staticmethod
    def exp_v(nres, tau=None):
        grid = bv.TorusGrid(L20, L20, nres, nres)
        params = bv.PhysicalParams(lam=1.0, tau=tau)
        cfg = bv.VortexConfig(phi_zeros=TestPointSourceLimit.P)
        bg = bv.build_background(cfg, grid, params)
        sol = bv.solve("torus", "base", cfg, grid, params, background=bg,
                       settings=bv.SolverSettings(tol_grad_sup=1e-10))
        assert sol.converged
        return bg.exp_v0 * np.exp(sol.state[1] - sol.state[0])

    def test_solution_is_tau_independent(self):
        ref = self.exp_v(128, tau=0.02)
        for tau in (0.05, 0.12):
            assert np.max(np.abs(self.exp_v(128, tau=tau) - ref)) <= 1e-9

    def test_solution_is_resolution_independent(self):
        assert np.max(np.abs(self.exp_v(256)[::4, ::4] - self.exp_v(64))) <= 1e-9
