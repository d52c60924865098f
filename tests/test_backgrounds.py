import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bpsvortex as bv
from bpsvortex.backgrounds import SERIES_S, _add_profile
from bpsvortex.errors import PointOutsideDomain, UnresolvedCore

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
        # node at (0.5, 0) exists for R=4, n=129, where s = 0.25/tau
        grid = bv.PlaneGrid(4.0, 129)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
        bg = bv.build_background(cfg, grid, bv.PhysicalParams(lam=1.0))
        i = round((0.5 + 4.0) / grid.h)
        j = round((0.0 + 4.0) / grid.h)
        s = 0.25 / bv.backgrounds.core_scale(grid)
        assert bg.exp_v0[i, j] == pytest.approx(1.0 - math.exp(-s), rel=1e-12)

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
        grid = bv.PlaneGrid(8.0, 257)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0), (1.0, -2.0)))
        bg = bv.build_background(cfg, grid, bv.PhysicalParams(lam=1.0))
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

    @pytest.mark.parametrize("n", [96, 193])
    def test_profiles_on_their_boxes_equal_profiles_on_the_whole_grid(self, n):
        # each profile is built on its vortex's box only; folded over every
        # node instead, the background keeps its bits.  Overlapping boxes,
        # a vortex next to the Dirichlet ring and random configurations
        grid = bv.PlaneGrid(6.0, n)
        tau = bv.backgrounds.core_scale(grid)
        assert 2.0 * math.sqrt(bv.backgrounds.CUTOFF_S * tau) < grid.R  # boxes are proper
        x, y = grid.axes()

        def whole_grid(points):
            if not points:
                return 1.0, 0.0, 0.0
            exp_f, log_f, dens = np.ones(grid.shape), np.zeros(grid.shape), np.zeros(grid.shape)
            for px, py in points:
                _add_profile(x - px, y - py, tau, exp_f, log_f, dens)
            return exp_f, np.maximum(log_f, -700.0), dens

        rng = np.random.default_rng(5)
        configs = [bv.VortexConfig(phi_zeros=((0.3, -0.2), (1.1, 0.4), (5.97, -5.9)),
                                   kappa_zeros=((0.2, -0.1),))]
        configs += [bv.VortexConfig(phi_zeros=tuple(map(tuple, rng.uniform(-5.9, 5.9, (3, 2)))),
                                    kappa_zeros=(tuple(rng.uniform(-5.9, 5.9, 2)),))
                    for _ in range(4)]
        for cfg in configs:
            bg = bv.build_background(cfg, grid, bv.PhysicalParams(lam=1.0))
            exp_u0, u0, src_u = whole_grid(cfg.kappa_zeros)
            exp_v0, v0, src_f = whole_grid(cfg.phi_zeros)
            src_f = src_f + src_u
            for got, ref in ((bg.exp_u0, exp_u0), (bg.u0, u0), (bg.src_u, src_u),
                             (bg.exp_v0, exp_v0), (bg.v0, v0), (bg.src_f, src_f)):
                assert got.tobytes() == ref.tobytes()


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

    def test_core_scale_is_fixed_by_the_domain(self):
        # min(Lx, Ly)^2/144 on the torus, where the minimum image cuts each
        # profile at s >= 36, and 0.2 on the plane; never the resolution
        core_scale = bv.backgrounds.core_scale
        for nx, ny in ((8, 8), (32, 64), (256, 128)):
            assert core_scale(bv.TorusGrid(L20, 2.0 * L20, nx, ny)) == L20 ** 2 / 144.0
            assert core_scale(bv.TorusGrid(3.0, 2.0, nx, ny)) == 4.0 / 144.0
        for n in (16, 97, 384):
            assert core_scale(bv.PlaneGrid(6.0, n)) == 0.2

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

    def test_rejects_core_between_nodes(self):
        # sqrt(tau) = 0.5 / 12 on a 6.25-wide x spacing: the profile of a
        # vortex 1.0 from its nearest node column is 0.0 on every node
        grid = bv.TorusGrid(100.0, 0.5, 16, 8)
        params = bv.PhysicalParams(lam=5.0)
        with pytest.raises(UnresolvedCore, match="sqrt\\(tau\\) = 0.0417"):
            bv.build_background(bv.VortexConfig(phi_zeros=((1.0, 0.1),)), grid, params)
        # on a node column the same core is resolved in x and rescaled
        bg = bv.build_background(bv.VortexConfig(phi_zeros=((6.25, 0.1),)), grid, params)
        assert grid.integrate(bg.src_f) == pytest.approx(4.0 * math.pi, rel=1e-12)

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
        _add_profile(dx, dy, tau, exp_f, log_f, dens)
        assert dens[0, 0] == pytest.approx(dens[1, 0], rel=1e-12)
        assert dens[0, 0] == pytest.approx((4.0 / tau) * (0.5 - SERIES_S / 6.0), rel=1e-10)
        assert exp_f[:, 0] == pytest.approx(-np.expm1(-s), rel=1e-15)


class TestPointSourceLimit:
    """Both grids solve the point-source system: tau and the grid only split and sample it.

    ``core_scale`` is the one binding that fixes tau, for the background and
    the coarse level alike, so substituting it moves both.
    """

    P = ((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20))
    PLANE_P = ((-1.0, 0.5), (1.5, -0.5))

    @staticmethod
    def exp_v(grid, points, lam=1.0):
        mode = "torus" if isinstance(grid, bv.TorusGrid) else "plane"
        params = bv.PhysicalParams(lam=lam)
        cfg = bv.VortexConfig(phi_zeros=points)
        bg = bv.build_background(cfg, grid, params)
        sol = bv.solve(mode, "base", cfg, grid, params, background=bg,
                       settings=bv.SolverSettings(tol_grad_sup=1e-10))
        assert sol.converged
        return bg.exp_v0 * np.exp(sol.state[1] - sol.state[0]), sol.levels

    @staticmethod
    def torus(nres):
        return bv.TorusGrid(L20, L20, nres, nres)

    def test_solution_is_tau_independent(self, monkeypatch):
        def at_tau(grid, points, tau, lam=1.0):
            monkeypatch.setattr(bv.backgrounds, "core_scale", lambda g: tau)
            return self.exp_v(grid, points, lam)

        ref, _ = at_tau(self.torus(128), self.P, 0.02)
        for tau in (0.05, 0.12):
            ev, _ = at_tau(self.torus(128), self.P, tau)
            assert np.max(np.abs(ev - ref)) <= 1e-9
        # the plane: R = 6, n = 193, lambda = 4; tau = 0.1 leaves no grid of
        # the halving chain coarse enough, 0.2 and 0.3 solve on n = 97 first
        plane = bv.PlaneGrid(6.0, 193)
        ref, levels = at_tau(plane, self.PLANE_P, 0.2, lam=4.0)
        assert levels[0]["shape"] == [97, 97]
        for tau, shape in ((0.1, None), (0.3, [97, 97])):
            ev, levels = at_tau(plane, self.PLANE_P, tau, lam=4.0)
            assert (None if len(levels) == 1 else levels[0]["shape"]) == shape
            assert np.max(np.abs(ev - ref)) <= 1e-9

    def test_solution_is_resolution_independent(self):
        fine, _ = self.exp_v(self.torus(256), self.P)
        coarse, _ = self.exp_v(self.torus(64), self.P)
        assert np.max(np.abs(fine[::4, ::4] - coarse)) <= 1e-9
