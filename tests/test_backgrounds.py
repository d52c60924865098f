import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bpsvortex as bv
from bpsvortex.backgrounds import _periodized_source
from bpsvortex.errors import PointOutsideDomain

L20 = math.sqrt(20.0)


class TestCheckExistence:
    def test_base_formulas(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0), (2.0, 2.0)))
        rep = bv.check_existence(cfg, grid, bv.PhysicalParams(lam=1.0))
        assert rep.model == "base"
        assert rep.c1 == pytest.approx(20.0 - 4.0 * math.pi, rel=1e-12)
        assert rep.c2 == pytest.approx(0.5 * (rep.c1 + 20.0), rel=1e-12)
        assert rep.solvable
        assert rep.margin == rep.c1

    def test_empty_configuration_always_solvable(self):
        grid = bv.TorusGrid(1.0, 1.0, 16, 16)
        for lam in (1e-6, 1.0, 1e6):
            rep = bv.check_existence(bv.VortexConfig(), grid, bv.PhysicalParams(lam=lam))
            assert rep.solvable
            assert rep.c1 == pytest.approx(grid.area)
            assert rep.c2 == pytest.approx(grid.area)

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
        assert rep.model == "extended"
        assert rep.alpha1 == pytest.approx(50.0 - 6.0 * math.pi, rel=1e-10)
        assert rep.alpha2 == pytest.approx(0.5 * (rep.alpha1 + 50.0 - 4.0 * math.pi), rel=1e-10)
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
        grid = bv.TorusGrid(L20, L20, 16, 16)
        params = bv.PhysicalParams(lam=0.7)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0), (2.0, 2.0)))
        base = bv.check_existence(cfg, grid, params, model="base")
        ext = bv.check_existence(cfg, grid, params, model="extended")
        assert ext.alpha1 == base.c1
        assert ext.alpha2 == base.c2
        assert ext.solvable == base.solvable

    @settings(deadline=None, database=None, derandomize=True, max_examples=200)
    @given(n=st.integers(0, 8), m=st.integers(0, 8), area=st.floats(0.5, 500.0),
           factor=st.floats(1.0, 50.0, exclude_min=True), extended=st.booleans())
    def test_constraints_make_both_rhs_zero_mean(self, n, m, area, factor, extended):
        # the fixed-point map's right-hand sides have zero mean exactly when
        # lam (2 C2 - C1 - |Omega|) + 4 pi m = 0 and
        # lam (3 C1 - 2 C2 - |Omega|) + 4 pi n = 0 for (C1, C2) = constraints
        line = max(2.0 * math.pi * (m + n), math.pi * (3 * m + n)) / area
        lam = factor * (line if line > 0.0 else 1.0)
        grid = bv.TorusGrid(1.0, area, 8, 8)
        cfg = bv.VortexConfig(phi_zeros=((0.5, 0.5),) * n, kappa_zeros=((0.5, 0.5),) * m)
        rep = bv.check_existence(cfg, grid, bv.PhysicalParams(lam=lam),
                                 model="extended" if extended else None)
        assert rep.solvable
        c1, c2 = rep.constraints
        assert (c1, c2) == ((rep.alpha1, rep.alpha2) if rep.model == "extended"
                            else (rep.c1, rep.c2))
        scale = lam * grid.area
        assert abs(lam * (2.0 * c2 - c1 - grid.area) + 4.0 * math.pi * m) <= 1e-13 * scale
        assert abs(lam * (3.0 * c1 - 2.0 * c2 - grid.area) + 4.0 * math.pi * n) <= 1e-13 * scale


class TestPlaneBackground:
    def test_empty_config(self):
        grid = bv.PlaneGrid(4.0, 33)
        bg = bv.build_background_plane(bv.VortexConfig(), grid, bv.PhysicalParams(lam=1.0))
        assert np.all(bg.exp_v0 == 1.0)
        assert np.all(bg.src_f == 0.0)
        assert np.all(bg.v0 == 0.0)

    def test_single_vortex_closed_form(self):
        # node at (1, 0) exists for R=4, n=129; tau=1 gives value 1/2 there
        grid = bv.PlaneGrid(4.0, 129)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
        bg = bv.build_background_plane(cfg, grid, bv.PhysicalParams(lam=1.0, tau=1.0))
        i = round((1.0 + 4.0) / grid.h)
        j = round((0.0 + 4.0) / grid.h)
        assert bg.exp_v0[i, j] == pytest.approx(0.5, rel=1e-12)

    def test_exact_zero_at_vortex_node(self):
        grid = bv.PlaneGrid(4.0, 33)
        x, _ = grid.axes()
        p = (x[10], x[20])
        bg = bv.build_background_plane(bv.VortexConfig(phi_zeros=(p,)), grid,
                                       bv.PhysicalParams(lam=1.0))
        assert bg.exp_v0[10, 20] == 0.0
        assert np.all(bg.exp_v0 >= 0.0)
        off_core = np.delete(bg.exp_v0.ravel(), 10 * 33 + 20)
        assert np.all(off_core > 0.0)

    def test_source_integral_matches_analytic_value(self):
        # integral of each bump over the full plane is 4*pi; truncation to
        # [-R, R]^2 misses O(tau/R^2) of it
        grid = bv.PlaneGrid(20.0, 257)
        cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0), (1.0, -2.0)))
        tau = 1.0
        bg = bv.build_background_plane(cfg, grid, bv.PhysicalParams(lam=1.0, tau=tau))
        target = 4.0 * math.pi * cfg.n
        assert abs(grid.integrate(bg.src_f) - target) <= 3.0 * target * tau / grid.R ** 2

    def test_v0_floor(self):
        grid = bv.PlaneGrid(4.0, 33)
        x, _ = grid.axes()
        bg = bv.build_background_plane(bv.VortexConfig(phi_zeros=((x[10], x[20]),)),
                                       grid, bv.PhysicalParams(lam=1.0))
        assert np.all(np.isfinite(bg.v0))
        assert bg.v0.min() >= -700.0

    def test_rejects_outside_point(self):
        grid = bv.PlaneGrid(4.0, 33)
        with pytest.raises(PointOutsideDomain):
            bv.build_background_plane(bv.VortexConfig(phi_zeros=((4.5, 0.0),)),
                                      grid, bv.PhysicalParams(lam=1.0))


class TestTorusBackground:
    def test_empty_config(self):
        grid = bv.TorusGrid(2.0, 2.0, 16, 16)
        bg = bv.build_background_torus(bv.VortexConfig(), grid, bv.PhysicalParams(lam=1.0))
        assert np.all(bg.v0 == 0.0)
        assert np.all(bg.exp_v0 == 1.0)

    def test_source_normalized_exactly(self):
        grid = bv.TorusGrid(L20, L20, 64, 64)
        tau = bv.PhysicalParams(lam=1.0).resolved_tau(grid)
        source = _periodized_source(((1.0, 1.0),), grid, tau)
        assert grid.integrate(source) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_poisson_residual(self, torus_criterion_setup):
        grid, params, cfg, bg = torus_criterion_setup
        source = _periodized_source(cfg.phi_zeros, grid, params.resolved_tau(grid))
        res = grid.laplacian(bg.v0) + bg.src_f - source
        assert np.sqrt(grid.inner(res, res) / grid.inner(source, source)) <= 1e-10

    def test_v0_gauge_mean_zero(self, torus_criterion_setup):
        grid, params, cfg, bg = torus_criterion_setup
        assert abs(bg.v0.mean()) <= 1e-12 * (np.max(np.abs(bg.v0)) + 1e-30)

    def test_neutralized_source_mean(self, torus_criterion_setup):
        # the source less 4 pi n / |Omega|, the Poisson right-hand side of v0,
        # has mean zero to roundoff before any mean is projected out
        grid, params, cfg, bg = torus_criterion_setup
        neutral = _periodized_source(cfg.phi_zeros, grid, params.resolved_tau(grid)) - bg.src_f
        assert abs(neutral.mean()) <= 1e-12 * np.max(np.abs(neutral))

    def test_core_suppression_at_fine_resolution(self):
        # with tau = (3 dx)^2 the core suppression reaches 1e-3 of the peak
        # from 256^2 upward on this cell size
        grid = bv.TorusGrid(L20, L20, 256, 256)
        p = (0.5 * L20, 0.5 * L20)
        bg = bv.build_background_torus(bv.VortexConfig(phi_zeros=(p,)), grid,
                                       bv.PhysicalParams(lam=1.0))
        i = round(p[0] / grid.dx)
        j = round(p[1] / grid.dy)
        assert bg.exp_v0[i, j] <= 1e-3 * bg.exp_v0.max()

    def test_rejects_outside_point(self):
        grid = bv.TorusGrid(2.0, 2.0, 16, 16)
        with pytest.raises(PointOutsideDomain):
            bv.build_background_torus(bv.VortexConfig(phi_zeros=((2.0, 0.5),)),
                                      grid, bv.PhysicalParams(lam=1.0))

    def test_base_model_kappa_fields_trivial(self, torus_criterion_setup):
        grid, params, cfg, bg = torus_criterion_setup
        assert np.all(bg.exp_u0 == 1.0)
        assert np.all(bg.u0 == 0.0)
        assert bg.src_u == 0.0


class TestRefinementConsistency:
    def test_solution_converges_under_refinement(self):
        # halving tau while doubling resolution: successive solution changes
        # shrink (the regularized problem approaches the point-source one)
        params0 = bv.PhysicalParams(lam=1.0)
        grid0 = bv.TorusGrid(L20, L20, 64, 64)
        tau0 = params0.resolved_tau(grid0)
        p = (0.5 * L20, 0.5 * L20)
        cfg = bv.VortexConfig(phi_zeros=(p,))
        states = []
        for k, nres in enumerate((64, 128, 256)):
            grid = bv.TorusGrid(L20, L20, nres, nres)
            params = bv.PhysicalParams(lam=1.0, tau=tau0 / 2 ** k)
            sol = bv.solve("torus", "base", cfg, grid, params)
            assert sol.converged
            stride = nres // 64
            states.append(sol.state[:, ::stride, ::stride])
        d1 = np.max(np.abs(states[1] - states[0]))
        d2 = np.max(np.abs(states[2] - states[1]))
        assert d2 < d1
