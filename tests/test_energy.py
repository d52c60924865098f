import math

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex.energy import EnergyModel
from bpsvortex.errors import Overflow

from conftest import random_state

L20 = math.sqrt(20.0)


def make_model(mode, model, seed_points=True):
    """A small 32^2 setup for each of the four variants."""
    if mode == "torus":
        grid = bv.TorusGrid(L20, L20, 32, 32)
        pts = ((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20))
        kpts = ((0.5 * L20, 0.2 * L20),)
    else:
        grid = bv.PlaneGrid(6.0, 32)
        pts = ((0.5, -0.3), (-1.0, 1.2))
        kpts = ((1.5, 0.5),)
    if not seed_points:
        pts, kpts = (), ()
    cfg = bv.VortexConfig(phi_zeros=pts,
                          kappa_zeros=kpts if model == "extended" else ())
    params = bv.PhysicalParams(lam=1.3)
    bg = bv.build_background(cfg, grid, params)
    return EnergyModel(mode=mode, model=model, bg=bg, cfg=cfg, params=params)


VARIANTS = [("torus", "base"), ("torus", "extended"),
            ("plane", "base"), ("plane", "extended")]


class TestTrivialValues:
    def test_torus_base_zero_state_energy(self):
        # n = 0, state (0,0): only the exponential part survives, 3*lam*|Omega|
        grid = bv.TorusGrid(L20, L20, 32, 32)
        cfg = bv.VortexConfig()
        params = bv.PhysicalParams(lam=1.3)
        bg = bv.build_background(cfg, grid, params)
        model = EnergyModel(mode="torus", model="base", bg=bg, cfg=cfg, params=params)
        e = model.energy(np.zeros((2, 32, 32)))
        assert e.total == pytest.approx(3.0 * params.lam * grid.area, rel=1e-12)
        assert e.gradient_part == 0.0

    def test_torus_base_zero_state_gradient(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        cfg = bv.VortexConfig()
        params = bv.PhysicalParams(lam=1.3)
        bg = bv.build_background(cfg, grid, params)
        model = EnergyModel(mode="torus", model="base", bg=bg, cfg=cfg, params=params)
        g = model.gradient(np.zeros((2, 32, 32)))
        assert np.max(np.abs(g)) < 1e-13

    def test_plane_base_zero_state(self):
        grid = bv.PlaneGrid(6.0, 32)
        cfg = bv.VortexConfig()
        params = bv.PhysicalParams(lam=1.3)
        bg = bv.build_background(cfg, grid, params)
        model = EnergyModel(mode="plane", model="base", bg=bg, cfg=cfg, params=params)
        state = np.zeros((2, 32, 32))
        e = model.energy(state)
        assert e.total == 0.0
        g = model.gradient(state)
        assert np.max(np.abs(g)) == 0.0

    def test_extended_zero_config_zero_state_gradient(self):
        for mode in ("torus", "plane"):
            model = make_model(mode, "extended", seed_points=False)
            g = model.gradient(model.zero_state())
            assert np.max(np.abs(g)) < 1e-13

    def test_hessian_of_zero_direction(self):
        for mode, variant in VARIANTS:
            model = make_model(mode, variant)
            state = random_state(model.grid, seed=0)
            out = model.hessian_apply(state, np.zeros_like(state))
            assert np.all(out == 0.0)


class TestBreakdown:
    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_parts_sum_to_total(self, mode, variant):
        model = make_model(mode, variant)
        e = model.energy(random_state(model.grid, seed=1))
        parts = e.gradient_part + e.exponential_part + e.linear_part
        assert e.total == pytest.approx(parts, rel=1e-12)

    def test_constant_shift_re_evaluation(self):
        # adding c to both components leaves e^{v0+f-u} alone and scales the
        # 2*lam*e^u term; compare against direct re-evaluation
        model = make_model("torus", "base")
        state = random_state(model.grid, seed=2)
        c = 0.37
        grid = model.grid
        eU = model.bg.exp_u0 * np.exp(state[0])
        predicted = (model.energy(state).total
                     + 2.0 * model.params.lam * (math.exp(c) - 1.0) * grid.integrate(eU)
                     + (-2.0 * model.params.lam * grid.area
                        + 2.0 * math.pi * model.cfg.n) * c)
        shifted = model.energy(state + c).total
        assert shifted == pytest.approx(predicted, rel=1e-10)


class TestFirstVariation:
    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_gradient_matches_central_difference(self, mode, variant):
        model = make_model(mode, variant)
        eps = 1e-5
        for seed in range(10):
            s = random_state(model.grid, seed=seed)
            d = random_state(model.grid, seed=seed + 100)
            ip = model.inner(model.gradient(s), d)
            cd = (model.energy(s + eps * d).total
                  - model.energy(s - eps * d).total) / (2.0 * eps)
            assert abs(cd - ip) <= 1e-6 * max(abs(ip), abs(cd))

    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_hessian_matches_gradient_difference(self, mode, variant):
        model = make_model(mode, variant)
        eps = 1e-5
        for seed in range(10):
            s = random_state(model.grid, seed=seed)
            d = random_state(model.grid, seed=seed + 200)
            hd = model.hessian_apply(s, d)
            fd = (model.gradient(s + eps * d)
                  - model.gradient(s - eps * d)) / (2.0 * eps)
            num = float(np.max(np.abs(fd - hd)))
            den = float(np.max(np.abs(hd)))
            assert num <= 1e-4 * den

    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_hessian_symmetry(self, mode, variant):
        model = make_model(mode, variant)
        s = random_state(model.grid, seed=3)
        d1 = random_state(model.grid, seed=4)
        d2 = random_state(model.grid, seed=5)
        lhs = model.inner(d1, model.hessian_apply(s, d2))
        rhs = model.inner(d2, model.hessian_apply(s, d1))
        scale = (model.inner(d1, d1) * model.inner(d2, d2)) ** 0.5
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), scale)


    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_hessian_operator_matches_hessian_apply(self, mode, variant):
        model = make_model(mode, variant)
        s = random_state(model.grid, seed=7)
        apply_h = model.hessian_operator(s)
        for seed in range(3):
            d = random_state(model.grid, seed=300 + seed, amplitude=1.0)
            hd = model.hessian_apply(s, d)
            assert np.max(np.abs(apply_h(d) - hd)) <= 1e-13 * np.max(np.abs(hd))


class TestPreconditioner:
    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_inverts_far_field_hessian(self, mode):
        # A0: the Hessian at e^U = e^V = 1, built from the grid's Laplacian
        model = make_model(mode, "base")
        grid = model.grid
        lam = model.params.lam
        c = 1.0 if mode == "torus" else 1.0 / lam
        apply_minv = model.preconditioner()
        rng = np.random.default_rng(11)
        for _ in range(3):
            d = rng.standard_normal((2,) + grid.shape)
            if mode == "plane":
                d[:, 0, :] = d[:, -1, :] = 0.0
                d[:, :, 0] = d[:, :, -1] = 0.0
            a0d = c * np.stack([-grid.laplacian(d[0]) + 3.0 * lam * d[0] - lam * d[1],
                                -0.5 * grid.laplacian(d[1]) + lam * (d[1] - d[0])])
            if mode == "plane":
                a0d[:, 0, :] = a0d[:, -1, :] = 0.0
                a0d[:, :, 0] = a0d[:, :, -1] = 0.0
            assert np.max(np.abs(apply_minv(a0d) - d)) <= 1e-10
            assert np.vdot(d, apply_minv(d)) > 0.0


    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_reused_buffers_do_not_leak_between_applies(self, mode):
        model = make_model(mode, "base")
        apply_minv = model.preconditioner()
        a = random_state(model.grid, seed=12)
        b = random_state(model.grid, seed=13)
        first = apply_minv(a)
        second = apply_minv(b)
        assert not np.shares_memory(first, second)
        assert apply_minv(a).tobytes() == first.tobytes()
        assert model.preconditioner()(b).tobytes() == second.tobytes()


class TestGradientResidualCorrespondence:
    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_gradient_zero_is_the_discrete_system(self, mode, variant):
        # the energy gradient and the equation residuals are the same object
        # up to variant-specific scaling: residuals = -(scale) * gradient
        model = make_model(mode, variant)
        s = random_state(model.grid, seed=8)
        g = model.gradient(s)
        lam = model.params.lam
        grid = model.grid
        eU = model.bg.exp_u0 * np.exp(s[0])
        eV = model.bg.exp_v0 * np.exp(s[1] - s[0])
        if mode == "torus":
            r1 = grid.laplacian(s[0]) - lam * (2 * eU - eV - 1) \
                - 4 * np.pi * model.cfg.m / grid.area
            r2 = grid.laplacian(s[1]) - 2 * lam * (eV - 1) \
                - 4 * np.pi * (model.cfg.m + model.cfg.n) / grid.area
            expected = np.stack([-r1, -0.5 * r2])
        else:
            r1 = grid.laplacian(s[0]) - lam * (2 * eU - eV - 1) - model.bg.h1
            r2 = grid.laplacian(s[1]) - 2 * lam * (eV - 1) - (model.bg.h1 + model.bg.h2)
            expected = np.stack([-r1 / lam, -0.5 * r2 / lam])
            expected[:, 0, :] = expected[:, -1, :] = 0.0
            expected[:, :, 0] = expected[:, :, -1] = 0.0
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(g - expected)) <= 1e-12 * scale


class TestConvexity:
    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_quadratic_form_strictly_positive(self, mode, variant):
        model = make_model(mode, variant)
        s = random_state(model.grid, seed=6)
        for seed in range(100):
            d = random_state(model.grid, seed=1000 + seed, amplitude=1.0)
            q = model.inner(d, model.hessian_apply(s, d))
            assert q > 0.0

    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_midpoint_convexity(self, mode, variant):
        model = make_model(mode, variant)
        for seed in range(100):
            s1 = random_state(model.grid, seed=2000 + seed)
            s2 = random_state(model.grid, seed=3000 + seed)
            mid = model.energy(0.5 * (s1 + s2)).total
            avg = 0.5 * (model.energy(s1).total + model.energy(s2).total)
            assert mid <= avg + 1e-12 * (1.0 + abs(avg))


class TestReduction:
    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_extended_equals_base_when_m_zero(self, mode):
        if mode == "torus":
            grid = bv.TorusGrid(L20, L20, 32, 32)
            pts = ((0.3 * L20, 0.4 * L20),)
        else:
            grid = bv.PlaneGrid(6.0, 32)
            pts = ((0.5, -0.3),)
        cfg = bv.VortexConfig(phi_zeros=pts)
        params = bv.PhysicalParams(lam=1.3)
        bg = bv.build_background(cfg, grid, params)
        base = EnergyModel(mode=mode, model="base", bg=bg, cfg=cfg, params=params)
        ext = EnergyModel(mode=mode, model="extended", bg=bg, cfg=cfg, params=params)
        for seed in range(5):
            s = random_state(grid, seed=seed)
            eb = base.energy(s).total
            ee = ext.energy(s).total
            assert abs(ee - eb) <= 1e-12 * (1.0 + abs(eb))
            assert np.array_equal(base.gradient(s), ext.gradient(s))

    def test_base_entry_points_reject_kappa_zeros(self):
        model = make_model("torus", "extended")
        with pytest.raises(ValueError):
            EnergyModel(mode="torus", model="base", bg=model.bg, cfg=model.cfg,
                        params=model.params)


class TestOverflowGuard:
    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_overflow_raised(self, mode, variant):
        model = make_model(mode, variant)
        state = model.zero_state()
        state[0] += 800.0
        if mode == "plane":
            state[0][0, :] = 0.0  # keep it a legal Dirichlet state shape-wise
        with pytest.raises(Overflow):
            model.energy(state)
        with pytest.raises(Overflow):
            model.gradient(state)
        with pytest.raises(Overflow):
            model.hessian_apply(state, state)
