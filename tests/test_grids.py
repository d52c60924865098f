import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex.errors import NonZeroMeanRhs


def fd_laplacian_periodic(v, dx, dy):
    """Independent 5-point periodic stencil used as the convergence oracle."""
    return ((np.roll(v, 1, 0) + np.roll(v, -1, 0) - 2 * v) / dx ** 2
            + (np.roll(v, 1, 1) + np.roll(v, -1, 1) - 2 * v) / dy ** 2)


def band_limited(grid, seed, kmax=3):
    rng = np.random.default_rng(seed)
    x, y = grid.nodes()
    field = np.zeros(grid.shape)
    for _ in range(6):
        kx = rng.integers(-kmax, kmax + 1)
        ky = rng.integers(-kmax, kmax + 1)
        phase = rng.uniform(0, 2 * np.pi)
        field += rng.standard_normal() * np.cos(
            2 * np.pi * (kx * x / grid.Lx + ky * y / grid.Ly) + phase)
    return field


class TestTorusLaplacian:
    def test_constant_maps_to_zero(self, torus_small):
        out = torus_small.laplacian(np.full(torus_small.shape, 3.7))
        assert np.max(np.abs(out)) < 1e-12

    def test_single_mode_eigenfunction(self, torus_small):
        g = torus_small
        x, _ = g.nodes()
        f = np.cos(2 * np.pi * x / g.Lx)
        expected = -(2 * np.pi / g.Lx) ** 2 * f
        assert np.max(np.abs(g.laplacian(f) - expected)) < 1e-11

    def test_agrees_with_finite_differences_at_second_order(self):
        errs = []
        for n in (32, 64):
            g = bv.TorusGrid(2.0, 2.0, n, n)
            f = band_limited(g, seed=1)
            exact = g.laplacian(f)  # spectral is exact for band-limited fields
            fd = fd_laplacian_periodic(f, g.dx, g.dy)
            errs.append(np.max(np.abs(fd - exact)))
        # 5-point stencil error ~ dx^2: quarters when dx halves
        assert errs[1] / errs[0] < 0.35

    def test_self_adjoint(self, torus_small):
        g = torus_small
        a = band_limited(g, seed=2)
        b = band_limited(g, seed=3)
        lhs = g.inner(g.laplacian(a), b)
        rhs = g.inner(a, g.laplacian(b))
        scale = g.norm_l2(g.laplacian(a)) * g.norm_l2(b)
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestPoissonSolve:
    def test_mode_inversion(self, torus_small):
        g = torus_small
        x, _ = g.nodes()
        rhs = np.cos(2 * np.pi * x / g.Lx)
        expected = -(g.Lx / (2 * np.pi)) ** 2 * rhs
        assert np.max(np.abs(g.poisson_solve_zero_mean(rhs) - expected)) < 1e-12

    def test_zero_rhs(self, torus_small):
        out = torus_small.poisson_solve_zero_mean(np.zeros(torus_small.shape))
        assert np.all(out == 0.0)

    def test_round_trip(self, torus_small):
        g = torus_small
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(g.shape)
        rhs -= rhs.mean()
        u = g.poisson_solve_zero_mean(rhs)
        err = g.norm_l2(g.laplacian(u) - rhs) / g.norm_l2(rhs)
        assert err <= 1e-10

    def test_output_mean_is_zero(self, torus_small):
        g = torus_small
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(g.shape)
        rhs -= rhs.mean()
        u = g.poisson_solve_zero_mean(rhs)
        assert abs(u.mean()) <= 1e-12 * (np.max(np.abs(u)) + 1e-30)

    def test_rejects_nonzero_mean(self, torus_small):
        rhs = np.ones(torus_small.shape)
        with pytest.raises(NonZeroMeanRhs):
            torus_small.poisson_solve_zero_mean(rhs)


class TestPlaneLaplacian:
    def test_zero_field(self, plane_32):
        out = plane_32.laplacian(np.zeros(plane_32.shape))
        assert np.all(out == 0.0)

    def test_exact_on_quadratics_away_from_boundary(self, plane_32):
        g = plane_32
        X, Y = g.nodes()
        out = g.laplacian(X ** 2 + Y ** 2)
        assert np.max(np.abs(out[2:-2, 2:-2] - 4.0)) < 1e-9

    def test_second_order_convergence(self):
        # fixed smooth test function decaying to ~1e-16 at the boundary
        def f(x, y):
            return np.exp(-(x ** 2 + y ** 2))

        def lap_f(x, y):
            r2 = x ** 2 + y ** 2
            return 4.0 * (r2 - 1.0) * np.exp(-r2)

        errs = []
        for n in (65, 129):
            g = bv.PlaneGrid(6.0, n)
            X, Y = g.nodes()
            err = g.laplacian(f(X, Y)) - lap_f(X, Y)
            errs.append(np.max(np.abs(err[1:-1, 1:-1])))
        assert errs[1] / errs[0] < 0.3  # halving dx divides the error by 4

    def test_constant_boundary_value_used_at_ghosts(self):
        # the ghost nodes hold the Dirichlet value zero: a constant field
        # loses one neighbour on an edge and two in a corner
        g = bv.PlaneGrid(1.0, 16)
        v = np.ones(g.shape)
        out = g.laplacian(v)
        assert out[0, 5] == pytest.approx(-1.0 / g.h ** 2)
        assert out[0, 0] == pytest.approx(-2.0 / g.h ** 2)
        assert np.all(out[1:-1, 1:-1] == 0.0)


class TestQuadrature:
    def test_constant_on_torus(self, torus_small):
        g = torus_small
        assert g.integrate(np.ones(g.shape)) == pytest.approx(g.area, rel=1e-14)

    def test_cosine_integrates_to_zero(self, torus_small):
        g = torus_small
        x, _ = g.nodes()
        assert abs(g.integrate(np.cos(2 * np.pi * x / g.Lx))) < 1e-10 * g.area

    def test_mean_of_constant(self, torus_small):
        g = torus_small
        assert g.integrate(np.full(g.shape, 2.5)) / g.area == pytest.approx(2.5, rel=1e-14)

    def test_norm_of_zero(self, torus_small):
        assert torus_small.norm_l2(np.zeros(torus_small.shape)) == 0.0

    def test_parseval(self, torus_small):
        g = torus_small
        f = band_limited(g, seed=4)
        direct = g.norm_l2(f) ** 2
        fhat = np.fft.fft2(f)
        spectral = float(np.sum(np.abs(fhat) ** 2)) / (g.nx * g.ny) * g.dx * g.dy
        assert abs(direct - spectral) <= 1e-10 * direct

    def test_plane_trapezoid_constant(self, plane_32):
        g = plane_32
        assert g.integrate(np.ones(g.shape)) == pytest.approx(g.area, rel=1e-12)


class TestValidation:
    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            bv.TorusGrid(1.0, 1.0, 7, 8)  # odd count
        with pytest.raises(ValueError):
            bv.TorusGrid(1.0, 1.0, 6, 8)  # too few samples
        with pytest.raises(ValueError):
            bv.TorusGrid(-1.0, 1.0, 16, 16)
        with pytest.raises(ValueError):
            bv.PlaneGrid(1.0, 8)

    def test_workspace_zero_mode_addressable(self, torus_small):
        ws = torus_small.workspace
        assert ws.k2[0, 0] == 0.0
        assert ws.k2_safe[0, 0] == 1.0


class TestBuffers:
    """Caller-owned ``out`` buffers and the private scratch spectrum."""

    @pytest.mark.parametrize("shape", [(16, 24), (96, 96), (256, 256)])
    def test_torus_operators_bitwise_equal_to_plain_fft(self, shape):
        g = bv.TorusGrid(2.0, 3.0, *shape)
        k2, k2_safe = g.workspace.k2, g.workspace.k2_safe
        rng = np.random.default_rng(shape[0])
        v = rng.standard_normal(shape)
        lap = np.fft.irfft2(-k2 * np.fft.rfft2(v), s=shape)
        assert g.laplacian(v).tobytes() == lap.tobytes()
        rhs = v - v.mean()
        uhat = np.fft.rfft2(rhs) / (-k2_safe)
        uhat[0, 0] = 0.0
        poisson = np.fft.irfft2(uhat, s=shape)
        assert g.poisson_solve_zero_mean(rhs).tobytes() == poisson.tobytes()
        coeffs = np.fft.rfft2(v)
        field = g.modal_inverse(coeffs, out=np.empty(shape))
        assert field.tobytes() == np.fft.irfft2(coeffs, s=shape).tobytes()
        assert g.modal_forward(v, out=np.empty_like(coeffs)).tobytes() == coeffs.tobytes()

    def test_results_never_alias_the_workspace(self, torus_small):
        g = torus_small
        rng = np.random.default_rng(1)
        a = rng.standard_normal(g.shape)
        b = rng.standard_normal(g.shape)
        lap_a = g.laplacian(a)
        kept = lap_a.copy()
        lap_b = g.laplacian(b)
        assert lap_a is not lap_b
        assert not np.shares_memory(lap_a, lap_b)
        assert lap_a.tobytes() == kept.tobytes()

    def test_inputs_untouched_and_out_returned(self, torus_small):
        g = torus_small
        rng = np.random.default_rng(2)
        coeffs = np.fft.rfft2(rng.standard_normal(g.shape))
        before = coeffs.copy()
        g.modal_inverse(coeffs, out=np.empty(g.shape))
        assert coeffs.tobytes() == before.tobytes()
        rhs = rng.standard_normal(g.shape)
        rhs -= rhs.mean()
        rhs_before = rhs.copy()
        buf = np.empty(g.shape)
        assert g.poisson_solve_zero_mean(rhs, out=buf) is buf
        assert rhs.tobytes() == rhs_before.tobytes()
        assert g.laplacian(rhs, out=buf) is buf

    def test_poisson_in_place(self, torus_small):
        g = torus_small
        rhs = band_limited(g, seed=4)
        rhs -= rhs.mean()
        expected = g.poisson_solve_zero_mean(rhs)
        assert g.poisson_solve_zero_mean(rhs, out=rhs) is rhs
        assert rhs.tobytes() == expected.tobytes()

    def test_plane_transforms_bitwise_with_out(self, plane_32):
        g = plane_32
        s = g.sine_basis
        v = np.random.default_rng(3).standard_normal(g.shape)
        coeffs = s @ v[1:-1, 1:-1] @ s
        buf = np.empty_like(coeffs)
        assert g.modal_forward(v, out=buf) is buf
        assert buf.tobytes() == coeffs.tobytes()
        assert g.modal_forward(v).tobytes() == coeffs.tobytes()
        lap = g.laplacian(v)
        out = np.empty(g.shape)
        assert g.laplacian(v, out=out) is out
        assert out.tobytes() == lap.tobytes()
