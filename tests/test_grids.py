import math
import threading
import tracemalloc

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex.errors import NonZeroMeanRhs
from conftest import nodes, random_smooth_field, random_state


def fd_laplacian_periodic(v, dx, dy):
    """Independent 5-point periodic stencil used as the convergence oracle."""
    return ((np.roll(v, 1, 0) + np.roll(v, -1, 0) - 2 * v) / dx ** 2
            + (np.roll(v, 1, 1) + np.roll(v, -1, 1) - 2 * v) / dy ** 2)


def band_limited(grid, seed, kmax=3):
    rng = np.random.default_rng(seed)
    x, y = nodes(grid)
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
        x, _ = nodes(g)
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
        la = g.laplacian(a)
        scale = np.sqrt(g.inner(la, la) * g.inner(b, b))
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestPoissonSolve:
    def test_mode_inversion(self, torus_small):
        g = torus_small
        x, _ = nodes(g)
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
        res = g.laplacian(u) - rhs
        err = np.sqrt(g.inner(res, res) / g.inner(rhs, rhs))
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

    def test_exact_on_sums_of_sine_modes(self):
        # sin(pi k xi) sin(pi l eta), xi = (x + R) / 2R, has Laplacian
        # -((pi k / 2R)^2 + (pi l / 2R)^2) times itself, up to the highest mode
        for n in (16, 33):
            g = bv.PlaneGrid(3.0, n)
            x, y = nodes(g)
            xi, eta = (x + g.R) / (2.0 * g.R), (y + g.R) / (2.0 * g.R)
            rng = np.random.default_rng(n)
            field, lap = np.zeros(g.shape), np.zeros(g.shape)
            for k, l in [(1, 1), (2, 5), (n - 2, 3), (n - 2, n - 2)]:
                mode = rng.standard_normal() * np.sin(np.pi * k * xi) * np.sin(np.pi * l * eta)
                field += mode
                lap -= (np.pi / (2.0 * g.R)) ** 2 * (k * k + l * l) * mode
            field, lap = g.zero_boundary(field), g.zero_boundary(lap)
            assert np.max(np.abs(g.laplacian(field) - lap)) <= 1e-13 * np.max(np.abs(lap))

    def test_spectral_convergence(self):
        # a Gaussian is 2e-16 at the ring of [-6, 6]^2: the error falls
        # faster than any power of h, down to roundoff by n = 49, where the
        # 5-point stencil is still at 0.12
        def f(x, y):
            return np.exp(-(x ** 2 + y ** 2))

        def lap_f(x, y):
            r2 = x ** 2 + y ** 2
            return 4.0 * (r2 - 1.0) * np.exp(-r2)

        errs = []
        for n in (17, 25, 33, 49):
            g = bv.PlaneGrid(6.0, n)
            X, Y = nodes(g)
            errs.append(np.max(np.abs(g.laplacian(f(X, Y)) - lap_f(X, Y))))
        assert errs[1] < 1e-2 * errs[0] and errs[2] < 1e-3 * errs[1]
        assert errs[3] <= 1e-11

    def test_output_vanishes_on_the_ring(self):
        # only the interior is read, and the result is a sum of sine modes
        g = bv.PlaneGrid(1.0, 16)
        out = g.laplacian(np.random.default_rng(8).standard_normal(g.shape) + 1.0)
        assert np.all(g.zero_boundary(out.copy()) == out)
        assert np.max(np.abs(g.interior(out))) > 0.0


class TestQuadrature:
    def test_constant_on_torus(self, torus_small):
        g = torus_small
        assert g.integrate(np.ones(g.shape)) == pytest.approx(g.area, rel=1e-14)

    def test_cosine_integrates_to_zero(self, torus_small):
        g = torus_small
        x, _ = nodes(g)
        assert abs(g.integrate(np.cos(2 * np.pi * x / g.Lx))) < 1e-10 * g.area

    def test_mean_of_constant(self, torus_small):
        g = torus_small
        assert g.integrate(np.full(g.shape, 2.5)) / g.area == pytest.approx(2.5, rel=1e-14)

    def test_parseval(self, torus_small):
        g = torus_small
        f = band_limited(g, seed=4)
        direct = g.inner(f, f)
        fhat = np.fft.fft2(f)
        spectral = float(np.sum(np.abs(fhat) ** 2)) / (g.nx * g.ny) * g.dx * g.dy
        assert abs(direct - spectral) <= 1e-10 * direct

    def test_plane_trapezoid_constant(self, plane_32):
        g = plane_32
        assert g.integrate(np.ones(g.shape)) == pytest.approx(g.area, rel=1e-12)

    @pytest.mark.parametrize("n,R", [(16, 6.0), (17, 0.3), (384, 12.0)])
    def test_plane_trapezoid_bitwise_equal_to_weight_table(self, n, R):
        # the reference: the sum of the field times the tensor-product
        # trapezoid weights, as one n x n table
        g = bv.PlaneGrid(R, n)
        w1 = np.full(n, g.h)
        w1[0] *= 0.5
        w1[-1] *= 0.5
        v = np.random.default_rng(n).standard_normal(g.shape) * 1e3
        assert g.integrate(v) == float((v * (w1[:, None] * w1[None, :])).sum())


class TestDirichletForm:
    def test_plane_summation_by_parts(self, plane_32):
        # the Parseval form equals -<v, lap v> for Dirichlet-zero v, which
        # is why one energy formula serves both grids
        g = plane_32
        for seed in range(3):
            v = random_smooth_field(g, np.random.default_rng(seed))
            d = g.modal_dirichlet(g.modal_forward(v))
            assert d > 0.0
            assert d == pytest.approx(-g.inner(v, g.laplacian(v)), rel=1e-12)

    def test_torus_single_mode(self, torus_small):
        # v = cos(k x): int |grad v|^2 = k^2 |Omega| / 2
        g = torus_small
        x, _ = nodes(g)
        k = 2.0 * np.pi * 3 / g.Lx
        d = g.modal_dirichlet(g.modal_forward(np.cos(k * x)))
        assert d == pytest.approx(0.5 * k ** 2 * g.area, rel=1e-12)

    def test_plane_single_mode(self):
        # v = sin(pi k xi) sin(pi l eta): int |grad v|^2 = K R^2 with
        # K = (pi k / 2R)^2 + (pi l / 2R)^2, exactly on the grid too
        g = bv.PlaneGrid(2.5, 40)
        x, y = nodes(g)
        k, l = 3, 7
        v = g.zero_boundary(np.sin(np.pi * k * (x + g.R) / (2.0 * g.R))
                            * np.sin(np.pi * l * (y + g.R) / (2.0 * g.R)))
        K = (np.pi / (2.0 * g.R)) ** 2 * (k * k + l * l)
        assert g.modal_dirichlet(g.modal_forward(v)) == pytest.approx(K * g.R ** 2, rel=1e-12)

    def test_torus_parseval_matches_laplacian_pairing(self, torus_small):
        g = torus_small
        for seed in range(3):
            v = random_smooth_field(g, np.random.default_rng(seed))
            assert g.modal_dirichlet(g.modal_forward(v)) == pytest.approx(
                -g.inner(v, g.laplacian(v)), rel=1e-12)

    @pytest.mark.parametrize("grid", ["torus", "plane"])
    def test_zero_field(self, torus_small, plane_32, grid):
        g = torus_small if grid == "torus" else plane_32
        assert g.modal_dirichlet(g.modal_forward(np.zeros(g.shape))) == 0.0


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

    def test_poisson_solve_zeroes_the_mean_mode(self, torus_small):
        # the mean mode has eigenvalue 0 and is set to zero, not divided
        g = torus_small
        assert g.laplacian_eigenvalues()[0, 0] == 0.0
        v = band_limited(g, seed=6) + 3.0
        with np.errstate(all="raise"):
            u = g.poisson_solve_zero_mean(g.laplacian(v))
        assert abs(u.mean()) <= 1e-14 * np.max(np.abs(v))
        assert np.max(np.abs(u - (v - v.mean()))) <= 1e-12 * np.max(np.abs(v))


class TestBuffers:
    """Caller-owned ``out`` buffers, and grids that no operator writes to."""

    @pytest.mark.parametrize("shape", [(16, 24), (96, 96), (256, 256)])
    def test_torus_operators_bitwise_equal_to_plain_fft(self, shape):
        g = bv.TorusGrid(2.0, 3.0, *shape)
        k2 = g.laplacian_eigenvalues()
        k2_safe = k2.copy()
        k2_safe[0, 0] = 1.0
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

    def test_eigenvalues_cannot_change_the_operators(self):
        g = bv.TorusGrid(2.0, 3.0, 32, 48)
        v = band_limited(g, seed=7)
        lap = g.laplacian(v)
        k2 = g.laplacian_eigenvalues()
        before = k2.copy()
        if k2.flags.writeable:
            k2 *= 2.0
        assert g.laplacian_eigenvalues().tobytes() == before.tobytes()
        assert g.laplacian(v).tobytes() == lap.tobytes()

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

    def test_poisson_in_place(self, torus_small):
        g = torus_small
        rhs = band_limited(g, seed=4)
        rhs -= rhs.mean()
        expected = g.poisson_solve_zero_mean(rhs)
        assert g.poisson_solve_zero_mean(rhs, out=rhs) is rhs
        assert rhs.tobytes() == expected.tobytes()

    def test_plane_transforms_bitwise_with_out(self, plane_32):
        g = plane_32
        v = np.random.default_rng(3).standard_normal(g.shape)
        coeffs = g.modal_forward(v)
        buf = np.empty_like(coeffs)
        assert g.modal_forward(v, out=buf) is buf
        assert buf.tobytes() == coeffs.tobytes()
        field = g.modal_inverse(coeffs, out=np.empty(g.shape))
        assert g.modal_inverse(coeffs, out=np.full(g.shape, 7.0)).tobytes() == field.tobytes()


PAIR_GRIDS = [bv.TorusGrid(2.0, 3.0, 32, 48), bv.TorusGrid(2.0, 3.0, 96, 96),
              bv.PlaneGrid(6.0, 32), bv.PlaneGrid(6.0, 33)]
PAIR_IDS = ["torus-32x48", "torus-96", "plane-32", "plane-33"]


class TestPairs:
    """The pair operators equal their field-by-field definitions bit for bit."""

    @staticmethod
    def pair_and_coeffs(g, seed):
        pair = random_state(g, seed=seed)
        return pair, np.stack([g.modal_forward(v) for v in pair])

    @pytest.mark.parametrize("g", PAIR_GRIDS, ids=PAIR_IDS)
    def test_transforms_of_a_pair(self, g):
        pair, coeffs = self.pair_and_coeffs(g, seed=21)
        assert g.to_modes(pair).tobytes() == coeffs.tobytes()
        out = g.empty_modes()
        assert g.to_modes(pair, out=out) is out and out.tobytes() == coeffs.tobytes()
        fields = np.stack([g.modal_inverse(c, out=np.empty(g.shape)) for c in coeffs])
        assert g.from_modes(coeffs).tobytes() == fields.tobytes()
        out = np.full((2,) + g.shape, 7.0)
        assert g.from_modes(coeffs, out=out) is out and out.tobytes() == fields.tobytes()
        neg_k = -g.laplacian_eigenvalues()
        laplacians = np.stack([g.modal_inverse(neg_k * c, out=np.empty(g.shape))
                               for c in coeffs])
        assert g.laplacians(coeffs).tobytes() == laplacians.tobytes()
        assert g.from_modes(coeffs).tobytes() == fields.tobytes()  # coefficients only read

    @pytest.mark.parametrize("g", PAIR_GRIDS, ids=PAIR_IDS)
    def test_pointwise_product(self, g):
        # the coefficients of weights[k] fields[k], the fields in the
        # weights' dtype (the grid's product_dtype in the Hessian products)
        _, coeffs = self.pair_and_coeffs(g, seed=22)
        weights = random_state(g, seed=23).astype(g.product_dtype)
        expected = g.empty_modes()
        for c, w, e in zip(coeffs, weights, expected):
            field = g.modal_inverse(c, out=np.empty(g.shape, w.dtype))
            g.modal_forward(field * w, out=e)
        kept = coeffs.copy()
        out = g.empty_modes()
        assert g.pointwise_product(coeffs, weights, out) is out
        assert out.tobytes() == expected.tobytes()
        assert coeffs.tobytes() == kept.tobytes()
        assert g.pointwise_product(coeffs, weights, coeffs) is coeffs
        assert coeffs.tobytes() == expected.tobytes()

    def test_plane_laplacians_make_no_pair_temporary(self):
        # -K times each field's coefficients goes into the interior of its
        # output field: besides the output pair, the call holds what one
        # field's inverse transform holds, plus array headers, far under
        # the -K coeffs pair that the stacked form makes
        g = bv.PlaneGrid(6.0, 96)
        _, coeffs = self.pair_and_coeffs(g, seed=25)
        field = np.empty(g.shape)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_field = peak(lambda: g.modal_inverse(coeffs[0], out=field))
        pair = np.empty((2,) + g.shape).nbytes
        assert 0 < peak(lambda: g.laplacians(coeffs)) - pair - one_field < coeffs[0].nbytes

    @pytest.mark.parametrize("g", PAIR_GRIDS[:2], ids=PAIR_IDS[:2])
    def test_torus_pair_is_one_fft_pass(self, g, monkeypatch):
        # each pair operator transforms the stack in one numpy.fft call per
        # pass
        pair = random_state(g, seed=24)
        calls = []
        for name in np.fft.__all__:
            def spy(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, spy)
        coeffs = g.to_modes(pair)
        g.from_modes(coeffs)
        g.laplacians(coeffs)
        g.pointwise_product(coeffs, pair, g.empty_modes())
        assert calls == ["rfft2", "ifft", "irfft", "ifft", "irfft", "ifft", "irfft", "rfft2"]


SHARED_GRIDS = [bv.TorusGrid(2.0, 3.0, 64, 64), bv.PlaneGrid(6.0, 64)]
SHARED_IDS = ["torus-64", "plane-64"]


def every_operator(g, seed):
    """The result of each public operator of ``g`` on inputs drawn from ``seed``, in order.

    One field and one pair go through the single-field transforms, the
    Laplacian, the pair operators and, on the torus, the zero-mean Poisson
    solve; float results come as 0-d arrays.
    """
    pair = random_state(g, seed=seed)
    field = pair[0]
    coeffs = g.modal_forward(field)
    modes = g.to_modes(pair)
    results = [coeffs, g.modal_inverse(coeffs, out=np.empty(g.shape)), g.laplacian(field),
               modes, g.from_modes(modes), g.laplacians(modes),
               g.pointwise_product(modes, pair, g.empty_modes()),
               np.asarray(g.modal_dirichlet(coeffs)), np.asarray(g.modal_inner(modes, modes))]
    if isinstance(g, bv.TorusGrid):
        results.append(g.poisson_solve_zero_mean(field - field.mean()))
    coarse = g.resolving_level()
    restricted = g.restrict(coarse, modes, coarse.empty_modes())
    return results + [restricted, g.prolong(coarse, restricted, g.empty_modes()),
                      np.asarray(g.spectral_tail(modes))]


def held_arrays(g):
    """The bytes of every array ``g`` holds, by attribute (arrays in tuples included)."""
    held = {}
    for name, value in vars(g).items():
        items = value if isinstance(value, tuple) else (value,)
        for i, item in enumerate(items):
            if isinstance(item, np.ndarray):
                held[name, i] = item.tobytes()
    return held


class TestSharedGrid:
    """No operator writes to its grid, so threads may share one."""

    @pytest.mark.parametrize("g", SHARED_GRIDS, ids=SHARED_IDS)
    def test_operators_leave_the_grid_unchanged(self, g):
        every_operator(g, seed=30)
        held = held_arrays(g)
        # the tables every operator caches are filled now, and nothing else
        # may change when the operators run again on other inputs
        assert ("_neg_k2", 0) in held
        every_operator(g, seed=31)
        assert held_arrays(g) == held

    @pytest.mark.parametrize("g", SHARED_GRIDS, ids=SHARED_IDS)
    def test_threads_sharing_a_grid_get_the_serial_results(self, g):
        threads, rounds = 4, 20
        serial = [every_operator(g, seed=40 + t) for t in range(threads)]
        results = [[] for _ in range(threads)]
        start = threading.Barrier(threads)

        def work(t):
            start.wait()
            for _ in range(rounds):
                results[t].append(every_operator(g, seed=40 + t))

        workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert all(len(runs) == rounds for runs in results)
        differing = sum(a.tobytes() != b.tobytes()
                        for t, runs in enumerate(results) for run in runs
                        for a, b in zip(run, serial[t]))
        assert differing == 0

    def test_poisson_solve_holds_one_spectrum_and_a_quarter(self):
        # one spectrum of the call takes the forward transform, the division
        # and the complex inverse pass; a solve that lets rfft2 or ifft make
        # their own arrays holds two spectra
        g = bv.TorusGrid(2.0, 3.0, 256, 256)
        rhs = band_limited(g, seed=8)
        rhs -= rhs.mean()
        out = np.empty(g.shape)
        g.poisson_solve_zero_mean(rhs, out=out)
        spectrum = np.empty(g.laplacian_eigenvalues().shape, complex).nbytes
        tracemalloc.start()
        try:
            g.poisson_solve_zero_mean(rhs, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * spectrum


def sine_basis(n):
    """Orthonormal DST-I matrix of the n - 2 interior nodes per axis.

    Column k samples sin(pi k j / (n - 1)) at the interior nodes j; the matrix
    is symmetric and its own inverse.  The folded transforms of ``PlaneGrid``
    are checked against it.
    """
    k = np.arange(1, n - 1)
    return np.sqrt(2.0 / (n - 1)) * np.sin(np.pi * np.outer(k, k) / (n - 1))


def block_layout(n):
    """Indices of the sine modes 1, 3, 5, ..., 2, 4, ... among modes 1 .. n - 2."""
    return np.r_[0:n - 2:2, 1:n - 2:2]


class TestModalTransforms:
    """The Laplacian eigenbasis: folded plane DST-I, modal Laplacian, pairing."""

    @pytest.mark.parametrize("n", [16, 17, 33, 96])
    def test_folded_sine_transform_matches_dense(self, n):
        g = bv.PlaneGrid(3.0, n)
        s = sine_basis(n)
        perm = block_layout(n)
        assert np.array_equal(g.sine_modes, perm + 1)
        v = np.random.default_rng(n).standard_normal(g.shape)
        dense = (s @ v[1:-1, 1:-1] @ s)[np.ix_(perm, perm)]
        coeffs = g.modal_forward(v)
        assert np.max(np.abs(coeffs - dense)) <= 1e-13 * np.max(np.abs(dense))
        # the inverse of dense coefficients, against the dense inverse
        field = g.modal_inverse(dense, out=np.full(g.shape, 7.0))
        inner = v[1:-1, 1:-1]
        assert np.max(np.abs(field[1:-1, 1:-1] - inner)) <= 1e-13 * np.max(np.abs(inner))
        assert np.all(g.zero_boundary(field.copy()) == field)

    @pytest.mark.parametrize("n", [16, 17, 96])
    def test_single_precision_sine_transforms(self, n):
        # a float32 field is transformed in float32, against the dense
        # float64 products to float32 accuracy; coefficients of the other
        # dtype are rounded at the boundary, to the same bits
        g = bv.PlaneGrid(3.0, n)
        s, perm = sine_basis(n), block_layout(n)
        v = np.random.default_rng(n).standard_normal(g.shape).astype(np.float32)
        dense = (s @ v[1:-1, 1:-1].astype(float) @ s)[np.ix_(perm, perm)]
        coeffs = g.modal_forward(v)
        assert coeffs.dtype == np.float32
        assert np.max(np.abs(coeffs - dense)) <= 1e-5 * np.max(np.abs(dense))
        assert np.array_equal(g.modal_forward(v, out=np.empty(coeffs.shape)), coeffs)
        field = g.modal_inverse(dense, out=np.full(g.shape, 7.0, np.float32))
        assert np.array_equal(field, g.modal_inverse(dense.astype(np.float32)))
        inner = v[1:-1, 1:-1]
        assert np.max(np.abs(field[1:-1, 1:-1] - inner)) <= 1e-5 * np.max(np.abs(inner))
        assert np.all(g.zero_boundary(field.copy()) == field)

    @pytest.mark.parametrize("grid", ["torus", "plane-16", "plane-17", "plane-33", "plane-96"])
    def test_modal_laplacian_is_the_grid_laplacian(self, grid):
        g = (bv.TorusGrid(2.0, 3.0, 32, 48) if grid == "torus"
             else bv.PlaneGrid(3.0, int(grid.split("-")[1])))
        v = g.zero_boundary(np.random.default_rng(5).standard_normal(g.shape))
        k = g.laplacian_eigenvalues()
        lap = g.laplacian(v)
        modal = g.modal_inverse(k * g.modal_forward(v), out=np.empty(g.shape))
        assert (np.max(np.abs(g.interior(modal) + g.interior(lap)))
                <= 1e-12 * np.max(np.abs(lap)))

    @pytest.mark.parametrize("grid", ["torus", "plane-32", "plane-33"])
    def test_modal_inner_is_the_grid_inner(self, grid):
        # on the torus the rfft2 layout weighs columns 1 .. ny/2 - 1 twice,
        # column 0 and the Nyquist column once
        g = (bv.TorusGrid(2.0, 3.0, 32, 48) if grid == "torus"
             else bv.PlaneGrid(3.0, int(grid.split("-")[1])))
        rng = np.random.default_rng(6)
        a = np.stack([g.zero_boundary(rng.standard_normal(g.shape)) for _ in range(2)])
        b = np.stack([g.zero_boundary(rng.standard_normal(g.shape)) for _ in range(2)])
        ca = np.stack([g.modal_forward(x) for x in a])
        cb = np.stack([g.modal_forward(x) for x in b])
        expected = g.inner(a, b)
        assert g.modal_inner(ca, cb) == pytest.approx(expected, rel=1e-12)
        assert g.modal_inner(ca[0], ca[0]) == pytest.approx(g.inner(a[0], a[0]), rel=1e-12)
        if grid == "torus":
            # a field of the last column alone: cos(pi y / dy) counts once
            x, y = nodes(g)
            nyq = np.cos(np.pi * y / g.dy)
            c = g.modal_forward(nyq)
            assert np.count_nonzero(np.abs(c) > 1e-9) == 1 and abs(c[0, -1]) > 1.0
            assert g.modal_inner(c, c) == pytest.approx(g.inner(nyq, nyq), rel=1e-12)


class TestRandomSmoothField:
    @pytest.mark.parametrize("grid", [(2.0, 3.0, 16, 24), (7.0, 3.5, 256, 128), (1.0, 1.0, 96, 96)])
    def test_torus_bitwise_equal_to_filtered_noise(self, grid):
        # the torus formula: irfft2(rfft2(noise) * exp(-|k|^2 / kc^2)),
        # kc = six waves across the shorter side, scaled to sup 0.3
        g = bv.TorusGrid(*grid)
        noise = np.random.default_rng(11).standard_normal(g.shape)
        kc2 = (6.0 * 2.0 * np.pi / min(g.Lx, g.Ly)) ** 2
        expected = np.fft.irfft2(np.fft.rfft2(noise) * np.exp(-g.laplacian_eigenvalues() / kc2),
                                 s=g.shape)
        expected *= 0.3 / np.max(np.abs(expected))
        field = random_smooth_field(g, np.random.default_rng(11), 0.3)
        assert field.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [16, 33, 96])
    def test_plane_vanishes_on_the_boundary_ring(self, n):
        g = bv.PlaneGrid(3.0, n)
        field = random_smooth_field(g, np.random.default_rng(n), 0.7)
        ring = np.ones(g.shape, dtype=bool)
        g.interior(ring)[...] = False
        assert np.all(field[ring] == 0.0)
        assert np.max(np.abs(field)) == pytest.approx(0.7, rel=1e-15)


def sine_sum(grid, seed, modes):
    """A sum of products of the plane's sine modes k, l < ``modes``, as a field."""
    rng = np.random.default_rng(seed)
    x, y = nodes(grid)
    xi, eta = (x + grid.R) / (2.0 * grid.R), (y + grid.R) / (2.0 * grid.R)
    field = np.zeros(grid.shape)
    for _ in range(6):
        k, l = rng.integers(1, modes, size=2)
        field += rng.standard_normal() * np.sin(np.pi * k * xi) * np.sin(np.pi * l * eta)
    return grid.zero_boundary(field)


class TestCoarseLevels:
    """``coarsest`` picks the coarse level, ``prolong`` carries fields up from it."""

    @pytest.mark.parametrize("fine,coarse", [((64, 48), (16, 12)), ((32, 48), (16, 24))])
    def test_torus_prolongation_exact_on_band_limited_fields(self, fine, coarse):
        f, c = bv.TorusGrid(2.0, 3.0, *fine), bv.TorusGrid(2.0, 3.0, *coarse)
        out = np.full(f.empty_modes()[0].shape, 7.0 + 0j)
        # band_limited draws the same modes (|k| <= 3, under the coarse
        # Nyquist frequency) on every grid for one seed
        assert f.prolong(c, c.modal_forward(band_limited(c, seed=4)), out) is out
        field = f.modal_inverse(out, out=np.empty(f.shape))
        assert np.max(np.abs(field - band_limited(f, seed=4))) <= 1e-13

    @pytest.mark.parametrize("fine,coarse", [(97, 49), (100, 50), (384, 192)])
    def test_plane_prolongation_exact_on_sine_sums(self, fine, coarse):
        # the grids need not be nested: 384 nodes have 383 intervals.  The
        # bound is relative: at n = 384 a forward and inverse transform of
        # the fine grid alone moves such a field by 3e-14 of its size
        f, c = bv.PlaneGrid(6.0, fine), bv.PlaneGrid(6.0, coarse)
        out = np.full(f.empty_modes()[0].shape, 7.0)
        assert f.prolong(c, c.modal_forward(sine_sum(c, 5, coarse - 1)), out) is out
        field = f.modal_inverse(out, out=np.empty(f.shape))
        expected = sine_sum(f, 5, coarse - 1)
        assert np.max(np.abs(field - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert np.all(f.zero_boundary(field.copy()) == field)

    @pytest.mark.parametrize("grid,coarse,move", [
        (bv.TorusGrid(2.0, 3.0, 32, 48), bv.TorusGrid(2.0, 3.0, 16, 24), "prolong"),
        (bv.PlaneGrid(6.0, 64), bv.PlaneGrid(6.0, 32), "prolong"),
        (bv.TorusGrid(2.0, 3.0, 32, 48), bv.TorusGrid(2.0, 3.0, 16, 24), "restrict"),
        (bv.PlaneGrid(6.0, 64), bv.PlaneGrid(6.0, 32), "restrict"),
        # resolving levels, two thirds of the intervals: not nested, from an
        # even and an odd n on the plane
        (bv.PlaneGrid(6.0, 384), bv.PlaneGrid(6.0, 256), "prolong"),
        (bv.PlaneGrid(6.0, 384), bv.PlaneGrid(6.0, 256), "restrict"),
        (bv.PlaneGrid(8.0, 225), bv.PlaneGrid(8.0, 150), "prolong"),
        (bv.PlaneGrid(8.0, 225), bv.PlaneGrid(8.0, 150), "restrict"),
        (bv.TorusGrid(4.0, 4.0, 96, 96), bv.TorusGrid(4.0, 4.0, 64, 64), "prolong"),
        (bv.TorusGrid(4.0, 4.0, 96, 96), bv.TorusGrid(4.0, 4.0, 64, 64), "restrict"),
        (bv.TorusGrid(4.0, 4.0, 256, 256), bv.TorusGrid(4.0, 4.0, 170, 170), "prolong"),
        (bv.TorusGrid(4.0, 4.0, 256, 256), bv.TorusGrid(4.0, 4.0, 170, 170), "restrict"),
    ], ids=["torus", "plane", "torus-restrict", "plane-restrict",
            "plane-384-256", "plane-384-256-restrict", "plane-225-150",
            "plane-225-150-restrict", "torus-96-64", "torus-96-64-restrict",
            "torus-256-170", "torus-256-170-restrict"])
    def test_prolongation_of_a_pair_is_per_field_and_transform_free(self, grid, coarse, move,
                                                                   monkeypatch):
        # a stacked pair of coefficients (a state's) prolongs and restricts
        # field by field, exactly for fields the coarse grid resolves, and
        # moving coefficients takes no transform.  Restriction undoes
        # prolongation to roundoff
        torus = isinstance(grid, bv.TorusGrid)
        source, target = (coarse, grid) if move == "prolong" else (grid, coarse)
        apply = getattr(grid, move)
        # the same band-limited pair on both grids: Fourier modes up to one
        # under the coarse Nyquist frequency, sine modes up to the coarse
        # grid's largest
        if torus:
            top = min(coarse.nx, coarse.ny) // 2 - 1
            exact = [np.stack([band_limited(g, 4, top), band_limited(g, 6, top)])
                     for g in (source, target)]
        else:
            exact = [np.stack([sine_sum(g, 5, coarse.n - 1), sine_sum(g, 6, coarse.n - 1)])
                     for g in (source, target)]
        expected = target.to_modes(exact[1])
        moved = apply(coarse, source.to_modes(exact[0]), target.empty_modes())
        assert np.max(np.abs(moved - expected)) <= 1e-13 * np.max(np.abs(expected))
        pair = coarse.to_modes(random_state(coarse, seed=5))
        if torus:
            pair[:, coarse.nx // 2] = pair[:, :, coarse.ny // 2] = 0.0  # prolong drops them
        back = grid.restrict(coarse, grid.prolong(coarse, pair, grid.empty_modes()),
                             coarse.empty_modes())
        assert np.max(np.abs(back - pair)) <= 1e-15 * np.max(np.abs(pair))
        pair = source.to_modes(random_state(source, seed=5))
        singles = [apply(coarse, p, target.empty_modes()[0]) for p in pair]
        for name in ("modal_forward", "modal_inverse"):
            monkeypatch.setattr(type(grid), name, None)
        stacked = apply(coarse, pair, target.empty_modes())
        assert stacked.tobytes() == np.stack(singles).tobytes()

    @pytest.mark.parametrize("fine,coarse", [((64, 48), (16, 12)), ((96, 96), (48, 48))])
    def test_torus_restriction_samples_band_limited_fields(self, fine, coarse):
        # the coarse coefficients of a field the coarse grid resolves, and
        # prolongation undone on a stacked pair
        f, c = bv.TorusGrid(2.0, 3.0, *fine), bv.TorusGrid(2.0, 3.0, *coarse)
        out = np.full(c.empty_modes()[0].shape, 7.0 + 0j)
        assert f.restrict(c, f.modal_forward(band_limited(f, seed=4)), out) is out
        expected = c.modal_forward(band_limited(c, seed=4))
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
        pair = c.to_modes(random_state(c, seed=5))
        pair[:, c.nx // 2] = pair[:, :, c.ny // 2] = 0.0  # prolong drops the coarse Nyquist
        back = f.restrict(c, f.prolong(c, pair, f.empty_modes()), c.empty_modes())
        assert np.max(np.abs(back - pair)) <= 1e-15 * np.max(np.abs(pair))

    @pytest.mark.parametrize("fine,coarse", [(97, 49), (384, 192)])
    def test_plane_restriction_samples_sine_sums(self, fine, coarse):
        f, c = bv.PlaneGrid(6.0, fine), bv.PlaneGrid(6.0, coarse)
        out = np.full(c.empty_modes()[0].shape, 7.0)
        assert f.restrict(c, f.modal_forward(sine_sum(f, 5, coarse - 1)), out) is out
        expected = c.modal_forward(sine_sum(c, 5, coarse - 1))
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
        pair = c.to_modes(random_state(c, seed=5))
        back = f.restrict(c, f.prolong(c, pair, f.empty_modes()), c.empty_modes())
        assert np.max(np.abs(back - pair)) <= 1e-15 * np.max(np.abs(pair))

    @pytest.mark.parametrize("grid,spacing,tau,below", [
        (bv.TorusGrid(4.0, 6.0, 96, 64), 6.0 / 64, 0.5, bv.TorusGrid(4.0, 6.0, 24, 16)),
        (bv.PlaneGrid(12.0, 384), 24.0 / 383, 0.2, bv.PlaneGrid(12.0, 96)),
    ], ids=["torus", "plane"])
    def test_resolves_by_three_nodes(self, grid, spacing, tau, below):
        # three of the larger spacings; coarsest stops at the last level that
        # resolves sqrt(tau) by the same rule
        assert grid.resolves(3.0 * spacing * (1.0 + 1e-12))
        assert not grid.resolves(3.0 * spacing * (1.0 - 1e-12))
        coarse = grid.coarsest(tau)
        assert coarse.resolves(math.sqrt(tau)) and not below.resolves(math.sqrt(tau))

    @pytest.mark.parametrize("grid,tau,expected", [
        (bv.TorusGrid(4.0, 4.0, 256, 256), 16.0 / 144.0, (64, 64)),
        (bv.TorusGrid(4.0, 4.0, 96, 96), 16.0 / 144.0, (48, 48)),
        (bv.TorusGrid(4.0, 4.0, 32, 32), 16.0 / 144.0, None),
        (bv.TorusGrid(4.0, 4.0, 256, 256), 1e-4, None),
        (bv.PlaneGrid(12.0, 384), 0.2, (192, 192)),
        (bv.PlaneGrid(12.0, 384), 0.01, None),
        # chains that end at a halving limit, not at the resolution: 10 is
        # not divisible by 4, and the next half of 25 nodes has 13 < 16
        (bv.TorusGrid(4.0, 4.0, 40, 40), 4.0, (10, 10)),
        (bv.PlaneGrid(12.0, 385), 100.0, (25, 25)),
    ], ids=["torus-256", "torus-96", "torus-32", "torus-small-tau", "plane-384",
            "plane-small-tau", "torus-halving-limit", "plane-halving-limit"])
    def test_coarsest(self, grid, tau, expected):
        coarse = grid.coarsest(tau)
        assert (coarse and coarse.shape) == expected
        if coarse is not None:
            # the same domain, and no coarser level of its own
            assert coarse.area == grid.area and type(coarse) is type(grid)
            assert coarse.coarsest(tau) is None

    @pytest.mark.parametrize("grid,expected", [
        (bv.PlaneGrid(12.0, 384), (256, 256)), (bv.PlaneGrid(8.0, 225), (150, 150)),
        (bv.PlaneGrid(2.0, 256), (171, 171)), (bv.TorusGrid(4.0, 4.0, 96, 96), (64, 64)),
        (bv.TorusGrid(4.0, 4.0, 256, 256), (170, 170)),
        (bv.TorusGrid(4.0, 6.0, 128, 64), (86, 42)),
    ], ids=["plane-384", "plane-225", "plane-256", "torus-96", "torus-256", "torus-rect"])
    def test_resolving_level_has_two_thirds_of_the_intervals(self, grid, expected):
        # n - 1 = round(2 (n - 1) / 3) on the plane, 2 round(n / 3) per axis
        # on the torus; the same domain, between the first halving level and
        # the grid on each axis
        level = grid.resolving_level()
        assert level.shape == expected
        assert type(level) is type(grid) and level.area == grid.area
        assert all(n // 2 < k < n for k, n in zip(level.shape, grid.shape))

    @pytest.mark.parametrize("grid", [bv.PlaneGrid(6.0, 64), bv.TorusGrid(2.0, 3.0, 32, 48)],
                             ids=["plane", "torus"])
    def test_spectral_tail_reads_the_square_band(self, grid):
        # the tail counts every mode whose number is at least two thirds of
        # the largest in either axis.  On the plane (k_max = 62) the band
        # starts at 42; a mode at (42, 1) lies inside the disc
        # K < (4/9) K_max = (8/9) 62^2, which a disc tail would miss.  On
        # the 32 x 48 torus it starts at |kx| = 11 (row 21 holds kx = -11)
        # and at ky = 16
        if isinstance(grid, bv.TorusGrid):
            low, edge = (1, 1), [(21, 1), (16, 1), (1, 16), (1, 24)]
            below = [(22, 1), (10, 1), (1, 15)]
        else:
            row = {k: i for i, k in enumerate(grid.sine_modes)}
            low = (row[1], row[1])
            edge = [(row[42], row[1]), (row[62], row[1]), (row[1], row[42]), (row[62], row[62])]
            below = [(row[41], row[1]), (row[41], row[41])]
            assert 42 ** 2 + 1 < 8 / 9 * 62 ** 2
        for place in edge + below:
            coeffs = grid.empty_modes()
            coeffs.fill(0.0)
            coeffs[0][low] = 2.0
            coeffs[1][place] = -3e-7
            assert grid.spectral_tail(coeffs) == (1.5e-7 if place in edge else 0.0)
            assert grid.spectral_tail(coeffs[1]) == (1.0 if place in edge else 0.0)
        assert grid.spectral_tail(np.zeros_like(coeffs)) == 0.0
