import json
import math
import tracemalloc

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex.energy import EnergyModel, _exp_pair, constraint_shift
from bpsvortex.errors import Overflow, SingularHessian

from conftest import hessian_apply, random_state

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
    return EnergyModel(bg, params)


VARIANTS = [("torus", "base"), ("torus", "extended"),
            ("plane", "base"), ("plane", "extended")]


class TestTrivialValues:
    def test_zero_state_energy_is_zero(self):
        # the exponential term is relative to the background, so the zero
        # remainder has zero energy on every variant, vortices or not
        for mode, variant in VARIANTS:
            model = make_model(mode, variant)
            e = model.energy(model.zero_state())
            assert e[:4] == (0.0, 0.0, 0.0, 0.0)

    def test_torus_base_zero_state_gradient(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        cfg = bv.VortexConfig()
        params = bv.PhysicalParams(lam=1.3)
        bg = bv.build_background(cfg, grid, params)
        model = EnergyModel(bg, params)
        g = model.gradient(np.zeros((2, 32, 32)))
        assert np.max(np.abs(g)) < 1e-13

    def test_plane_base_zero_state(self):
        grid = bv.PlaneGrid(6.0, 32)
        cfg = bv.VortexConfig()
        params = bv.PhysicalParams(lam=1.3)
        bg = bv.build_background(cfg, grid, params)
        model = EnergyModel(bg, params)
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
            out = hessian_apply(model, state, np.zeros_like(state))
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
                        + 2.0 * math.pi * model.bg.cfg.n) * c)
        shifted = model.energy(state + c).total
        assert shifted == pytest.approx(predicted, rel=1e-10)


class TestConstraintShift:
    @pytest.mark.parametrize("variant", ["base", "extended"])
    def test_shift_meets_both_constraints(self, variant):
        model = make_model("torus", variant)
        state = random_state(model.grid, seed=3)
        constraint_shift(state, model.energy(state).masses, model.bg, model.params)
        c1, c2 = bv.check_existence(model.bg.cfg, model.grid, model.params).constraints
        mass_u, mass_v = model.energy(state).masses
        assert mass_u == pytest.approx(c2, rel=1e-14, abs=0.0)
        assert mass_v == pytest.approx(c1, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("variant", ["base", "extended"])
    def test_returned_change_matches_re_evaluation(self, variant):
        model = make_model("torus", variant)
        state = random_state(model.grid, seed=4)
        before = model.energy(state)
        change = constraint_shift(state, before.masses, model.bg, model.params)
        after = model.energy(state).total
        assert before.total + change == pytest.approx(after, rel=1e-12, abs=0.0)
        # the shift minimizes over the constant modes: a further constant
        # in either slice raises the energy
        for k in (0, 1):
            for c in (-1e-3, 1e-3):
                moved = state.copy()
                moved[k] += c
                assert model.energy(moved).total > after

    def test_no_masses_on_the_plane(self):
        model = make_model("plane", "base")
        assert model.energy(random_state(model.grid, seed=5)).masses is None

    def test_underflowing_mass_is_a_singular_block(self):
        model = make_model("torus", "base")
        state = np.full((2,) + model.grid.shape, -800.0)
        with pytest.raises(SingularHessian, match="mean e\\^U = 0.000e\\+00"):
            constraint_shift(state, model.energy(state).masses, model.bg, model.params)
        assert np.all(state == -800.0)

    def test_overflowing_mass_is_an_overflow(self):
        # e^700 on 2^16 nodes sums past the largest double, though every
        # exponent passes the guard
        model = make_model("torus", "base")
        state = model.zero_state()
        with pytest.raises(Overflow):
            constraint_shift(state, (math.inf, 1.0), model.bg, model.params)
        assert not state.any()


class TestFirstVariation:
    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_gradient_matches_central_difference(self, mode, variant):
        model = make_model(mode, variant)
        eps = 1e-5
        for seed in range(10):
            s = random_state(model.grid, seed=seed)
            d = random_state(model.grid, seed=seed + 100)
            ip = model.grid.inner(model.gradient(s), d)
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
            hd = hessian_apply(model, s, d)
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
        lhs = model.grid.inner(d1, hessian_apply(model, s, d2))
        rhs = model.grid.inner(d2, hessian_apply(model, s, d1))
        scale = (model.grid.inner(d1, d1) * model.grid.inner(d2, d2)) ** 0.5
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), scale)


    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_hessian_operator_matches_hessian_apply(self, mode, variant):
        # the torus products are float64, exact to roundoff; the plane
        # computes the pointwise part W in float32 (measured 2e-8 here), the
        # rest in float64
        model = make_model(mode, variant)
        rel_tol = 1e-13 if mode == "torus" else 1e-6
        s = random_state(model.grid, seed=7)
        apply_h = model.hessian_operator(model.linearize(s))
        for seed in range(3):
            d = random_state(model.grid, seed=300 + seed, amplitude=1.0)
            hd = hessian_apply(model, s, d)
            via_modes = model.grid.from_modes(apply_h(model.grid.to_modes(d)))
            assert np.max(np.abs(via_modes - hd)) <= rel_tol * np.max(np.abs(hd))

    def test_torus_hessian_apply_is_four_transforms(self, monkeypatch, count_transforms):
        # one Hessian apply: two inverse transforms, the pointwise part, two
        # forward transforms (one field each) and the per-mode block; no
        # Laplacian.  One preconditioner apply is per-mode only.
        model = make_model("torus", "extended")
        grid = model.grid
        lin = model.linearize(random_state(grid, seed=9))
        apply_h = model.hessian_operator(lin)
        apply_minv = model.preconditioner(lin)
        p = grid.to_modes(random_state(grid, seed=10))
        count_transforms.clear()
        laplacians = [0]

        def counted(self, *args, _fn=bv.TorusGrid.laplacian, **kwargs):
            laplacians[0] += 1
            return _fn(self, *args, **kwargs)

        monkeypatch.setattr(bv.TorusGrid, "laplacian", counted)
        four = {("forward", grid.shape): 2, ("inverse", grid.shape): 2}
        apply_h(p)
        assert count_transforms == four and laplacians == [0]
        apply_minv(p)
        assert count_transforms == four and laplacians == [0]


def per_slice_operators(model, lin):
    """The Hessian product and preconditioner of ``lin``, written one slice at a time.

    The reference the pair operators are checked against bit for bit: W
    through one physical field in the grid's ``product_dtype``, made with
    the operator, two transforms each way, then M per mode; M^-1 per slice.
    """
    grid = model.grid
    (c0, c1), (wu, wv), lam_b, inv_det = lin.c, lin.w, lin.lam_b, lin.inv_det
    field = np.empty(grid.shape, wu.dtype)

    def apply_h(p):
        out = np.empty_like(p)
        h0, h1 = out
        np.subtract(p[1], p[0], out=h0)
        grid.modal_inverse(h0, out=field)
        np.multiply(field, wv, out=field)
        grid.modal_forward(field, out=h1)
        grid.modal_inverse(p[0], out=field)
        np.multiply(field, wu, out=field)
        grid.modal_forward(field, out=h0)
        h0 -= h1
        m = np.multiply(c0, p[0])
        m -= p[1]
        m *= lam_b
        h0 += m
        np.multiply(c1, p[1], out=m)
        m -= p[0]
        m *= lam_b
        h1 += m
        return out

    def apply_minv(r):
        out = np.empty_like(r)
        z0, z1 = out
        np.multiply(c1, r[0], out=z0)
        z0 += r[1]
        z0 *= inv_det
        np.multiply(c0, r[1], out=z1)
        z1 += r[0]
        z1 *= inv_det
        return out

    return apply_h, apply_minv


class TestPairOperators:
    """The pair layouts change no bit of the Newton system."""

    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_operators_equal_the_per_slice_reference(self, mode, variant):
        model = make_model(mode, variant)
        grid = model.grid
        state = random_state(grid, seed=31)
        lin = model.linearize(state)
        # the pairs c and w hold the per-slice values of the formulas
        eU, eV = _exp_pair(state, model.bg)
        a, b = grid.interior(eU).mean(), grid.interior(eV).mean()
        lam, ratio = model.params.lam, 2.0 * a / b
        x = grid.laplacian_eigenvalues() / (2.0 * lam * b)
        inv_det = 1.0 / ((((x * 2.0 + (3.0 + ratio)) * x) + ratio) * (lam * b))
        c = np.stack([x * 2.0 + (1.0 + ratio), x + 1.0])
        w = np.stack([(eU - a) * (2.0 * lam), (eV - b) * lam]).astype(grid.product_dtype)
        for name, expected in (("c", c), ("inv_det", inv_det), ("w", w)):
            assert getattr(lin, name).tobytes() == expected.tobytes(), name
        ref_h, ref_minv = per_slice_operators(model, lin)
        apply_h, apply_minv = model.hessian_operator(lin), model.preconditioner(lin)
        for seed in (32, 33):
            p = grid.to_modes(random_state(grid, seed=seed, amplitude=1.0))
            kept = p.copy()
            assert apply_h(p).tobytes() == ref_h(p).tobytes()
            assert apply_minv(p).tobytes() == ref_minv(p).tobytes()
            assert p.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_gradient_equals_the_per_slice_formula(self, mode, variant):
        model = make_model(mode, variant)
        grid, lam, bg = model.grid, model.params.lam, model.bg
        state = random_state(grid, seed=34)
        laps = grid.laplacians(grid.to_modes(state))
        eU, eV = _exp_pair(state, bg)
        g0 = -laps[0] + lam * (2.0 * eU - eV - 1.0) + bg.src_u
        g1 = -0.5 * laps[1] + lam * (eV - 1.0) + bg.src_f / 2.0
        expected = np.stack([grid.zero_boundary(g0), grid.zero_boundary(g1)])
        assert model.gradient(state, laps).tobytes() == expected.tobytes()
        assert model.gradient(state).tobytes() == expected.tobytes()

    def test_torus_hessian_apply_is_one_fft_pass_each_way(self, monkeypatch):
        # a stacked inverse (ifft, irfft) and a stacked forward (rfft2)
        # transform; the preconditioner makes no FFT call
        model = make_model("torus", "extended")
        lin = model.linearize(random_state(model.grid, seed=35))
        apply_h, apply_minv = model.hessian_operator(lin), model.preconditioner(lin)
        p = model.grid.to_modes(random_state(model.grid, seed=36))
        calls = []
        for name in np.fft.__all__:
            def spy(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, spy)
        apply_h(p)
        assert calls == ["ifft", "irfft", "rfft2"]
        apply_minv(p)
        assert calls == ["ifft", "irfft", "rfft2"]

    def test_plane_product_holds_one_physical_field(self):
        # the operator and one apply allocate no more at their peak than the
        # per-slice reference, which holds one float32 field for the
        # operator's life; a second field would add 4 n^2 bytes, and the
        # allowance of n^2 covers the kernel's few array views
        grid, params = bv.PlaneGrid(6.0, 64), bv.PhysicalParams(lam=1.3)
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 1.2)))
        model = EnergyModel(bv.build_background(cfg, grid, params), params)
        lin = model.linearize(random_state(grid, seed=37))
        p = grid.to_modes(random_state(grid, seed=38))

        def peak(make_operator):
            tracemalloc.start()
            try:
                make_operator(lin)(p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        reference = peak(lambda lin: per_slice_operators(model, lin)[0])
        assert peak(model.hessian_operator) <= reference + grid.n ** 2


class TestProductPrecision:
    """The plane's Hessian products run W in float32, and nothing else does."""

    @pytest.mark.parametrize("variant", ["base", "extended"])
    def test_plane_solve_equals_a_float64_operator_solve(self, monkeypatch, variant):
        # with the float64 reference operator (conftest ``hessian_apply`` on
        # the linearized state) the solve takes the same Newton and CG steps
        # and lands on the same state
        grid, params = bv.PlaneGrid(6.0, 64), bv.PhysicalParams(lam=4.0)
        cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3), (-1.0, 1.2)),
                              kappa_zeros=((1.5, 0.5),) if variant == "extended" else ())
        bg = bv.build_background(cfg, grid, params)

        def solve():
            return bv.solve("plane", variant, cfg, grid, params, background=bg,
                            settings=bv.SolverSettings(tol_grad_sup=1e-10))

        package = solve()
        states = []
        linearize = EnergyModel.linearize

        def recording(self, state):
            states.append(state.copy())
            return linearize(self, state)

        def reference(self, lin):
            model, state = self, states[-1]
            return lambda p: grid.to_modes(hessian_apply(model, state, grid.from_modes(p)))

        monkeypatch.setattr(EnergyModel, "linearize", recording)
        monkeypatch.setattr(EnergyModel, "hessian_operator", reference)
        ref = solve()
        assert package.converged and ref.converged and package.iterations >= 3
        assert package.iterations == ref.iterations
        assert ([step["cg_iters"] for step in package.newton_steps]
                == [step["cg_iters"] for step in ref.newton_steps])
        assert np.max(np.abs(package.state - ref.state)) <= 1e-12

    def test_only_hessian_products_transform_in_float32(self, tmp_path, monkeypatch):
        # a plane run with diagnostics, decay fit and plot data: every
        # transform inside a Hessian apply runs on a float32 field, every
        # other one (gradients, line-search trials, diagnostics) on float64
        # throughout.  A transform computes in the dtype of its field, the
        # input of a forward one and the output of an inverse one
        from bpsvortex.cli import main

        seen = []
        in_apply = [False]
        for kind in ("forward", "inverse"):
            def spied(self, x, out=None, _fn=getattr(bv.PlaneGrid, "modal_" + kind), _kind=kind):
                result = _fn(self, x, out)
                field = x if _kind == "forward" else result
                seen.append((in_apply[0], field.dtype, x.dtype, result.dtype))
                return result

            monkeypatch.setattr(bv.PlaneGrid, "modal_" + kind, spied)
        make_operator = EnergyModel.hessian_operator

        def flagged_operator(self, lin):
            apply_h = make_operator(self, lin)

            def flagged(p):
                in_apply[0] = True
                try:
                    return apply_h(p)
                finally:
                    in_apply[0] = False

            return flagged

        monkeypatch.setattr(EnergyModel, "hessian_operator", flagged_operator)
        cfg = {"mode": "plane", "model": "base", "lambda": 4.0, "domain": {"R": 8.0},
               "grid": {"n": 96}, "phi_zeros": [[0.5, 0.0], [-0.5, 0.3]],
               "output": {"report_path": "r.json", "plots_path": "profile.csv"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--command", "solve", "--out", str(tmp_path)]) == 0
        products = [dtypes for flag, *dtypes in seen if flag]
        others = [dtypes for flag, *dtypes in seen if not flag]
        assert products and len(products) % 4 == 0 and others
        assert all(field == np.float32 for field, _, _ in products)
        assert all(dtypes == [np.float64] * 3 for dtypes in others)


def mean_masses(model, state):
    """<e^U> and <e^V> over the interior, straight from the formula."""
    grid, bg = model.grid, model.bg
    eU = bg.exp_u0 * np.exp(state[0])
    eV = bg.exp_v0 * np.exp(state[1] - state[0])
    return float(np.mean(grid.interior(eU))), float(np.mean(grid.interior(eV)))


class TestPreconditioner:
    @staticmethod
    def check_inverts_constant_mass_hessian(model, state):
        # A_ab: the Hessian with e^U = a and e^V = b, the state's mean masses,
        # built from the grid's Laplacian
        grid, lam = model.grid, model.params.lam
        a, b = mean_masses(model, state)
        lin = model.linearize(state)
        assert lin.mean_exp == pytest.approx((a, b), rel=1e-14)
        apply_minv = model.preconditioner(lin)
        rng = np.random.default_rng(11)
        for _ in range(3):
            d = grid.zero_boundary(rng.standard_normal((2,) + grid.shape))
            ad = grid.zero_boundary(np.stack([
                -grid.laplacian(d[0]) + lam * (2.0 * a + b) * d[0] - lam * b * d[1],
                -0.5 * grid.laplacian(d[1]) + lam * b * (d[1] - d[0])]))
            z = model.grid.from_modes(apply_minv(model.grid.to_modes(ad)))
            assert np.max(np.abs(z - d)) <= 1e-10
            r = model.grid.to_modes(d)
            assert grid.modal_inner(r, apply_minv(r)) > 0.0

    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_inverts_the_hessian_at_the_mean_masses(self, mode, variant):
        model = make_model(mode, variant)
        self.check_inverts_constant_mass_hessian(model, random_state(model.grid, seed=14))

    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_inverts_far_field_hessian(self, mode):
        # the a = b = 1 instance: no vortices, zero state, e^U = e^V = 1
        model = make_model(mode, "base", seed_points=False)
        state = model.zero_state()
        assert model.linearize(state).mean_exp == (1.0, 1.0)
        self.check_inverts_constant_mass_hessian(model, state)

    @pytest.mark.parametrize("variant", ["base", "extended"])
    def test_torus_constant_mode_is_exact(self, variant):
        # <1_i, A 1_j> / |Omega| for the constant fields 1_0 = (1, 0) and
        # 1_1 = (0, 1) equals the K = 0 block of M
        model = make_model("torus", variant)
        grid = model.grid
        state = random_state(grid, seed=15)
        lin = model.linearize(state)
        ones = np.eye(2)[:, :, None, None] * np.ones(grid.shape)
        galerkin = np.array([[grid.inner(ones[i], hessian_apply(model, state, ones[j]))
                              for j in range(2)] for i in range(2)]) / grid.area
        c0, c1 = lin.c[:, 0, 0]
        block = lin.lam_b * np.array([[c0, -1.0], [-1.0, c1]])
        assert np.max(np.abs(galerkin - block)) <= 1e-12 * np.max(np.abs(block))

    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_reused_buffers_do_not_leak_between_applies(self, mode):
        model = make_model(mode, "base")
        lin = model.linearize(random_state(model.grid, seed=16))
        apply_minv = model.preconditioner(lin)
        a = model.grid.to_modes(random_state(model.grid, seed=12))
        b = model.grid.to_modes(random_state(model.grid, seed=13))
        first = apply_minv(a)
        second = apply_minv(b)
        assert not np.shares_memory(first, second)
        assert apply_minv(a).tobytes() == first.tobytes()
        assert model.preconditioner(lin)(b).tobytes() == second.tobytes()


class TestGradientResidualCorrespondence:
    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_gradient_zero_is_the_discrete_system(self, mode, variant):
        # the energy gradient is minus the equation residuals (r1, r2 / 2) on
        # both grids, and zero on the plane's boundary ring
        model = make_model(mode, variant)
        s = random_state(model.grid, seed=8)
        g = model.gradient(s)
        lam = model.params.lam
        grid = model.grid
        eU = model.bg.exp_u0 * np.exp(s[0])
        eV = model.bg.exp_v0 * np.exp(s[1] - s[0])
        src_u, src_f = model.bg.src_u, model.bg.src_f
        r1 = grid.laplacian(s[0]) - lam * (2 * eU - eV - 1) - src_u
        r2 = grid.laplacian(s[1]) - 2 * lam * (eV - 1) - src_f
        expected = grid.zero_boundary(np.stack([-r1, -0.5 * r2]))
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(g - expected)) <= 1e-12 * scale


class TestConvexity:
    @pytest.mark.parametrize("mode,variant", VARIANTS)
    def test_quadratic_form_strictly_positive(self, mode, variant):
        model = make_model(mode, variant)
        s = random_state(model.grid, seed=6)
        for seed in range(100):
            d = random_state(model.grid, seed=1000 + seed, amplitude=1.0)
            q = model.grid.inner(d, hessian_apply(model, s, d))
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
    def test_base_entry_points_reject_kappa_zeros(self):
        for mode in ("torus", "plane"):
            model = make_model(mode, "extended")
            with pytest.raises(ValueError):
                bv.solve(mode, "base", model.bg.cfg, model.grid, model.params)

    def test_solve_rejects_mode_of_the_other_grid(self):
        for mode, other in (("torus", "plane"), ("plane", "torus")):
            model = make_model(mode, "base")
            with pytest.raises(ValueError):
                bv.solve(other, "base", model.bg.cfg, model.grid, model.params)


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
            hessian_apply(model, state, state)
