import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bpsvortex as bv
from bpsvortex.errors import NonZeroMeanRhs, Overflow, ThresholdViolated
from bpsvortex.fixedpoint import _solve_stage

L20 = math.sqrt(20.0)


@pytest.fixture(scope="module")
def fp_setup():
    grid = bv.TorusGrid(L20, L20, 64, 64)
    params = bv.PhysicalParams(lam=1.0)
    cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
    bg = bv.build_background_torus(cfg, grid, params)
    return grid, params, cfg, bg


@pytest.fixture(scope="module")
def fp_extended():
    # two phi zeros and one kappa zero: alpha1 = 20 - 6 pi / 1.3 > 0
    grid = bv.TorusGrid(L20, L20, 64, 64)
    params = bv.PhysicalParams(lam=1.3)
    cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)),
                          kappa_zeros=((0.5 * L20, 0.2 * L20),))
    bg = bv.build_background_torus(cfg, grid, params)
    return grid, params, cfg, bg


class TestApplyT:
    def test_zero_pair_round_trip(self, fp_setup):
        # output of the map must invert back to the assembled right-hand side
        grid, params, cfg, bg = fp_setup
        t = 0.6
        pair = np.zeros((2,) + grid.shape)
        out = bv.apply_T(pair, t, bg, params)
        rep = bv.check_existence(cfg, grid, params)
        ev = np.exp(t * bg.v0)
        r1 = params.lam * t * (2.0 * rep.c2 / grid.area
                               - rep.c1 * ev / grid.integrate(ev) - 1.0)
        r1 -= r1.mean()
        res = grid.laplacian(out[0]) - r1
        assert np.sqrt(grid.inner(res, res) / grid.inner(r1, r1)) <= 1e-10

    def test_output_means_vanish(self, fp_setup, fp_extended):
        for grid, params, cfg, bg in (fp_setup, fp_extended):
            rng = np.random.default_rng(0)
            u = bv.random_smooth_field(grid, rng, 0.3)
            w = bv.random_smooth_field(grid, rng, 0.3)
            pair = bv.zero_mean_pair(u - u.mean(), w - w.mean())
            out = bv.apply_T(pair, 1.0, bg, params)
            for k in (0, 1):
                scale = np.max(np.abs(out[k])) + 1e-300
                assert abs(out[k].mean()) <= 1e-12 * scale

    def test_empty_config_fixed_at_zero(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig()
        bg = bv.build_background_torus(cfg, grid, params)
        for t in (0.2, 1.0):
            out = bv.apply_T(np.zeros((2, 32, 32)), t, bg, params)
            assert np.max(np.abs(out)) < 1e-13

    def test_overflow_raised(self, fp_setup):
        grid, params, cfg, bg = fp_setup
        pair = np.zeros((2,) + grid.shape)
        pair[0] += 800.0
        with pytest.raises(Overflow):
            bv.apply_T(pair, 1.0, bg, params)

    def test_out_buffer_bitwise_and_pair_unmodified(self, fp_setup, fp_extended):
        for grid, params, cfg, bg in (fp_setup, fp_extended):
            rng = np.random.default_rng(5)
            u = bv.random_smooth_field(grid, rng, 0.3)
            w = bv.random_smooth_field(grid, rng, 0.3)
            pair = bv.zero_mean_pair(u - u.mean(), w - w.mean())
            before = pair.copy()
            fresh = bv.apply_T(pair, 0.7, bg, params)
            buf = np.full_like(pair, np.nan)
            assert bv.apply_T(pair, 0.7, bg, params, out=buf) is buf
            assert buf.tobytes() == fresh.tobytes()
            assert pair.tobytes() == before.tobytes()

    def test_zero_mean_pair_validation(self, fp_setup):
        grid, params, cfg, bg = fp_setup
        with pytest.raises(NonZeroMeanRhs):
            bv.zero_mean_pair(np.ones(grid.shape), np.zeros(grid.shape))


class TestContinuationSolve:
    def test_empty_config_immediate(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig()
        bg = bv.build_background_torus(cfg, grid, params)
        sol = bv.continuation_solve(bg, params)
        assert sol.converged
        # recovered means: u_bar = ln(C2/|Omega|) = 0, v_bar = 0
        assert np.max(np.abs(sol.state)) < 1e-12

    def test_threshold_gate(self):
        side = math.sqrt(2.0 * math.pi)
        grid = bv.TorusGrid(side, side, 16, 16)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0),))
        bg = bv.build_background_torus(cfg, grid, params)
        with pytest.raises(ThresholdViolated):
            bv.continuation_solve(bg, params)

    def test_matches_newton_solution(self, fp_setup):
        grid, params, cfg, bg = fp_setup
        newton = bv.solve("torus", "base", cfg, grid, params, background=bg)
        fp = bv.continuation_solve(bg, params)
        assert fp.converged
        assert np.max(np.abs(newton.state - fp.state)) <= 1e-6

    def test_repeat_runs_bitwise_identical(self, fp_setup):
        grid, params, cfg, bg = fp_setup
        runs = [bv.continuation_solve(bg, params) for _ in range(2)]
        assert runs[0].state.tobytes() == runs[1].state.tobytes()
        assert runs[0].grad_history == runs[1].grad_history

    def test_stage_leaves_warm_start_unmodified(self, fp_setup):
        grid, params, cfg, bg = fp_setup
        rep = bv.check_existence(cfg, grid, params)
        pair = 0.5 * bv.apply_T(np.zeros((2,) + grid.shape), 0.5, bg, params)
        before = pair.copy()
        ok, out, iters = _solve_stage(pair, 0.5, bg, params, rep.c1, rep.c2, [])
        assert ok and iters > 0
        assert out is not pair
        assert pair.tobytes() == before.tobytes()

    def test_residual_history_non_increasing(self, fp_setup):
        grid, params, cfg, bg = fp_setup
        fp = bv.continuation_solve(bg, params)
        res = fp.grad_history
        # within each stage accepted residuals never increase; only a stage
        # break (a warm start at a new t) may step up
        ups = sum(1 for a, b in zip(res, res[1:]) if b > a * (1.0 + 1e-9))
        assert ups < len(fp.stages)

    def test_stage_trace_accounts_for_every_trial(self, fp_setup):
        grid, params, cfg, bg = fp_setup
        fp = bv.continuation_solve(bg, params)
        assert [s["t"] for s in fp.stages] == [1.0]
        assert all(s["converged"] for s in fp.stages)
        assert sum(s["trials"] for s in fp.stages) == fp.iterations
        assert sum(s["accepted"] for s in fp.stages) == len(fp.grad_history)
        # ten uniform stages t = 0.1, ..., 1 took 143 trials on this case and
        # the single stage at t = 1 takes 25
        assert fp.iterations <= 50

    def test_accepted_residuals_non_increasing_within_each_stage(self, fp_setup):
        grid, params, cfg, bg = fp_setup
        fp = bv.continuation_solve(bg, params)
        start = 0
        for stage in fp.stages:
            res = fp.grad_history[start:start + stage["accepted"]]
            start += stage["accepted"]
            # the acceptance test allows a 1e-12 relative tie, nothing more
            assert all(b <= a * (1.0 + 1e-12) for a, b in zip(res, res[1:]))
        assert start == len(fp.grad_history)

    def test_close_pair_converges_and_matches_newton(self):
        # two vortices 0.24 apart at lambda = 3: damped Picard alone stalls
        # at t = 0.6 and exhausts its refinements on this case
        grid = bv.TorusGrid(L20, L20, 128, 128)
        params = bv.PhysicalParams(lam=3.0)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.32 * L20, 0.45 * L20)))
        bg = bv.build_background_torus(cfg, grid, params)
        fp = bv.continuation_solve(bg, params)
        assert fp.converged, fp.message
        newton = bv.solve("torus", "base", cfg, grid, params, background=bg)
        assert newton.converged
        assert np.max(np.abs(newton.state - fp.state)) <= 1e-6

    def test_overflowing_trials_rejected_not_raised(self):
        # at lambda = 100 the first trials at t = 1 overflow exp; they count
        # as rejected, so every stage stalls by relaxation underflow and the
        # solve reports non-convergence instead of raising Overflow
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=100.0)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        bg = bv.build_background_torus(cfg, grid, params)
        fp = bv.continuation_solve(bg, params)
        assert not fp.converged
        assert "exhausted" in fp.message
        assert sum(s["trials"] for s in fp.stages) == fp.iterations
        assert all(s["omega"] < 1e-8 for s in fp.stages)

    @settings(deadline=None, database=None, derandomize=True, max_examples=25)
    @given(n=st.integers(1, 3), m=st.integers(0, 1), factor=st.floats(1.1, 3.0),
           points=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                     st.floats(0.0, 1.0, exclude_max=True)),
                           min_size=4, max_size=4))
    def test_random_configurations_match_newton(self, n, m, factor, points):
        # both models a factor 1.1 to 3 above the solvability line
        grid = bv.TorusGrid(L20, L20, 32, 32)
        zeros = tuple((L20 * x, L20 * y) for x, y in points)
        cfg = bv.VortexConfig(phi_zeros=zeros[:n], kappa_zeros=zeros[n:n + m])
        line = max(2.0 * math.pi * (m + n), math.pi * (3 * m + n)) / grid.area
        params = bv.PhysicalParams(lam=factor * line)
        bg = bv.build_background_torus(cfg, grid, params)
        newton = bv.solve("torus", "extended" if m else "base", cfg, grid, params,
                          background=bg)
        fp = bv.continuation_solve(bg, params)
        assert newton.converged, newton.message
        assert fp.converged, fp.message
        assert np.max(np.abs(newton.state - fp.state)) <= 1e-6

    def test_iterates_stay_zero_mean(self, fp_setup):
        # run a few damped steps by hand and check the X-space invariant
        grid, params, cfg, bg = fp_setup
        pair = np.zeros((2,) + grid.shape)
        for _ in range(5):
            pair = 0.5 * pair + 0.5 * bv.apply_T(pair, 1.0, bg, params)
            for k in (0, 1):
                scale = np.max(np.abs(pair[k])) + 1e-300
                assert abs(pair[k].mean()) <= 1e-12 * scale

    def test_max_principle_densities_bounded(self, fp_setup):
        # at the converged end state e^u <= 1 + eps and e^v <= 1 + eps
        grid, params, cfg, bg = fp_setup
        fp = bv.continuation_solve(bg, params)
        eU = np.exp(fp.state[0])
        eV = bg.exp_v0 * np.exp(fp.state[1] - fp.state[0])
        assert eU.max() <= 1.05
        assert eV.max() <= 1.05

    def test_gradient_norm_ceiling_stable_under_refinement(self):
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20),))
        ceilings = []
        for nres in (32, 64):
            grid = bv.TorusGrid(L20, L20, nres, nres)
            bg = bv.build_background_torus(cfg, grid, params)
            rep = bv.check_existence(cfg, grid, params)
            pair = np.zeros((2,) + grid.shape)
            ceiling = 0.0
            for t in [(k + 1) / 10 for k in range(10)]:
                for _ in range(200):
                    new = 0.5 * pair + 0.5 * bv.apply_T(pair, t, bg, params,
                                                        rep.c1, rep.c2)
                    if np.max(np.abs(new - pair)) < 1e-10:
                        pair = new
                        break
                    pair = new
                grads = [np.stack(np.gradient(f, grid.dx, grid.dy)) for f in pair]
                gx, gy = (np.sqrt(grid.inner(d, d)) for d in grads)
                ceiling = max(ceiling, gx + gy)
            ceilings.append(ceiling)
        assert 0.5 <= ceilings[1] / ceilings[0] <= 2.0
