import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bpsvortex as bv
from bpsvortex.errors import Overflow, ThresholdViolated
from bpsvortex import fixedpoint, runner
from conftest import random_smooth_field

L20 = math.sqrt(20.0)


@pytest.fixture(scope="module")
def fp_setup():
    grid = bv.TorusGrid(L20, L20, 64, 64)
    params = bv.PhysicalParams(lam=1.0)
    cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
    bg = bv.build_background(cfg, grid, params)
    return grid, params, cfg, bg


@pytest.fixture(scope="module")
def fp_extended():
    # two phi zeros and one kappa zero: alpha1 = 20 - 6 pi / 1.3 > 0
    grid = bv.TorusGrid(L20, L20, 64, 64)
    params = bv.PhysicalParams(lam=1.3)
    cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)),
                          kappa_zeros=((0.5 * L20, 0.2 * L20),))
    bg = bv.build_background(cfg, grid, params)
    return grid, params, cfg, bg


class TestApplyT:
    def test_zero_pair_round_trip(self, fp_setup):
        # output of the map must invert back to the assembled right-hand side
        grid, params, cfg, bg = fp_setup
        t = 0.6
        pair = np.zeros((2,) + grid.shape)
        out = bv.apply_T(pair, t, bg, params)
        c1, c2 = bv.check_existence(cfg, grid, params).constraints
        ev = np.exp(t * bg.v0)
        r1 = params.lam * t * (2.0 * c2 / grid.area - c1 * ev / grid.integrate(ev) - 1.0)
        r1 -= r1.mean()
        res = grid.laplacian(out[0]) - r1
        assert np.sqrt(grid.inner(res, res) / grid.inner(r1, r1)) <= 1e-10

    def test_output_means_vanish(self, fp_setup, fp_extended):
        for grid, params, cfg, bg in (fp_setup, fp_extended):
            rng = np.random.default_rng(0)
            u = random_smooth_field(grid, rng, 0.3)
            w = random_smooth_field(grid, rng, 0.3)
            pair = np.stack([u - u.mean(), w - w.mean()])
            out = bv.apply_T(pair, 1.0, bg, params)
            for k in (0, 1):
                scale = np.max(np.abs(out[k])) + 1e-300
                assert abs(out[k].mean()) <= 1e-12 * scale

    def test_empty_config_fixed_at_zero(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig()
        bg = bv.build_background(cfg, grid, params)
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
            u = random_smooth_field(grid, rng, 0.3)
            w = random_smooth_field(grid, rng, 0.3)
            pair = np.stack([u - u.mean(), w - w.mean()])
            before = pair.copy()
            fresh = bv.apply_T(pair, 0.7, bg, params)
            buf = np.full_like(pair, np.nan)
            assert bv.apply_T(pair, 0.7, bg, params, out=buf) is buf
            assert buf.tobytes() == fresh.tobytes()
            assert pair.tobytes() == before.tobytes()


class TestContinuationSolve:
    def test_empty_config_immediate(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig()
        bg = bv.build_background(cfg, grid, params)
        sol = bv.continuation_solve(bg, params)
        assert sol.converged
        # recovered means: u_bar = ln(C2/|Omega|) = 0, v_bar = 0
        assert np.max(np.abs(sol.state)) < 1e-12

    def test_threshold_gate(self):
        side = math.sqrt(2.0 * math.pi)
        grid = bv.TorusGrid(side, side, 16, 16)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0),))
        bg = bv.build_background(cfg, grid, params)
        with pytest.raises(ThresholdViolated):
            bv.continuation_solve(bg, params)

    @pytest.mark.parametrize("nres", [32, 64])
    def test_converges_next_to_the_threshold(self, nres):
        # at lambda*(1 + 1e-8) the map's right-hand sides are O(lam eps),
        # their summands O(lam): the roundoff of their means is the summands'
        grid = bv.TorusGrid(L20, L20, nres, nres)
        params = bv.PhysicalParams(lam=4.0 * math.pi / grid.area * (1.0 + 1e-8))
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        bg = bv.build_background(cfg, grid, params)
        sol = bv.continuation_solve(bg, params)
        assert sol.converged and sol.iterations <= 10
        diag = bv.build_diagnostics(sol.state, "torus", "base", bg, cfg, params)
        assert max(diag.constraint_errors) <= 1e-14

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

    def test_threads_sharing_a_background_get_the_serial_results(self, fp_setup):
        # the grid and the background are plain values: four threads solving
        # on the same ones, and taking the diagnostics there, match a serial run
        grid, params, cfg, bg = fp_setup
        threads, runs = 4, 3

        def solve_and_check():
            sol = bv.continuation_solve(bg, params)
            report = bv.build_diagnostics(sol.state, "torus", "base", bg, cfg, params)
            return sol.state.tobytes(), json.dumps(report.to_dict())

        serial = solve_and_check()
        results = [[] for _ in range(threads)]
        start = threading.Barrier(threads)

        def work(t):
            start.wait()
            for _ in range(runs):
                results[t].append(solve_and_check())

        workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert [len(r) for r in results] == [runs] * threads
        assert all(result == serial for r in results for result in r)

    def test_every_application_logged(self, fp_setup):
        grid, params, cfg, bg = fp_setup
        fp = bv.continuation_solve(bg, params)
        assert fp.converged and fp.message == ""
        # one residual per map application, and only the last one is under
        # the tolerance
        assert len(fp.grad_history) == fp.iterations
        assert fp.grad_history[-1] <= fixedpoint.INNER_TOL < min(fp.grad_history[:-1])
        # the residual-safeguarded iteration took 25 trials on this case;
        # damped Anderson(3) takes 21 map applications
        assert fp.iterations <= 30

    def test_overflowing_application_reported_not_raised(self, fp_setup, monkeypatch):
        grid, params, cfg, bg = fp_setup
        apply_T = fixedpoint.apply_T
        calls = []

        def second_call_overflows(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise Overflow("exponent argument 812 exceeds 700")
            return apply_T(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, "apply_T", second_call_overflows)
        fp = bv.continuation_solve(bg, params)
        assert not fp.converged
        assert fp.message == "map application 2 overflowed: exponent argument 812 exceeds 700"
        assert fp.iterations == 2 and len(fp.grad_history) == 1
        # the state is recovered from the last iterate the map accepted: zero
        zero = fixedpoint._recover_state(np.zeros((2,) + grid.shape), bg, params)
        assert fp.state.tobytes() == zero.tobytes()

    def test_close_pair_converges_and_matches_newton(self):
        # two vortices 0.24 apart at lambda = 3: the residual-safeguarded
        # iteration rejected half of its 75 trials here
        grid = bv.TorusGrid(L20, L20, 128, 128)
        params = bv.PhysicalParams(lam=3.0)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.32 * L20, 0.45 * L20)))
        bg = bv.build_background(cfg, grid, params)
        fp = bv.continuation_solve(bg, params)
        assert fp.converged, fp.message
        newton = bv.solve("torus", "base", cfg, grid, params, background=bg)
        assert newton.converged
        assert np.max(np.abs(newton.state - fp.state)) <= 1e-6

    def test_large_lambda_converges_and_matches_newton(self):
        # at lambda = 100 the map's linearization has spectral radius about
        # 200; the a-priori damping omega = 1/(1 + rho) still converges
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=100.0)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        bg = bv.build_background(cfg, grid, params)
        fp = bv.continuation_solve(bg, params)
        assert fp.converged, fp.message
        assert fp.omega == pytest.approx(1.0 / (1.0 + 100.0 * 20.0 / math.pi ** 2), rel=1e-14)
        newton = bv.solve("torus", "base", cfg, grid, params, background=bg)
        assert newton.converged
        assert np.max(np.abs(newton.state - fp.state)) <= 1e-6

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
        bg = bv.build_background(cfg, grid, params)
        newton = bv.solve("torus", "extended" if m else "base", cfg, grid, params,
                          background=bg)
        fp = bv.continuation_solve(bg, params)
        assert newton.converged, newton.message
        assert fp.converged, fp.message
        assert np.max(np.abs(newton.state - fp.state)) <= 1e-6
        # flux quantization: int a12 = 2 pi m and int b12 = 2 pi (m + n)
        scale = 2.0 * math.pi * (m + n)
        for state in (newton.state, fp.state):
            rep = bv.build_diagnostics(state, "torus", "extended" if m else "base", bg, cfg,
                                       params)
            assert (rep.flux_a, rep.flux_b) == pytest.approx(
                (2.0 * math.pi * m, scale), rel=1e-6, abs=1e-6 * scale)

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
            bg = bv.build_background(cfg, grid, params)
            pair = np.zeros((2,) + grid.shape)
            ceiling = 0.0
            for t in [(k + 1) / 10 for k in range(10)]:
                for _ in range(200):
                    new = 0.5 * pair + 0.5 * bv.apply_T(pair, t, bg, params)
                    if np.max(np.abs(new - pair)) < 1e-10:
                        pair = new
                        break
                    pair = new
                grads = [np.stack(np.gradient(f, grid.dx, grid.dy)) for f in pair]
                gx, gy = (np.sqrt(grid.inner(d, d)) for d in grads)
                ceiling = max(ceiling, gx + gy)
            ceilings.append(ceiling)
        assert 0.5 <= ceilings[1] / ceilings[0] <= 2.0


class TestCoarseLevel:
    """The fixed point starts from its own coarse fixed point, not from Newton."""

    @pytest.fixture(scope="class")
    def fine_setup(self):
        # at the cell's core scale 128^2 has the coarse level 64^2
        grid = bv.TorusGrid(L20, L20, 128, 128)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        return grid, params, cfg, bv.build_background(cfg, grid, params)

    def test_start_comes_from_no_newton_call(self, fine_setup, monkeypatch):
        grid, params, cfg, bg = fine_setup

        def no_newton(*args, **kwargs):
            raise AssertionError("the fixed point called Newton")

        monkeypatch.setattr(bv.newton, "minimize", no_newton)
        monkeypatch.setattr(bv.newton, "solve", no_newton)
        fp = bv.continuation_solve(bg, params)
        assert fp.converged
        assert fp.levels[0]["shape"] == [64, 64] and fp.levels[0]["converged"]
        assert runner._fixedpoint_summary(fp)["levels"][-1]["sup_start"] == fp.grad_history[0]
        # the coarse fixed point, prolonged, is all but the fine one
        assert fp.iterations <= 2

    def test_failed_coarse_iteration_leaves_the_zero_start(self, fine_setup, monkeypatch):
        grid, params, cfg, bg = fine_setup
        apply_T = fixedpoint.apply_T

        def overflowing_on_the_coarse_grid(pair, t, bg_, params_, out=None):
            if bg_.grid != grid:
                raise Overflow("exponent argument 812 exceeds 700")
            return apply_T(pair, t, bg_, params_, out=out)

        monkeypatch.setattr(fixedpoint, "apply_T", overflowing_on_the_coarse_grid)
        fp = bv.continuation_solve(bg, params)
        assert fp.converged
        # the overflowing application is counted and logs no residual
        assert fp.levels[0] == {"shape": [64, 64], "iterations": 1, "converged": False,
                                "sup_start": None, "sup_final": None}
        assert runner._fixedpoint_summary(fp)["levels"] == [fp.levels[0], {
            "shape": [128, 128], "iterations": fp.iterations, "converged": True,
            "sup_start": fp.grad_history[0], "sup_final": fp.grad_history[-1]}]
        # the fine iteration started from the zero pair, where the relative
        # residual is sup |T(0)|
        zero = np.zeros((2,) + grid.shape)
        assert fp.grad_history[0] == np.max(np.abs(apply_T(zero, 1.0, bg, params)))
