import json
import math

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex import diagnostics, runner
from bpsvortex.cli import main
from bpsvortex.energy import EnergyModel
from bpsvortex.errors import AnnulusTooThin
from conftest import nodes, random_smooth_field, random_state, uniqueness_probe

L20 = math.sqrt(20.0)
L50 = math.sqrt(50.0)


@pytest.fixture(scope="module")
def plane_solution():
    grid = bv.PlaneGrid(10.0, 256)
    params = bv.PhysicalParams(lam=4.0)
    cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
    bg = bv.build_background(cfg, grid, params)
    sol = bv.solve("plane", "base", cfg, grid, params, background=bg)
    assert sol.converged
    return grid, params, cfg, bg, sol


@pytest.fixture(scope="module")
def extended_solution():
    grid = bv.TorusGrid(L50, L50, 96, 96)
    params = bv.PhysicalParams(lam=1.0)
    cfg = bv.VortexConfig(phi_zeros=((0.3 * L50, 0.4 * L50), (0.7 * L50, 0.6 * L50)),
                          kappa_zeros=((0.5 * L50, 0.25 * L50),))
    bg = bv.build_background(cfg, grid, params)
    sol = bv.solve("torus", "extended", cfg, grid, params, background=bg)
    assert sol.converged
    return grid, params, cfg, bg, sol


def assert_bounds_match_the_physical_fields(bounds, state, bg, params):
    # the bound excesses against max kappa^2 and max |phi|^2 of the
    # reconstructed fields, which compute e^u and e^v apart from the report
    phys = bv.reconstruct_physical(state, bg, params)
    k2, p2 = float(np.max(phys.kappa ** 2)), float(np.max(phys.phi_abs ** 2))
    assert 1.0 + bounds["max_exp_u_excess"] == pytest.approx(k2, rel=1e-13)
    assert 1.0 + bounds["max_exp_v_excess"] == pytest.approx(p2, rel=1e-13)
    assert bounds["intermediate_excess"] + p2 + 1.0 == pytest.approx(2.0 * k2, rel=1e-13)


def assert_matches_independent_references(mode, bg, cfg, params):
    # at a state away from the solution: the sup residuals against the
    # energy gradient, minus (r1, r2 / 2), which states the reduced system
    # apart from the report, and the bounds against the physical fields
    state = random_state(bg.grid, 3)
    rep = bv.build_diagnostics(state, mode, "base", bg, cfg, params, fit_decay=False)
    g = EnergyModel(bg, params).gradient(state)
    assert rep.residual_sup == pytest.approx(
        (float(np.max(np.abs(g[0]))), 2.0 * float(np.max(np.abs(g[1])))), rel=1e-13)
    assert_bounds_match_the_physical_fields(rep.bound_violation, state, bg, params)


class TestPdeResidual:
    def test_zero_state_empty_config(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig()
        bg = bv.build_background(cfg, grid, params)
        rep = bv.build_diagnostics(np.zeros((2, 32, 32)), "torus", "base", bg, cfg, params)
        assert max(rep.residual_sup) < 1e-13

    def test_converged_residual_within_tolerance(self, torus_criterion_setup,
                                                 torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        rep = bv.build_diagnostics(torus_criterion_solution.state, "torus", "base", bg, cfg,
                                   params)
        assert max(rep.residual_sup) <= 2e-9

    def test_perturbation_bumps_residual(self, torus_criterion_setup,
                                         torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        rng = np.random.default_rng(7)
        bump = 1e-3 * random_smooth_field(grid, rng, 1.0)
        state = torus_criterion_solution.state + np.stack([bump, bump])
        rep = bv.build_diagnostics(state, "torus", "base", bg, cfg, params)
        # sup residual responds at the 1e-3 * lambda scale
        assert 1e-5 <= max(rep.residual_sup) <= 1.0


class TestFlux:
    def test_empty_config_zero_flux(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig()
        bg = bv.build_background(cfg, grid, params)
        rep = bv.build_diagnostics(np.zeros((2, 32, 32)), "torus", "base", bg, cfg, params)
        fa, fb = rep.flux_a, rep.flux_b
        assert fa == pytest.approx(0.0, abs=1e-12)
        assert fb == pytest.approx(0.0, abs=1e-12)

    def test_single_vortex_quantization(self):
        grid = bv.TorusGrid(L20, L20, 64, 64)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.4 * L20, 0.5 * L20),))
        bg = bv.build_background(cfg, grid, params)
        sol = bv.solve("torus", "base", cfg, grid, params, background=bg)
        rep = bv.build_diagnostics(sol.state, "torus", "base", bg, cfg, params)
        fa, fb = rep.flux_a, rep.flux_b
        assert abs(fb - 2.0 * math.pi) / (2.0 * math.pi) <= 1e-6
        assert abs(fa) <= 1e-6 * 2.0 * math.pi

    def test_extended_quantization(self, extended_solution):
        grid, params, cfg, bg, sol = extended_solution
        rep = bv.build_diagnostics(sol.state, "torus", "extended", bg, cfg, params)
        fa, fb = rep.flux_a, rep.flux_b
        assert abs(fa - 2.0 * math.pi) / (2.0 * math.pi) <= 1e-6
        assert abs(fb - 6.0 * math.pi) / (6.0 * math.pi) <= 1e-6


class TestPointwiseBounds:
    def test_empty_config_boundary_case(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig()
        bg = bv.build_background(cfg, grid, params)
        rep = bv.build_diagnostics(np.zeros((2, 32, 32)), "torus", "base", bg, cfg,
                                   params).bound_violation
        assert rep["max_exp_u_excess"] == pytest.approx(0.0, abs=1e-14)
        assert rep["max_exp_v_excess"] == pytest.approx(0.0, abs=1e-14)
        assert rep["intermediate_excess"] == pytest.approx(0.0, abs=1e-14)

    def test_converged_solution_respects_bounds(self, torus_criterion_setup,
                                                torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        rep = bv.build_diagnostics(torus_criterion_solution.state, "torus", "base", bg, cfg,
                                   params).bound_violation
        assert rep["ok"]
        assert rep["max_exp_u_excess"] <= 0.05
        assert rep["max_exp_v_excess"] <= 0.05
        assert rep["intermediate_excess"] <= 0.05


class TestLagrangeMultipliers:
    def test_converged_fit_recovers_analytic_values(self, torus_criterion_setup,
                                                    torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        l1, l2 = bv.build_diagnostics(torus_criterion_solution.state, "torus", "base", bg,
                                      cfg, params).lagrange
        assert abs(l1 / params.lam - 1.0) <= 1e-4
        assert abs(l2 / (2.0 * params.lam) - 1.0) <= 1e-4

    def test_empty_config_constant_balance(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.7)
        cfg = bv.VortexConfig()
        bg = bv.build_background(cfg, grid, params)
        l1, l2 = bv.build_diagnostics(np.zeros((2, 32, 32)), "torus", "base", bg, cfg,
                                      params).lagrange
        assert l1 == pytest.approx(params.lam, rel=1e-10)
        assert l2 == pytest.approx(2.0 * params.lam, rel=1e-10)

    def test_corrupted_state_drifts(self, torus_criterion_setup,
                                    torus_criterion_solution):
        grid, params, cfg, bg = torus_criterion_setup
        rng = np.random.default_rng(11)
        state = torus_criterion_solution.state + 0.1 * np.stack(
            [random_smooth_field(grid, rng, 1.0),
             random_smooth_field(grid, rng, 1.0)])
        l1, l2 = bv.build_diagnostics(state, "torus", "base", bg, cfg, params).lagrange
        drift = abs(l1 / params.lam - 1.0) + abs(l2 / (2.0 * params.lam) - 1.0)
        assert drift > 1e-4  # negative control

    def test_requires_base_model(self, extended_solution):
        grid, params, cfg, bg, sol = extended_solution
        # the fit formulas assume the base-model system; extended input is a
        # caller error rather than a numeric one
        l1, l2 = bv.build_diagnostics(sol.state, "torus", "extended", bg, cfg, params).lagrange
        assert np.isfinite(l1) and np.isfinite(l2)


class TestDecayFit:
    def test_rates_meet_analytic_bounds(self, plane_solution):
        grid, params, cfg, bg, sol = plane_solution
        rate_f, rate_g, window = bv.decay_fit(sol.state, bg, params)
        assert rate_f >= math.sqrt(0.9 * params.lam)
        assert rate_g >= math.sqrt(2.0 * 0.9 * params.lam)
        assert abs(rate_f - 2.0 * math.sqrt(params.lam)) <= 0.15 * 2.0 * math.sqrt(params.lam)
        assert window[1] <= 0.8 * grid.R

    def test_annulus_too_thin(self, plane_solution):
        # a vortex at radius 6.4 moves the annulus start to 6.4 + 3/sqrt(4) =
        # 7.9, just inside its end 0.8 R = 8: too few bins to fit
        grid, params, cfg, bg, sol = plane_solution
        far = bv.build_background(bv.VortexConfig(phi_zeros=((6.4, 0.0),)), grid, params)
        with pytest.raises(AnnulusTooThin):
            bv.decay_fit(sol.state, far, params)


class TestReconstruct:
    def test_empty_config_trivial_fields(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        bg = bv.build_background(bv.VortexConfig(), grid, params)
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
        bg = bv.build_background(cfg, grid, params)
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
        X, Y = nodes(grid)
        r = np.sqrt((X - cfg.phi_zeros[0][0]) ** 2 + (Y - cfg.phi_zeros[0][1]) ** 2)
        mask = (r > 3.0 * math.sqrt(bv.backgrounds.core_scale(grid))) & (np.abs(X) < 0.9 * grid.R) \
            & (np.abs(Y) < 0.9 * grid.R)
        diff = np.max(np.abs((phys.b12 - b12_deriv)[mask]))
        scale = np.max(np.abs(phys.b12))
        # this differentiates the total fields u0 + s0 and v0 + s1 - s0, whose
        # background part ln(1 - e^{-r^2/tau}) is log-singular at the core:
        # its sine series converges slowly, so the spectral Laplacian reads
        # about 1.7 h^2 scale here.  The solver only ever differentiates the
        # smooth remainder s, which converges spectrally
        assert diff <= 20.0 * grid.h ** 2 * scale


class TestUniquenessProbe:
    def test_single_seed_zero_spread(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.4 * L20, 0.5 * L20),))
        bg = bv.build_background(cfg, grid, params)
        assert uniqueness_probe(bg, params, seeds=1) == 0.0

    def test_three_seeds_agree(self):
        grid = bv.TorusGrid(L20, L20, 64, 64)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.4 * L20, 0.5 * L20),))
        spread = uniqueness_probe(bv.build_background(cfg, grid, params), params, seeds=3)
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

    def test_torus_report_transform_budget(self, count_transforms, torus_criterion_setup,
                                           torus_criterion_solution):
        # with the Laplacians Newton ended with, the report makes no forward
        # transform and at most one inverse one per state slice; the
        # residual and the multiplier fit share them
        grid, params, cfg, bg = torus_criterion_setup
        sol = torus_criterion_solution
        count_transforms.clear()
        rep = bv.build_diagnostics(sol.state, "torus", "base", bg, cfg, params,
                                   laplacians=sol.laplacians)
        assert count_transforms["forward", grid.shape] == 0
        assert count_transforms["inverse", grid.shape] <= 2
        # without them it takes them from the state; the two agree to roundoff
        fresh = bv.build_diagnostics(sol.state, "torus", "base", bg, cfg, params)
        assert_matches_independent_references("torus", bg, cfg, params)
        assert max(rep.residual_sup) <= 1e-8 and max(fresh.residual_sup) <= 1e-8
        assert rep.lagrange == pytest.approx(fresh.lagrange, rel=1e-12)

    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_bounds_with_a_verdict_on_both_grids(self, mode):
        # bound_violation carries the bound excesses and their verdict, from
        # the report's one exponential pair; a state over the bound fails it
        if mode == "torus":
            grid = bv.TorusGrid(L20, L20, 32, 32)
            cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        else:
            grid = bv.PlaneGrid(6.0, 64)
            cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3),))
        params = bv.PhysicalParams(lam=1.3)
        bg = bv.build_background(cfg, grid, params)
        state = bv.solve(mode, "base", cfg, grid, params, background=bg).state
        for s, ok in ((state, True), (state + np.stack([np.full(grid.shape, 0.5), state[0]]),
                                      False)):
            d = bv.build_diagnostics(s, mode, "base", bg, cfg, params).to_dict()
            assert list(d["bound_violation"]) == [
                "max_exp_u_excess", "max_exp_v_excess", "intermediate_excess", "ok"]
            assert_bounds_match_the_physical_fields(d["bound_violation"], s, bg, params)
            assert d["bound_violation"]["ok"] is ok

    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_report_evaluates_the_exponentials_once(self, monkeypatch, mode):
        # residual, fluxes, constraint errors, bounds and the multiplier fit
        # share one evaluation of (e^u, e^v)
        if mode == "torus":
            grid = bv.TorusGrid(L20, L20, 32, 32)
            cfg = bv.VortexConfig(phi_zeros=((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20)))
        else:
            grid = bv.PlaneGrid(6.0, 32)
            cfg = bv.VortexConfig(phi_zeros=((0.5, -0.3),))
        params = bv.PhysicalParams(lam=1.3)
        bg = bv.build_background(cfg, grid, params)
        state = bv.solve(mode, "base", cfg, grid, params, background=bg).state
        calls = []
        exp_pair = diagnostics._exp_pair

        def counted(*args):
            calls.append(1)
            return exp_pair(*args)

        monkeypatch.setattr(diagnostics, "_exp_pair", counted)
        rep = bv.build_diagnostics(state, mode, "base", bg, cfg, params, fit_decay=False)
        assert len(calls) == 1
        monkeypatch.undo()
        assert_bounds_match_the_physical_fields(rep.bound_violation, state, bg, params)
        assert_matches_independent_references(mode, bg, cfg, params)

    @pytest.mark.parametrize("mode,model,other", [
        ("plane", "base", None),
        ("torus", "both", None),
        ("torus", "base", "kappa"),
        ("torus", "base", "phi"),
    ], ids=["mode", "unknown-model", "base-with-kappa", "other-background"])
    def test_labels_disagreeing_with_background_refused(self, torus_criterion_setup,
                                                        torus_criterion_solution,
                                                        mode, model, other):
        grid, params, cfg, bg = torus_criterion_setup
        state = torus_criterion_solution.state
        if other == "kappa":
            cfg = bv.VortexConfig(cfg.phi_zeros, kappa_zeros=((1.0, 1.0),))
            bg = bv.build_background(cfg, grid, params)
        elif other == "phi":
            cfg = bv.VortexConfig(cfg.phi_zeros[:1])
        with pytest.raises(ValueError):
            bv.build_diagnostics(state, mode, model, bg, cfg, params)
        with pytest.raises(ValueError):
            bv.solve(mode, model, cfg, grid, params, background=bg)


class TestOneRadialProfile:
    PLANE = {"mode": "plane", "model": "base", "lambda": 4.0, "domain": {"R": 8.0},
             "grid": {"n": 96}, "phi_zeros": [[0.5, 0.0], [-0.5, 0.3]],
             "output": {"report_path": "r.json", "plots_path": "profile.csv"}}

    def test_profile_matches_the_direct_formula(self, plane_solution):
        # each bin's mean against an exactly rounded sum (math.fsum) of the
        # direct formula over the bin's nodes, far-field bins included
        grid, params, cfg, bg, sol = plane_solution
        state = sol.state
        u = bg.u0 + state[0]
        v = bg.v0 + state[1] - state[0]
        X, Y = nodes(grid)
        r = np.sqrt(X ** 2 + Y ** 2).ravel()
        ux, uy = np.gradient(u, grid.h)
        vx, vy = np.gradient(v, grid.h)
        edges = np.linspace(1.0, 7.5, 41)
        # half-open bins [e_i, e_i+1), the last one closed
        bins = np.searchsorted(edges, r, side="right") - 1
        bins[r == edges[-1]] = 39
        prof = bv.radial_profile(state, bg, 1.0, 7.5, 40)
        assert prof.window == (1.0, 7.5, 40)
        filled = [b for b in range(40) if np.any(bins == b)]
        assert prof.r.tolist() == [0.5 * (edges[b] + edges[b + 1]) for b in filled]
        for got, weights in ((prof.mean_fields_sq, (u ** 2 + v ** 2).ravel()),
                             (prof.mean_grads_sq, (ux ** 2 + uy ** 2 + vx ** 2 + vy ** 2).ravel())):
            ref = np.array([math.fsum(weights[bins == b]) / np.count_nonzero(bins == b)
                            for b in filled])
            assert np.all(np.abs(got - ref) <= 1e-12 * ref)

    @pytest.fixture
    def profile_calls(self, monkeypatch):
        # the windows of every radial_profile call, in the diagnostics and
        # in the plot data
        calls = []
        radial_profile = diagnostics.radial_profile

        def counted(*args):
            calls.append(args[2:])
            return radial_profile(*args)

        monkeypatch.setattr(diagnostics, "radial_profile", counted)
        monkeypatch.setattr(runner, "radial_profile", counted)
        return calls

    def test_plane_run_computes_one_profile(self, tmp_path, monkeypatch, profile_calls):
        # the plot data reuses the decay fit's profile, with the bits of a
        # run that computes it again
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.PLANE))
        calls = profile_calls
        assert main(["--config", str(cfg), "--command", "solve", "--out",
                     str(tmp_path / "once")]) == 0
        assert len(calls) == 1
        emit_plot_data = runner.emit_plot_data
        monkeypatch.setattr(runner, "emit_plot_data",
                            lambda *args, profile=None: emit_plot_data(*args))
        assert main(["--config", str(cfg), "--command", "solve", "--out",
                     str(tmp_path / "twice")]) == 0
        assert len(calls) == 3 and calls[2] == calls[0]
        for name in ("profile.csv", "r.json"):
            once = (tmp_path / "once" / name).read_text()
            twice = (tmp_path / "twice" / name).read_text()
            if name == "r.json":
                once, twice = (json.dumps(json.loads(t)["results"]) for t in (once, twice))
            assert once == twice

    def test_thin_annulus_run_computes_one_profile(self, tmp_path, monkeypatch,
                                                   profile_calls):
        # a fit that finds the annulus too thin leaves its profile to the
        # plot data, which write it without computing another
        def too_thin(*args):
            raise AnnulusTooThin("only 0 usable radial bins (need 8)")

        monkeypatch.setattr(diagnostics, "decay_fit", too_thin)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.PLANE))
        assert main(["--config", str(cfg), "--command", "solve", "--out", str(tmp_path)]) == 0
        assert len(profile_calls) == 1
        report = json.loads((tmp_path / "r.json").read_text())
        assert "decay" not in report["results"]["diagnostics"]
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert lines[0] == "r,mean_u2v2,mean_grad2" and len(lines) > 8
