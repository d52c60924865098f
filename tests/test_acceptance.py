"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here exactly as stated; stated runtime budgets are
recorded in comments and the measured time is printed with each line.
"""

import json
import math
import time

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex.config import parse_config
from bpsvortex.energy import EnergyModel
from bpsvortex.runner import run

from conftest import random_state

L20 = math.sqrt(20.0)
L50 = math.sqrt(50.0)
AREA20 = L20 * L20


def _report(num, name, ok, detail, t0):
    line = (f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}: "
            f"{detail}  ({time.perf_counter() - t0:.1f}s)")
    print(line)
    assert ok, line


def _variant_model(mode, variant):
    if mode == "torus":
        grid = bv.TorusGrid(L20, L20, 32, 32)
        pts = ((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20))
        kpts = ((0.5 * L20, 0.2 * L20),)
    else:
        grid = bv.PlaneGrid(6.0, 32)
        pts = ((0.5, -0.3), (-1.0, 1.2))
        kpts = ((1.5, 0.5),)
    cfg = bv.VortexConfig(phi_zeros=pts,
                          kappa_zeros=kpts if variant == "extended" else ())
    params = bv.PhysicalParams(lam=1.3)
    bg = bv.build_background(cfg, grid, params)
    return EnergyModel(bg, params)


VARIANTS = [("torus", "base"), ("torus", "extended"),
            ("plane", "base"), ("plane", "extended")]


@pytest.fixture(scope="module")
def extended_50():
    grid = bv.TorusGrid(L50, L50, 128, 128)
    params = bv.PhysicalParams(lam=1.0)
    cfg = bv.VortexConfig(phi_zeros=((0.3 * L50, 0.4 * L50), (0.7 * L50, 0.6 * L50)),
                          kappa_zeros=((0.5 * L50, 0.25 * L50),))
    bg = bv.build_background_torus(cfg, grid, params)
    sol = bv.solve("torus", "extended", cfg, grid, params, background=bg)
    assert sol.converged
    return grid, params, cfg, bg, sol


def test_criterion_01_threshold_sharpness(tmp_path):
    # budget: <= 60 s; exercised through the sweep command so the check gate
    # and the solver run exactly as a user would invoke them
    t0 = time.perf_counter()
    lam_star = 4.0 * math.pi / AREA20
    factors = (0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5)
    raw = {
        "mode": "torus", "model": "base", "lambda": 1.0,
        "domain": {"Lx": L20, "Ly": L20}, "grid": {"nx": 128},
        "phi_zeros": [[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]],
        "sweep": {"param": "lambda", "values": [f * lam_star for f in factors],
                  "action": "solve"},
    }
    cfg = parse_config(json.dumps(raw))
    code, report = run("sweep", cfg, out_dir=str(tmp_path))
    rows = report["results"]["rows"]
    details = []
    ok = code == 0 and len(rows) == len(factors)
    area = cfg.make_grid().area
    for factor, row in zip(factors, rows):
        lam = row["lambda"]
        expected_solvable = lam * area > 4.0 * math.pi
        ok &= row["solvable"] == expected_solvable
        if lam * area >= 1.1 * 4.0 * math.pi:
            ok &= row["converged"] and row["residual_sup"] <= 1e-8
            details.append(f"f={factor}: res={row['residual_sup']:.1e}")
        else:
            details.append(f"f={factor}: solvable={row['solvable']}")
    _report(1, "threshold sharpness", ok, "; ".join(details), t0)


def test_criterion_02_extended_threshold():
    # budget: <= 1 s (pure arithmetic)
    t0 = time.perf_counter()
    grid = bv.TorusGrid(L50, L50, 16, 16)
    area = grid.area
    # stated configuration: both inequalities evaluated independently
    cfg_a = bv.VortexConfig(phi_zeros=((1.0, 1.0), (2.0, 2.0)),
                            kappa_zeros=((3.0, 3.0),))
    rep_a = bv.check_existence(cfg_a, grid, bv.PhysicalParams(lam=1.0))
    ok = (rep_a.alpha1 is not None and rep_a.alpha2 is not None
          and rep_a.solvable == (rep_a.alpha1 > 0 and rep_a.alpha2 > 0)
          and abs(rep_a.alpha1 - (area - 6.0 * math.pi)) < 1e-9
          and abs(rep_a.alpha2 - 0.5 * (rep_a.alpha1 + area - 4.0 * math.pi)) < 1e-9)
    # violating only the second inequality requires m > n: pick m=2, n=1 and
    # lambda with 2*pi*(m+n) < lam*|O| <= pi*(3m+n)
    cfg_b = bv.VortexConfig(phi_zeros=((1.0, 1.0),),
                            kappa_zeros=((2.0, 2.0), (3.0, 3.0)))
    lam_b = 0.41  # lam*50 = 20.5 in (6*pi, 7*pi)
    rep_b = bv.check_existence(cfg_b, grid, bv.PhysicalParams(lam=lam_b))
    ok &= rep_b.alpha1 > 0 and rep_b.alpha2 <= 0 and not rep_b.solvable
    _report(2, "extended threshold", ok,
            f"alpha1={rep_a.alpha1:.4f}, alpha2={rep_a.alpha2:.4f}; "
            f"only-2nd-violated declared unsolvable={not rep_b.solvable}", t0)


def test_criterion_03_constraint_identities(torus_criterion_setup,
                                            torus_criterion_solution):
    # budget: <= 10 s
    t0 = time.perf_counter()
    grid, params, cfg, bg = torus_criterion_setup
    sol = torus_criterion_solution
    c1 = 20.0 - 4.0 * math.pi
    c2 = 0.5 * (c1 + 20.0)
    eV = bg.exp_v0 * np.exp(sol.state[1] - sol.state[0])
    eU = np.exp(sol.state[0])
    err1 = abs(grid.integrate(eV) - c1) / c1
    err2 = abs(grid.integrate(eU) - c2) / c2
    ok = err1 <= 1e-6 and err2 <= 1e-6
    _report(3, "constraint identities", ok,
            f"|int-C1|/C1={err1:.2e}, |int-C2|/C2={err2:.2e}", t0)


def test_criterion_04_flux_quantization(torus_criterion_setup,
                                        torus_criterion_solution, extended_50):
    # budget: <= 30 s
    t0 = time.perf_counter()
    grid, params, cfg, bg = torus_criterion_setup
    fa, fb = bv.flux_report(torus_criterion_solution.state, bg, params)
    target_b = 2.0 * math.pi * cfg.n
    ok = abs(fb - target_b) / target_b <= 1e-6
    ok &= abs(fa) <= 1e-6 * target_b
    g2, p2, c2, bg2, sol2 = extended_50
    fa2, fb2 = bv.flux_report(sol2.state, bg2, p2)
    ok &= abs(fa2 - 2.0 * math.pi) / (2.0 * math.pi) <= 1e-6
    ok &= abs(fb2 - 6.0 * math.pi) / (6.0 * math.pi) <= 1e-6
    _report(4, "flux quantization", ok,
            f"base (a,b)=({fa:.2e},{fb:.6f}); extended (a,b)=({fa2:.6f},{fb2:.6f})", t0)


def test_criterion_05_cross_method_equivalence(extended_50):
    # budget: <= 2 min
    t0 = time.perf_counter()
    grid = bv.TorusGrid(L20, L20, 128, 128)
    params = bv.PhysicalParams(lam=1.0)
    all_pts = ((0.3 * L20, 0.4 * L20), (0.7 * L20, 0.6 * L20), (0.5 * L20, 0.25 * L20))
    diffs = []
    ok = True
    for n in (1, 2, 3):
        cfg = bv.VortexConfig(phi_zeros=all_pts[:n])
        bg = bv.build_background_torus(cfg, grid, params)
        newton = bv.solve("torus", "base", cfg, grid, params, background=bg)
        fp = bv.continuation_solve(bg, params)
        diff = float(np.max(np.abs(newton.state - fp.state)))
        diffs.append(f"n={n}: {diff:.2e}")
        ok &= newton.converged and fp.converged and diff <= 1e-6
    # the extended model (n=2, m=1, |Omega|=50) through the same map
    _, params, _, bg, newton = extended_50
    fp = bv.continuation_solve(bg, params)
    diff = float(np.max(np.abs(newton.state - fp.state)))
    diffs.append(f"extended n=2, m=1: {diff:.2e}")
    ok &= fp.converged and diff <= 1e-6
    _report(5, "cross-method equivalence", ok, "; ".join(diffs), t0)


def test_criterion_06_uniqueness_probe():
    # budget: <= 2 min
    t0 = time.perf_counter()
    grid_t = bv.TorusGrid(L20, L20, 128, 128)
    params_t = bv.PhysicalParams(lam=1.0)
    cfg_t = bv.VortexConfig(phi_zeros=((0.4 * L20, 0.5 * L20),))
    spread_t = bv.uniqueness_probe("torus", "base", cfg_t, grid_t, params_t, seeds=3)
    sol_t = bv.solve("torus", "base", cfg_t, grid_t, params_t)
    bound_t = 1e-8 * (1.0 + float(np.max(np.abs(sol_t.state))))

    grid_p = bv.PlaneGrid(8.0, 192)
    params_p = bv.PhysicalParams(lam=4.0)
    cfg_p = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
    spread_p = bv.uniqueness_probe("plane", "base", cfg_p, grid_p, params_p, seeds=3)
    sol_p = bv.solve("plane", "base", cfg_p, grid_p, params_p)
    bound_p = 1e-8 * (1.0 + float(np.max(np.abs(sol_p.state))))

    ok = spread_t <= bound_t and spread_p <= bound_p
    _report(6, "uniqueness probe", ok,
            f"torus spread={spread_t:.2e} (<= {bound_t:.1e}); "
            f"plane spread={spread_p:.2e} (<= {bound_p:.1e})", t0)


def test_criterion_07_gradient_hessian_correctness():
    # budget: <= 30 s
    t0 = time.perf_counter()
    eps = 1e-5
    worst_grad = 0.0
    worst_hess = 0.0
    for mode, variant in VARIANTS:
        model = _variant_model(mode, variant)
        for seed in range(10):
            s = random_state(model.grid, seed=seed)
            d = random_state(model.grid, seed=seed + 500)
            ip = model.grid.inner(model.gradient(s), d)
            cd = (model.energy(s + eps * d).total
                  - model.energy(s - eps * d).total) / (2.0 * eps)
            worst_grad = max(worst_grad, abs(cd - ip) / max(abs(ip), abs(cd)))
            hd = model.hessian_apply(s, d)
            fd = (model.gradient(s + eps * d) - model.gradient(s - eps * d)) / (2.0 * eps)
            worst_hess = max(worst_hess,
                             float(np.max(np.abs(fd - hd)) / np.max(np.abs(hd))))
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-4
    _report(7, "gradient/hessian correctness", ok,
            f"worst grad rel={worst_grad:.2e} (<=1e-6), "
            f"worst hess rel={worst_hess:.2e} (<=1e-4)", t0)


def test_criterion_08_convexity():
    # budget: <= 30 s
    t0 = time.perf_counter()
    ok = True
    min_q = math.inf
    for mode, variant in VARIANTS:
        model = _variant_model(mode, variant)
        s = random_state(model.grid, seed=9)
        for seed in range(100):
            d = random_state(model.grid, seed=4000 + seed, amplitude=1.0)
            q = model.grid.inner(d, model.hessian_apply(s, d))
            min_q = min(min_q, q)
            ok &= q > 0.0
        for seed in range(100):
            s1 = random_state(model.grid, seed=5000 + seed)
            s2 = random_state(model.grid, seed=6000 + seed)
            mid = model.energy(0.5 * (s1 + s2)).total
            avg = 0.5 * (model.energy(s1).total + model.energy(s2).total)
            ok &= mid <= avg + 1e-12 * (1.0 + abs(avg))
    _report(8, "convexity", ok, f"min quadratic form={min_q:.3e} (>0)", t0)


def test_criterion_09_decay_rates():
    # budget: <= 3 min
    t0 = time.perf_counter()
    grid = bv.PlaneGrid(12.0, 384)
    params = bv.PhysicalParams(lam=4.0)
    cfg = bv.VortexConfig(phi_zeros=((0.0, 0.0),))
    bg = bv.build_background_plane(cfg, grid, params)
    sol = bv.solve("plane", "base", cfg, grid, params, background=bg)
    rate_f, rate_g, window = bv.decay_fit(sol.state, bg, cfg, params)
    ok = (sol.converged
          and rate_f >= math.sqrt(0.9 * 4.0)
          and abs(rate_f - 4.0) / 4.0 <= 0.15
          and rate_g >= math.sqrt(2.0 * 0.9 * 4.0))
    _report(9, "decay rates", ok,
            f"rate_fields={rate_f:.3f} (>=1.897, within 15% of 4), "
            f"rate_gradients={rate_g:.3f} (>=2.683)", t0)


def test_criterion_10_maximum_principle_bounds(torus_criterion_setup,
                                               torus_criterion_solution):
    # budget: <= 1 min
    t0 = time.perf_counter()
    grid, params, cfg, bg = torus_criterion_setup
    rep_128 = bv.pointwise_bounds(torus_criterion_solution.state, bg)
    grid_256 = bv.TorusGrid(L20, L20, 256, 256)
    bg_256 = bv.build_background_torus(cfg, grid_256, params)
    sol_256 = bv.solve("torus", "base", cfg, grid_256, params, background=bg_256)
    rep_256 = bv.pointwise_bounds(sol_256.state, bg_256)

    def excess(rep):
        return max(rep.max_exp_u_excess, rep.max_exp_v_excess, 0.0)

    ok = (rep_128.max_exp_u_excess <= 0.05 and rep_128.max_exp_v_excess <= 0.05
          and rep_256.max_exp_u_excess <= 0.05 and rep_256.max_exp_v_excess <= 0.05
          and excess(rep_256) <= max(excess(rep_128), 1e-12))
    _report(10, "maximum-principle bounds", ok,
            f"excess 128^2={excess(rep_128):.2e}, 256^2={excess(rep_256):.2e} "
            f"(both <= 0.05, non-increasing)", t0)


def test_criterion_11_lagrange_multipliers(torus_criterion_setup,
                                           torus_criterion_solution, extended_50):
    # budget: <= 5 s
    t0 = time.perf_counter()
    _, params_base, _, bg_base = torus_criterion_setup
    _, params_ext, _, bg_ext, sol_ext = extended_50
    ok, details = True, []
    for name, state, bg, params in (
            ("base", torus_criterion_solution.state, bg_base, params_base),
            ("extended", sol_ext.state, bg_ext, params_ext)):
        l1, l2 = bv.verify_lagrange_multipliers(state, bg, params)
        e1 = abs(l1 / params.lam - 1.0)
        e2 = abs(l2 / (2.0 * params.lam) - 1.0)
        ok &= e1 <= 1e-4 and e2 <= 1e-4
        details.append(f"{name} |l1/lam-1|={e1:.2e}, |l2/(2lam)-1|={e2:.2e}")
    _report(11, "lagrange multiplier recovery", ok, "; ".join(details), t0)


def test_criterion_12_reduction_consistency(torus_criterion_setup):
    # budget: <= 30 s
    t0 = time.perf_counter()
    grid, params, cfg, bg = torus_criterion_setup
    base = bv.solve("torus", "base", cfg, grid, params, background=bg)
    ext = bv.solve("torus", "extended", cfg, grid, params, background=bg)
    diff = float(np.max(np.abs(base.state - ext.state)))
    ok = base.converged and ext.converged and diff <= 1e-10
    _report(12, "reduction consistency (m=0)", ok, f"sup diff={diff:.2e}", t0)


def test_criterion_13_determinism(tmp_path):
    # budget: <= 10 s; rerunning the criterion-3 configuration reproduces
    # every numeric result field and the binary dumps bitwise
    t0 = time.perf_counter()
    raw = {
        "mode": "torus", "model": "base", "lambda": 1.0,
        "domain": {"Lx": L20, "Ly": L20}, "grid": {"nx": 128},
        "phi_zeros": [[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]],
        "output": {"report_path": "r.json", "fields_path": "f.csv"},
    }
    cfg = parse_config(json.dumps(raw))
    payloads = []
    blobs = []
    for sub in ("run1", "run2"):
        code, report = run("solve", cfg, out_dir=str(tmp_path / sub))
        assert code == 0
        payloads.append(json.dumps(report["results"], sort_keys=True))
        blobs.append((tmp_path / sub / "f.bin").read_bytes())
    ok = payloads[0] == payloads[1] and blobs[0] == blobs[1]
    _report(13, "determinism", ok,
            f"results json identical={payloads[0] == payloads[1]}, "
            f"binary dumps identical={blobs[0] == blobs[1]}", t0)
