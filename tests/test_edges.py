import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex import fixedpoint
from bpsvortex.config import parse_config
from bpsvortex.runner import run

L20 = math.sqrt(20.0)


class TestSolverEdges:
    def test_overflowing_initial_state_reported(self):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((1.0, 1.0),))
        init = np.full((2, 32, 32), 900.0)
        sol = bv.solve("torus", "base", cfg, grid, params, init=init)
        assert not sol.converged
        assert "overflow" in sol.message.lower()

    def test_repeated_points_carry_multiplicity(self):
        # doubly repeated zero acts as two vortices: total flux 4*pi
        grid = bv.TorusGrid(L20, L20, 64, 64)
        params = bv.PhysicalParams(lam=1.0)
        p = (0.5 * L20, 0.5 * L20)
        cfg = bv.VortexConfig(phi_zeros=(p, p))
        rep = bv.check_existence(cfg, grid, params)
        assert rep.c1 == pytest.approx(grid.area - 4.0 * math.pi, rel=1e-12)
        bg = bv.build_background_torus(cfg, grid, params)
        sol = bv.solve("torus", "base", cfg, grid, params, background=bg)
        fa, fb = bv.flux_report(sol.state, bg, params)
        assert abs(fb - 4.0 * math.pi) / (4.0 * math.pi) <= 1e-6

    def test_fixedpoint_refinement_exhaustion(self, monkeypatch):
        grid = bv.TorusGrid(L20, L20, 32, 32)
        params = bv.PhysicalParams(lam=1.0)
        cfg = bv.VortexConfig(phi_zeros=((0.5 * L20, 0.5 * L20),))
        bg = bv.build_background_torus(cfg, grid, params)
        # an unreachable stage tolerance and two trials per stage stall
        # every stage, so the refinements run out
        monkeypatch.setattr(fixedpoint, "INNER_TOL", 1e-16)
        monkeypatch.setattr(fixedpoint, "INNER_MAX_TRIALS", 2)
        monkeypatch.setattr(fixedpoint, "MAX_REFINEMENTS", 2)
        sol = bv.continuation_solve(bg, params)
        assert not sol.converged
        assert "exhausted" in sol.message


class TestRunnerEdges:
    def test_sweep_with_solve_action(self, tmp_path):
        raw = {
            "mode": "torus", "model": "base", "lambda": 1.0,
            "domain": {"Lx": L20, "Ly": L20}, "grid": {"nx": 32},
            "phi_zeros": [[0.4 * L20, 0.5 * L20]],
            "sweep": {"param": "lambda", "values": [0.5, 1.0], "action": "solve"},
        }
        cfg = parse_config(json.dumps(raw))
        code, report = run("sweep", cfg, out_dir=str(tmp_path))
        assert code == 0
        rows = report["results"]["rows"]
        assert all(r["solvable"] for r in rows)
        assert all(r["converged"] for r in rows)
        assert all(r["residual_sup"] <= 1e-8 for r in rows)

    def test_plane_solve_emits_radial_profile(self, tmp_path):
        raw = {
            "mode": "plane", "model": "base", "lambda": 4.0,
            "domain": {"R": 8.0}, "grid": {"n": 96},
            "phi_zeros": [[0.0, 0.0]],
            "output": {"report_path": "r.json", "plots_path": "profile.csv"},
        }
        cfg = parse_config(json.dumps(raw))
        code, report = run("solve", cfg, out_dir=str(tmp_path))
        assert code == 0
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert lines[0] == "r,mean_u2v2,mean_grad2"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) >= 8
        # profile decreases over its first half (exponential decay zone)
        vals = [v for _, v, _ in rows]
        assert vals[len(vals) // 2] < vals[0]

    def test_not_converged_exit_3(self, tmp_path):
        raw = {
            "mode": "torus", "model": "base", "lambda": 1.0,
            "domain": {"Lx": L20, "Ly": L20}, "grid": {"nx": 32},
            "phi_zeros": [[0.4 * L20, 0.5 * L20]],
            "solver": {"max_iters": 1},
        }
        cfg = parse_config(json.dumps(raw))
        code, report = run("solve", cfg, out_dir=str(tmp_path))
        assert code == 3
        assert report["results"]["newton"]["converged"] is False
        assert (tmp_path / "report.json").exists()

    def test_plane_check_always_solvable(self, tmp_path):
        raw = {
            "mode": "plane", "model": "base", "lambda": 1.0,
            "domain": {"R": 6.0}, "grid": {"n": 32},
            "phi_zeros": [[0.0, 0.0], [1.0, 1.0], [2.0, -2.0]],
        }
        cfg = parse_config(json.dumps(raw))
        code, report = run("check", cfg, out_dir=str(tmp_path))
        assert code == 0
        assert report["results"]["threshold"]["solvable"] is True
        assert report["results"]["threshold"]["margin"] is None

    def test_extended_solve_through_runner(self, tmp_path):
        side = math.sqrt(50.0)
        raw = {
            "mode": "torus", "model": "extended", "lambda": 1.0,
            "domain": {"Lx": side, "Ly": side}, "grid": {"nx": 64},
            "phi_zeros": [[0.3 * side, 0.4 * side], [0.7 * side, 0.6 * side]],
            "kappa_zeros": [[0.5 * side, 0.25 * side]],
        }
        cfg = parse_config(json.dumps(raw))
        code, report = run("solve", cfg, out_dir=str(tmp_path))
        assert code == 0
        diag = report["results"]["diagnostics"]
        assert abs(diag["flux_a"] - 2.0 * math.pi) / (2.0 * math.pi) <= 1e-6
        assert abs(diag["flux_b"] - 6.0 * math.pi) / (6.0 * math.pi) <= 1e-6
        assert max(diag["constraint_errors"]) <= 1e-6


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "mode": "torus", "model": "base", "lambda": 1.0,
            "domain": {"Lx": L20, "Ly": L20}, "grid": {"nx": 16},
            "phi_zeros": [],
        }))
        # the child imports the same package as this process, installed or not
        src = str(Path(bv.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bpsvortex", "--config", str(cfg_path),
             "--command", "check", "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert json.loads(proc.stdout.splitlines()[-1])["solvable"] is True
