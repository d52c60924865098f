import itertools
import json
import math
import os
import runpy
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex import cli, newton, runner
from bpsvortex.cli import main
from bpsvortex.config import RunConfig, apply_overrides, parse_config, validate_config
from bpsvortex.errors import NonZeroMeanRhs, Overflow, ParseError, ValidationError
from bpsvortex.runner import run

from conftest import count_hessian_applies

L20 = math.sqrt(20.0)
ROOT = Path(__file__).resolve().parents[1]


def sweep_cells(path):
    """The rows of a sweep CSV as dicts from column name to cell text."""
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def workload_sweep(factors=None):
    """The torus-sweep workload's sweep (seed 1) at ``factors`` times its threshold lambda*.

    Its sqrt(50) torus at 96^2 has the coarse level 48^2.  Without
    ``factors`` it is the workload's own configuration.
    """
    raw = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["sweep_config"](1)
    if factors is not None:
        lam_star = raw["sweep"]["values"][0] / 0.9
        raw["sweep"]["values"] = [f * lam_star for f in factors]
    return validate_config(raw)


# the keys of a level record in order; a Newton level's ends with "steps"
RECORD_KEYS = ["shape", "iterations", "converged", "sup_start", "sup_final"]
# a plane solve on three levels: 64, 86, 128
PLANE_THREE_LEVELS = {"mode": "plane", "model": "base", "lambda": 4.0, "domain": {"R": 4.0},
                      "grid": {"n": 128}, "phi_zeros": [[0.5, -0.3], [-1.0, 0.8]]}


def minimal_torus(**kw):
    raw = {
        "mode": "torus",
        "model": "base",
        "lambda": 1.0,
        "domain": {"Lx": L20, "Ly": L20},
        "grid": {"nx": 32},
        "phi_zeros": [],
    }
    raw.update(kw)
    return raw


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(json.dumps(minimal_torus()))
        assert cfg.grid["ny"] == 32
        assert set(cfg.solver) == {"tol", "max_iters"}
        assert cfg.solver["tol"] == 1e-9
        assert cfg.output["report_path"] == "report.json"
        assert set(cfg.echo()) == {"mode", "model", "lambda", "domain", "grid", "phi_zeros",
                                   "kappa_zeros", "solver", "output"}

    def test_malformed_text(self):
        with pytest.raises(ParseError):
            parse_config("{not json")

    def test_negative_lambda_named(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(minimal_torus(**{"lambda": -1.0})))
        assert any(path == "lambda" for path, _ in err.value.problems)

    def test_point_outside_cell_named_with_index(self):
        raw = minimal_torus(phi_zeros=[[1.0, 1.0], [99.0, 0.0]])
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(raw))
        assert any(path == "phi_zeros[1]" for path, _ in err.value.problems)

    def test_unknown_keys_rejected(self):
        raw = minimal_torus(bogus=1)
        raw["solver"] = {"tol": 1e-8, "typo": True}
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(raw))
        paths = [p for p, _ in err.value.problems]
        assert "bogus" in paths
        assert "solver.typo" in paths

    def test_all_violations_enumerated(self):
        raw = minimal_torus(**{"lambda": -1.0}, solver={"tol": 0.0})
        raw["grid"] = {"nx": 33}
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(raw))
        assert len(err.value.problems) >= 3

    def test_kappa_zeros_require_extended(self):
        raw = minimal_torus(kappa_zeros=[[1.0, 1.0]])
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(raw))
        assert any("extended" in msg for _, msg in err.value.problems)

    @pytest.mark.parametrize("seed", [1, 2, 20261017])
    def test_benchmark_workload_configs_validate(self, seed):
        # a schema change that refuses a benchmark configuration fails here,
        # not in the benchmark
        workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
        for workload in workloads["WORKLOADS"].values():
            validate_config(workload.make_config(seed))

    def test_overrides(self):
        raw = minimal_torus()
        apply_overrides(raw, ["solver.tol=1e-10", "grid.nx=64", "model=base"])
        cfg = parse_config(json.dumps(raw))
        assert cfg.solver["tol"] == 1e-10
        assert cfg.grid["nx"] == 64

    @pytest.mark.parametrize("sweep,path", [
        ({"param": "n", "values": [1, 2, 5]}, "sweep.values[2]"),
        ({"param": "n", "values": [1.5]}, "sweep.values[0]"),
        ({"param": "n", "values": [-1]}, "sweep.values[0]"),
        ({"param": "n", "values": [True]}, "sweep.values[0]"),
        ({"param": "lambda", "values": [1.0], "param2": "m", "values2": [1]},
         "sweep.values2[0]"),
    ])
    def test_sweep_counts_beyond_configured_points_rejected(self, sweep, path):
        # a row labelled n=5 on a two-point config would report the n=2 margin
        raw = minimal_torus(phi_zeros=[[1.0, 1.0], [2.0, 2.0]], sweep=sweep)
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(raw))
        assert path in [p for p, _ in exc.value.problems]

    @pytest.mark.parametrize("mode,sweep,path", [
        ("torus", {"param": "lambda", "values": [1.0, -2.0]}, "sweep.values[1]"),
        ("torus", {"param": "lambda", "values": ["1"]}, "sweep.values[0]"),
        ("torus", {"param": "resolution", "values": [32, None]}, "sweep.values[1]"),
        ("torus", {"param": "resolution", "values": [32, 33]}, "sweep.values[1]"),
        ("torus", {"param": "resolution", "values": [6]}, "sweep.values[0]"),
        ("plane", {"param": "resolution", "values": [32, 12]}, "sweep.values[1]"),
        ("plane", {"param": "resolution", "values": [32.5]}, "sweep.values[0]"),
        ("torus", {"param": "n", "values": [1], "param2": "lambda", "values2": [1.0, 0]},
         "sweep.values2[1]"),
        # m above the configured kappa zeros
        ("torus", {"param": "m", "values": [0, 1]}, "sweep.values[1]"),
        # an inner axis without its field would be dropped from every row
        ("torus", {"param": "lambda", "values": [1.0, 2.0], "values2": [5, 6]},
         "sweep.values2"),
    ])
    def test_sweep_values_follow_their_field_rule(self, mode, sweep, path):
        raw = minimal_torus(phi_zeros=[[1.0, 1.0]], sweep=sweep)
        if mode == "plane":
            raw.update(mode="plane", domain={"R": 4.0}, grid={"n": 32})
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(raw))
        assert [p for p, _ in exc.value.problems] == [path]

    def test_sweep_values_within_field_rules_accepted(self):
        for sweep in ({"param": "lambda", "values": [0.5, 2]},
                      {"param": "resolution", "values": [8, 64.0],
                       "param2": "lambda", "values2": [0.5, 2]}):
            raw = minimal_torus(sweep=sweep)
            assert parse_config(json.dumps(raw)).sweep["values"] == sweep["values"]

    @pytest.mark.parametrize("param,values,values2", [
        ("lambda", [1.0, 2.0], [3.0]),
        ("n", [0, 1], [2]),
        ("m", [0], [1]),
        ("resolution", [16], [32]),
    ])
    def test_sweep_param2_equal_to_param_refused(self, tmp_path, capsys, param, values,
                                                 values2):
        # the inner axis would overwrite the outer one: every row the same label
        raw = minimal_torus(model="extended", phi_zeros=[[1.0, 1.0], [2.0, 2.0]],
                            kappa_zeros=[[3.0, 3.0]],
                            sweep={"param": param, "values": values,
                                   "param2": param, "values2": values2})
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(raw))
        assert [p for p, _ in exc.value.problems] == ["sweep.param2"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "sweep",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "sweep.param2: must differ from sweep.param" in err and "Traceback" not in err

    def test_sweep_counts_within_configured_points_accepted(self):
        raw = minimal_torus(phi_zeros=[[1.0, 1.0], [2.0, 2.0]],
                            sweep={"param": "n", "values": [0, 1, 2.0]})
        assert parse_config(json.dumps(raw)).sweep["values"] == [0, 1, 2.0]

    def test_config_hash_ignores_output_paths(self):
        a = parse_config(json.dumps(minimal_torus()))
        raw = minimal_torus()
        raw["output"] = {"report_path": "elsewhere.json"}
        b = parse_config(json.dumps(raw))
        assert a.config_hash() == b.config_hash()


class TestRunCommands:
    def test_check_boundary_case_exit_2(self, tmp_path):
        side = math.sqrt(2.0 * math.pi)
        raw = {
            "mode": "torus", "model": "base", "lambda": 1.0,
            "domain": {"Lx": side, "Ly": side}, "grid": {"nx": 16},
            "phi_zeros": [[1.0, 1.0]],
        }
        cfg = parse_config(json.dumps(raw))
        code, report = run("check", cfg, out_dir=str(tmp_path))
        assert code == 2
        assert report["results"]["threshold"]["solvable"] is False
        assert abs(report["results"]["threshold"]["margin"]) < 1e-12
        assert (tmp_path / "report.json").exists()

    def test_solve_empty_config_trivial(self, tmp_path):
        cfg = parse_config(json.dumps(minimal_torus()))
        code, report = run("solve", cfg, out_dir=str(tmp_path))
        assert code == 0
        diag = report["results"]["diagnostics"]
        assert max(diag["residual_sup"]) < 1e-12
        assert abs(diag["flux_b"]) < 1e-10
        assert report["results"]["newton"]["converged"]

    def test_solve_unsolvable_exit_2_report_written(self, tmp_path):
        side = math.sqrt(2.0 * math.pi)
        raw = {
            "mode": "torus", "model": "base", "lambda": 1.0,
            "domain": {"Lx": side, "Ly": side}, "grid": {"nx": 16},
            "phi_zeros": [[1.0, 1.0]],
        }
        cfg = parse_config(json.dumps(raw))
        code, report = run("solve", cfg, out_dir=str(tmp_path))
        assert code == 2
        assert (tmp_path / "report.json").exists()

    def test_diagnostics_and_output_are_timed(self, tmp_path):
        raw = {"mode": "plane", "model": "base", "lambda": 1.0, "domain": {"R": 6.0},
               "grid": {"n": 32}, "phi_zeros": [[0.5, 0.0]],
               "output": {"report_path": "r.json", "fields_path": "fields"}}
        code, report = run("solve", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 0 and (tmp_path / "fields.bin").exists()
        for key in ("diagnostics_s", "output_s"):
            assert report["timings"][key] >= 0.0
            assert key not in report["results"]

    def test_compare_reports_cross_method_difference(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]])
        raw["grid"] = {"nx": 64}
        cfg = parse_config(json.dumps(raw))
        code, report = run("compare", cfg, out_dir=str(tmp_path))
        assert code == 0
        assert report["results"]["cross_method_sup_diff"] <= 1e-6

    @pytest.mark.parametrize("lam", [8.0, 10.0, 20.0, 30.0])
    def test_compare_converges_at_large_lambda(self, tmp_path, lam):
        # the residual-safeguarded fixed point stalled here from lambda = 8 on
        raw = minimal_torus(phi_zeros=[[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]],
                            grid={"nx": 128}, **{"lambda": lam})
        code, report = run("compare", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 0, report["results"]["fixedpoint"]["message"]
        assert report["results"]["cross_method_sup_diff"] <= 1e-6

    def test_compare_reports_fixedpoint_omega(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]])
        cfg = parse_config(json.dumps(raw))
        code, report = run("compare", cfg, out_dir=str(tmp_path))
        assert code == 0
        fixed = report["results"]["fixedpoint"]
        assert set(fixed) == {"converged", "trials", "residual_final", "omega", "message",
                              "levels"}
        side = max(raw["domain"]["Lx"], raw["domain"]["Ly"])
        assert fixed["omega"] == pytest.approx(
            1.0 / (1.0 + 4.0 * raw["lambda"] * side ** 2 / (4.0 * math.pi ** 2)), rel=1e-14)
        assert "omega" not in report["results"]["newton"]
        again = run("compare", cfg, out_dir=str(tmp_path))[1]
        assert json.dumps(again["results"]) == json.dumps(report["results"])

    @pytest.mark.parametrize("nx,coarse", [(32, None), (128, [64, 64])])
    def test_compare_reports_both_coarse_levels(self, tmp_path, nx, coarse):
        # at the cell's core scale a 32^2 torus has no coarse level, a 128^2 one 64^2
        raw = minimal_torus(phi_zeros=[[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]],
                            grid={"nx": nx})
        code, report = run("compare", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 0
        res, timings = report["results"], report["timings"]
        assert res["cross_method_sup_diff"] <= 1e-9
        for method, work, final, keys in (
                ("newton", "iterations", "grad_sup_final", RECORD_KEYS + ["steps"]),
                ("fixedpoint", "trials", "residual_final", RECORD_KEYS)):
            summary = res[method]
            levels = summary["levels"]
            assert [list(record) for record in levels] == [keys] * len(levels)
            # the fine level is the last record, and the top-level keys are its
            fine = levels[-1]
            assert fine["shape"] == [nx, nx]
            assert [fine["converged"], fine["iterations"], fine["sup_final"]] == \
                [summary["converged"], summary[work], summary[final]]
            if coarse is None:
                assert len(levels) == 1 and f"{method}_coarse_s" not in timings
                continue
            assert len(levels) == 2
            assert levels[0]["shape"] == coarse and levels[0]["converged"]
            assert levels[0]["iterations"] > 0
            assert 0.0 < timings[f"{method}_coarse_s"] <= timings[f"{method}_s"]

    def test_plane_solve_reports_its_resolving_level(self, tmp_path):
        # R = 4, n = 128: the 64-node coarsest solution is not resolved, so
        # the solve goes through the resolving level 86, whose record sits
        # between the coarsest level's and the fine level's
        code, report = run("solve", parse_config(json.dumps(PLANE_THREE_LEVELS)),
                           out_dir=str(tmp_path))
        assert code == 0
        summary = report["results"]["newton"]
        levels = summary["levels"]
        assert [list(record) for record in levels] == [RECORD_KEYS + ["steps"]] * 3
        assert [record["shape"] for record in levels] == [[64, 64], [86, 86], [128, 128]]
        assert levels[0]["converged"] and levels[0]["iterations"] > 0
        assert 0.0 < levels[-1]["sup_start"] <= 1e-5
        assert levels[1].items() >= {"shape": [86, 86], "iterations": 1,
                                     "converged": True}.items()
        assert [levels[-1]["converged"], levels[-1]["iterations"], levels[-1]["sup_final"]] \
            == [summary["converged"], summary["iterations"], summary["grad_sup_final"]]
        assert all(len(record["steps"]) == record["iterations"] for record in levels)
        assert 0.0 < report["timings"]["newton_coarse_s"] <= report["timings"]["newton_s"]

    def test_fixedpoint_levels_count_every_map_application(self, tmp_path, monkeypatch):
        # 22 of the 23 map applications run on the 64^2 level, which the
        # fine level's count alone leaves out
        applies = []
        apply_T = bv.fixedpoint.apply_T

        def counted(*args, **kwargs):
            applies.append(args[2].grid.shape)
            return apply_T(*args, **kwargs)

        monkeypatch.setattr(bv.fixedpoint, "apply_T", counted)
        raw = minimal_torus(phi_zeros=[[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]],
                            grid={"nx": 128})
        code, report = run("compare", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 0
        levels = report["results"]["fixedpoint"]["levels"]
        assert len(levels) == 2
        assert len(applies) == sum(record["iterations"] for record in levels)
        for record in levels:
            assert applies.count(tuple(record["shape"])) == record["iterations"]

    def test_newton_levels_list_every_cg_solve(self, tmp_path, monkeypatch):
        # one CG solve per Newton step, on every level of the three
        calls = []
        pcg = newton._pcg

        def counted(*args, **kwargs):
            calls.append(1)
            return pcg(*args, **kwargs)

        monkeypatch.setattr(newton, "_pcg", counted)
        code, report = run("solve", parse_config(json.dumps(PLANE_THREE_LEVELS)),
                           out_dir=str(tmp_path))
        assert code == 0
        levels = report["results"]["newton"]["levels"]
        assert len(levels) == 3
        assert len(calls) == sum(len(record["steps"]) for record in levels) > 0

    def test_compare_builds_its_coarse_background_once(self, tmp_path, monkeypatch):
        # both solvers share the 64^2 background, and their results are those
        # of solvers that each build their own
        builds = []
        for module in (runner, newton):
            def counted(*args, _build=module.build_background, **kwargs):
                builds.append(args[1].shape)
                return _build(*args, **kwargs)

            monkeypatch.setattr(module, "build_background", counted)
        raw = minimal_torus(phi_zeros=[[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]],
                            grid={"nx": 128})
        cfg = parse_config(json.dumps(raw))
        code, report = run("compare", cfg, out_dir=str(tmp_path))
        monkeypatch.undo()
        assert code == 0
        assert sorted(builds) == [(64, 64), (128, 128)]
        vcfg, grid, params = cfg.make_vortex_config(), cfg.make_grid(), cfg.make_params()
        bg = bv.build_background(vcfg, grid, params)
        alone = bv.solve("torus", "base", vcfg, grid, params,
                         settings=bv.SolverSettings(tol_grad_sup=cfg.solver["tol"]),
                         background=bg)
        fixed = bv.continuation_solve(bg, params)
        res = report["results"]
        assert res["newton"]["levels"] == runner._newton_summary(alone)["levels"]
        assert res["newton"]["grad_sup_final"] == alone.grad_history[-1]
        assert res["fixedpoint"]["levels"] == runner._fixedpoint_summary(fixed)["levels"]
        assert res["cross_method_sup_diff"] == float(np.max(np.abs(alone.state - fixed.state)))

    @pytest.mark.parametrize("mode", ["torus", "plane"])
    def test_field_dump_bytes_match_node_by_node_writer(self, tmp_path, mode):
        if mode == "torus":
            grid = bv.TorusGrid(3.0, 2.0, 12, 10)
            vcfg = bv.VortexConfig(phi_zeros=((1.0, 1.0),))
        else:
            grid = bv.PlaneGrid(3.0, 17)
            vcfg = bv.VortexConfig(phi_zeros=((0.5, -0.25),))
        params = bv.PhysicalParams(lam=2.0)
        bg = bv.build_background(vcfg, grid, params)
        rng = np.random.default_rng(3)
        state = 0.1 * rng.standard_normal((2,) + grid.shape)
        bv.dump_fields(state, bg, params, "f.csv", "hash", tmp_path)

        phys = bv.reconstruct_physical(state, bg, params)
        columns = [bg.u0 + state[0], bg.v0 + state[1] - state[0], phys.kappa,
                   phys.phi_abs, phys.a12, phys.b12]
        blob = b"".join(np.ascontiguousarray(c, dtype="<f8").tobytes() for c in columns)
        assert (tmp_path / "f.bin").read_bytes() == blob
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "f.meta.json"]

    def test_field_dump_names_strip_one_suffix(self, tmp_path):
        grid = bv.TorusGrid(3.0, 2.0, 12, 10)
        params = bv.PhysicalParams(lam=2.0)
        bg = bv.build_background(bv.VortexConfig(phi_zeros=((1.0, 1.0),)), grid, params)
        state = np.zeros((2,) + grid.shape)
        for path_text, config_hash in (("run.a.csv", "a"), ("run.b.csv", "b")):
            bv.dump_fields(state, bg, params, path_text, config_hash, tmp_path / "two")
        assert sorted(p.name for p in (tmp_path / "two").iterdir()) == [
            "run.a.bin", "run.a.meta.json", "run.b.bin", "run.b.meta.json"]
        for name in ("a", "b"):
            meta = json.loads((tmp_path / "two" / f"run.{name}.meta.json").read_text())
            assert meta["config_hash"] == name
        for path_text in ("fields", "fields.csv"):
            out = tmp_path / path_text.replace(".", "-")
            bv.dump_fields(state, bg, params, path_text, "hash", out)
            assert sorted(p.name for p in out.iterdir()) == ["fields.bin", "fields.meta.json"]

    def test_field_dumps_round_trip_bitwise(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]])
        raw["output"] = {"report_path": "r.json", "fields_path": "fields.csv"}
        cfg = parse_config(json.dumps(raw))
        code, report = run("solve", cfg, out_dir=str(tmp_path))
        assert code == 0
        meta = json.loads((tmp_path / "fields.meta.json").read_text())
        assert meta["fields"] == ["u", "v", "kappa", "phi_abs", "a12", "b12"]
        assert meta["shape"] == [32, 32]
        assert meta["grid"] == {"mode": "torus", "Lx": L20, "Ly": L20, "nx": 32, "ny": 32}
        assert not (tmp_path / "fields.csv").exists()
        blob = (tmp_path / "fields.bin").read_bytes()
        arr = np.frombuffer(blob, dtype="<f8").reshape(
            len(meta["fields"]), *meta["shape"])
        grid = cfg.make_grid()
        params = cfg.make_params()
        vcfg = cfg.make_vortex_config()
        bg = bv.build_background(vcfg, grid, params)
        sol = bv.solve("torus", "base", vcfg, grid, params, background=bg)
        phys = bv.reconstruct_physical(sol.state, bg, params)
        k = meta["fields"].index("kappa")
        assert arr[k].tobytes() == np.ascontiguousarray(phys.kappa, "<f8").tobytes()

    def test_empty_config_dump_zero_columns(self, tmp_path):
        raw = minimal_torus()
        raw["output"] = {"report_path": "r.json", "fields_path": "f.csv"}
        cfg = parse_config(json.dumps(raw))
        run("solve", cfg, out_dir=str(tmp_path))
        arr = np.fromfile(tmp_path / "f.bin", dtype="<f8").reshape(6, 32, 32)
        assert np.all(arr[0] == 0.0)  # u
        assert np.all(arr[1] == 0.0)  # v

    def test_sweep_classification_matches_margin_sign(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]])
        lam_star = 4.0 * math.pi / 20.0
        raw["sweep"] = {"param": "lambda",
                        "values": [f * lam_star for f in (0.8, 1.0, 1.2)],
                        "action": "check"}
        raw["output"] = {"report_path": "r.json", "plots_path": "sweep.csv"}
        cfg = parse_config(json.dumps(raw))
        code, report = run("sweep", cfg, out_dir=str(tmp_path))
        rows = report["results"]["rows"]
        # classification matches the analytic predicate evaluated on the
        # same floating-point lambda and cell area the config carries
        area = L20 * L20
        expected = [lam * area > 4.0 * math.pi for lam in raw["sweep"]["values"]]
        assert [r["solvable"] for r in rows] == expected
        for r in rows:
            assert r["solvable"] == (r["margin"] > 0.0)
            assert r["solvable"] == (r["analytic_slack"] > 0.0)
        cells = sweep_cells(tmp_path / "sweep.csv")
        assert len(cells) == len(rows)
        for row, got in zip(rows, cells):
            assert set(got) == set(row)
            for key in ("lambda", "margin", "analytic_slack"):
                assert float(got[key]).hex() == row[key].hex()

    def test_plane_sweep_csv_leaves_missing_values_empty(self, tmp_path):
        raw = {"mode": "plane", "model": "base", "lambda": 1.0, "domain": {"R": 6.0},
               "grid": {"n": 32}, "phi_zeros": [[0.5, 0.0]],
               "sweep": {"param": "lambda", "values": [0.5, 1.0], "action": "solve"},
               "output": {"report_path": "r.json", "plots_path": "sweep.csv"}}
        code, report = run("sweep", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 0
        rows = report["results"]["rows"]
        cells = sweep_cells(tmp_path / "sweep.csv")
        assert len(cells) == len(rows) == 2
        for row, got in zip(rows, cells):
            assert row["margin"] is None and row["analytic_slack"] is None
            assert got["margin"] == got["analytic_slack"] == ""
            assert got["converged"] == "True"
            for key in ("lambda", "grad_sup_final", "residual_sup"):
                assert float(got[key]).hex() == row[key].hex()

    def test_sweep_row_not_converged_exit_3(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]],
                            solver={"max_iters": 1},
                            sweep={"param": "lambda", "values": [1.0, 2.0], "action": "solve"})
        code, report = run("sweep", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 3
        for row in report["results"]["rows"]:
            assert row["solvable"] and row["converged"] is False
            assert "residual_sup" not in row

    def test_compare_fixed_point_at_max_applies_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bv.fixedpoint, "MAX_APPLIES", 3)
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]],
                            output={"report_path": "r.json"})
        code, report = run("compare", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 3
        written = json.loads((tmp_path / "r.json").read_text())
        assert written["exit_code"] == 3
        results = written["results"]
        assert results["newton"]["converged"] is True
        fixed = results["fixedpoint"]
        assert fixed["converged"] is False and fixed["trials"] == 3
        assert "MAX_APPLIES = 3" in fixed["message"]

    def test_two_parameter_sweep(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        raw["sweep"] = {"param": "lambda", "values": [0.5, 2.0],
                        "param2": "n", "values2": [1, 3]}
        cfg = parse_config(json.dumps(raw))
        code, report = run("sweep", cfg, out_dir=str(tmp_path))
        assert len(report["results"]["rows"]) == 4
        assert [r["index"] for r in report["results"]["rows"]] == [0, 1, 2, 3]

    def test_determinism_bitwise(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]])
        raw["grid"] = {"nx": 64}
        raw["output"] = {"report_path": "r.json", "fields_path": "f.csv"}
        cfg = parse_config(json.dumps(raw))
        reports = []
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code, report = run("solve", cfg, out_dir=str(out))
            assert code == 0
            reports.append(json.dumps(report["results"], sort_keys=True))
            blobs.append((out / "f.bin").read_bytes())
        assert reports[0] == reports[1]
        assert blobs[0] == blobs[1]


class TestSweepPoints:
    """A sweep row equals a standalone run of the config written out for its point."""

    EXTENDED = minimal_torus(model="extended", grid={"nx": 16}, **{"lambda": 2.0},
                             phi_zeros=[[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]],
                             kappa_zeros=[[0.5 * L20, 0.2 * L20]])
    PLANE = {"mode": "plane", "model": "base", "lambda": 1.0, "domain": {"R": 6.0},
             "grid": {"n": 32}, "phi_zeros": [[0.5, 0.0]]}

    @staticmethod
    def point_raw(base, assignment):
        raw = json.loads(json.dumps(base))
        for param, value in assignment.items():
            if param == "lambda":
                raw["lambda"] = value
            elif param == "n":
                raw["phi_zeros"] = base["phi_zeros"][:value]
            elif param == "m":
                raw["kappa_zeros"] = base["kappa_zeros"][:value]
            elif raw["mode"] == "torus":
                raw["grid"] = {"nx": value}
            else:
                raw["grid"] = {"n": value}
        return raw

    @pytest.mark.parametrize("base,sweep", [
        # the first row is unsolvable
        (EXTENDED, {"param": "lambda", "values": [0.5, 2], "action": "solve"}),
        (EXTENDED, {"param": "n", "values": [0, 1, 2], "action": "solve"}),
        (EXTENDED, {"param": "m", "values": [0, 1], "action": "solve"}),
        (EXTENDED, {"param": "resolution", "values": [12, 16], "action": "solve"}),
        (PLANE, {"param": "resolution", "values": [16, 24], "action": "check"}),
        # param is the outer loop; lambda 0.5 is below the threshold
        (EXTENDED, {"param": "resolution", "values": [12, 16],
                    "param2": "lambda", "values2": [0.5, 2], "action": "solve"}),
    ], ids=["lambda", "n", "m", "resolution", "plane-resolution",
            "resolution-lambda"])
    def test_rows_match_standalone_runs_bitwise(self, tmp_path, base, sweep):
        action = sweep["action"]
        axes = [[(sweep[param], v) for v in sweep[values]]
                for param, values in (("param", "values"), ("param2", "values2"))
                if param in sweep]
        points = [dict(combo) for combo in itertools.product(*axes)]
        raw = dict(base, sweep=sweep)
        _, report = run("sweep", validate_config(raw), out_dir=str(tmp_path / "sweep"))
        rows = report["results"]["rows"]
        assert len(rows) == len(points)
        for row, assignment in zip(rows, points):
            pcfg = validate_config(self.point_raw(base, assignment))
            _, alone = run(action, pcfg, out_dir=str(tmp_path / f"point{row['index']}"))
            res = alone["results"]
            grid, params, vcfg = pcfg.make_grid(), pcfg.make_params(), pcfg.make_vortex_config()
            expected = {
                "solvable": res["threshold"]["solvable"],
                "margin": res["threshold"]["margin"],
                "analytic_slack": (runner._analytic_slack(vcfg, grid, params)
                                   if pcfg.mode == "torus" else None),
            }
            if action == "solve" and expected["solvable"]:
                # no row continues a path: each lambda list starts below the
                # threshold, and every other param changes the background
                expected["start_row"] = expected["secant_row"] = None
                expected["levels"] = res["newton"]["levels"]
                expected["converged"] = res["newton"]["converged"]
                expected["iterations"] = res["newton"]["iterations"]
                expected["grad_sup_final"] = res["newton"]["grad_sup_final"]
                expected["residual_sup"] = max(res["diagnostics"]["residual_sup"])
            got = {key: row[key] for key in expected}
            assert {key: row[key] for key in assignment} == assignment
            assert set(row) - {"index", *assignment} == set(expected)
            # repr tells -0.0 from 0.0 and round-trips every float exactly
            assert repr(got) == repr(expected), assignment

    def test_sweep_row_builds_its_background_once(self, tmp_path, monkeypatch):
        # a lambda sweep is one path: its first solved row builds the
        # background on its own grid, and the others reuse it
        calls = []
        for module in (runner, newton):
            def counted(*args, _build=module.build_background, **kwargs):
                calls.append(args)
                return _build(*args, **kwargs)

            monkeypatch.setattr(module, "build_background", counted)
        grids = []

        def counted_grid(self, _make=RunConfig.make_grid):
            grids.append(_make(self))
            return grids[-1]

        monkeypatch.setattr(RunConfig, "make_grid", counted_grid)
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]],
                            sweep={"param": "lambda", "values": [0.2, 1.0, 2.0],
                                   "action": "solve"})
        code, report = run("sweep", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 0
        assert [row["solvable"] for row in report["results"]["rows"]] == [False, True, True]
        assert len(calls) == 1
        # row 0 is below the threshold; row 1 is the first solved row
        assert calls[0][1] is grids[1]


class TestSweepContinuation:
    """Rows with one background form a path; each starts from its last converged rows."""

    EXTENDED = TestSweepPoints.EXTENDED
    # the threshold of EXTENDED is lambda = 6 pi / 20 = 0.94
    LAMBDAS = [0.5, 1.5, 2.0, 3.0, 4.0]

    @staticmethod
    def capture_solves(monkeypatch, max_iters_at=None):
        """Record ``(lambda, init, state)`` of every runner solve.

        The solve at lambda ``max_iters_at`` gets ``max_iters`` 1.
        """
        solves = []

        def recorded(*args, _solve=runner.solve, **kwargs):
            params = args[4]
            if params.lam == max_iters_at:
                kwargs["settings"] = bv.SolverSettings(
                    tol_grad_sup=kwargs["settings"].tol_grad_sup, max_iters=1)
            sol = _solve(*args, **kwargs)
            # a copy: the sweep builds a later row's secant start in this storage
            solves.append((params.lam, kwargs.get("init"), sol.state.copy()))
            return sol

        monkeypatch.setattr(runner, "solve", recorded)
        return solves

    def run_sweep(self, tmp_path, sweep, **kw):
        raw = dict(self.EXTENDED, sweep=sweep, output={"plots_path": "sweep.csv"}, **kw)
        cfg = validate_config(raw)
        code, report = run("sweep", cfg, out_dir=str(tmp_path))
        return cfg, code, report["results"]["rows"]

    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
    def test_warm_rows_match_cold_solves(self, tmp_path, monkeypatch, order):
        solves = self.capture_solves(monkeypatch)
        values = self.LAMBDAS[::order]
        cfg, code, rows = self.run_sweep(
            tmp_path, {"param": "lambda", "values": values, "action": "solve"})
        assert code == 0
        solved = [row for row in rows if row["solvable"]]
        assert [row["lambda"] for row in solved] == [v for v in values if v > 1.0]
        assert [lam for lam, _, _ in solves] == [row["lambda"] for row in solved]
        previous = older = None
        for row, (_, init, state) in zip(solved, solves):
            assert row["converged"]
            assert row["start_row"] == previous
            assert row["secant_row"] == older
            assert (init is None) == (previous is None)
            previous, older = row["index"], previous
            pcfg = cfg.sweep_points[row["index"]][1]
            cold = bv.solve(pcfg.mode, pcfg.model, pcfg.make_vortex_config(),
                            pcfg.make_grid(), pcfg.make_params(),
                            settings=bv.SolverSettings(tol_grad_sup=pcfg.solver["tol"]))
            assert cold.converged
            assert np.max(np.abs(state - cold.state)) <= 1e-8
        cells = sweep_cells(tmp_path / "sweep.csv")
        for key in ("start_row", "secant_row"):
            assert [cell[key] for cell in cells] == [
                "" if row.get(key) is None else str(row[key]) for row in rows]

    def test_reruns_bitwise(self, tmp_path):
        sweep = {"param": "lambda", "values": self.LAMBDAS, "action": "solve"}
        runs = [self.run_sweep(tmp_path / sub, sweep)[2] for sub in ("a", "b")]
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(runs[1], sort_keys=True)
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
            (tmp_path / "b" / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("failing,start_rows,secant_rows", [
        # the first solved row fails: the next starts from zero
        (1.5, [None, None, 2, 3], [None, None, None, 2]),
        # a failing row in the middle: the next starts from a copy of the row
        # before it, and the secant resumes once two rows have converged
        (2.0, [None, 1, 1, 3], [None, None, None, 1]),
        # a failing secant row spent the older state: the next copies the newest
        (3.0, [None, 1, 2, 2], [None, None, 1, None]),
    ], ids=["first", "middle", "secant"])
    def test_unconverged_row_seeds_nothing(self, tmp_path, monkeypatch, failing, start_rows,
                                           secant_rows):
        solves = self.capture_solves(monkeypatch, max_iters_at=failing)
        _, code, rows = self.run_sweep(
            tmp_path, {"param": "lambda", "values": self.LAMBDAS, "action": "solve"})
        assert code == 3
        solved = rows[1:]
        assert [row["converged"] for row in solved] == [row["lambda"] != failing
                                                        for row in solved]
        assert [row["start_row"] for row in solved] == start_rows
        assert [row["secant_row"] for row in solved] == secant_rows
        assert [init is None for _, init, _ in solves] == [s is None for s in start_rows]

    def test_repeated_lambda_starts_from_a_copy(self, tmp_path, monkeypatch):
        # two converged rows at one lambda give no secant (and no division
        # by lambda2 - lambda1): the next row copies the newest state
        solves = self.capture_solves(monkeypatch)
        _, code, rows = self.run_sweep(
            tmp_path, {"param": "lambda", "values": [1.5, 1.5, 2.0], "action": "solve"})
        assert code == 0
        assert [row["start_row"] for row in rows] == [None, 0, 1]
        assert [row["secant_row"] for row in rows] == [None, None, None]
        assert [init is None for _, init, _ in solves] == [True, False, False]

    def test_secant_step_is_clamped(self, tmp_path, monkeypatch):
        # on the torus-sweep workload's torus at [1.1, 1.2, 1.3, 10] lambda*,
        # the last row's secant ratio is 87.  Every warm row continues on the
        # 48^2 coarse level: unclamped the sweep took 120 Hessian applies (113
        # of them at 48^2), the copy start 68, the clamp (r = 1) 70
        cfg = workload_sweep((1.1, 1.2, 1.3, 10.0))
        applies = count_hessian_applies(monkeypatch)
        counts, secant_rows = {}, {}
        for start in ("secant", "copy"):
            if start == "copy":
                # the newest converged row alone: a copy start on every row
                path_start = runner._path_start
                monkeypatch.setattr(runner, "_path_start",
                                    lambda path, lam: path_start(path[-1:], lam))
            applies[0] = 0
            code, report = run("sweep", cfg, out_dir=str(tmp_path / start))
            assert code == 0
            rows = report["results"]["rows"]
            assert all(row["converged"] for row in rows)
            counts[start] = applies[0]
            secant_rows[start] = [row["secant_row"] for row in rows]
        assert secant_rows == {"secant": [None, None, 0, 1], "copy": [None] * 4}
        assert counts["secant"] <= 1.1 * counts["copy"]

    @pytest.mark.parametrize("sweep", [
        {"param": "resolution", "values": [12, 16]},
        {"param": "n", "values": [0, 1, 2]},
        {"param": "m", "values": [0, 1]},
    ], ids=["resolution", "n", "m"])
    def test_background_changes_start_cold(self, tmp_path, monkeypatch, sweep):
        calls = []

        def counted(*args, _build=runner.build_background, **kwargs):
            calls.append(args)
            return _build(*args, **kwargs)

        monkeypatch.setattr(runner, "build_background", counted)
        _, code, rows = self.run_sweep(tmp_path, dict(sweep, action="solve"))
        assert code == 0
        assert all(row["solvable"] and row["converged"] for row in rows)
        assert len(calls) == len(rows)
        assert [row["start_row"] for row in rows] == [None] * len(rows)


class TestCoarsePath:
    """A warm sweep row continues its path on the coarse level and carries the fine correction."""

    # a cold row goes through the resolving level 64^2 too
    FINE, COARSE, RESOLVING = (96, 96), (48, 48), (64, 64)

    @classmethod
    def record(cls, monkeypatch, fail_coarse=()):
        """One dict per Newton solve of the sweep, from its solve and minimize calls.

        ``init`` and ``predictor``: the fine and coarse predictors handed in
        (None for a cold row); ``coarse_init``: the coarse level's start
        (absent without a coarse solve); ``coarse_solution``: the coarse
        solution's coefficients; ``resolving_solution``: those of the
        resolving level (absent without it); ``first``: the first fine
        state the energy is evaluated at; ``state``, ``modes``,
        ``iterations`` and ``coarse_modes``: the fine solution.  The coarse
        solve of the solves numbered in ``fail_coarse`` fails.
        """
        solves = []
        solve, minimize, energy = runner.solve, newton.minimize, bv.EnergyModel.energy

        def recorded_solve(*args, init=None, coarse_init=None, **kwargs):
            solves.append({"init": None if init is None else init.copy(),
                           "predictor": None if coarse_init is None else coarse_init.copy()})
            sol = solve(*args, init=init, coarse_init=coarse_init, **kwargs)
            solves[-1].update(state=sol.state.copy(), modes=sol.modes.copy(),
                              iterations=sol.iterations, coarse_modes=sol.coarse_modes.copy())
            return sol

        def recorded(model, settings, init=None, **kwargs):
            if model.grid.shape == cls.FINE:
                return minimize(model, settings, init=init, **kwargs)
            if model.grid.shape == cls.RESOLVING:
                sol = minimize(model, settings, init=init, **kwargs)
                solves[-1]["resolving_solution"] = sol.modes.copy()
                return sol
            solves[-1]["coarse_init"] = None if init is None else np.array(init)
            if len(solves) - 1 in fail_coarse:
                return newton.Solution(np.full((2,) + cls.COARSE, np.nan), 3, [1.0], [0.0],
                                       False, "stalled")
            sol = minimize(model, settings, init=init, **kwargs)
            if sol.converged:
                solves[-1]["coarse_solution"] = sol.modes.copy()
            return sol

        def first_energy(self, state, dirichlet):
            if self.grid.shape == cls.FINE:
                solves[-1].setdefault("first", state.copy())
            return energy(self, state, dirichlet)

        monkeypatch.setattr(runner, "solve", recorded_solve)
        monkeypatch.setattr(newton, "minimize", recorded)
        monkeypatch.setattr(bv.EnergyModel, "energy", first_energy)
        return solves

    @classmethod
    def levels(cls, cfg):
        grid = cfg.sweep_points[1][1].make_grid()
        coarse = grid.coarsest(bv.backgrounds.core_scale(grid))
        assert grid.shape == cls.FINE and coarse.shape == cls.COARSE
        return grid, coarse

    @staticmethod
    def cold_state(cfg, row):
        pcfg = cfg.sweep_points[row["index"]][1]
        cold = bv.solve(pcfg.mode, pcfg.model, pcfg.make_vortex_config(), pcfg.make_grid(),
                        pcfg.make_params(),
                        settings=bv.SolverSettings(tol_grad_sup=pcfg.solver["tol"]))
        assert cold.converged
        return cold.state

    def run_recorded(self, tmp_path, monkeypatch, factors, fail_coarse=()):
        cfg = workload_sweep(factors)
        solves = self.record(monkeypatch, fail_coarse)
        code, report = run("sweep", cfg, out_dir=str(tmp_path))
        monkeypatch.undo()
        assert code == 0
        rows = [row for row in report["results"]["rows"] if row["solvable"]]
        assert len(rows) == len(solves)
        return cfg, rows, solves

    def test_warm_rows_solve_their_coarse_level_from_the_path(self, tmp_path, monkeypatch):
        builds = []
        for module in (runner, newton):
            def counted(*args, _build=module.build_background, **kwargs):
                builds.append(args[1].shape)
                return _build(*args, **kwargs)

            monkeypatch.setattr(module, "build_background", counted)
        cfg, rows, solves = self.run_recorded(tmp_path, monkeypatch, (0.9, 1.1, 1.2, 1.3, 1.4))
        assert [row["secant_row"] for row in rows] == [None, None, 1, 2]
        # the path builds each background once: the first solved row all
        # three, the resolving level's for its own cold solve
        assert sorted(builds) == [self.COARSE, self.RESOLVING, self.FINE]
        grid, coarse = self.levels(cfg)
        lams = {row["index"]: row["lambda"] for row in rows}
        for k, (row, solve) in enumerate(zip(rows, solves)):
            assert row["converged"] and row["residual_sup"] <= 1e-8
            assert row["levels"][0]["shape"] == list(self.COARSE) and row["levels"][0]["converged"]
            # the path carries the coarse solution itself
            assert solve["coarse_modes"].tobytes() == solve["coarse_solution"].tobytes()
            correction, lower = solve["coarse_solution"], coarse
            if row["start_row"] is None:
                assert solve["init"] is None and solve["predictor"] is None
                assert solve["coarse_init"] is None
                # the cold row's 48^2 tail sits above RESOLVED_TAIL: the
                # resolving level starts the fine level, which takes no step
                resolving = grid.resolving_level()
                assert resolving.shape == self.RESOLVING
                assert coarse.spectral_tail(correction) > newton.RESOLVED_TAIL
                assert len(row["levels"]) == 3
                assert row["levels"][1].items() >= {"shape": list(self.RESOLVING),
                                                    "iterations": 1, "converged": True}.items()
                correction, lower = solve["resolving_solution"], resolving
                assert solve["iterations"] == row["iterations"] == 0
                base = 0.0
            else:
                assert len(row["levels"]) == 2 and "resolving_solution" not in solve
                # the coarse predictor follows the path rule on the rows'
                # coarse solutions, and starts the coarse solve
                newest = solves[k - 1]["coarse_solution"]
                if row["secant_row"] is None:
                    expected = newest
                else:
                    lam1, lam2 = lams[row["secant_row"]], lams[row["start_row"]]
                    r = min(1.0, max(-1.0, (row["lambda"] - lam2) / (lam2 - lam1)))
                    expected = (solves[k - 2]["coarse_solution"] - newest) * -r + newest
                assert solve["predictor"].tobytes() == expected.tobytes()
                assert solve["coarse_init"].tobytes() == \
                    coarse.from_modes(solve["predictor"]).tobytes()
                correction = correction - solve["predictor"]
                base = grid.to_modes(solve["init"])
                # the fine level starts under tol and takes no step
                assert row["levels"][-1]["sup_start"] <= cfg.solver["tol"]
                assert solve["iterations"] == row["iterations"] == 0
            # the fine solve starts from the fine predictor plus the
            # prolonged coarse correction
            start = grid.from_modes(grid.prolong(lower, correction, grid.empty_modes()) + base)
            assert solve["first"].tobytes() == start.tobytes()
            assert np.max(np.abs(solve["state"] - self.cold_state(cfg, row))) <= 1e-8

    def test_row_that_underresolves_its_core_stays_fine(self, tmp_path, monkeypatch):
        # at 12 lambda* the core length 1/sqrt(lambda) = 0.41 is under three
        # coarse spacings (0.44): the row continues on the fine level alone,
        # from the predictor, and its path entry carries the restriction of
        # its fine solution.  The row at 1.3 lambda* after it goes through
        # the coarse level again and still ends at the cold solution
        cfg, rows, solves = self.run_recorded(tmp_path, monkeypatch, (1.1, 1.2, 12.0, 1.3))
        row, solve = rows[-2], solves[-2]
        grid, coarse = self.levels(cfg)
        assert not coarse.resolves(1.0 / math.sqrt(row["lambda"]))
        assert row["converged"] and row["start_row"] == 1 and len(row["levels"]) == 1
        assert "coarse_init" not in solve
        assert solve["first"].tobytes() == solve["init"].tobytes()
        assert solve["coarse_modes"].tobytes() == \
            grid.restrict(coarse, solve["modes"], coarse.empty_modes()).tobytes()
        assert np.max(np.abs(solve["state"] - self.cold_state(cfg, row))) <= 1e-8
        last = rows[-1]
        assert last["start_row"] == row["index"] and last["secant_row"] is not None
        assert last["levels"][0]["shape"] == list(self.COARSE) and last["levels"][0]["converged"]
        assert last["converged"] and last["residual_sup"] <= 1e-8
        assert np.max(np.abs(solves[-1]["state"] - self.cold_state(cfg, last))) <= 1e-8

    def test_failed_coarse_solve_falls_back_to_the_predictor(self, tmp_path, monkeypatch):
        # a row whose coarse solve fails starts the fine level from the
        # predictor, and its path entry carries the restriction of its fine
        # solution.  The last row, at 1.3 lambda*, ends at the cold solution
        # whether its own coarse solve fails too or not
        for fail_coarse in ((1, 2), (1,)):
            cfg, rows, solves = self.run_recorded(tmp_path / f"fail{len(fail_coarse)}",
                                                  monkeypatch, (1.1, 1.2, 1.3), fail_coarse)
            grid, coarse = self.levels(cfg)
            for k in fail_coarse:
                row, solve = rows[k], solves[k]
                assert row["converged"] and row["start_row"] is not None
                assert len(row["levels"]) == 2
                assert row["levels"][0] == {"shape": list(self.COARSE), "iterations": 3,
                                            "converged": False, "sup_start": 1.0,
                                            "sup_final": 1.0}
                assert solve["first"].tobytes() == solve["init"].tobytes()
                assert solve["coarse_modes"].tobytes() == \
                    grid.restrict(coarse, solve["modes"], coarse.empty_modes()).tobytes()
            last = rows[-1]
            assert last["start_row"] == rows[-2]["index"] and last["secant_row"] is not None
            assert last["levels"][0]["shape"] == list(self.COARSE)
            assert last["levels"][0]["converged"] == (2 not in fail_coarse)
            assert last["converged"] and last["residual_sup"] <= 1e-8
            assert np.max(np.abs(solves[-1]["state"] - self.cold_state(cfg, last))) <= 1e-8

    def test_warm_rows_take_no_fine_step_on_the_workload(self, tmp_path, monkeypatch):
        # the torus-sweep workload (seed 1): a path that kept its rows'
        # coarse solutions starts every warm row under tol.  The sweep took
        # 109 Hessian applies, one of them at 96^2; starting the coarse
        # solves from the restricted predictor it took 126, 18 at 96^2
        cfg = workload_sweep()
        applies = count_hessian_applies(monkeypatch)
        code, report = run("sweep", cfg, out_dir=str(tmp_path))
        assert code == 0
        rows = [row for row in report["results"]["rows"] if row["solvable"]]
        assert len(rows) == 9 and rows[0]["start_row"] is None
        for row in rows[1:]:
            assert row["converged"] and row["iterations"] == 0
            assert row["levels"][-1]["sup_start"] <= cfg.solver["tol"]
        assert applies[0] <= 115
        cells = sweep_cells(tmp_path / "sweep.csv")
        assert [cell["iterations"] for cell in cells] == [
            "" if row.get("iterations") is None else str(row["iterations"])
            for row in report["results"]["rows"]]


class TestCliMain:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus()))
        code = main(["--config", str(cfg_path), "--command", "check",
                     "--out", str(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["solvable"] is True

    def test_override_flag(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(
            phi_zeros=[[1.0, 1.0]])))
        code = main(["--config", str(cfg_path), "--command", "check",
                     "--override", "lambda=0.1", "--out", str(tmp_path)])
        assert code == 2  # 0.1 * 20 < 2*pi
        assert json.loads(capsys.readouterr().out)["solvable"] is False

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(**{"lambda": -2.0})))
        code = main(["--config", str(cfg_path), "--command", "check"])
        assert code == 1

    @pytest.mark.parametrize("extra,override,problem", [
        ({"tau": 0.1}, [], "tau: unknown key"),
        ({}, ["--override", "tau=0.1"], "tau: unknown key"),
        ({"sweep": {"param": "tau", "values": [0.1]}}, [], "sweep.param: must be one of"),
    ], ids=["top-level", "override", "sweep-param"])
    def test_removed_tau_input_exit_1(self, tmp_path, capsys, extra, override, problem):
        # the domain fixes the background's core scale; older versions read tau
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(phi_zeros=[[1.0, 1.0]], **extra)))
        assert main(["--config", str(cfg_path), "--command", "sweep" if extra.get("sweep")
                     else "check", *override, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("error", [Overflow, NonZeroMeanRhs])
    def test_solver_error_exit_3_without_traceback(self, tmp_path, capsys,
                                                    monkeypatch, error):
        def failing(*args, **kwargs):
            raise error("exponent argument 812 exceeds 700")

        monkeypatch.setattr(runner, "continuation_solve", failing)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(phi_zeros=[[1.0, 1.0]])))
        code = main(["--config", str(cfg_path), "--command", "compare",
                     "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: exponent argument 812")
        assert "Traceback" not in err

    def test_cores_between_nodes_exit_1_without_traceback(self, tmp_path, capsys):
        # a 100 x 0.5 torus on 16 x 8 nodes: the core scale sqrt(tau) = 0.042
        # is far below the x spacing 6.25, and the vortex 1.0 from the
        # nearest node column leaves its source density 0.0 on every node
        raw = {"mode": "torus", "model": "base", "lambda": 5.0,
               "domain": {"Lx": 100.0, "Ly": 0.5}, "grid": {"nx": 16, "ny": 8},
               "phi_zeros": [[1.0, 0.1]]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "solve",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: vortex cores of scale sqrt(tau) = 0.0417")
        assert "spacing 6.25 x 0.0625" in err and "Traceback" not in err

    def test_plane_core_far_from_every_node_exit_1(self, tmp_path, capsys):
        # R = 1000 on 16 nodes: the box |x - p|_inf <= sqrt(40 tau) = 2.83 of
        # the vortex at (5, 5) holds no node of spacing 133, so without the
        # check its background would be that of no vortex (flux_b = 0)
        raw = {"mode": "plane", "model": "base", "lambda": 1.0, "domain": {"R": 1000.0},
               "grid": {"n": 16}, "phi_zeros": [[5.0, 5.0]]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "solve",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: vortex cores of scale sqrt(tau) = 0.447")
        assert "spacing 133:" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_sweep_count_beyond_points_exit_1(self, tmp_path, capsys):
        raw = minimal_torus(phi_zeros=[[1.0, 1.0], [2.0, 2.0]],
                            sweep={"param": "n", "values": [1, 2, 5]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "sweep"]) == 1
        assert "sweep.values[2]" in capsys.readouterr().err

    def test_sweep_scalar_value_exit_1_before_any_row(self, tmp_path, capsys, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a sweep row was computed")

        monkeypatch.setattr(runner, "_evaluate", no_rows)
        raw = minimal_torus(phi_zeros=[[1.0, 1.0]],
                            sweep={"param": "lambda", "values": [1.0, -2.0]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "sweep",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "sweep.values[1]" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command,raw,reason", [
        ("compare", {"mode": "plane", "model": "base", "lambda": 1.0, "domain": {"R": 6.0},
                     "grid": {"n": 32}, "phi_zeros": [[0.5, 0.0]]}, "fixed-point path"),
        ("sweep", minimal_torus(phi_zeros=[[1.0, 1.0]]), "sweep: the sweep command requires"),
    ], ids=["plane", "sweep-without-section"])
    def test_compare_without_fixedpoint_path_exit_1(self, tmp_path, capsys, monkeypatch,
                                                    command, raw, reason):
        # a command the configuration cannot run is refused before any work
        def no_solve(*args, **kwargs):
            raise AssertionError(f"{command} started a solve")

        monkeypatch.setattr(runner, "_evaluate", no_solve)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", command,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_extended_torus_fixedpoint_path_exit_0(self, tmp_path):
        # compare on an extended-model torus, and the fixed-point state alone
        raw = TestSweepPoints.EXTENDED
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "compare",
                     "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert results["cross_method_sup_diff"] <= 1e-6
        # the multipliers (lam, 2 lam) are recovered on the extended model
        # too, from Newton's state (the run's) and from the fixed point's
        lam = raw["lambda"]
        assert results["diagnostics"]["lagrange"] == pytest.approx([lam, 2.0 * lam], rel=1e-4)
        cfg = validate_config(raw)
        vcfg, params = cfg.make_vortex_config(), cfg.make_params()
        bg = bv.build_background(vcfg, cfg.make_grid(), params)
        report = bv.build_diagnostics(bv.continuation_solve(bg, params).state, "torus",
                                      "extended", bg, vcfg, params)
        assert report.lagrange == pytest.approx([lam, 2.0 * lam], rel=1e-4)

    @pytest.mark.parametrize("key", ["seed", "continuation_steps", "method"])
    def test_solver_seed_is_an_unknown_key(self, tmp_path, capsys, key):
        # older versions accepted these keys; any value is now refused by name
        for value in (10, "newton"):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(minimal_torus(solver={key: value})))
            assert main(["--config", str(cfg_path), "--command", "solve",
                         "--out", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert f"solver.{key}: unknown key" in err and "Traceback" not in err
            assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("mode,override,path", [
        ("torus", "domain.R=6.0", "domain.R"),
        ("torus", "grid.n=32", "grid.n"),
        ("plane", "domain.Lx=6.0", "domain.Lx"),
        ("plane", "domain.Ly=6.0", "domain.Ly"),
        ("plane", "grid.nx=32", "grid.nx"),
        ("plane", "grid.ny=32", "grid.ny"),
    ])
    def test_other_modes_key_exit_1(self, tmp_path, capsys, mode, override, path):
        # a key of the other mode would vanish from the echoed config
        raw = (minimal_torus() if mode == "torus" else
               {"mode": "plane", "lambda": 1.0, "domain": {"R": 6.0}, "grid": {"n": 32}})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "check",
                     "--override", override, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: unknown key" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("override,path", [
        ("output.fields_path=5", "output.fields_path"),
        ('output.fields_path=["a"]', "output.fields_path"),
        ("output.report_path=7", "output.report_path"),
        ("output.plots_path=true", "output.plots_path"),
    ], ids=["fields-int", "fields-list", "report-int", "plots-bool"])
    def test_non_string_output_path_exit_1_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, override, path):
        monkeypatch.setattr("bpsvortex.cli.run", lambda *a, **k: pytest.fail("run called"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(phi_zeros=[[1.0, 1.0]])))
        assert main(["--config", str(cfg_path), "--command", "solve",
                     "--override", override, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: expected a path string or null" in err
        assert "Traceback" not in err

    def test_integral_float_counts_solve(self, tmp_path, capsys):
        # 100.0 iterations is an integer: both solvers of compare run and the
        # echo carries the integer
        raw = minimal_torus(phi_zeros=[[1.0, 1.0]], solver={"max_iters": 100.0})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "compare",
                     "--out", str(tmp_path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        text = (tmp_path / "report.json").read_text()
        assert '"max_iters": 100\n' in text
        solver = json.loads(text)["config"]["solver"]
        assert type(solver["max_iters"]) is int

    @pytest.mark.parametrize("override,path", [
        ("grid.nx=Infinity", "grid.nx"),
        ("grid.nx=NaN", "grid.nx"),
        ("grid.nx=1e400", "grid.nx"),
        ("lambda=1" + "0" * 400, "lambda"),  # an integer beyond the float range
        ("solver.max_iters=Infinity", "solver.max_iters"),
        ("lambda=Infinity", "lambda"),
        ("domain.Lx=Infinity", "domain.Lx"),
        ('sweep={"param": "resolution", "values": [Infinity]}', "sweep.values[0]"),
    ], ids=["nx-inf", "nx-nan", "nx-1e400", "lambda-huge-int", "max_iters-inf",
            "lambda-inf", "Lx-inf", "sweep-resolution-inf"])
    def test_non_finite_number_exit_1(self, tmp_path, capsys, override, path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(phi_zeros=[[1.0, 1.0]])))
        assert main(["--config", str(cfg_path), "--command", "solve",
                     "--override", override, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: must be a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command,raw,path", [
        ("check", minimal_torus(**{"lambda": 1e308}, domain={"Lx": 4.0, "Ly": 4.0}),
         "lambda: lambda * |Omega|"),
        ("solve", minimal_torus(domain={"Lx": 1e300, "Ly": 1e300}, grid={"nx": 8},
                                phi_zeros=[[1.0, 1.0]]), "domain: the area"),
        ("solve", {"mode": "plane", "lambda": 1.0, "domain": {"R": 1e200}, "grid": {"n": 16},
                   "phi_zeros": [[1.0, 1.0]]}, "domain.R: the area"),
        ("sweep", minimal_torus(domain={"Lx": 4.0, "Ly": 4.0},
                                sweep={"param": "lambda", "values": [1.0, 1e308]}),
         "sweep.values[1]: lambda * |Omega|"),
    ], ids=["lambda", "torus-area", "plane-area", "swept-lambda"])
    def test_overflowing_lambda_area_exit_1(self, tmp_path, capsys, command, raw, path):
        # every number is finite, but lambda |Omega| is not: the threshold
        # margin would be Infinity (not JSON) and the background build or the
        # plane's inner products would raise OverflowError
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", command,
                     "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and path in err and "overflows" in err
        assert "Traceback" not in err and "Infinity" not in out
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("raw,cause", [
        (minimal_torus(**{"lambda": 1e300}, domain={"Lx": 4.0, "Ly": 4.0}, grid={"nx": 8},
                       phi_zeros=[[1.0, 1.0]]), "dot"),
        ({"mode": "plane", "lambda": 1e300, "domain": {"R": 4.0}, "grid": {"n": 16},
          "phi_zeros": [[1.0, 1.0]]}, "cast"),
    ], ids=["torus", "plane"])
    def test_huge_coupling_overflow_named_exit_3(self, tmp_path, capsys, raw, cause):
        # lambda |Omega| is finite, but the gradient's squared norm (torus) or
        # the single-precision Hessian coefficients (plane) are not; numpy
        # used to warn and the line search to fail with no named cause
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "solve",
                     "--out", str(tmp_path)]) == 3
        assert "Warning" not in capsys.readouterr().err
        newton_block = json.loads((tmp_path / "report.json").read_text())["results"]["newton"]
        assert newton_block["converged"] is False and newton_block["iterations"] == 0
        assert newton_block["message"] == ("overflow in the Newton system: overflow "
                                           f"encountered in {cause} (lambda = 1e+300)")

    def test_zero_gradient_reported_as_positive_zero(self, tmp_path):
        # without vortices the solution is the zero state: its sup gradient
        # is +0.0 in the report and in a sweep's CSV, never -0.0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(domain={"Lx": 4.0, "Ly": 4.0},
                                                     grid={"nx": 16}, **{"lambda": 2.0})))
        assert main(["--config", str(cfg_path), "--command", "compare",
                     "--out", str(tmp_path)]) == 0
        text = (tmp_path / "report.json").read_text()
        assert '"grad_sup_final": 0.0,' in text and "-0.0" not in text
        raw = dict(TestSweepPoints.PLANE, phi_zeros=[[0.5, 0.0], [-0.5, 0.3]],
                   sweep={"param": "n", "values": [0, 1], "action": "solve"},
                   output={"plots_path": "sweep.csv"})
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "sweep",
                     "--out", str(tmp_path)]) == 0
        row = sweep_cells(tmp_path / "sweep.csv")[0]
        assert row["n"] == "0" and row["grad_sup_final"] == "0.0"

    def test_override_on_non_object_config_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert main(["--config", str(cfg_path), "--command", "check",
                     "--override", "lambda=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-object" in err
        with pytest.raises(ParseError):
            apply_overrides([1, 2], ["solver.tol=1e-10"])

    def test_json_syntax_error_exit_1_names_the_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{\n  "mode": "torus",\n  "lambda": ,\n  "grid": {"nx": 32}\n}\n')
        assert main(["--config", str(cfg_path), "--command", "check"]) == 1
        assert capsys.readouterr().err.startswith("error: config parse failure at line 3: ")

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"),
                     "--command", "check"]) == 1


class TestMemoryPolicy:
    """``cli.main`` keeps the process's freed memory through glibc's ``mallopt``."""

    @staticmethod
    def run_check(tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(phi_zeros=[[1.0, 1.0]])))
        code = main(["--config", str(cfg_path), "--command", "check", "--out", str(tmp_path)])
        return code, capsys.readouterr()

    def test_both_thresholds_set_before_any_work(self, tmp_path, capsys, monkeypatch):
        events = []

        class Library:
            def mallopt(self, param, value):
                events.append(("mallopt", param, value))
                return 1

        def load(name):
            events.append(("load", name))
            return Library()

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                events.append((name,))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli.ctypes, "CDLL", load)
        monkeypatch.setattr(cli, "build_parser", recorded("parse", cli.build_parser))
        monkeypatch.setattr(cli, "run", recorded("run", cli.run))
        assert self.run_check(tmp_path, capsys)[0] == 0
        # glibc's parameter numbers: M_MMAP_THRESHOLD -3, M_TRIM_THRESHOLD -1
        assert events == [("load", None), ("mallopt", -3, cli.MMAP_THRESHOLD_BYTES),
                          ("mallopt", -1, cli.TRIM_THRESHOLD_BYTES), ("parse",), ("run",)]

    @staticmethod
    def unloadable(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("load", [lambda name: object(), unloadable],
                             ids=["no-mallopt", "unloadable"])
    def test_missing_mallopt_changes_nothing(self, tmp_path, capsys, monkeypatch, load):
        # a C library without mallopt, or none that loads: the CLI runs as before
        expected = self.run_check(tmp_path, capsys)
        monkeypatch.setattr(cli.ctypes, "CDLL", load)
        assert self.run_check(tmp_path, capsys) == expected


class TestBlasThreads:
    """``runner.run``, and with it the CLI, computes on one OpenBLAS thread."""

    def test_plane_results_do_not_depend_on_the_thread_count(self, tmp_path):
        # OpenBLAS blocks the dense sine transforms by its thread count; at
        # n = 97 an unpinned run's results differ in their last bits
        raw = {"mode": "plane", "lambda": 1.0, "domain": {"R": 6.0}, "grid": {"n": 97},
               "phi_zeros": [[0.5, 0.0], [-1.0, 0.8]],
               "output": {"fields_path": None, "plots_path": None}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        results = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-m", "bpsvortex", "--config", str(cfg_path),
                                   "--command", "solve", "--out", str(out)],
                                  cwd=tmp_path, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            results.append(json.dumps(json.loads((out / "report.json").read_text())["results"]))
        assert results[0] == results[1]

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_one_thread_during_the_run_then_restored(self, tmp_path, monkeypatch, fails):
        events = []
        evaluate = runner._evaluate

        def recorded(*args):
            events.append(("evaluate",))
            if fails:
                raise Overflow("stop")
            return evaluate(*args)

        monkeypatch.setattr(runner, "OPENBLAS", (lambda: events.append(("get",)) or 4,
                                                 lambda threads: events.append(("set", threads))))
        monkeypatch.setattr(runner, "_evaluate", recorded)
        cfg = validate_config(minimal_torus(phi_zeros=[[1.0, 1.0]]))
        if fails:
            with pytest.raises(Overflow):
                run("check", cfg, out_dir=str(tmp_path))
        else:
            assert run("check", cfg, out_dir=str(tmp_path))[0] == 0
        assert events == [("get",), ("set", 1), ("evaluate",), ("set", 4)]

    def test_overlapping_pins_take_turns(self, monkeypatch):
        # the thread count is one per process: a block that starts while
        # another holds the pin waits for it, so it computes on one thread
        # and the host's count is back once both are done
        count = [2]
        monkeypatch.setattr(runner, "OPENBLAS", (lambda: count[0],
                                                 lambda threads: count.__setitem__(0, threads)))
        a_inside, b_arrived, a_done = threading.Event(), threading.Event(), threading.Event()

        class Watched:
            # the pin, telling when block B asks for it
            lock = threading.RLock()

            def __enter__(self):
                if threading.current_thread().name == "B":
                    b_arrived.set()
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        monkeypatch.setattr(runner, "_BLAS_PIN", Watched(), raising=False)
        seen = []

        def block_a():
            with runner._one_blas_thread():
                a_inside.set()
                b_arrived.wait(10)
            a_done.set()

        def block_b():
            a_inside.wait(10)
            with runner._one_blas_thread():
                b_arrived.set()
                a_done.wait(10)
                seen.append(count[0])

        blocks = [threading.Thread(target=block_a, name="A"),
                  threading.Thread(target=block_b, name="B")]
        for block in blocks:
            block.start()
        for block in blocks:
            block.join(10)
        assert seen == [1]
        assert count == [2]

    def test_numpy_openblas_found(self):
        # a numpy wheel bundles OpenBLAS; the pin finds it, sets one thread and
        # gives the count back
        if not list(Path(np.__file__).resolve().parent.parent.glob(
                "numpy.libs/libscipy_openblas*")):
            pytest.skip("numpy bundles no scipy-openblas here")
        get_threads, set_threads = runner.OPENBLAS
        threads = get_threads()
        with runner._one_blas_thread():
            assert get_threads() == 1
        assert get_threads() == threads

    @pytest.mark.parametrize("case", ["no-directory", "no-library", "unloadable", "no-symbol"])
    def test_missing_openblas_changes_nothing(self, tmp_path, capsys, monkeypatch, case):
        libs = tmp_path / "libs"
        if case != "no-directory":
            libs.mkdir()
            (libs / "libother.so").touch()
        if case in ("unloadable", "no-symbol"):
            (libs / "libscipy_openblas64_-0.so").touch()
        if case == "no-symbol":
            monkeypatch.setattr(runner.ctypes.cdll, "LoadLibrary", lambda path: object())
        assert runner._openblas_threads(libs) is None
        expected = TestMemoryPolicy.run_check(tmp_path, capsys)
        monkeypatch.setattr(runner, "OPENBLAS", None)
        assert TestMemoryPolicy.run_check(tmp_path, capsys) == expected


# runs one command through the library entry point, which leaves the
# process's allocator as the interpreter set it
LIBRARY_RUN = """
import sys
from pathlib import Path
from bpsvortex.config import parse_config
from bpsvortex.runner import run
command, cfg_path, out = sys.argv[1:]
sys.exit(run(command, parse_config(Path(cfg_path).read_text()), out_dir=out)[0])
"""


@pytest.mark.parametrize("command,raw,artifact", [
    # 161^2 and 128^2 fields exceed glibc's default 128 KiB mmap threshold,
    # so the two processes place them differently
    ("solve", {"mode": "plane", "lambda": 1.0, "domain": {"R": 6.0}, "grid": {"n": 161},
               "phi_zeros": [[0.5, 0.0], [-1.0, 0.8]],
               "output": {"fields_path": "fields", "plots_path": None}}, "fields.bin"),
    ("sweep", minimal_torus(grid={"nx": 128}, phi_zeros=[[0.3 * L20, 0.4 * L20],
                                                         [0.7 * L20, 0.6 * L20]],
                            sweep={"param": "lambda", "values": [1.0, 1.5, 2.0],
                                   "action": "solve"},
                            output={"plots_path": "sweep.csv"}), "sweep.csv"),
], ids=["plane-solve", "torus-sweep"])
def test_cli_and_library_give_the_same_answers(tmp_path, command, raw, artifact):
    # the CLI sets its allocator policy, the library call does not; neither
    # the results nor the written fields may depend on it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cli_out, lib_out = tmp_path / "cli", tmp_path / "library"
    for args in (["-m", "bpsvortex", "--config", str(cfg_path), "--command", command,
                  "--out", str(cli_out)],
                 ["-c", LIBRARY_RUN, command, str(cfg_path), str(lib_out)]):
        proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    cli_results, lib_results = (json.loads((out / "report.json").read_text())["results"]
                                for out in (cli_out, lib_out))
    assert json.dumps(cli_results) == json.dumps(lib_results)
    assert (cli_out / artifact).read_bytes() == (lib_out / artifact).read_bytes()
