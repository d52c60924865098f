import itertools
import json
import math

import numpy as np
import pytest

import bpsvortex as bv
from bpsvortex import newton, runner
from bpsvortex.cli import main
from bpsvortex.config import apply_overrides, parse_config, validate_config
from bpsvortex.errors import NonZeroMeanRhs, Overflow, ParseError, ValidationError
from bpsvortex.runner import run

L20 = math.sqrt(20.0)


def sweep_cells(path):
    """The rows of a sweep CSV as dicts from column name to cell text."""
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


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
        assert cfg.solver["method"] == "newton"
        assert cfg.solver["tol"] == 1e-9
        assert cfg.output["report_path"] == "report.json"
        assert cfg.tau is None

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
        raw = minimal_torus(**{"lambda": -1.0, "tau": 0.0})
        raw["grid"] = {"nx": 33}
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(raw))
        assert len(err.value.problems) >= 3

    def test_kappa_zeros_require_extended(self):
        raw = minimal_torus(kappa_zeros=[[1.0, 1.0]])
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(raw))
        assert any("extended" in msg for _, msg in err.value.problems)

    def test_fixedpoint_rejected_on_plane(self):
        raw = {
            "mode": "plane", "model": "base", "lambda": 1.0,
            "domain": {"R": 6.0}, "grid": {"n": 32}, "phi_zeros": [],
            "solver": {"method": "fixedpoint"},
        }
        with pytest.raises(ValidationError):
            parse_config(json.dumps(raw))

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
        ("torus", {"param": "tau", "values": [0.1, 0.0]}, "sweep.values[1]"),
        ("torus", {"param": "resolution", "values": [32, 33]}, "sweep.values[1]"),
        ("torus", {"param": "resolution", "values": [6]}, "sweep.values[0]"),
        ("plane", {"param": "resolution", "values": [32, 12]}, "sweep.values[1]"),
        ("plane", {"param": "resolution", "values": [32.5]}, "sweep.values[0]"),
        ("torus", {"param": "n", "values": [1], "param2": "lambda", "values2": [1.0, 0]},
         "sweep.values2[1]"),
    ])
    def test_sweep_values_follow_their_field_rule(self, mode, sweep, path):
        raw = minimal_torus(phi_zeros=[[1.0, 1.0]], sweep=sweep)
        if mode == "plane":
            raw.update(mode="plane", domain={"R": 4.0}, grid={"n": 32})
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(raw))
        assert [p for p, _ in exc.value.problems] == [path]

    def test_sweep_values_within_field_rules_accepted(self):
        for sweep in ({"param": "tau", "values": [0.1, None]},
                      {"param": "resolution", "values": [8, 64.0],
                       "param2": "lambda", "values2": [0.5, 2]}):
            raw = minimal_torus(sweep=sweep)
            assert parse_config(json.dumps(raw)).sweep["values"] == sweep["values"]

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

    def test_compare_reports_fixedpoint_stages(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]])
        cfg = parse_config(json.dumps(raw))
        code, report = run("compare", cfg, out_dir=str(tmp_path))
        assert code == 0
        fixed = report["results"]["fixedpoint"]
        stages = fixed["stages"]
        assert [s["t"] for s in stages] == [1.0]
        assert all(s["converged"] for s in stages)
        assert set(fixed) == {"converged", "trials", "residual_final", "message", "stages"}
        assert sum(s["trials"] for s in stages) == fixed["trials"]
        for s in stages:
            assert set(s) == {"t", "omega", "trials", "accepted", "anderson_rejected",
                              "converged"}
            assert s["accepted"] + s["anderson_rejected"] <= s["trials"]
        assert "stages" not in report["results"]["newton"]
        again = run("compare", cfg, out_dir=str(tmp_path))[1]
        assert json.dumps(again["results"]) == json.dumps(report["results"])

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
            elif param == "tau":
                raw["tau"] = value
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
        (EXTENDED, {"param": "tau", "values": [None, 0.5], "action": "solve"}),
        (EXTENDED, {"param": "n", "values": [0, 1, 2], "action": "solve"}),
        (EXTENDED, {"param": "m", "values": [0, 1], "action": "solve"}),
        (EXTENDED, {"param": "resolution", "values": [12, 16], "action": "solve"}),
        (PLANE, {"param": "resolution", "values": [16, 24], "action": "check"}),
        # param is the outer loop; lambda 0.5 is below the threshold
        (EXTENDED, {"param": "resolution", "values": [12, 16],
                    "param2": "lambda", "values2": [0.5, 2], "action": "solve"}),
    ], ids=["lambda", "tau", "n", "m", "resolution", "plane-resolution",
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
                "analytic_slack": (runner._analytic_slack(vcfg, grid, params, pcfg.model)
                                   if pcfg.mode == "torus" else None),
            }
            if action == "solve" and expected["solvable"]:
                expected["converged"] = res["newton"]["converged"]
                expected["grad_sup_final"] = res["newton"]["grad_sup_final"]
                expected["residual_sup"] = max(res["diagnostics"]["residual_sup"])
            got = {key: row[key] for key in expected}
            assert {key: row[key] for key in assignment} == assignment
            assert set(row) - {"index", *assignment} == set(expected)
            # repr tells -0.0 from 0.0 and round-trips every float exactly
            assert repr(got) == repr(expected), assignment

    def test_sweep_row_builds_its_background_once(self, tmp_path, monkeypatch):
        calls = []
        for module in (runner, newton):
            def counted(*args, _build=module.build_background, **kwargs):
                calls.append(args)
                return _build(*args, **kwargs)

            monkeypatch.setattr(module, "build_background", counted)
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]],
                            sweep={"param": "lambda", "values": [0.2, 1.0, 2.0],
                                   "action": "solve"})
        code, report = run("sweep", parse_config(json.dumps(raw)), out_dir=str(tmp_path))
        assert code == 0
        assert [row["solvable"] for row in report["results"]["rows"]] == [False, True, True]
        assert len(calls) == 2


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
        # compare, and a solve by the fixed-point path alone, on an
        # extended-model torus; both run the same continuation
        reports = {}
        for command, method in (("compare", "newton"), ("solve", "fixedpoint")):
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(dict(TestSweepPoints.EXTENDED,
                                                solver={"method": method})))
            out = tmp_path / command
            assert main(["--config", str(cfg_path), "--command", command,
                         "--out", str(out)]) == 0
            reports[command] = json.loads((out / "report.json").read_text())["results"]
        assert reports["compare"]["cross_method_sup_diff"] <= 1e-6
        assert reports["solve"]["fixedpoint"] == reports["compare"]["fixedpoint"]
        assert "newton" not in reports["solve"]
        # the multipliers (lam, 2 lam) are recovered on the extended model too
        lam = TestSweepPoints.EXTENDED["lambda"]
        for results in reports.values():
            assert results["diagnostics"]["lagrange"] == pytest.approx([lam, 2.0 * lam], rel=1e-4)

    @pytest.mark.parametrize("key", ["seed", "continuation_steps"])
    def test_solver_seed_is_an_unknown_key(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(solver={key: 10})))
        assert main(["--config", str(cfg_path), "--command", "check"]) == 1
        assert f"solver.{key}: unknown key" in capsys.readouterr().err

    def test_integral_float_counts_solve(self, tmp_path, capsys):
        # 100.0 iterations is an integer: both solvers run and the echo
        # carries the integer
        raw = minimal_torus(phi_zeros=[[1.0, 1.0]],
                            solver={"method": "both", "max_iters": 100.0})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "solve",
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
        ("tau=Infinity", "tau"),
        ('sweep={"param": "resolution", "values": [Infinity]}', "sweep.values[0]"),
    ], ids=["nx-inf", "nx-nan", "nx-1e400", "lambda-huge-int", "max_iters-inf",
            "lambda-inf", "Lx-inf", "tau-inf", "sweep-resolution-inf"])
    def test_non_finite_number_exit_1(self, tmp_path, capsys, override, path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(phi_zeros=[[1.0, 1.0]])))
        assert main(["--config", str(cfg_path), "--command", "solve",
                     "--override", override, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: must be a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_override_on_non_object_config_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert main(["--config", str(cfg_path), "--command", "check",
                     "--override", "lambda=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-object" in err
        with pytest.raises(ParseError):
            apply_overrides([1, 2], ["solver.tol=1e-10"])

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"),
                     "--command", "check"]) == 1
