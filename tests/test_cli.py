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

    def test_compare_reports_cross_method_difference(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]])
        raw["grid"] = {"nx": 64}
        cfg = parse_config(json.dumps(raw))
        code, report = run("compare", cfg, out_dir=str(tmp_path))
        assert code == 0
        assert report["results"]["cross_method_sup_diff"] <= 1e-6

    def test_compare_reports_fixedpoint_stages(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]])
        raw["solver"] = {"continuation_steps": 4}
        cfg = parse_config(json.dumps(raw))
        code, report = run("compare", cfg, out_dir=str(tmp_path))
        assert code == 0
        fixed = report["results"]["fixedpoint"]
        stages = fixed["stages"]
        assert [s["t"] for s in stages] == [0.25, 0.5, 0.75, 1.0]
        assert all(s["converged"] for s in stages)
        assert sum(s["trials"] for s in stages) == fixed["iterations"]
        for s in stages:
            assert set(s) == {"t", "trials", "accepted", "anderson_rejected", "converged"}
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
        state[0, 1, 2] = 0.1
        phys = bv.reconstruct_physical(state, bg, params)
        phys.a12[0, 0] = -0.0
        phys.a12[3, 4] = 1e-5
        phys.b12[2, 1] = 1e16
        phys.kappa[4, 3] = 0.1
        bv.dump_fields(state, phys, bg, "f.csv", "hash", tmp_path)

        # the node-by-node writer the row writer replaced
        X, Y = grid.nodes()
        columns = [X, Y, bg.u0 + state[0], bg.v0 + state[1] - state[0], phys.kappa,
                   phys.phi_abs, phys.a12, phys.b12]
        lines = ["x,y,u,v,kappa,phi_abs,a12,b12\n"]
        for row in zip(*[c.ravel() for c in columns]):
            lines.append(",".join(repr(float(val)) for val in row) + "\n")
        assert (tmp_path / "f.csv").read_text() == "".join(lines)
        assert "-0.0," in lines[1] and "1e-05" in "".join(lines) and "1e+16" in "".join(lines)
        blob = b"".join(np.ascontiguousarray(c, dtype="<f8").tobytes() for c in columns[2:])
        assert (tmp_path / "f.bin").read_bytes() == blob

    def test_field_dumps_round_trip_bitwise(self, tmp_path):
        raw = minimal_torus(phi_zeros=[[0.4 * L20, 0.5 * L20]])
        raw["output"] = {"report_path": "r.json", "fields_path": "fields.csv"}
        cfg = parse_config(json.dumps(raw))
        code, report = run("solve", cfg, out_dir=str(tmp_path))
        assert code == 0
        meta = json.loads((tmp_path / "fields.meta.json").read_text())
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
        # csv header and row count
        lines = (tmp_path / "fields.csv").read_text().splitlines()
        assert lines[0] == "x,y,u,v,kappa,phi_abs,a12,b12"
        assert len(lines) == 1 + 32 * 32

    def test_empty_config_dump_zero_columns(self, tmp_path):
        raw = minimal_torus()
        raw["output"] = {"report_path": "r.json", "fields_path": "f.csv"}
        cfg = parse_config(json.dumps(raw))
        run("solve", cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "f.csv").read_text().splitlines()[1:]
        for line in lines[:50]:
            vals = line.split(",")
            assert float(vals[2]) == 0.0  # u
            assert float(vals[3]) == 0.0  # v

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
        assert (tmp_path / "sweep.csv").exists()

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
    def point_raw(base, param, value):
        raw = json.loads(json.dumps(base))
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

    @pytest.mark.parametrize("base,param,values,action", [
        (EXTENDED, "lambda", [0.5, 2], "solve"),  # the first row is unsolvable
        (EXTENDED, "tau", [None, 0.5], "solve"),
        (EXTENDED, "n", [0, 1, 2], "solve"),
        (EXTENDED, "m", [0, 1], "solve"),
        (EXTENDED, "resolution", [12, 16], "solve"),
        (PLANE, "resolution", [16, 24], "check"),
    ], ids=["lambda", "tau", "n", "m", "resolution", "plane-resolution"])
    def test_rows_match_standalone_runs_bitwise(self, tmp_path, base, param, values, action):
        raw = dict(base, sweep={"param": param, "values": values, "action": action})
        _, report = run("sweep", validate_config(raw), out_dir=str(tmp_path / "sweep"))
        rows = report["results"]["rows"]
        assert len(rows) == len(values)
        for row, value in zip(rows, values):
            pcfg = validate_config(self.point_raw(base, param, value))
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
            assert set(row) - {"index", param} == set(expected)
            # repr tells -0.0 from 0.0 and round-trips every float exactly
            assert repr(got) == repr(expected), (param, value)

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

        monkeypatch.setattr(runner, "_sweep_point_config", no_rows)
        raw = minimal_torus(phi_zeros=[[1.0, 1.0]],
                            sweep={"param": "lambda", "values": [1.0, -2.0]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "sweep",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "sweep.values[1]" in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("raw", [
        {"mode": "plane", "model": "base", "lambda": 1.0, "domain": {"R": 6.0},
         "grid": {"n": 32}, "phi_zeros": [[0.5, 0.0]]},
        minimal_torus(model="extended", grid={"nx": 16}, phi_zeros=[[0.3 * L20, 0.4 * L20]],
                      kappa_zeros=[[0.7 * L20, 0.6 * L20]]),
    ], ids=["plane", "extended"])
    def test_compare_without_fixedpoint_path_exit_1(self, tmp_path, capsys, monkeypatch, raw):
        def no_solve(*args, **kwargs):
            raise AssertionError("compare started a solve")

        monkeypatch.setattr(runner, "solve", no_solve)
        monkeypatch.setattr(runner, "continuation_solve", no_solve)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--command", "compare",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "fixed-point path" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_solver_seed_is_an_unknown_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_torus(solver={"seed": 0})))
        assert main(["--config", str(cfg_path), "--command", "check"]) == 1
        assert "solver.seed: unknown key" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"),
                     "--command", "check"]) == 1
