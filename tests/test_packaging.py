import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import nodes

ROOT = Path(__file__).resolve().parents[1]

# Imports the package, runs one small torus solve plus its diagnostics, and
# prints the third-party top-level modules that were imported on the way.
PROBE = """
import json, math, sys
before = set(sys.modules)
import bpsvortex as bv
L = math.sqrt(20.0)
grid = bv.TorusGrid(L, L, 32, 32)
params = bv.PhysicalParams(lam=1.0)
cfg = bv.VortexConfig(phi_zeros=((0.3 * L, 0.4 * L), (0.7 * L, 0.6 * L)))
bg = bv.build_background(cfg, grid, params)
sol = bv.solve("torus", "base", cfg, grid, params, background=bg)
assert sol.converged
bv.build_diagnostics(sol.state, "torus", "base", bg, cfg, params)
new = {name.split(".")[0] for name in set(sys.modules) - before}
third_party = new - set(sys.stdlib_module_names) - {"bpsvortex"}
print(json.dumps(sorted(third_party)))
"""


def _declared_dependencies():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in deps}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_dependencies_are_the_imported_ones():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert set(json.loads(out)) == _declared_dependencies()


def test_every_exported_function_has_a_caller():
    # a top-level function or class of the package, or a method of one of
    # its classes, that no module of the package and no benchmark refers to
    # is code that only tests run; its own definition, a recursive call in
    # it included, is no reference.  Special methods (``__post_init__``)
    # are called by Python itself
    files = (sorted((ROOT / "src" / "bpsvortex").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py")))
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, referenced = set(), set()

    def scan(node, owners):
        # ``owners``: the names of the definitions that enclose ``node``
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in owners:
            referenced.add(name)
        if isinstance(node, definitions):
            owners = owners | {node.name}
        for child in ast.iter_child_nodes(node):
            scan(child, owners)

    for f in files:
        module = ast.parse(f.read_text(), str(f))
        scan(module, frozenset())
        if f.parent.name != "bpsvortex":
            continue
        for stmt in module.body:
            if isinstance(stmt, definitions):
                defined.add(stmt.name)
            if isinstance(stmt, ast.ClassDef):
                defined.update(method.name for method in stmt.body
                               if isinstance(method, definitions)
                               and not (method.name.startswith("__")
                                        and method.name.endswith("__")))
    assert {"solve", "Background", "resolving_level", "modal_forward"} <= defined
    assert sorted(defined - referenced) == []


def test_readme_library_example_runs():
    # the "Library use" block of the README, run as written
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["sol"].converged
    assert namespace["fb"] == pytest.approx(4.0 * math.pi, rel=1e-6)


@pytest.mark.parametrize("mode", ["torus", "plane"])
def test_readme_field_dump_reader_runs(tmp_path, monkeypatch, mode):
    # the numpy reader of the README "Field dumps" section, run as written
    import numpy as np

    import bpsvortex as bv

    section = (ROOT / "README.md").read_text().split("## Field dumps", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    grid = bv.TorusGrid(3.0, 2.0, 12, 10) if mode == "torus" else bv.PlaneGrid(3.0, 17)
    params = bv.PhysicalParams(lam=2.0)
    bg = bv.build_background(bv.VortexConfig(phi_zeros=((1.0, 0.5),)), grid, params)
    state = 0.1 * np.random.default_rng(5).standard_normal((2,) + grid.shape)
    bv.dump_fields(state, bg, params, "fields.csv", "hash", tmp_path / "out")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    X, Y = nodes(grid)
    assert namespace["X"].tobytes() == X.tobytes()
    assert namespace["Y"].tobytes() == Y.tobytes()
    assert namespace["u"].tobytes() == (bg.u0 + state[0]).tobytes()


@pytest.mark.parametrize("command", ["check", "solve", "compare"])
def test_readme_cli_example_runs(tmp_path, command):
    # the example configuration of the README "CLI" section, on a 32² grid
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(example)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "bpsvortex", "--config", str(cfg),
                           "--command", command, "--override", "grid.nx=32",
                           "--override", "grid.ny=32", "--out", str(tmp_path / "out")],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").exists()


def test_readme_names_every_report_key(tmp_path):
    # every key of the results of a compare with a coarse level, a plane
    # solve on three levels and a solved sweep, of both solver sections, a
    # level record, a Newton step and a sweep row, in backticks in README
    from bpsvortex.config import validate_config
    from bpsvortex.runner import run

    L = math.sqrt(20.0)
    torus = {"mode": "torus", "model": "base", "lambda": 1.0, "domain": {"Lx": L, "Ly": L},
             "grid": {"nx": 128}, "phi_zeros": [[0.3 * L, 0.4 * L], [0.7 * L, 0.6 * L]]}
    plane = {"mode": "plane", "model": "base", "lambda": 4.0, "domain": {"R": 4.0},
             "grid": {"n": 128}, "phi_zeros": [[0.5, -0.3], [-1.0, 0.8]]}
    sweep = dict(torus, grid={"nx": 32},
                 sweep={"param": "lambda", "values": [1.0, 1.5], "action": "solve"})
    compare, solve, swept = (run(command, validate_config(raw), out_dir=str(tmp_path / command))
                             [1]["results"] for command, raw in
                             (("compare", torus), ("solve", plane), ("sweep", sweep)))
    record = compare["newton"]["levels"][0]
    sections = [compare, solve, swept, compare["newton"], compare["fixedpoint"], record,
                record["steps"][0], swept["rows"][-1]]
    readme = (ROOT / "README.md").read_text()
    assert sorted({key for section in sections for key in section
                   if f"`{key}`" not in readme}) == []
