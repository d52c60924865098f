"""The names and signatures perfbench/ relies on keep working.

perfbench/tracing.py rebinds module attributes of the package to time them,
and perfbench/workloads.py re-solves sweep rows through the library API.  A
change that drops one of those names or changes one of those signatures
fails here, in the test suite, rather than in the benchmark.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import bpsvortex as bv
from bpsvortex.cli import main

ROOT = Path(__file__).resolve().parents[1]
L20 = math.sqrt(20.0)

COMPARE = {
    "mode": "torus", "model": "base", "lambda": 1.0,
    "domain": {"Lx": L20, "Ly": L20}, "grid": {"nx": 32},
    "phi_zeros": [[0.3 * L20, 0.4 * L20], [0.7 * L20, 0.6 * L20]],
}
SWEEP = dict(COMPARE, model="extended", kappa_zeros=[[0.5 * L20, 0.2 * L20]],
             sweep={"param": "lambda", "values": [0.5, 1.5, 2.5], "action": "solve"})

# Instruments the package as `perfbench/run.py --trace 1` does, runs both
# commands through cli.main, and prints the exit codes, the span names and
# the library-side gates of the sweep workload.
TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing, workloads
from bpsvortex import cli

tracer = tracing.Tracer()
tracing.instrument(tracer)
codes = [cli.main(["--config", cfg, "--command", command, "--out", out])
         for cfg, command, out in zip(sys.argv[2::3], sys.argv[3::3], sys.argv[4::3])]
with open(sys.argv[-1] + "/report.json") as fh:
    failures = workloads.check_sweep_rows(json.load(fh))
print(json.dumps({"codes": codes, "spans": sorted({s["name"] for s in tracer.spans}),
                  "failures": failures}))
"""


def _results(out_dir):
    # canonical JSON text: compares every float bit for bit
    results = json.loads((out_dir / "report.json").read_text())["results"]
    return json.dumps(results, sort_keys=True)


def test_traced_cli_runs_match_untraced(tmp_path):
    args = []
    for name, raw, command in (("compare", COMPARE, "compare"), ("sweep", SWEEP, "sweep")):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(raw))
        assert main(["--config", str(cfg), "--command", command,
                     "--out", str(tmp_path / f"{name}-plain")]) == 0
        args += [str(cfg), command, str(tmp_path / f"{name}-traced")]

    # the child imports the same package as this process, installed or not
    src = str(Path(bv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACED, str(ROOT / "perfbench"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    assert traced["codes"] == [0, 0]
    assert {"newton.solve", "fixedpoint.apply_T", "backgrounds.build"} <= set(traced["spans"])
    assert traced["failures"] == []
    for name in ("compare", "sweep"):
        assert _results(tmp_path / f"{name}-traced") == _results(tmp_path / f"{name}-plain")
