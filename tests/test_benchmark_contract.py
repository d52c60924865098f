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
# the 96^2 sweep and the plane have a coarse level (48^2 and 113^2), and
# their cold solves a resolving level above it (64^2 and 150^2); the 32^2
# compare has neither
SWEEP = dict(COMPARE, model="extended", grid={"nx": 96},
             kappa_zeros=[[0.5 * L20, 0.2 * L20]],
             sweep={"param": "lambda", "values": [0.5, 1.5, 2.5], "action": "solve"})
# a small plane-solve: Newton in the sine eigenbasis, decay fit, field dump
# and radial profile
PLANE = {
    "mode": "plane", "model": "base", "lambda": 4.0,
    "domain": {"R": 8.0}, "grid": {"n": 225},
    "phi_zeros": [[0.5, 0.0], [-0.5, 0.3]],
    "output": {"fields_path": "fields", "plots_path": "profile.csv"},
}
RUNS = (("compare", COMPARE, "compare"), ("plane", PLANE, "solve"), ("sweep", SWEEP, "sweep"))

# Instruments the package as `perfbench/run.py --trace 1` does, runs every
# command through cli.main, and prints the exit codes, the span names and
# the `fixedpoint.apply_T` and `backgrounds.build` span counts of each run
# and the library-side gates of the sweep workload (the last run).
TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing, workloads
from bpsvortex import cli

tracer = tracing.Tracer()
tracing.instrument(tracer)
codes, spans, applies, builds = [], [], [], []
for cfg, command, out in zip(sys.argv[2::3], sys.argv[3::3], sys.argv[4::3]):
    start = len(tracer.spans)
    codes.append(cli.main(["--config", cfg, "--command", command, "--out", out]))
    spans.append(sorted({s["name"] for s in tracer.spans[start:]}))
    applies.append(sum(s["name"] == "fixedpoint.apply_T" for s in tracer.spans[start:]))
    builds.append(sum(s["name"] == "backgrounds.build" for s in tracer.spans[start:]))
with open(sys.argv[-1] + "/report.json") as fh:
    failures = workloads.check_sweep_rows(json.load(fh))
print(json.dumps({"codes": codes, "spans": spans, "applies": applies, "builds": builds,
                  "failures": failures}))
"""


def _results(out_dir):
    # canonical JSON text: compares every float bit for bit
    results = json.loads((out_dir / "report.json").read_text())["results"]
    return json.dumps(results, sort_keys=True)


def test_traced_cli_runs_match_untraced(tmp_path):
    args = []
    for name, raw, command in RUNS:
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
    assert traced["codes"] == [0, 0, 0]
    spans = dict(zip([name for name, _, _ in RUNS], map(set, traced["spans"])))
    # energy.hessian_applies and energy.precond_applies count these spans:
    # both factories must be the ones Newton calls
    cg = {"energy.hessian_apply", "energy.precond_apply"}
    assert {"newton.solve", "fixedpoint.apply_T", "backgrounds.build"} | cg <= spans["compare"]
    assert {"runner.dump_fields", "runner.emit_plot_data",
            "diagnostics.decay_fit"} | cg <= spans["plane"]
    assert traced["failures"] == []
    # every background a run builds, the coarse levels' included, goes
    # through a name perfbench rebinds (backgrounds.build_calls): each run
    # builds its fine background, and the plane and the sweep path their
    # coarse and their resolving one, once each
    assert traced["builds"] == [1, 3, 3]
    # perfbench's fixedpoint.apply_T_calls counts what the report calls trials
    compare = json.loads((tmp_path / "compare-traced" / "report.json").read_text())
    assert traced["applies"][0] == compare["results"]["fixedpoint"]["trials"] > 0
    for name, _, _ in RUNS:
        assert _results(tmp_path / f"{name}-traced") == _results(tmp_path / f"{name}-plain")
    report = json.loads((tmp_path / "plane-plain" / "report.json").read_text())
    assert "decay" in report["results"]["diagnostics"]
    for output in ("fields.bin", "fields.meta.json", "profile.csv"):
        plain = (tmp_path / "plane-plain" / output).read_bytes()
        assert plain and (tmp_path / "plane-traced" / output).read_bytes() == plain
