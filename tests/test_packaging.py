import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
