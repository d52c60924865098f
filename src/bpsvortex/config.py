"""Run configuration: JSON schema, validation and canonical hashing.

The canonical interchange format is JSON.  ``parse_config`` either returns a
fully defaulted :class:`RunConfig` or raises :class:`ValidationError`
carrying every field-level problem at once (``ParseError`` for malformed
text).  Unknown keys are rejected at every nesting level.

A sweep value passes the rule of the field it replaces, and the converted
value is kept: a validated sweep config carries its points in
``RunConfig.sweep_points``, one ``(assignment, RunConfig)`` per row, each the
configuration with the swept fields replaced and no sweep.  The runner
evaluates a row exactly as it runs ``check`` or ``solve`` on that config.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from .backgrounds import PhysicalParams, VortexConfig
from .errors import ParseError, ValidationError
from .grids import PlaneGrid, TorusGrid

_SOLVER_DEFAULTS = {
    "tol": 1e-9,
    "max_iters": 100,
}

_OUTPUT_DEFAULTS = {
    "report_path": "report.json",
    "fields_path": None,
    "plots_path": None,
}

_SWEEP_PARAMS = ("lambda", "n", "m", "resolution")

# the domain and grid keys of each mode; the other mode's keys are unknown
_MODE_KEYS = {"torus": ({"Lx", "Ly"}, {"nx", "ny"}), "plane": ({"R"}, {"n"})}


@dataclass
class RunConfig:
    mode: str
    model: str
    lam: float
    domain: dict
    grid: dict
    phi_zeros: List[Tuple[float, float]]
    kappa_zeros: List[Tuple[float, float]]
    solver: dict
    output: dict
    sweep: Optional[dict] = None
    # derived by validate_config: one (assignment, point config) per sweep
    # row, the config with the swept fields replaced
    sweep_points: List[Tuple[dict, RunConfig]] = field(
        init=False, default_factory=list, repr=False, compare=False)

    def make_grid(self):
        if self.mode == "torus":
            return TorusGrid(self.domain["Lx"], self.domain["Ly"],
                             self.grid["nx"], self.grid["ny"])
        return PlaneGrid(self.domain["R"], self.grid["n"])

    def make_params(self) -> PhysicalParams:
        return PhysicalParams(lam=self.lam)

    def make_vortex_config(self) -> VortexConfig:
        return VortexConfig(tuple(self.phi_zeros), tuple(self.kappa_zeros))

    def echo(self) -> dict:
        """Config with all defaults filled, ready for serialization."""
        out = {
            "mode": self.mode,
            "model": self.model,
            "lambda": self.lam,
            "domain": dict(self.domain),
            "grid": dict(self.grid),
            "phi_zeros": [list(p) for p in self.phi_zeros],
            "kappa_zeros": [list(q) for q in self.kappa_zeros],
            "solver": dict(self.solver),
            "output": dict(self.output),
        }
        if self.sweep is not None:
            out["sweep"] = dict(self.sweep)
        return out

    def config_hash(self) -> str:
        """Hash of the science-relevant inputs (output paths excluded)."""
        payload = self.echo()
        payload.pop("output", None)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _expect_mapping(obj, path, problems, allowed):
    if not isinstance(obj, dict):
        problems.append((path, f"expected an object, got {type(obj).__name__}"))
        return {}
    for key in obj:
        if key not in allowed:
            problems.append((f"{path}.{key}" if path else key, "unknown key"))
    return obj


def _number(obj, path, problems, positive=False, integer=False):
    if obj is None:
        problems.append((path, "missing required value"))
        return None
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        problems.append((path, f"expected a number, got {type(obj).__name__}"))
        return None
    try:
        finite = math.isfinite(obj)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        problems.append((path, "must be a finite number"))
        return None
    if integer and int(obj) != obj:
        problems.append((path, "expected an integer"))
        return None
    val = int(obj) if integer else float(obj)
    if positive and not val > 0:
        problems.append((path, "must be strictly positive"))
        return None
    return val


def _area(mode, domain, problems):
    """|Omega| of a validated domain, or None when it is invalid or overflows.

    Products, not ``**``: a float power raises where a product gives inf.
    """
    if mode == "torus" and domain.get("Lx") and domain.get("Ly"):
        area, path = domain["Lx"] * domain["Ly"], "domain"
    elif mode == "plane" and domain.get("R"):
        area, path = (2.0 * domain["R"]) * (2.0 * domain["R"]), "domain.R"
    else:
        return None
    if not math.isfinite(area):
        problems.append((path, "the area |Omega| overflows"))
        return None
    return area


def _lambda(obj, path, area, problems):
    """A coupling: a positive number whose lambda * |Omega| is finite."""
    lam = _number(obj, path, problems, positive=True)
    if lam is not None and area is not None and not math.isfinite(lam * area):
        problems.append((path, f"lambda * |Omega| = {lam!r} * {area!r} overflows"))
        return None
    return lam


def _grid_points(obj, path, mode, problems):
    """A grid size: even and at least 8 per torus axis, at least 16 on the plane."""
    val = _number(obj, path, problems, positive=True, integer=True)
    if val is not None:
        if mode == "torus" and (val < 8 or val % 2):
            problems.append((path, "must be even and at least 8"))
        elif mode == "plane" and val < 16:
            problems.append((path, "must be at least 16"))
    return val


def _points(obj, path, problems):
    if obj is None:
        return []
    if not isinstance(obj, list):
        problems.append((path, "expected a list of [x, y] pairs"))
        return []
    pts = []
    for i, p in enumerate(obj):
        if (not isinstance(p, (list, tuple)) or len(p) != 2
                or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in p)):
            problems.append((f"{path}[{i}]", "expected a numeric [x, y] pair"))
            continue
        pts.append((float(p[0]), float(p[1])))
    return pts


def _points_in_domain(pts, mode, domain, path, problems):
    for i, (px, py) in enumerate(pts):
        if mode == "torus" and domain.get("Lx") and domain.get("Ly"):
            if not (0.0 <= px < domain["Lx"] and 0.0 <= py < domain["Ly"]):
                problems.append((f"{path}[{i}]", "point outside the periodic cell"))
        elif mode == "plane" and domain.get("R"):
            if not (-domain["R"] < px < domain["R"] and -domain["R"] < py < domain["R"]):
                problems.append((f"{path}[{i}]", "point outside (-R, R)^2"))


def _sweep_field(param, value, path, mode, area, phi, kappa, problems) -> dict:
    """The ``RunConfig`` field one sweep value replaces, converted by that field's rule."""
    if param == "lambda":
        return {"lam": _lambda(value, path, area, problems)}
    if param == "resolution":
        points = _grid_points(value, path, mode, problems)
        return {"grid": {"nx": points, "ny": points} if mode == "torus" else {"n": points}}
    # n or m: a point keeps the first n (m) configured points, so a larger
    # value would label a row with a count it does not solve
    zeros, name = (phi, "phi_zeros") if param == "n" else (kappa, "kappa_zeros")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= len(zeros) or int(value) != value):
        problems.append((path, f"{param} must be an integer in [0, {len(zeros)}], "
                               f"the number of configured points"))
        return {}
    return {name: zeros[:int(value)]}


def validate_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON document; raises ValidationError listing all problems."""
    problems: List[Tuple[str, str]] = []
    raw = _expect_mapping(raw, "", problems,
                          {"mode", "model", "lambda", "domain", "grid",
                           "phi_zeros", "kappa_zeros", "solver", "output", "sweep"})

    mode = raw.get("mode")
    if mode not in ("torus", "plane"):
        problems.append(("mode", "must be 'torus' or 'plane'"))
    model = raw.get("model", "base")
    if model not in ("base", "extended"):
        problems.append(("model", "must be 'base' or 'extended'"))

    # without a valid mode, only keys of neither mode are refused
    domain_keys, grid_keys = (_MODE_KEYS[mode] if mode in ("torus", "plane")
                              else ({"Lx", "Ly", "R"}, {"nx", "ny", "n"}))
    domain = _expect_mapping(raw.get("domain", {}), "domain", problems, domain_keys)
    grid = _expect_mapping(raw.get("grid", {}), "grid", problems, grid_keys)
    dom_out, grid_out = {}, {}
    if mode == "torus":
        dom_out["Lx"] = _number(domain.get("Lx"), "domain.Lx", problems, positive=True)
        dom_out["Ly"] = _number(domain.get("Ly"), "domain.Ly", problems, positive=True)
        nx = _grid_points(grid.get("nx"), "grid.nx", mode, problems)
        ny_default = nx if "ny" not in grid else grid.get("ny")
        grid_out["nx"] = nx
        grid_out["ny"] = _grid_points(ny_default, "grid.ny", mode, problems)
    elif mode == "plane":
        dom_out["R"] = _number(domain.get("R"), "domain.R", problems, positive=True)
        grid_out["n"] = _grid_points(grid.get("n"), "grid.n", mode, problems)
    area = _area(mode, dom_out, problems)
    lam = _lambda(raw.get("lambda"), "lambda", area, problems)

    phi = _points(raw.get("phi_zeros"), "phi_zeros", problems)
    kappa = _points(raw.get("kappa_zeros"), "kappa_zeros", problems)
    _points_in_domain(phi, mode, dom_out, "phi_zeros", problems)
    _points_in_domain(kappa, mode, dom_out, "kappa_zeros", problems)
    if kappa and model == "base":
        problems.append(("kappa_zeros", "nonempty kappa zero set requires model='extended'"))

    solver_raw = _expect_mapping(raw.get("solver", {}), "solver", problems,
                                 set(_SOLVER_DEFAULTS))
    solver = dict(_SOLVER_DEFAULTS)
    solver.update({k: v for k, v in solver_raw.items() if v is not None})
    # keep the converted values, so that 100.0 iterations is the integer 100
    solver["tol"] = _number(solver["tol"], "solver.tol", problems, positive=True)
    solver["max_iters"] = _number(solver["max_iters"], "solver.max_iters", problems,
                                  positive=True, integer=True)

    output_raw = _expect_mapping(raw.get("output", {}), "output", problems,
                                 set(_OUTPUT_DEFAULTS))
    output = dict(_OUTPUT_DEFAULTS)
    output.update(output_raw)
    for key in _OUTPUT_DEFAULTS:
        if not (output[key] is None or isinstance(output[key], str)):
            problems.append((f"output.{key}", f"expected a path string or null, "
                                              f"got {type(output[key]).__name__}"))

    sweep = raw.get("sweep")
    axes = []
    if sweep is not None:
        sweep = _expect_mapping(sweep, "sweep", problems,
                                {"param", "values", "param2", "values2", "action"})
        sweep = dict(sweep)
        sweep.setdefault("action", "check")
        if sweep.get("param") not in _SWEEP_PARAMS:
            problems.append(("sweep.param", f"must be one of {_SWEEP_PARAMS}"))
        if not isinstance(sweep.get("values"), list) or not sweep.get("values"):
            problems.append(("sweep.values", "expected a non-empty list"))
        if "param2" in sweep:
            if sweep.get("param2") not in _SWEEP_PARAMS:
                problems.append(("sweep.param2", f"must be one of {_SWEEP_PARAMS}"))
            elif sweep["param2"] == sweep.get("param"):
                # the inner axis would overwrite the outer one in every row
                problems.append(("sweep.param2", "must differ from sweep.param"))
            if not isinstance(sweep.get("values2"), list) or not sweep.get("values2"):
                problems.append(("sweep.values2", "expected a non-empty list"))
        elif "values2" in sweep:
            problems.append(("sweep.values2", "needs sweep.param2, the field it sweeps"))
        if sweep.get("action") not in ("check", "solve"):
            problems.append(("sweep.action", "must be 'check' or 'solve'"))
        # every sweep value obeys the rule of the field it replaces, so a bad
        # value is refused before any row is solved; each axis keeps, per
        # value, its row label and the converted field it replaces
        for param_key, values_key in (("param", "values"), ("param2", "values2")):
            param, values = sweep.get(param_key), sweep.get(values_key)
            if param in _SWEEP_PARAMS and isinstance(values, list):
                axes.append([({param: v}, _sweep_field(param, v, f"sweep.{values_key}[{i}]",
                                                       mode, area, phi, kappa, problems))
                             for i, v in enumerate(values)])

    if problems:
        raise ValidationError(problems)
    cfg = RunConfig(mode=mode, model=model, lam=lam, domain=dom_out,
                    grid=grid_out, phi_zeros=phi, kappa_zeros=kappa,
                    solver=solver, output=output, sweep=sweep)
    if sweep is not None:
        # param is the outer loop, param2 the inner one
        for combo in itertools.product(*axes):
            assignment, changes = {}, {"sweep": None}
            for label, replaced in combo:
                assignment.update(label)
                changes.update(replaced)
            cfg.sweep_points.append((assignment, replace(cfg, **changes)))
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return validate_config(raw)


def apply_overrides(raw: dict, overrides: List[str]) -> dict:
    """Apply ``key.path=value`` overrides to a raw config mapping."""
    for item in overrides:
        if "=" not in item:
            raise ParseError(f"override {item!r} is not of the form key=value")
        path, _, value_text = item.partition("=")
        try:
            value = json.loads(value_text)
        except json.JSONDecodeError:
            value = value_text
        *parents, leaf = path.split(".")
        node = raw
        for key in parents:
            node = node.setdefault(key, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ParseError(f"override path {path!r} crosses a non-object value")
        node[leaf] = value
    return raw
