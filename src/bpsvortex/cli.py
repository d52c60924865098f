"""Command-line entry point."""

from __future__ import annotations

import argparse
import json
import sys

from .config import apply_overrides, validate_config
from .errors import NonZeroMeanRhs, Overflow, ParseError, ThresholdViolated, ValidationError
from .runner import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpsvortex",
        description="Multi-vortex solutions of non-Abelian BPS vortex equations "
                    "on the plane and on doubly periodic domains.")
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--command", required=True,
                        choices=["check", "solve", "sweep", "compare"])
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry via a dotted path "
                             "(e.g. solver.tol=1e-10); repeatable")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for output artifacts (prefixes relative paths)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config parse failure at line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 1

    try:
        raw = apply_overrides(raw, args.override)
        cfg = validate_config(raw)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        exit_code, report = run(args.command, cfg, out_dir=args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ThresholdViolated as exc:
        print(f"threshold violated: {exc}", file=sys.stderr)
        return 2
    except (Overflow, NonZeroMeanRhs) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1

    summary = {"command": args.command, "exit_code": exit_code}
    if "threshold" in report.get("results", {}):
        summary["solvable"] = report["results"]["threshold"]["solvable"]
        summary["margin"] = report["results"]["threshold"]["margin"]
    if "cross_method_sup_diff" in report.get("results", {}):
        summary["cross_method_sup_diff"] = report["results"]["cross_method_sup_diff"]
    print(json.dumps(summary))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
