"""Command-line entry point.

A ``bpsvortex`` process keeps the memory it frees: :func:`main` first asks
glibc's ``malloc`` (through ``mallopt``) to serve field-sized arrays from
the heap and to keep freed heap memory instead of returning it to the
kernel.  The solvers allocate and free the same few field-sized arrays in
every iteration, and each one returned to the kernel is page-faulted in
again by the next.  The setting changes no computed number, only where the
arrays live.  Library entry points (``bpsvortex.solve``, ``runner.run``)
leave their host process's allocator alone.  Other C libraries lack
``mallopt`` or ignore it (musl, macOS), and there the CLI runs as before.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys

from .config import apply_overrides, validate_config
from .errors import (NonZeroMeanRhs, Overflow, ParseError, ThresholdViolated, UnresolvedCore,
                     ValidationError)
from .runner import EXIT_INVALID, EXIT_NOT_CONVERGED, EXIT_THRESHOLD, run


# mallopt parameter numbers (glibc's malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# Blocks up to 32 MiB, glibc's largest mmap threshold on 64-bit hosts, come
# from the heap, so field pairs up to about 1400^2 nodes are reused there:
# with 4 MiB, a 768-node plane solve (9.4 MB pairs) took 56k minor faults
# against 12k.  The heap keeps up to 64 MiB free at its top, twice the mmap
# threshold as in glibc's own dynamic rule.  On the three benchmark
# workloads, a 512^2 torus compare and that plane solve, trim thresholds of
# 256 MiB and 1 GiB gave the same faults and the same peak RSS to 0.4 MB;
# they only held more memory after the peak (141 MB against 53 MB at the end
# of the plane solve).  Either parameter set alone switches glibc's dynamic
# thresholds off: plane-solve then took 31k (mmap) or 59k (trim) faults
# against 20k with neither and 7k with both.
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


def _keep_freed_memory() -> None:
    """Keep this process's freed arrays in the heap (module docstring); a no-op without glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


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
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        print(f"error: config parse failure at line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return EXIT_INVALID

    try:
        raw = apply_overrides(raw, args.override)
        cfg = validate_config(raw)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        exit_code, report = run(args.command, cfg, out_dir=args.out)
    except (ValidationError, UnresolvedCore) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ThresholdViolated as exc:
        print(f"threshold violated: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (Overflow, NonZeroMeanRhs) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INVALID

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
