"""One benchmark operation, in the fresh interpreter a CLI user would start.

The pass imports bpsvortex, validates the generated config (the set-up a
user pays before any solve), then calls ``bpsvortex.cli.main`` once and
times it from entry to return.  A fixed reference computation is timed just
before and just after that call; it measures the CPU speed the set-up and
the pass ran at.
Afterwards, outside the timed region, the pass records peak resident memory,
checks the report against the workload's correctness gates and writes one
JSON result file.

perfbench/run.py starts this script; by hand:

    python3 perfbench/worker.py --workload torus-sweep --config cfg.json \
        --out out --spawn-ns 0 --result result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def reference_s() -> float:
    """Wall time of a fixed computation that runs no bpsvortex code.

    Like the workloads it mixes small-array numpy work and interpreter-bound
    arithmetic (CPU speed) with 256 x 256 FFTs on fresh allocations (memory
    and page faults).  On a host whose speed shifts by up to 1.6x for seconds
    to minutes at a time (other tenants), the ratio of a pass's wall time to
    this one is steadier than either.  Run before the timed call, it also
    leaves FFT plans and allocator state behind; a solve would rebuild those
    in its first few calls, so this is no warm-up of the solver.
    """
    import numpy as np

    small = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    large = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    t0 = time.perf_counter()
    for a, repeats in ((small, 400), (large, 12)):
        for _ in range(repeats):
            b = np.fft.irfft2(np.fft.rfft2(a) * 0.5, s=a.shape)
            np.exp(0.1 * b) - b * b
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, help="output directory of the pass")
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="time.monotonic_ns() taken by the parent before starting this process")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--trace", action="store_true", help="record spans around every layer")
    parser.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    parser.add_argument("--deep-check", action="store_true",
                        help="also run the library-side gates of the workload")
    args = parser.parse_args(argv)

    import bpsvortex  # noqa: F401  (the import is part of the set-up)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    from bpsvortex.config import parse_config

    parse_config(Path(args.config).read_text())
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    ref_before = reference_s()
    result = {"setup_s": setup_s, "setup_ref_s": ref_before}

    if not args.setup_only:
        from bpsvortex import cli

        import workloads

        workload = workloads.WORKLOADS[args.workload]
        cli_args = ["--config", args.config, "--command", workload.command, "--out", args.out]
        main_fn = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
        t0 = time.perf_counter()
        exit_code = main_fn(cli_args)
        wall_s = time.perf_counter() - t0
        ref_s = 0.5 * (ref_before + reference_s())
        # ru_maxrss is in KiB on Linux
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        out = Path(args.out)
        report = json.loads((out / "report.json").read_text())
        failures = workload.check(report, exit_code)
        if args.deep_check and workload.deep_check is not None:
            failures += workload.deep_check(report)
        canonical = json.dumps(report["results"], sort_keys=True)
        result.update({
            "wall_s": wall_s,
            "ref_s": ref_s,
            "peak_rss_mb": rss_mb,
            "failures": failures,
            "results_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "output_bytes": sum(p.stat().st_size for p in out.iterdir()
                                if p.is_file() and p.name != "report.json"),
        })
        if tracer is not None:
            result["spans"] = tracer.spans

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
