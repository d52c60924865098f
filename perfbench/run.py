"""End-to-end and per-layer benchmark of the bpsvortex CLI.

    python3 perfbench/run.py --workload torus-compare --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36   # every metric

A closed loop with one caller: each operation (a "pass") is one fresh
interpreter that imports bpsvortex, validates the seeded config and runs
``bpsvortex.cli.main`` once on it (perfbench/worker.py), and passes run one
after another, each single-threaded.  A run starts passes until the next one
would end after ``--seconds``, but always makes enough passes to compare
them: two with ``--trace 0``, three with ``--trace 1``.

``--trace 0`` reports the end-to-end metrics of untraced passes, each the
median over the run:

* ``wall_rel``: wall time from cli.main entry to return, divided by the time
  of a fixed reference computation timed in the same process around the
  call (``worker.reference_s``);
* ``setup_s``: interpreter start to a validated config (at least seven
  samples), scaled to reference speed: times ``REF_S`` over the reference
  time measured right after the set-up;
* ``peak_rss_mb``.

The raw wall and set-up times are printed too.  They are not end-to-end
metrics because the speed of the 2-vCPU host used to build this benchmark
shifts by up to 1.6x for seconds to minutes at a time (other tenants).  Over
ten seeds of torus-sweep the run medians of the raw wall time spread by 14%
to 34% of their median (quartile distance), those of the ratio by 3-5%; the
ten-run median of the raw torus-compare set-up time moved by 36% between two
sets of runs, the scaled one by 1%.  The reference tracks plane-solve least
well: its ratio spread by 11% over ten seeds (raw wall time: 9%).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (perfbench/tracing.py), plus
``cli.wall_s``, the raw wall time of the untraced ones; the spans go to
``.perfbench/spans-<workload>-seed<seed>.json``.

A pass fails when the worker raises or times out, when its report misses a
correctness gate of the workload (perfbench/workloads.py), or when its
``results`` differ from the run's first pass.  A traced run is also incorrect
when a work count differs between its traced passes.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

END_TO_END = {
    "wall_rel": ("ref", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_SAMPLES = 7
REF_S = 0.075  # median worker.reference_s over the baseline runs (perfbench/BASELINE.json)
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# one caller, serial: keep numpy's BLAS from adding threads of its own
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(workload, cfg_path, pass_dir, timeout, *flags):
    """Start one worker and wait for it; returns (result or None, error text)."""
    pass_dir.mkdir(parents=True)
    result_path = pass_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--config", str(cfg_path), "--out", str(pass_dir / "out"),
           "--result", str(result_path), *flags]
    with open(pass_dir / "stdout.txt", "w") as out, open(pass_dir / "stderr.txt", "w") as err:
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
        try:
            proc = subprocess.run(cmd, cwd=pass_dir, stdout=out, stderr=err,
                                  env={**os.environ, **CHILD_ENV}, timeout=timeout)
        except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the worker
            return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (pass_dir / "stderr.txt").read_text().strip().splitlines()[-5:]
        return None, f"worker exited with {proc.returncode}: " + " | ".join(tail)
    return json.loads(result_path.read_text()), ""


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the summary printed by ``main``."""
    workload = workloads.WORKLOADS[name]
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(workload.make_config(seed), indent=2) + "\n")

    if trace:  # is_traced per pass: one untraced pass for the overhead, two traced to compare
        kinds = itertools.chain([False, True, True], itertools.cycle([False, True]))
        min_passes = 3
    else:
        kinds = itertools.repeat(False)
        min_passes = 2
    t_start = time.monotonic()
    last_duration = {}
    attempted = failed = 0
    reference = None
    untraced, traced, setups = [], [], []
    for index, is_traced in enumerate(kinds):
        elapsed = time.monotonic() - t_start
        estimate = last_duration.get(is_traced, max(last_duration.values(), default=0.0))
        if index >= min_passes and elapsed + estimate > seconds:
            break
        if elapsed + estimate > RUN_DEADLINE_S:
            break
        flags = ["--trace"] if is_traced else []
        if index == 0:
            flags.append("--deep-check")
        t0 = time.monotonic()
        pass_dir = run_dir / f"pass{index}"
        res, error = run_worker(name, cfg_path, pass_dir, RUN_DEADLINE_S - elapsed, *flags)
        last_duration[is_traced] = time.monotonic() - t0
        shutil.rmtree(pass_dir)
        attempted += 1
        if res is not None:
            reference = reference or res["results_sha256"]
            problems = list(res["failures"])
            if res["results_sha256"] != reference:
                problems.append("results differ bitwise from the first pass")
            error = "; ".join(problems)
        if error:
            failed += 1
            print(f"pass {index} failed: {error}", file=sys.stderr)
            continue
        (traced if is_traced else untraced).append(res)
        if not is_traced:
            setups.append(res)

    while not trace and len(setups) < SETUP_SAMPLES:
        pass_dir = run_dir / f"setup{len(setups)}"
        res, error = run_worker(name, cfg_path, pass_dir, 60.0, "--setup-only")
        shutil.rmtree(pass_dir)
        if res is None:
            attempted += 1
            failed += 1
            print(f"set-up sample failed: {error}", file=sys.stderr)
            break
        setups.append(res)
    shutil.rmtree(run_dir)

    correct = failed == 0 and attempted > 0
    metrics, printed = {}, {}
    if trace and traced and untraced:
        layer, mismatches = tracing.run_metrics(traced, [r["wall_s"] for r in untraced])
        for count in mismatches:
            print(f"count {count} differs between traced passes", file=sys.stderr)
        correct = correct and not mismatches
        metrics = {k: {"value": layer[k], "unit": tracing.PER_LAYER[k][0]}
                   for k in tracing.PER_LAYER}
        (WORK / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps([r["spans"] for r in traced]) + "\n")
    elif not trace and untraced:
        values = {"wall_rel": [r["wall_s"] / r["ref_s"] for r in untraced],
                  "setup_s": [r["setup_s"] * REF_S / r["setup_ref_s"] for r in setups],
                  "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k][0]}
                   for k, v in values.items()}
        printed = {"wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
                   "setup_raw_s": (statistics.median(r["setup_s"] for r in setups), "s"),
                   "ref_s": (statistics.median(r["ref_s"] for r in untraced), "s")}
    else:
        correct = False
    return {"workload": name, "seed": seed, "trace": int(trace), "correct": correct,
            "attempted": attempted, "failed": failed, "passes": len(untraced) + len(traced),
            "metrics": metrics, "printed": printed}


def print_summary(summary: dict) -> None:
    frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"# {summary['workload']} seed={summary['seed']} trace={summary['trace']}: "
          f"{summary['passes']} passes used, attempted={summary['attempted']} "
          f"failed={summary['failed']} failed_frac={frac:g} correct={summary['correct']}")
    rows = [(k, m["value"], m["unit"]) for k, m in summary["metrics"].items()]
    rows += [(k, value, unit) for k, (value, unit) in summary["printed"].items()]
    for key, value, unit in rows:
        print(f"{summary['workload']:<14} {key:<34} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length: no pass starts that would end later")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of traced passes (ignored with 'all')")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bpsvortex" / "cli.py").is_file():
        print(f"error: no bpsvortex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in workloads.WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    summaries = []
    for name, trace in runs:
        summary = measure(name, args.seed, args.seconds, trace)
        print_summary(summary)
        summaries.append(summary)

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}/{k}": v for s in summaries for k, v in s["metrics"].items()}
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
