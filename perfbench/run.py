#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steal_storm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` makes one untraced and one traced run and prints the
per-layer metrics.  Human-readable lines (per-run counters, every
metric with its unit and sample count, failed checks) come first; the
last line of standard output is one JSON object::

    {"correct": true, "attempted": 123, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output check passed.  The program
under test is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _use_source_tree() -> bool:
    """Put ``src/`` and this directory on the path; False without ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(HERE)]
    return True


def probe_setup(tree: str) -> None:
    """Set-up as a fresh process pays it: imports, then the oracle."""
    start = time.perf_counter()
    import repro.bench.experiments  # noqa: F401
    import repro.service  # noqa: F401
    import repro.sim.shard  # noqa: F401
    import repro.ws  # noqa: F401
    from repro.uts.params import tree_by_name
    from repro.uts.sequential import sequential_count

    nodes = sequential_count(tree_by_name(tree)).total_nodes
    print(json.dumps({"setup_s": time.perf_counter() - start, "total_nodes": nodes}))


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str):
    """Run ``workload`` and return its :class:`workloads.Report`."""
    import workloads

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "service_zipf":
            run = workloads.trace_service if trace else workloads.run_service
            return run(seed, seconds, scale, workdir)
        run = workloads.trace_simulation if trace else workloads.run_simulation
        return run(workload, seed, seconds, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def render(report, trace: bool) -> tuple[list[str], dict]:
    """Human-readable lines and the final JSON object of ``report``."""
    from catalog import END_TO_END, PER_LAYER

    names = PER_LAYER if trace else END_TO_END
    lines = list(report.lines)
    metrics = {}
    for name, spec in names.items():
        # A layer the workload does not run reports 0 samples of 0.
        value, unit, samples, note = report.metrics.get(name, (0.0, spec[0], 0, ""))
        metrics[name] = {"value": value, "unit": unit}
        note = f", {note}" if note else ""
        lines.append(f"{name:28s} {value:14.6g} {unit:6s} (n={samples}{note})")
    ratio = report.failed / report.attempted if report.attempted else 1.0
    lines.append(f"{'fail_ratio':28s} {ratio:14.6g} {'ratio':6s} (n={report.attempted})")
    lines.extend(f"CHECK FAILED: {message}" for message in report.violations)
    result = {
        "correct": report.failed == 0 and report.attempted > 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test-sized inputs (tiny trees, short service passes).
    parser.add_argument("--scale", choices=("full", "quick"), default="full")
    parser.add_argument("--probe-setup", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not _use_source_tree():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    lines, result = render(report, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
