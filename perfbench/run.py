"""The benchmark's one command.

    python3 perfbench/run.py --workload epoch-lz4 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` (no build step). Scratch data lives under ``.perfbench_work/``
and is removed at exit; a traced run writes its spans to
``.perfbench_out/trace-<workload>.jsonl``.

Prints every metric by name and unit, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. Exits
non-zero, without that line, when the program cannot be imported, and
non-zero after it when any sample or output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pin_to_one_cpu() -> int | None:
    """Run this process, and every thread it starts later, on one CPU.

    The ranks are threads of one interpreter and share its lock, so
    they never compute at once. Spread over two CPUs, every hand-off
    between them is a cross-CPU wake-up whose cost depends on what else
    the host runs: a two-rank run was 1.3 to 1.6x faster while another process
    kept the second CPU busy. On one CPU the hand-offs stay local.
    Returns the CPU, or None where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.analysis.lockdep import current_witness

    from perfbench.harness import Bench
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    work = ROOT / ".perfbench_work" / f"{spec.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(spec, args.seed, work)
        if args.trace:
            dump = ROOT / ".perfbench_out" / f"trace-{spec.name}.jsonl"
            result = bench.run_traced(args.seconds, dump)
        else:
            result = bench.run_untraced(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {spec.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {spec.why}")
    print(f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"lockdep witness {'on' if current_witness() else 'off'}, "
          f"pinned to cpu {cpu}")
    for note in result.notes:
        print(note)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
