"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload kron-batch --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with spans recorded and prints every per-layer metric, each
layer's self time and its share of the run's wall time.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import REPO_ROOT, ensure_library_importable  # noqa: E402

#: Where traced runs write their spans, under the repository root.
SPAN_DIR = REPO_ROOT / ".perfbench"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--tier",
        default="large",
        help="dataset size tier (2^18 vertices at 'large'; 'tiny' for self-tests)",
    )
    return p.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def stop_child_processes() -> None:
    """Stop every process the run started and wait for each to end.

    The process backend's pool is joined when the backend closes; the
    resource tracker that shared memory starts is left to outlive its
    parent by design, so it is stopped and reaped here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not ensure_library_importable():
        print("perfbench: library sources not found under src/", file=sys.stderr)
        return 2
    import numpy

    from perfbench import metrics
    from perfbench.inputs import DATASET_SEED
    from perfbench.workload import WORKLOADS, Run

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"available: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    run = Run(workload, args.seed, args.tier, bool(args.trace))
    res = run.execute(args.seconds)
    fp = res["fingerprint"]
    print(
        f"workload {workload.name}  dataset {workload.dataset}:{args.tier}  "
        f"seed {args.seed}  python {platform.python_version()}  "
        f"numpy {numpy.__version__}  nproc {len(os.sched_getaffinity(0))}"
    )
    print(
        f"graph seed {DATASET_SEED} fingerprint: vertices={fp['vertices']} "
        f"edges={fp['edges']} digest={fp['digest']}"
    )
    if args.trace:
        figures, notes = metrics.per_layer(run, res)
        SPAN_DIR.mkdir(exist_ok=True)
        run.rec.dump(SPAN_DIR / f"spans-{workload.name}-s{args.seed}.json")
        wall = res["wall_seconds"]
        print(f"{'layer':<24}{'self_s':>10}{'share':>9}")
        for layer, seconds in sorted(res["self_seconds"].items(), key=lambda kv: -kv[1]):
            print(f"{layer:<24}{seconds:>10.3f}{seconds / wall:>9.1%}")
        total = sum(res["self_seconds"].values())
        print(f"{'sum':<24}{total:>10.3f}   wall {wall:.3f} s")
    else:
        figures, notes = metrics.end_to_end(run, res)
    for name, (value, unit) in figures.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<30}{_fmt(value):>14} {unit}{note}")
    tally = run.tally
    print(
        f"{'failed_frac':<30}{_fmt(tally.failed_frac):>14} ratio  "
        f"({tally.failed} of {tally.attempted} checks)"
    )
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in figures.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_child_processes()
    sys.exit(code)
