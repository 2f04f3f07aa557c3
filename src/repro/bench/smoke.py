"""Oracle-checked smoke benchmark: ``python -m repro.bench.smoke``.

A deliberately small, fast benchmark meant for continuous integration:
it times the hooking finishes (Afforest, Shiloach–Vishkin, FastSV) and
two frontier pipelines (data-driven label propagation, BFS-CC) on a
power-law and a lattice graph, on the vectorized, process, and
distributed (delta-exchange supersteps, ranks=2) backends, and validates
every labeling against the sequential union-find oracle.  Any
disagreement with the oracle is a hard failure (non-zero exit), so the
job doubles as an end-to-end correctness gate for the process backend's
shared-memory path and the distributed backend's exchange protocol.  Records carry the optimization
observables (iteration counts, ``rounds_skipped``, ``bytes_allocated``,
``fused_passes``) next to the timings.

Against a committed baseline (``--baseline BENCH_smoke.json``) the run
always gates on *semantic* drift — vanished combinations, component-count
changes, plan-provenance changes.  With ``--fail-threshold`` it becomes a
hard **perf gate**: any record whose median slows down beyond the
threshold ratio fails the run, with a trace-diff attribution clause
(``+38% in HS3, rounds_skipped 4→0``) naming what moved.
``--gate-report`` re-gates a previously written report without
re-running the benchmarks (CI splits measure and gate into separate
steps), ``--summary-out`` appends a markdown comparison table plus the
regression-attribution table (pointed at ``$GITHUB_STEP_SUMMARY`` in
CI), and ``--ledger`` additionally appends one
:class:`~repro.obs.ledger.RunRecord` per measured combination to a
JSONL run ledger for ``repro obs diff``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Callable

import numpy as np

from repro.bench.runner import run_algorithm, worker_scaling_curve
from repro.engine import make_backend
from repro.generators.lattice import grid_graph
from repro.generators.powerlaw import barabasi_albert_graph
from repro.graph.csr import CSRGraph
from repro.nputil import sorted_unique
from repro.obs import (
    TRACE_FORMATS,
    RunDiff,
    attribution_markdown,
    diff_runs,
    write_trace,
)
from repro.unionfind.sequential import sequential_components

#: (dataset name, builder) pairs — small enough for a sub-minute CI job
#: yet covering both degree regimes (skewed power-law, uniform lattice).
SMOKE_GRAPHS: tuple[tuple[str, Callable[[], CSRGraph]], ...] = (
    ("powerlaw-5k", lambda: barabasi_albert_graph(5000, edges_per_vertex=4, seed=7)),
    ("lattice-70x70", lambda: grid_graph(70, 70)),
)

#: Hooking algorithms (including the fused FastSV hot path the perf gate
#: tracks; on the process backend their hook, shortcut and compress
#: sweeps run on the workers, Afforest's links in the parent) plus one
#: frontier pipeline of each flavour (label push, BFS level sweep) so the
#: process backend's frontier task bodies are exercised end-to-end by CI,
#: plus the plan layer: one composed plan with no legacy alias and
#: ``auto`` (each record's ``plan`` field names the composition that ran).
SMOKE_ALGORITHMS = (
    "afforest", "sv", "fastsv", "lp-datadriven", "bfs", "kout+sv", "auto",
)
SMOKE_BACKENDS = ("vectorized", "process", "distributed")

#: world size for the distributed smoke rows (small on purpose: two
#: ranks already exercise the full exchange protocol).
SMOKE_RANKS = 2

#: Profiled-sample counters promoted to report columns (the allocation /
#: round-skip observables of the hot-path optimization pass).
COUNTER_COLUMNS = ("rounds_skipped", "bytes_allocated", "fused_passes")


def _canonical(labels: np.ndarray) -> np.ndarray:
    """Labels renumbered by first appearance, for convention-free compare."""
    _, canon = sorted_unique(labels, return_inverse=True)
    return canon


def check_against_oracle(graph: CSRGraph, labels: np.ndarray) -> bool:
    """True when ``labels`` induces the oracle's partition of vertices."""
    oracle = np.asarray(sequential_components(graph))
    return bool(np.array_equal(_canonical(labels), _canonical(oracle)))


def run_smoke(
    *,
    repeats: int = 5,
    workers: int = 2,
    ranks: int = SMOKE_RANKS,
    scaling: bool = False,
    ledger: str | None = None,
) -> tuple[dict, int]:
    """Execute the smoke matrix; returns ``(report, num_failures)``.

    With ``ledger`` set, every measured combination also appends a
    ``kind="bench"`` run record to that JSONL ledger (via
    :mod:`repro.obs.ledger`), and each report record carries the ledger
    entry's ``run_id`` — the handle ``repro obs diff`` uses to attribute
    a gate failure to the phases and counters that moved.
    """
    records: list[dict] = []
    failures = 0
    for dataset, build in SMOKE_GRAPHS:
        graph = build()
        oracle = np.asarray(sequential_components(graph))
        oracle_canon = _canonical(oracle)
        for algorithm in SMOKE_ALGORITHMS:
            for kind in SMOKE_BACKENDS:
                backend = make_backend(kind, workers=workers, ranks=ranks)
                try:
                    rec = run_algorithm(
                        graph,
                        algorithm,
                        dataset,
                        repeats=repeats,
                        backend=backend,
                        ledger=ledger,
                    )
                    labels = _last_labels(graph, algorithm, backend)
                finally:
                    backend.close()
                ok = bool(np.array_equal(_canonical(labels), oracle_canon))
                failures += not ok
                record = {
                    "dataset": dataset,
                    "algorithm": algorithm,
                    "backend": kind,
                    "median_seconds": rec.median_seconds,
                    "num_components": rec.extra["num_components"],
                    "matches_oracle": ok,
                }
                if "plan" in rec.extra:
                    record["plan"] = rec.extra["plan"]
                if "iterations" in rec.extra:
                    record["iterations"] = rec.extra["iterations"]
                if "run_id" in rec.extra:
                    record["run_id"] = rec.extra["run_id"]
                counters = rec.extra.get("counters", {})
                for name in COUNTER_COLUMNS:
                    if name in counters:
                        record[name] = counters[name]
                # The full profiled-sample observables ride along so the
                # gate can attribute a slowdown (diff_runs reads these)
                # without chasing the ledger entry.
                if counters:
                    record["counters"] = dict(counters)
                if "phase_seconds" in rec.extra:
                    record["phase_seconds"] = dict(rec.extra["phase_seconds"])
                records.append(record)
                status = "ok" if ok else "ORACLE MISMATCH"
                rounds = record.get("iterations", "-")
                skipped = record.get("rounds_skipped", "-")
                alloc = record.get("bytes_allocated", "-")
                print(
                    f"{dataset:>14} {algorithm:<14} {kind:<10} "
                    f"{rec.median_seconds * 1000:8.2f} ms  "
                    f"rounds={rounds:<4} skipped={skipped:<3} "
                    f"alloc={alloc:<9} {status}"
                )
        if scaling:
            curve = worker_scaling_curve(
                graph, "afforest", (1, 2, 4), repeats=max(repeats, 3)
            )
            records.append(
                {"dataset": dataset, "algorithm": "afforest", "worker_scaling": curve}
            )
            print(f"{dataset:>14} afforest   scaling    {curve}")
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "workers": workers,
        "ranks": ranks,
        "failures": failures,
        "records": records,
    }
    return report, failures


def compare_against_baseline(
    report: dict,
    baseline: dict,
    *,
    fail_threshold: float | None = None,
) -> tuple[list[str], list[str]]:
    """Compare a fresh smoke ``report`` against the committed baseline.

    Returns ``(failures, notes)``.  Failures always include *semantic*
    regressions — a (dataset, algorithm, backend) combination that
    vanished, a component-count change, or a record running a different
    plan than the one on record (plan choice is deterministic, so a
    drift means a name was remapped without the baseline being
    regenerated).

    With ``fail_threshold`` set (e.g. ``1.25``), timing becomes a hard
    gate too: a record whose median exceeds ``fail_threshold`` times its
    baseline median is a failure, not a note.  A timing failure carries
    its attribution clause (:func:`repro.obs.diff.diff_runs` over the
    records' profiled phase/counter observables), so the CI log names
    the phase that slowed down, not just the ratio.  Without the
    threshold, timing movement stays informational (CI machines are
    noisy).
    """
    failures: list[str] = []
    notes: list[str] = []
    current = {
        (r["dataset"], r["algorithm"], r["backend"]): r
        for r in report.get("records", [])
        if "median_seconds" in r
    }
    for rec in baseline.get("records", []):
        if "median_seconds" not in rec:  # scaling-curve records have no key
            continue
        key = (rec["dataset"], rec["algorithm"], rec["backend"])
        label = "/".join(key)
        now = current.get(key)
        if now is None:
            failures.append(f"{label}: present in baseline, missing from this run")
            continue
        if now.get("num_components") != rec.get("num_components"):
            failures.append(
                f"{label}: num_components {rec.get('num_components')} -> "
                f"{now.get('num_components')}"
            )
        if now.get("plan") != rec.get("plan"):
            failures.append(
                f"{label}: plan {rec.get('plan')!r} -> {now.get('plan')!r}"
            )
        if rec["median_seconds"] > 0:
            ratio = now["median_seconds"] / rec["median_seconds"]
            if fail_threshold is not None and ratio > fail_threshold:
                diff = diff_runs(rec, now, label_a=label, label_b=label)
                failures.append(
                    f"{label}: median {ratio:.2f}x baseline "
                    f"(threshold {fail_threshold:.2f}x) — "
                    f"{diff.attribution()}"
                )
            else:
                notes.append(f"{label}: {ratio:.2f}x baseline median")
    new_keys = set(current) - {
        (r["dataset"], r["algorithm"], r["backend"])
        for r in baseline.get("records", [])
        if "median_seconds" in r
    }
    for key in sorted(new_keys):
        notes.append("/".join(key) + ": new combination (not in baseline)")
    return failures, notes


def gate_summary_markdown(
    report: dict,
    baseline: dict,
    failures: list[str],
    notes: list[str],
    *,
    fail_threshold: float | None = None,
) -> str:
    """Markdown perf-gate summary (for ``$GITHUB_STEP_SUMMARY``).

    One row per gated (dataset, algorithm, backend) combination with the
    baseline/current medians, the ratio, and the round/allocation
    counters, followed by a regression-attribution table
    (:func:`repro.obs.diff.attribution_markdown` over every comparable
    pair, slowest ratio first) and the verbatim failure and note lines.
    """
    baseline_by_key = {
        (r["dataset"], r["algorithm"], r["backend"]): r
        for r in baseline.get("records", [])
        if "median_seconds" in r
    }
    lines = ["## Smoke perf gate", ""]
    verdict = "FAILED" if failures else "passed"
    threshold = (
        f"hard threshold {fail_threshold:.2f}x baseline median"
        if fail_threshold is not None
        else "timings informational (no --fail-threshold)"
    )
    lines.append(f"**{verdict}** — {threshold}.")
    lines.append("")
    lines.append(
        "| dataset | algorithm | backend | baseline ms | current ms "
        "| ratio | rounds | skipped | alloc bytes |"
    )
    lines.append("|---|---|---|---:|---:|---:|---:|---:|---:|")
    for rec in report.get("records", []):
        if "median_seconds" not in rec:
            continue
        key = (rec["dataset"], rec["algorithm"], rec["backend"])
        base = baseline_by_key.get(key)
        base_ms = f"{base['median_seconds'] * 1000:.2f}" if base else "—"
        ratio = (
            f"{rec['median_seconds'] / base['median_seconds']:.2f}x"
            if base and base["median_seconds"] > 0
            else "—"
        )
        lines.append(
            f"| {key[0]} | {key[1]} | {key[2]} "
            f"| {base_ms} | {rec['median_seconds'] * 1000:.2f} | {ratio} "
            f"| {rec.get('iterations', '—')} "
            f"| {rec.get('rounds_skipped', '—')} "
            f"| {rec.get('bytes_allocated', '—')} |"
        )
    pairs: list[tuple[str, RunDiff]] = []
    for rec in report.get("records", []):
        if "median_seconds" not in rec:
            continue
        key = (rec["dataset"], rec["algorithm"], rec["backend"])
        base = baseline_by_key.get(key)
        if base is None:
            continue
        name = "/".join(key)
        pairs.append((name, diff_runs(base, rec, label_a=name, label_b=name)))
    lines.append("")
    lines.append(attribution_markdown(pairs))
    if failures:
        lines.append("")
        lines.append("### Regressions")
        lines.extend(f"- `{line}`" for line in failures)
    if notes:
        lines.append("")
        lines.append("### Notes")
        lines.extend(f"- {line}" for line in notes)
    lines.append("")
    return "\n".join(lines)


def export_smoke_trace(path: str, *, format: str = "chrome", workers: int = 2) -> None:
    """Write one profiled process-backend Afforest trace to ``path``.

    CI archives this next to the JSON report so a regression in worker
    telemetry (missing phase spans, empty worker tracks) is visible as a
    broken/empty artifact rather than only through unit tests.
    """
    import repro.engine as engine

    dataset, build = SMOKE_GRAPHS[0]
    graph = build()
    with engine.ProcessParallelBackend(workers=workers) as backend:
        result = engine.run("afforest", graph, backend=backend, profile=True)
    assert result.trace is not None
    write_trace(result.trace, path, format=format)
    spans = sum(1 for _ in result.trace.walk())
    tracks = len(result.trace.tracks())
    print(
        f"trace written to {path} ({format}; {dataset}, {spans} spans, "
        f"{tracks} worker tracks)"
    )


def _last_labels(graph: CSRGraph, algorithm: str, backend) -> np.ndarray:
    """One fresh labeling on ``backend`` for the oracle check.

    ``run_algorithm`` discards labels (it keeps only timings/counters), so
    the correctness check runs the algorithm once more on the same warm
    backend — cheap at smoke sizes and exercises exactly the timed path.
    """
    import repro.engine as engine

    return engine.run(algorithm, graph, backend=backend).labels


def _load_json(path: str, role: str) -> dict | None:
    """Load a report/baseline JSON file; ``None`` (plus a clear stderr
    message) when the file is missing or unparsable — the perf gate must
    fail with a diagnosis, never a traceback."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        print(f"error: {role} file not found: {path}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"error: {role} file {path} is not valid JSON: {exc}",
              file=sys.stderr)
        return None
    if not isinstance(data, dict):
        print(f"error: {role} file {path} is not a JSON report object",
              file=sys.stderr)
        return None
    return data


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (non-zero on
    oracle disagreement or a failed baseline gate)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.smoke",
        description="oracle-checked CI smoke benchmark and perf gate",
    )
    parser.add_argument("--output", help="write the JSON report to this path")
    parser.add_argument(
        "--baseline",
        help="compare against this committed report (e.g. BENCH_smoke.json): "
        "component counts and each record's plan always gate; timings "
        "gate too when --fail-threshold is set",
    )
    parser.add_argument(
        "--fail-threshold",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail when a record's median exceeds RATIO times its baseline "
        "median (e.g. 1.25 = >25%% slowdown); omit to keep timings "
        "informational",
    )
    parser.add_argument(
        "--gate-report",
        metavar="PATH",
        help="gate a previously written report (skips re-running the "
        "benchmarks; requires --baseline)",
    )
    parser.add_argument(
        "--summary-out",
        metavar="PATH",
        help="append a markdown comparison summary to this file "
        "(point at $GITHUB_STEP_SUMMARY in CI)",
    )
    parser.add_argument(
        "--ledger",
        metavar="PATH",
        help="append one kind=\"bench\" run record per measured "
        "combination to this JSONL ledger (repro obs diff reads it)",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--workers", type=int, default=2, help="process-backend worker count"
    )
    parser.add_argument(
        "--ranks",
        type=int,
        default=SMOKE_RANKS,
        help="distributed-backend world size (default: 2)",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="also record a 1/2/4-worker scaling curve per graph",
    )
    parser.add_argument(
        "--trace-out",
        help="also export a profiled process-backend Afforest trace here",
    )
    parser.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="chrome",
        help="trace file format (default: chrome, Perfetto-loadable)",
    )
    args = parser.parse_args(argv)
    if args.gate_report:
        if not args.baseline:
            print("error: --gate-report requires --baseline", file=sys.stderr)
            return 2
        loaded = _load_json(args.gate_report, "report")
        if loaded is None:
            return 1
        report = loaded
        failures = int(report.get("failures", 0))
    else:
        report, failures = run_smoke(
            repeats=args.repeats,
            workers=args.workers,
            ranks=args.ranks,
            scaling=args.scaling,
            ledger=args.ledger,
        )
    if args.baseline:
        baseline = _load_json(args.baseline, "baseline")
        if baseline is None:
            return 1
        regressions, notes = compare_against_baseline(
            report, baseline, fail_threshold=args.fail_threshold
        )
        for note in notes:
            print(f"baseline: {note}")
        for line in regressions:
            print(f"error: baseline regression: {line}", file=sys.stderr)
        if args.summary_out:
            summary = gate_summary_markdown(
                report, baseline, regressions, notes,
                fail_threshold=args.fail_threshold,
            )
            with open(args.summary_out, "a", encoding="utf-8") as fh:
                fh.write(summary)
            print(f"markdown summary appended to {args.summary_out}")
        failures += len(regressions)
    if args.output and not args.gate_report:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.output}")
    if args.trace_out and not args.gate_report:
        export_smoke_trace(
            args.trace_out, format=args.trace_format, workers=args.workers
        )
    if failures:
        print(f"error: {failures} configuration(s) disagree with the "
              "union-find oracle or the committed baseline", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
