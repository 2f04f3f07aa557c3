"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``  write a synthetic dataset proxy to a graph file
``info``      print Table III-style statistics for a graph
``solve``     compute connected components and optionally save the labels
``compare``   run several algorithms on one graph and print a timing table
``plans``     list the sampling × finish plan space (``--check`` validates it)
``convert``   translate between the supported graph file formats
``serve``     stand up the connectivity serving layer on one graph and
              drive a mixed query/update stream through it (throughput,
              p50/p95/p99 latency, epoch bit-identity oracle)
``trace``     render a saved execution trace as an ASCII timeline
``obs``       run-ledger tools: ``runs`` lists recent recorded runs,
              ``show`` prints one (``--prom`` for Prometheus text),
              ``diff`` attributes a slowdown between two runs, reports,
              or ledgers, and ``watch`` streams live per-round progress

Algorithm arguments accept registered names (``afforest``, ``auto``, …)
and composed plan names (``<sampling>+<finish>``, e.g. ``kout+sv``);
``solve --plan`` makes the composition explicit.

``solve`` and ``compare`` accept ``--trace-out PATH`` (with
``--trace-format {jsonl,chrome}``) to export the telemetry trace of the
profiled run; chrome-format files load directly into Perfetto /
``chrome://tracing``, and either format round-trips through
``repro trace PATH``.

Graphs are referenced either by a file path (``.el``/``.txt``/``.graph``/
``.metis``/``.npz``) or by a dataset spec ``dataset:<name>[:<size>]``
(e.g. ``dataset:kron:small``) resolved through the generator registry.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

import repro
from repro.constants import LABEL_DTYPE_POLICIES
from repro.engine import (
    CANONICAL_PLANS,
    available_algorithms,
    backend_kinds,
    get_algorithm,
    make_backend,
)
from repro.errors import ConfigurationError, ReproError
from repro.generators.datasets import DATASETS, SIZE_TIERS, load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.io import load_graph, save_graph
from repro.graph.properties import summarize
from repro.obs import (
    TRACE_FORMATS,
    HeartbeatEvent,
    HeartbeatMonitor,
    RunDiff,
    RunLedger,
    attribution_markdown,
    diff_runs,
    format_diff,
    format_event,
    load_trace,
    render_prometheus,
    render_trace,
    skew_lines,
    write_trace,
)


def _resolve_graph(spec: str, seed: int) -> CSRGraph:
    """Load a graph from a file path or a ``dataset:`` spec."""
    if spec.startswith("dataset:"):
        parts = spec.split(":")
        name = parts[1] if len(parts) > 1 else ""
        size = parts[2] if len(parts) > 2 else "default"
        return load_dataset(name, size, seed=seed)
    return load_graph(spec)


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, args.size, seed=args.seed)
    save_graph(graph, args.output)
    print(
        f"wrote {args.dataset}/{args.size} "
        f"({graph.num_vertices} vertices, {graph.num_edges} edges) "
        f"to {args.output}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args.graph, args.seed)
    p = summarize(graph, args.graph)
    print(f"graph:       {args.graph}")
    print(f"vertices:    {p.num_vertices}")
    print(f"edges:       {p.num_edges}")
    print(
        f"degree:      mean {p.degree.mean:.2f}, median {p.degree.median:.0f}, "
        f"max {p.degree.max}, isolated {p.degree.num_isolated}"
    )
    print(
        f"components:  {p.components.num_components} "
        f"(largest {p.components.largest}, "
        f"{p.components.largest_fraction:.1%} of vertices)"
    )
    print(f"diameter:    >= {p.pseudo_diameter} (double-sweep bound)")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.plan:
        if args.algorithm is not None:
            raise ConfigurationError(
                "pass either --algorithm or --plan, not both"
            )
        args.algorithm = args.plan
    elif args.algorithm is None:
        args.algorithm = "afforest"
    # Validate the name and the algorithm×backend combination against the
    # registry up front — a typo or unsupported substrate should fail
    # before the (possibly expensive) graph load, not deep in dispatch.
    spec = get_algorithm(args.algorithm)
    if not spec.supports_backend(args.backend):
        raise ConfigurationError(
            f"algorithm {args.algorithm!r} does not support the "
            f"{args.backend!r} backend; supported: {list(spec.backends)}"
        )
    graph = _resolve_graph(args.graph, args.seed)
    backend = make_backend(
        args.backend, workers=args.workers,
        ranks=getattr(args, "ranks", None),
        label_dtype=getattr(args, "label_dtype", "auto"),
    )
    try:
        t0 = time.perf_counter()
        result = repro.engine.run(
            args.algorithm, graph, backend=backend,
            trace=bool(args.trace_out),
        )
        elapsed = time.perf_counter() - t0
    finally:
        backend.close()
    labels = result.labels
    tag = "" if args.backend == "vectorized" else f" [{args.backend}]"
    # Plan provenance: shown only when the name does not already determine
    # the composition (a custom registration that runs some other plan).
    implied = CANONICAL_PLANS.get(args.algorithm, args.algorithm)
    if result.plan and result.plan != implied:
        tag += f" (plan {result.plan})"
    print(
        f"{args.algorithm}{tag}: {result.num_components} components in "
        f"{elapsed * 1000:.1f} ms "
        f"({graph.num_vertices} vertices, {graph.num_edges} edges)"
    )
    if args.output:
        np.savez_compressed(args.output, labels=labels)
        print(f"labels written to {args.output}")
    if args.trace_out and result.trace is not None:
        write_trace(result.trace, args.trace_out, format=args.trace_format)
        print(f"trace written to {args.trace_out} ({args.trace_format})")
    return 0


def _cmd_plans(args: argparse.Namespace) -> int:
    from repro.engine import PlanRegistry, describe_plans

    if args.check:
        return _check_plans(args)
    registry = PlanRegistry()
    samplings = registry.samplings
    finishes = registry.finishes
    print("sampling phases:")
    for name in sorted(samplings):
        print(f"  {name:<10} {samplings[name].description}")
    print("\nfinish phases:")
    for name in sorted(finishes):
        spec = finishes[name]
        notes = []
        if spec.supports_skip:
            notes.append("skip-capable")
        if spec.whole_graph:
            notes.append("whole-graph: composes with 'none' only")
        suffix = f"  [{', '.join(notes)}]" if notes else ""
        print(f"  {name:<14} {spec.description}{suffix}")
    plans = describe_plans()
    print(f"\ncomposed plans ({len(plans)}):")
    for name, _ in plans:
        print(f"  {name}")
    print("\nrun one with: repro solve <graph> --plan <sampling>+<finish>")
    return 0


def _check_plans(args: argparse.Namespace) -> int:
    """Validate that every registered plan runs on every declared backend.

    Runs each composition on a small multi-component graph per backend
    kind and compares the labels against the scipy oracle's
    component-minimum labeling; exits non-zero on any mismatch (the CI
    gate behind ``repro plans --check``).
    """
    from repro.engine import available_plans
    from repro.engine.plan import PLAN_BACKENDS
    from repro.generators.components import component_fraction_graph
    from repro.graph.properties import scipy_components

    graph = component_fraction_graph(150, 0.3, seed=3)
    comp = scipy_components(graph)
    n = graph.num_vertices
    mins = np.full(int(comp.max()) + 1, n, dtype=np.int64)
    np.minimum.at(mins, comp, np.arange(n, dtype=np.int64))
    expected = mins[comp]

    kinds = PLAN_BACKENDS
    if getattr(args, "backend", None):
        kinds = tuple(k for k in kinds if k == args.backend)

    failures = []
    checked = 0
    for kind in kinds:
        backend = make_backend(
            kind, workers=args.workers, ranks=getattr(args, "ranks", None)
        )
        try:
            for plan_name in available_plans():
                checked += 1
                try:
                    result = repro.engine.run(plan_name, graph, backend=backend)
                    ok = np.array_equal(result.labels, expected)
                except ReproError as exc:
                    failures.append(f"{plan_name} [{kind}]: {exc}")
                    continue
                if not ok:
                    failures.append(
                        f"{plan_name} [{kind}]: labels diverge from oracle"
                    )
        finally:
            backend.close()
    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        print(
            f"plans check: {len(failures)}/{checked} plan×backend "
            "combinations failed",
            file=sys.stderr,
        )
        return 1
    print(f"plans check: {checked} plan×backend combinations OK")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.report import format_table
    from repro.bench.runner import run_algorithm

    algorithms = [algo.strip() for algo in args.algorithms.split(",")]
    if args.plans is not None:
        from repro.engine import available_plans

        # --plans alone appends the full composed matrix; --plans a,b
        # appends just those compositions.
        extra = (
            available_plans()
            if args.plans == ""
            else [p.strip() for p in args.plans.split(",")]
        )
        algorithms.extend(p for p in extra if p not in algorithms)
    # Validate every name against the registry up front — a typo should
    # fail before the (possibly expensive) graph load and timing runs.
    specs = {algo: get_algorithm(algo) for algo in algorithms}
    # Algorithms that cannot run on the requested substrate are skipped
    # with a notice rather than aborting the whole comparison.
    unsupported = [
        algo
        for algo, spec in specs.items()
        if not spec.supports_backend(args.backend)
    ]
    for algo in unsupported:
        print(f"note: {algo} does not support the {args.backend} backend; skipped")
    algorithms = [algo for algo in algorithms if algo not in unsupported]
    if not algorithms:
        print("error: no requested algorithm supports the backend", file=sys.stderr)
        return 1
    graph = _resolve_graph(args.graph, args.seed)
    backend = make_backend(
        args.backend, workers=args.workers,
        ranks=getattr(args, "ranks", None),
        label_dtype=getattr(args, "label_dtype", "auto"),
    )
    try:
        records = [
            run_algorithm(
                graph, algo, args.graph, repeats=args.repeats, backend=backend
            )
            for algo in algorithms
        ]
    finally:
        backend.close()
    baseline = records[0]
    rows = [
        [
            rec.algorithm,
            round(rec.median_seconds * 1000, 3),
            round(rec.p25_seconds * 1000, 3),
            round(rec.p75_seconds * 1000, 3),
            round(rec.speedup_over(baseline), 2),
        ]
        for rec in records
    ]
    print(
        format_table(
            f"algorithm comparison on {args.graph}",
            ["algorithm", "median_ms", "p25_ms", "p75_ms", f"speedup_vs_{baseline.algorithm}"],
            rows,
        )
    )
    if args.profile:
        for rec in records:
            _print_profile(rec)
    if args.trace_out:
        _write_compare_traces(records, args.trace_out, args.trace_format)
    return 0


def _write_compare_traces(records, path: str, format: str) -> None:
    """Export each record's profiled-sample trace.

    One algorithm writes exactly ``path``; several write ``stem-algo.ext``
    siblings so each algorithm's trace stays a self-contained file.
    """
    from pathlib import Path

    traced = [rec for rec in records if rec.trace is not None]
    base = Path(path)
    for rec in traced:
        dest = (
            base
            if len(traced) == 1
            else base.with_name(f"{base.stem}-{rec.algorithm}{base.suffix}")
        )
        write_trace(rec.trace, dest, format=format)
        print(f"trace written to {dest} ({format}, {rec.algorithm})")


def _print_profile(rec) -> None:
    """Print one record's per-phase wall-time breakdown, if it has one."""
    phases = dict(rec.extra.get("phase_seconds") or {})
    if not phases:
        print(f"\n{rec.algorithm}: no phase breakdown recorded")
        return
    # "total" is the whole-run wall time, not a phase — report it as the
    # denominator rather than a band of itself.
    wall = phases.pop("total", None)
    total = wall if wall else (sum(phases.values()) or 1.0)
    print(f"\n{rec.algorithm} phase breakdown (first sample):")
    for label, secs in phases.items():
        print(f"  {label:<10} {secs * 1000:10.3f} ms  {secs / total:6.1%}")
    if wall is not None:
        covered = sum(phases.values())
        print(
            f"  {'total':<10} {wall * 1000:10.3f} ms  "
            f"(phases cover {covered / total:.1%}, rest is dispatch)"
        )
    counters = {
        k: v
        for k, v in rec.extra.items()
        if k != "phase_seconds" and isinstance(v, (int, float))
    }
    if counters:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        print(f"  counters: {parts}")
    skew = rec.extra.get("worker_skew")
    if skew:
        print("  worker skew (max/mean block time per phase):")
        for line in skew_lines(skew):
            print(f"  {line}")


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = load_trace(args.path)
    print(render_trace(trace, width=args.width))
    return 0


def _cmd_obs_runs(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger)
    records = ledger.last(args.limit)
    if not records:
        print(f"no records in {ledger.path}")
        return 0
    print(
        f"{'run id':<22} {'kind':<10} {'run':<34} "
        f"{'backend':<11} {'ms':>10}"
    )
    for rec in records:
        print(
            f"{rec.run_id:<22} {rec.kind:<10} {rec.label():<34} "
            f"{rec.backend or '-':<11} {rec.seconds * 1000:>10.2f}"
        )
    print(f"\n{len(records)} record(s) from {ledger.path}")
    return 0


def _cmd_obs_show(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger)
    rec = ledger.resolve(args.run)
    if args.prom:
        sys.stdout.write(render_prometheus(rec))
        return 0
    print(f"run:        {rec.run_id}  ({rec.kind})")
    print(f"algorithm:  {rec.algorithm or '-'}  plan={rec.plan or '-'}")
    workers = "" if rec.workers is None else f", workers={rec.workers}"
    print(f"backend:    {rec.backend or '-'}{workers}")
    if rec.graph:
        print(
            f"graph:      {rec.graph.get('vertices', '?')} vertices, "
            f"{rec.graph.get('edges', '?')} edges "
            f"[{rec.graph.get('digest', '?')}]"
        )
    comps = "" if rec.num_components is None else f"  {rec.num_components} components"
    print(f"seconds:    {rec.seconds:.6f}{comps}")
    if rec.label_dtype_bits:
        print(f"labels:     int{rec.label_dtype_bits}")
    if rec.phase_seconds:
        print("phases:")
        for label, secs in rec.phase_seconds.items():
            print(f"  {label:<12} {secs * 1000:10.3f} ms")
    if rec.counters:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(rec.counters.items()))
        print(f"counters:   {parts}")
    if rec.gauges:
        parts = ", ".join(f"{k}={v:g}" for k, v in sorted(rec.gauges.items()))
        print(f"gauges:     {parts}")
    if rec.meta:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(rec.meta.items()))
        print(f"meta:       {parts}")
    return 0


def _obs_matrix_key(rec: dict) -> tuple[str, str, str]:
    return (
        str(rec.get("dataset", "?")),
        str(rec.get("algorithm", "?")),
        str(rec.get("backend", "?")),
    )


def _obs_source(
    arg: str, ledger_path: str | None
) -> tuple[str, Any]:
    """Resolve one ``obs diff`` operand.

    An existing file is sniffed by shape: a JSONL whose first record has
    a ``run_id`` is a run ledger (one entry per combination, latest
    wins); a JSON object with a ``records`` key is a smoke/benchmark
    report; anything else is a trace file.  A non-file argument is a
    run reference (``latest``, ``-N``, or a run-id prefix) resolved
    against ``--ledger``.  Returns ``("matrix", {key: run})`` or
    ``("run", source)``.
    """
    path = Path(arg)
    if path.exists():
        text = path.read_text(encoding="utf-8")
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        try:
            head = json.loads(first)
        except ValueError:
            head = None
        if isinstance(head, dict) and head.get("run_id"):
            matrix: dict[tuple[str, str, str], Any] = {}
            for rec in RunLedger(path).records():
                dataset = (
                    rec.meta.get("dataset") or rec.graph.get("digest") or "?"
                )
                key = (
                    str(dataset),
                    rec.algorithm or rec.plan or "?",
                    rec.backend or "?",
                )
                matrix[key] = rec
            return "matrix", matrix
        try:
            whole = json.loads(text)
        except ValueError:
            whole = None
        if isinstance(whole, dict) and "records" in whole:
            matrix = {}
            for rec in whole.get("records") or []:
                if isinstance(rec, dict) and "median_seconds" in rec:
                    matrix[_obs_matrix_key(rec)] = rec
            return "matrix", matrix
        return "run", load_trace(arg)
    return "run", RunLedger(ledger_path).resolve(arg)


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    kind_a, a = _obs_source(args.run_a, args.ledger)
    kind_b, b = _obs_source(args.run_b, args.ledger)
    if kind_a != kind_b:
        raise ConfigurationError(
            "cannot diff a report/ledger matrix against a single run; "
            "pass two reports/ledgers or two runs/traces"
        )
    if kind_a == "matrix":
        pairs: list[tuple[str, RunDiff]] = []
        for key in sorted(set(a) & set(b)):
            name = "/".join(key)
            pairs.append(
                (name, diff_runs(a[key], b[key], label_a=name, label_b=name))
            )
        if not pairs:
            print("no comparable (dataset, algorithm, backend) combinations")
        for name, diff in sorted(
            pairs, key=lambda item: item[1].ratio, reverse=True
        ):
            print(diff.summary())
        markdown = attribution_markdown(pairs)
    else:
        diff = diff_runs(a, b)
        print(format_diff(diff))
        name = diff.label_b or diff.label_a or "run"
        markdown = attribution_markdown([(name, diff)])
    if args.summary_out:
        with open(args.summary_out, "a", encoding="utf-8") as fh:
            fh.write(markdown + "\n")
        print(f"markdown attribution appended to {args.summary_out}")
    return 0


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    spec = get_algorithm(args.algorithm)
    if not spec.supports_backend(args.backend):
        raise ConfigurationError(
            f"algorithm {args.algorithm!r} does not support the "
            f"{args.backend!r} backend; supported: {list(spec.backends)}"
        )
    graph = _resolve_graph(args.graph, args.seed)
    counts = {"round": 0, "block": 0}

    def sink(event: HeartbeatEvent) -> None:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if event.kind == "block" and not args.blocks:
            return
        print(format_event(event), flush=True)

    backend = make_backend(args.backend, workers=args.workers)
    try:
        t0 = time.perf_counter()
        result = repro.engine.run(
            args.algorithm,
            graph,
            backend=backend,
            heartbeat=HeartbeatMonitor(sink),
        )
        elapsed = time.perf_counter() - t0
    finally:
        backend.close()
    print(
        f"{args.algorithm}: {result.num_components} components in "
        f"{elapsed * 1000:.1f} ms ({counts['round']} rounds, "
        f"{counts['block']} worker blocks)"
    )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args.input, args.seed)
    save_graph(graph, args.output)
    print(f"converted {args.input} -> {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.bench.serving import drive_session

    graph = _resolve_graph(args.graph, args.seed)
    record, service = drive_session(
        graph,
        args.graph,
        algorithm=args.algorithm,
        backend=args.backend,
        workers=args.workers,
        requests=args.requests,
        query_frac=args.query_frac,
        size_frac=args.size_frac,
        pair_batch=args.pair_batch,
        update_edges=args.update_edges,
        recompress_every=args.recompress_every,
        max_batch=args.max_batch,
        seed=args.seed,
        oracle=not args.no_oracle,
        ledger=args.ledger,
    )
    counters = record["counters"]
    plan = f" (plan {record['plan']})" if record.get("plan") else ""
    print(
        f"served {args.graph}: {record['algorithm']} on "
        f"{record['backend']}{plan}"
    )
    print(
        f"  requests    {record['requests']} "
        f"({counters.get('serve_batch_queries', 0)} query batches, "
        f"{counters.get('serve_updates', 0)} update bursts, "
        f"{counters.get('serve_coalesced', 0)} coalesced)"
    )
    print(f"  throughput  {record['throughput_rps']:.0f} req/s")
    print(
        f"  latency     p50 {record['p50_ms']:.3f} ms   "
        f"p95 {record['p95_ms']:.3f} ms   p99 {record['p99_ms']:.3f} ms"
    )
    print(
        f"  state       {record['epochs']} epochs published, "
        f"{record['edges_inserted']} stream edges absorbed, "
        f"{record['num_components']} components"
    )
    ok = True
    if not args.no_oracle:
        ok = bool(record["matches_oracle"])
        verdict = (
            "bit-identical to batch re-solve"
            if ok
            else "MISMATCH against batch re-solve"
        )
        print(f"  oracle      {record['oracle_epochs']} epochs {verdict}")
    if args.output:
        report = {
            "kind": "serving",
            "failures": 0 if ok else 1,
            "records": [record],
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.output}")
    if args.prom_out:
        with open(args.prom_out, "w", encoding="utf-8") as fh:
            fh.write(service.prometheus())
        print(f"prometheus metrics written to {args.prom_out}")
    if not ok:
        print(
            "error: a published epoch disagrees with the batch re-solve "
            "oracle",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the ``repro`` command line."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Afforest connected components (IPDPS 2018 reproduction)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="seed for dataset: specs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset to a file")
    p.add_argument("dataset", choices=sorted(DATASETS))
    p.add_argument("output")
    p.add_argument("--size", choices=sorted(SIZE_TIERS), default="default")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("info", help="print graph statistics")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_info)

    # Enumerated from the registry so `--help` always lists exactly the
    # algorithms that will resolve (including any registered extensions).
    algo_names = ", ".join(available_algorithms())

    def add_backend_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            choices=backend_kinds(),
            default="vectorized",
            help="execution substrate (default: vectorized)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker count for the simulated/process backends "
            "(default: one per core, capped at 8)",
        )
        p.add_argument(
            "--ranks",
            type=int,
            default=None,
            help="world size for the distributed backend (default: 4)",
        )
        p.add_argument(
            "--label-dtype",
            choices=LABEL_DTYPE_POLICIES,
            default="auto",
            help="parent-array width policy: auto narrows to int32 when "
            "the graph fits (results are identical; wide forces int64)",
        )

    def add_trace_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out",
            help="export the profiled run's telemetry trace to this path",
        )
        p.add_argument(
            "--trace-format",
            choices=TRACE_FORMATS,
            default="chrome",
            help="trace file format (default: chrome, Perfetto-loadable)",
        )

    p = sub.add_parser("solve", help="compute connected components")
    p.add_argument("graph")
    p.add_argument(
        "-a",
        "--algorithm",
        default=None,
        help=f"registered algorithm or plan name (default: afforest; "
        f"one of: {algo_names}; or '<sampling>+<finish>')",
    )
    p.add_argument(
        "--plan",
        default=None,
        metavar="SAMPLING+FINISH",
        help="composed plan to run (e.g. kout+sv); alternative to "
        "--algorithm",
    )
    p.add_argument("--output", help="write labels to an .npz file")
    add_backend_args(p)
    add_trace_args(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("compare", help="time several algorithms on one graph")
    p.add_argument("graph")
    p.add_argument(
        "--algorithms", default="afforest,sv,lp,bfs,dobfs",
        help=f"comma-separated algorithm or plan names (from: {algo_names}; "
        "plans as '<sampling>+<finish>')",
    )
    p.add_argument(
        "--plans",
        nargs="?",
        const="",
        default=None,
        metavar="PLAN[,PLAN...]",
        help="also compare composed plans: a comma-separated list, or no "
        "value for every registered plan",
    )
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument(
        "--profile",
        action="store_true",
        help="print each algorithm's per-phase wall-time breakdown",
    )
    add_backend_args(p)
    add_trace_args(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser(
        "plans",
        help="list the sampling x finish plan space "
        "(--check validates every plan on every backend)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="run every composed plan on every backend against the "
        "scipy oracle; non-zero exit on any failure",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the simulated/process backends during "
        "--check",
    )
    p.add_argument(
        "--backend",
        choices=backend_kinds(),
        default=None,
        help="restrict --check to one backend (default: all)",
    )
    p.add_argument(
        "--ranks",
        type=int,
        default=None,
        help="world size for the distributed backend during --check "
        "(default: 4)",
    )
    p.set_defaults(fn=_cmd_plans)

    p = sub.add_parser("convert", help="translate between graph file formats")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser(
        "serve",
        help="run the connectivity serving layer over one graph: solve "
        "once, drive a mixed query/update stream, report throughput and "
        "latency percentiles",
    )
    p.add_argument("graph")
    p.add_argument(
        "-a",
        "--algorithm",
        default="afforest",
        help=f"algorithm or plan for the initial solve (one of: "
        f"{algo_names}; or '<sampling>+<finish>')",
    )
    p.add_argument(
        "--backend",
        choices=backend_kinds(),
        default=None,
        help="backend for the initial solve (serving reads are "
        "vectorized NumPy regardless)",
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--requests", type=int, default=400,
        help="requests in the driven stream (default 400)",
    )
    p.add_argument(
        "--query-frac", type=float, default=0.8,
        help="fraction of requests that are pair-query batches",
    )
    p.add_argument(
        "--size-frac", type=float, default=0.1,
        help="fraction that are size-query batches (rest are updates)",
    )
    p.add_argument(
        "--pair-batch", type=int, default=32,
        help="vertex pairs per query request",
    )
    p.add_argument(
        "--update-edges", type=int, default=32,
        help="edges per insertion burst",
    )
    p.add_argument(
        "--recompress-every", type=int, default=1024,
        help="stream edges absorbed between re-compression epochs",
    )
    p.add_argument(
        "--max-batch", type=int, default=128,
        help="requests coalesced per worker-loop wakeup",
    )
    p.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip verifying each epoch against a batch re-solve",
    )
    p.add_argument("--output", help="write a JSON serving report here")
    p.add_argument(
        "--prom-out",
        metavar="PATH",
        help="write the session's Prometheus text exposition here",
    )
    p.add_argument(
        "--ledger",
        metavar="PATH",
        help='append a kind="serve" session record to this JSONL ledger',
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "trace", help="render a saved trace (jsonl or chrome) as ASCII"
    )
    p.add_argument("path")
    p.add_argument(
        "--width", type=int, default=48, help="timeline column width"
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "obs",
        help="run-ledger tools: list, show, diff, and watch recorded runs",
    )
    obs = p.add_subparsers(dest="obs_command", required=True)

    def add_ledger_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger",
            default=None,
            metavar="PATH",
            help="ledger file (default: $REPRO_LEDGER or .repro/ledger.jsonl)",
        )

    q = obs.add_parser("runs", help="list the most recent recorded runs")
    add_ledger_arg(q)
    q.add_argument(
        "-n", "--limit", type=int, default=20, help="rows to show (newest last)"
    )
    q.set_defaults(fn=_cmd_obs_runs)

    q = obs.add_parser(
        "show", help="print one recorded run (--prom for Prometheus text)"
    )
    q.add_argument(
        "run", help="run reference: run-id prefix, 'latest', or -N"
    )
    add_ledger_arg(q)
    q.add_argument(
        "--prom",
        action="store_true",
        help="emit the run's metrics in Prometheus text exposition format",
    )
    q.set_defaults(fn=_cmd_obs_show)

    q = obs.add_parser(
        "diff",
        help="attribute the slowdown between two runs, reports, or ledgers",
    )
    q.add_argument(
        "run_a",
        help="baseline: a run reference, a trace file, a smoke/benchmark "
        "report (JSON with 'records'), or a ledger (JSONL)",
    )
    q.add_argument("run_b", help="candidate: same forms as the baseline")
    add_ledger_arg(q)
    q.add_argument(
        "--summary-out",
        metavar="PATH",
        help="append the markdown attribution table to this file "
        "(point at $GITHUB_STEP_SUMMARY in CI)",
    )
    q.set_defaults(fn=_cmd_obs_diff)

    q = obs.add_parser(
        "watch", help="run an algorithm and stream live per-round progress"
    )
    q.add_argument("graph")
    q.add_argument(
        "-a",
        "--algorithm",
        default="afforest",
        help=f"registered algorithm or plan name (one of: {algo_names})",
    )
    q.add_argument(
        "--backend",
        choices=backend_kinds(),
        default="vectorized",
        help="execution substrate (default: vectorized)",
    )
    q.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the simulated/process backends",
    )
    q.add_argument(
        "--blocks",
        action="store_true",
        help="also print per-worker block completions (process backend)",
    )
    q.set_defaults(fn=_cmd_obs_watch)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # well-behaved Unix tools do.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
