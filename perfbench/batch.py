"""Batch solves: one call of each warm series, and the traced layer probes.

Every call is timed from outside, around the library's public functions;
each labeling is checked against the scipy reference after its timer has
stopped.
"""

from __future__ import annotations

import re

import numpy as np

from repro import engine
from repro.analysis.verify import equivalent_labelings
from repro.core.incremental import IncrementalConnectivity
from repro.engine.auto import select_plan
from repro.graph.properties import scipy_components
from repro.unionfind import sequential_components

from perfbench import serving
from perfbench.spans import BENCH_LAYER
from perfbench.stats import median

#: Profiled/unprofiled afforest pairs behind the trace overhead figure.
PROFILED_PAIRS = 15
#: Profiled runs of each other configuration in the traced run.
PROFILED_RUNS = 3
#: ``select_plan`` calls timed directly in the traced run.
PROBE_RUNS = 3
#: Direct service and incremental calls timed in the traced run.
DIRECT_CALLS = 200
#: Explicit publications timed in the traced run.
PUBLISHES = 8

_SAMPLE_PHASE = re.compile(r"^[LC]\d+$")
_FINISH_PHASE = re.compile(r"^(H.*|C\*)$")
_HOOK_PHASE = re.compile(r"^HS\d+$")


def _solve(ctx, series: str, name: str, layer: str, **kwargs) -> None:
    with ctx.rec.span(f"engine.run {name} {series}", layer) as t:
        res = engine.run(name, ctx.graph, **kwargs)
    ctx.sample(series, t.seconds, res.labels)


def solve(ctx) -> None:
    """Warm afforest through the default call."""
    _solve(ctx, "solve", "afforest", "repro.engine")


def fastsv(ctx) -> None:
    _solve(ctx, "fastsv", "fastsv", "repro.engine")


def auto(ctx) -> None:
    _solve(ctx, "auto", "auto", "repro.engine")


def process(ctx) -> None:
    _solve(ctx, "process", "afforest", "repro.engine", backend=ctx.process)


def dist(ctx) -> None:
    stats = ctx.distributed.comm.stats
    sent = stats.bytes_sent
    _solve(ctx, "dist", "afforest", "repro.distributed", backend=ctx.distributed)
    ctx.series["wire_bytes"].append(stats.bytes_sent - sent)


def verify(ctx) -> None:
    """Verification of one labeling as ``repro plans --check`` does it."""
    rec = ctx.rec
    with rec.span("verify", BENCH_LAYER) as t:
        with rec.span("graph.scipy_components", "repro.graph") as ts:
            reference = scipy_components(ctx.graph)
        with rec.span("analysis.equivalent_labelings", "repro.analysis.verify") as tc:
            ok = equivalent_labelings(ctx.last_labels, reference)
    ctx.series["verify"].append(t.seconds)
    ctx.series["scipy"].append(ts.seconds)
    ctx.series["canonical"].append(tc.seconds)
    ctx.tally.record(ok, "verify: equivalent_labelings")


def _phase_ms(result, pattern: re.Pattern) -> float:
    return 1e3 * sum(
        s for name, s in result.phase_seconds.items() if pattern.match(name)
    )


def layer_probes(ctx) -> dict[str, float]:
    """Per-layer figures that only the traced run measures."""
    g, rec = ctx.graph, ctx.rec
    out: dict[str, float] = {}

    probe = []
    for _ in range(PROBE_RUNS):
        with rec.span("auto.select_plan", "repro.engine") as t:
            select_plan(g)
        probe.append(t.seconds)
    out["auto.probe_ms"] = 1e3 * median(probe)

    with rec.span("unionfind.sequential_components", "repro.unionfind") as t:
        labels = sequential_components(g)
    ctx.tally.record(ctx.oracle.agrees(labels), "unionfind labeling")
    out["unionfind.oracle_s"] = t.seconds

    plain, traced, runs = [], [], []
    for _ in range(PROFILED_PAIRS):
        with rec.span("engine.run afforest", "repro.engine") as t:
            res = engine.run("afforest", g)
        plain.append(t.seconds)
        with rec.span("engine.run afforest profile", "repro.engine") as t:
            res = engine.run("afforest", g, profile=True)
        traced.append(t.seconds)
        runs.append(res)
        ctx.tally.record(ctx.oracle.agrees(res.labels), "profiled afforest labeling")
    out["obs.trace_overhead_frac"] = median(traced) / median(plain) - 1.0
    out["engine.sample_ms"] = median([_phase_ms(r, _SAMPLE_PHASE) for r in runs])
    out["engine.skip_ms"] = median([1e3 * r.phase_seconds.get("F", 0.0) for r in runs])
    out["engine.finish_ms"] = median([_phase_ms(r, _FINISH_PHASE) for r in runs])
    out["engine.skip_frac"] = runs[0].edges_skipped / max(1, g.num_directed_edges)
    out["engine.bytes_allocated"] = runs[0].counters.get("bytes_allocated", 0)

    def profiled(name: str, layer: str, **kw) -> list:
        results = []
        for _ in range(PROFILED_RUNS):
            with rec.span(f"engine.run {name} profile", layer):
                res = engine.run(name, g, profile=True, **kw)
            ctx.tally.record(ctx.oracle.agrees(res.labels), f"profiled {name} labeling")
            results.append(res)
        return results

    runs = profiled("fastsv", "repro.engine")
    out["engine.hook_ms"] = median([_phase_ms(r, _HOOK_PHASE) for r in runs])
    out["engine.fused_passes"] = runs[0].counters.get("fused_passes", 0)
    out["engine.rounds_skipped"] = runs[0].counters.get("rounds_skipped", 0)

    runs = profiled("afforest", "repro.engine", backend=ctx.process)
    out["engine.process.settle_ms"] = median(
        [1e3 * r.phase_seconds.get("H-settle", 0.0) for r in runs]
    )
    out["engine.process.settle_passes"] = runs[0].counters.get("settle_passes", 0)

    runs = profiled("afforest", "repro.distributed", backend=ctx.distributed)
    out["distributed.exchange_ms"] = median(
        [1e3 * r.phase_seconds.get("X", 0.0) for r in runs]
    )
    counters = runs[0].counters
    out["distributed.supersteps"] = counters.get("comm_supersteps", 0)
    out["distributed.messages"] = counters.get("comm_messages", 0)
    by_rank: dict[str, int] = {}
    for key, nbytes in counters.items():
        if key.startswith("comm_pair_"):
            src = key.split("_")[2]
            by_rank[src] = by_rank.get(src, 0) + nbytes
    out["distributed.max_rank_bytes"] = max(by_rank.values(), default=0)

    serve, query_service_s = _serving_probes(ctx)
    out.update(serve)
    ctx.series["query_service"].append(query_service_s)
    return out


def _serving_probes(ctx) -> tuple[dict[str, float], float]:
    """Direct service, incremental and publication calls, no server."""
    g, rec, ops = ctx.graph, ctx.rec, ctx.ops
    epochs: list = []
    with rec.span("serve.init", "repro.serve") as t:
        service = serving.new_service(g, epochs)
    ctx.series["serve_init"].append(t.seconds)

    same, sizes, queries = [], [], 0
    for op in ops:
        if queries >= DIRECT_CALLS:
            break
        if op[0] == "same":
            with rec.span("serve.same_component_batch", "repro.serve") as t:
                service.same_component_batch(op[1], op[2])
            same.append(t.seconds)
        elif op[0] == "sizes":
            with rec.span("serve.component_sizes", "repro.serve") as t:
                service.component_sizes(op[1])
            sizes.append(t.seconds)
        else:
            continue
        queries += 1

    updates = [op for op in ops if op[0] == "update"]
    inc = IncrementalConnectivity.from_labels(service.labels(), compress_every=0)
    adds = []
    for op in updates[:DIRECT_CALLS]:
        with rec.span("incremental.add_edges", "repro.core.incremental") as t:
            inc.add_edges(op[1], op[2])
        adds.append(t.seconds)

    publish = []
    for op in updates[:PUBLISHES]:
        service.add_edges(op[1], op[2])
        with rec.span("serve.refresh", "repro.serve") as t:
            service.refresh()
        publish.append(t.seconds)
    for snap in epochs:
        ok = np.array_equal(snap.labels, ctx.epoch_oracle.reference(snap.edges_applied))
        ctx.tally.record(ok, f"direct publication, epoch {snap.epoch}")
    metrics = {
        "serve.same_batch_ms": 1e3 * median(same),
        "serve.sizes_ms": 1e3 * median(sizes),
        "incremental.add_edges_ms": 1e3 * median(adds),
        "serve.publish_ms": 1e3 * median(publish),
    }
    return metrics, median(same + sizes)
