"""The benchmark's metrics: names, units, and how a run's series reduce.

End-to-end metrics come from untraced runs only; per-layer metrics from
the traced run.  ``BENCHMARK.json`` declares the same names and units.
"""

from __future__ import annotations

from perfbench.stats import median, tail

#: name -> unit, in report order.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "solve_ms": "ms",
    "solve_tail_ms": "ms",
    "fastsv_ms": "ms",
    "auto_ms": "ms",
    "process_ms": "ms",
    "dist_ms": "ms",
    "wire_bytes": "bytes",
    "verify_s": "s",
    "serve_rps": "req/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "update_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Layers the traced run attributes self time to (span layer names).
LAYERS: dict[str, str] = {
    "repro.generators": "share.generators",
    "repro.graph": "share.graph",
    "repro.engine": "share.engine",
    "repro.distributed": "share.distributed",
    "repro.unionfind": "share.unionfind",
    "repro.analysis.verify": "share.analysis",
    "repro.serve": "share.serve",
    "repro.core.incremental": "share.incremental",
    "repro.obs": "share.obs",
    "unattributed": "share.unattributed",
}

PER_LAYER: dict[str, str] = {
    "generators.edges_s": "s",
    "graph.build_csr_s": "s",
    "graph.records_in": "count",
    "graph.edges_out": "count",
    "graph.dedup_kept_frac": "ratio",
    "graph.csr_bytes": "bytes",
    "graph.scipy_oracle_s": "s",
    "analysis.canonical_s": "s",
    "unionfind.oracle_s": "s",
    "engine.process.cold_ms": "ms",
    "engine.distributed.cold_ms": "ms",
    "engine.bytes_allocated": "bytes",
    "auto.probe_ms": "ms",
    "auto.over_best_x": "x",
    "engine.sample_ms": "ms",
    "engine.skip_ms": "ms",
    "engine.finish_ms": "ms",
    "engine.skip_frac": "ratio",
    "engine.hook_ms": "ms",
    "engine.fused_passes": "count",
    "engine.rounds_skipped": "count",
    "engine.process.settle_ms": "ms",
    "engine.process.settle_passes": "count",
    "distributed.exchange_ms": "ms",
    "distributed.supersteps": "count",
    "distributed.messages": "count",
    "distributed.max_rank_bytes": "bytes",
    "serve.init_s": "s",
    "serve.same_batch_ms": "ms",
    "serve.sizes_ms": "ms",
    "incremental.add_edges_ms": "ms",
    "serve.publish_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.coalesced_frac": "ratio",
    "serve.epochs": "count",
    "serve.batches": "count",
    "serve.refused": "count",
    "obs.trace_overhead_frac": "ratio",
    **{share: "ratio" for share in LAYERS.values()},
}

Figures = dict[str, tuple[float, str]]


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def end_to_end(run, res: dict) -> tuple[Figures, dict[str, str]]:
    """``(figures, notes)``: every end-to-end metric, plus how it was taken."""
    s = run.series
    sessions = run.sessions
    notes: dict[str, str] = {}
    out: dict[str, float] = {}
    out["setup_s"] = median(s["setup"])
    notes["setup_s"] = f"median of {len(s['setup'])} set-ups"
    for name, key in (
        ("solve_ms", "solve"), ("fastsv_ms", "fastsv"), ("auto_ms", "auto"),
        ("process_ms", "process"), ("dist_ms", "dist"),
    ):
        out[name] = _ms(median(s[key]))
        notes[name] = f"median of {len(s[key])}"
    value, pct, n = tail(s["solve"])
    out["solve_tail_ms"] = _ms(value)
    notes["solve_tail_ms"] = f"p{pct:.1f} of {n} samples"
    out["wire_bytes"] = median(s["wire_bytes"])
    notes["wire_bytes"] = f"comm_bytes_sent, {len(set(s['wire_bytes']))} distinct value(s)"
    out["verify_s"] = median(s["verify"])
    notes["verify_s"] = f"scipy_components + equivalent_labelings, median of {len(s['verify'])}"

    requests = sum(x["requests"] for x in sessions)
    wall = sum(x["seconds"] for x in sessions)
    out["serve_rps"] = requests / wall
    notes["serve_rps"] = f"{requests} requests in {len(sessions)} sessions, {wall:.2f} s"
    queries = [q for x in sessions for q in x["query"]]
    out["query_p50_ms"] = _ms(median(queries))
    notes["query_p50_ms"] = f"median of {len(queries)}"
    # The tail is taken per session (each replays the same stream) and
    # the sessions' tails are reduced by their median.
    tails = [tail(x["query"]) for x in sessions]
    out["query_tail_ms"] = _ms(median([t[0] for t in tails]))
    notes["query_tail_ms"] = (
        f"median over {len(tails)} sessions of p{median([t[1] for t in tails]):.1f}"
        f" of {tails[0][2]} samples each"
    )
    updates = [u for x in sessions for u in x["update"]]
    out["update_p50_ms"] = _ms(median(updates))
    notes["update_p50_ms"] = f"median of {len(updates)}"
    out["peak_rss_mb"] = res["peak_rss_mb"]
    notes["peak_rss_mb"] = "ru_maxrss of the benchmark process"
    return {k: (out[k], unit) for k, unit in END_TO_END.items()}, notes


def per_layer(run, res: dict) -> tuple[Figures, dict[str, str]]:
    """``(figures, notes)``: every per-layer metric of a traced run."""
    s = run.series
    sessions = run.sessions
    layers = res["layers"]
    notes: dict[str, str] = {}
    out: dict[str, float] = dict(run.counts)
    notes["graph.csr_bytes"] = "computed from the CSR array sizes"
    out["generators.edges_s"] = median(s["edges"])
    out["graph.build_csr_s"] = median(s["csr"])
    out["graph.scipy_oracle_s"] = median(s["scipy"])
    out["analysis.canonical_s"] = median(s["canonical"])
    out["engine.process.cold_ms"] = _ms(median(s["process_first"]) - median(s["process"]))
    out["engine.distributed.cold_ms"] = _ms(median(s["dist_first"]) - median(s["dist"]))
    out.update(layers)
    auto_ms = _ms(median(s["auto"]))
    best_name, best_ms = min(
        (("afforest", _ms(median(s["solve"]))), ("fastsv", _ms(median(s["fastsv"])))),
        key=lambda kv: kv[1],
    )
    out["auto.over_best_x"] = auto_ms / best_ms
    notes["auto.over_best_x"] = f"auto {auto_ms:.3f} ms over {best_name} {best_ms:.3f} ms"
    out["serve.init_s"] = median(s["serve_init"])
    queries = [q for x in sessions for q in x["query"]]
    out["serve.queue_wait_ms"] = _ms(median(queries) - median(s["query_service"]))
    notes["serve.queue_wait_ms"] = "client query p50 minus direct query service p50"
    counters = [x["counters"] for x in sessions]
    total = sum(c.get("serve_requests", 0) for c in counters)
    out["serve.coalesced_frac"] = sum(c.get("serve_coalesced", 0) for c in counters) / max(1, total)
    out["serve.epochs"] = median([x["epochs"] for x in sessions])
    notes["serve.epochs"] = "epochs published per session"
    out["serve.batches"] = median([c.get("serve_batches", 0) for c in counters])
    notes["serve.batches"] = "server batches per session, median"
    out["serve.refused"] = sum(
        c.get("serve_rejected", 0) + c.get("serve_errors", 0) for c in counters
    )
    wall = res["wall_seconds"]
    for layer, name in LAYERS.items():
        out[name] = res["self_seconds"].get(layer, 0.0) / wall
    return {k: (out[k], unit) for k, unit in PER_LAYER.items()}, notes
