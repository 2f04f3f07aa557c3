"""The three workloads and the run that measures one of them.

A run sets up ``SETUP_REPEATS`` times from the dataset seed, checks the graph
against the dataset registry, warms the machine, then repeats rounds for
the requested seconds.  A round is the warm batch series (afforest solves,
fastsv, auto, the process and distributed backends, verification) followed
by closed-loop serving sessions.  All workloads run every series, so every
end-to-end metric is measured on each; the workloads differ in their graph
and in how a round splits its time.  With tracing on, the same run also
records spans and measures the per-layer figures.
"""

from __future__ import annotations

import itertools
import resource
import time
from dataclasses import dataclass

import numpy as np

from repro import engine
from repro.engine.backends import DistributedBackend, ProcessParallelBackend
from repro.generators.datasets import load_dataset
from repro.graph.builder import build_csr
from repro.obs.ledger import fingerprint_graph

from perfbench import batch, serving
from perfbench.inputs import DATASET_SEED, EDGE_DRAWS, input_counts, same_csr
from perfbench.oracle import LabelOracle, Tally
from perfbench.spans import BENCH_LAYER, Recorder

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Worker processes of the process backend.
WORKERS = 2
#: Simulated ranks of the distributed backend.
RANKS = 4
#: Seconds of discarded calls before the first timed one.
WARMUP_SECONDS = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    why: str
    #: calls of each series per round: ``(series, count)``.
    mix: tuple[tuple[str, int], ...]
    #: also hold every epoch bit-identical to ``batch_resolve``.
    resolve_epochs: bool

    def round_order(self) -> list[str]:
        """One round's calls, each series spread evenly through the round.

        Interleaving makes every series sample the same stretch of machine
        time, so a slow second affects all of them alike.
        """
        slots = [
            ((i + 0.5) / count, pos, series)
            for pos, (series, count) in enumerate(self.mix)
            for i in range(count)
        ]
        return [series for _, _, series in sorted(slots)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "kron-batch",
            "kron",
            "skewed R-MAT graph: edge draws and CSR dedup dominate set-up, "
            "the giant-component skip removes most finish work",
            mix=(
                ("solve", 20), ("fastsv", 2), ("auto", 2), ("process", 6),
                ("dist", 4), ("verify", 2), ("session", 4),
            ),
            resolve_epochs=False,
        ),
        Workload(
            "road-batch",
            "road",
            "high-diameter grid: cheap CSR build, more link/compress rounds "
            "and distributed supersteps",
            mix=(
                ("solve", 20), ("fastsv", 4), ("auto", 3), ("process", 8),
                ("dist", 3), ("verify", 8), ("session", 5),
            ),
            resolve_epochs=False,
        ),
        Workload(
            "serve-mixed",
            "osm-eur",
            "closed-loop query/update stream on a served graph: snapshot "
            "reads beside incremental writes and epoch publication",
            mix=(
                ("solve", 20), ("fastsv", 3), ("auto", 2), ("process", 6),
                ("dist", 3), ("verify", 6), ("session", 12),
            ),
            resolve_epochs=True,
        ),
    )
}


class Run:
    """State of one benchmark run: inputs, backends, series and checks."""

    def __init__(self, workload: Workload, seed: int, tier: str, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tier = tier
        self.rec = Recorder(trace)
        self.tally = Tally()
        self.series: dict[str, list[float]] = {
            k: []
            for k in (
                "setup", "edges", "csr", "process_first", "dist_first",
                "serve_init", "solve", "fastsv", "auto", "process", "dist",
                "wire_bytes", "verify", "scipy", "canonical", "query_service",
            )
        }
        self.sessions: list[dict] = []
        self.graph = None
        self.process: ProcessParallelBackend | None = None
        self.distributed: DistributedBackend | None = None
        self.oracle: LabelOracle | None = None
        self.ops: list = []
        self.epoch_oracle: serving.EpochOracle | None = None
        self.counts: dict[str, float] = {}
        self.last_labels: np.ndarray | None = None

    # ------------------------------------------------------------------ #

    def sample(self, name: str, seconds: float, labels: np.ndarray) -> None:
        """Record one timed solve, then check its labeling."""
        self.series[name].append(seconds)
        self.tally.record(self.oracle.agrees(labels), f"{name} labeling")
        self.last_labels = labels

    def close_backends(self) -> None:
        for backend in (self.process, self.distributed):
            if backend is not None:
                backend.close()
        self.process = self.distributed = None

    def setup(self) -> None:
        """Seed to ready: edges, CSR, backends and their first calls, a service."""
        rec = self.rec
        self.close_backends()
        with rec.span("setup", BENCH_LAYER) as total:
            with rec.span("generators.edges", "repro.generators") as t_edges:
                edges = EDGE_DRAWS[self.workload.dataset](self.tier, DATASET_SEED)
            with rec.span("graph.build_csr", "repro.graph") as t_csr:
                graph = build_csr(edges)
            # Pool spawn, shared memory and shard placement are lazy: the
            # first call pays them, so it belongs to set-up.
            with rec.span("engine.process.first", "repro.engine") as t_proc:
                self.process = ProcessParallelBackend(workers=WORKERS)
                first_proc = engine.run("afforest", graph, backend=self.process)
            with rec.span("engine.distributed.first", "repro.distributed") as t_dist:
                self.distributed = DistributedBackend(ranks=RANKS)
                first_dist = engine.run("afforest", graph, backend=self.distributed)
            with rec.span("serve.init", "repro.serve") as t_serve:
                service = serving.new_service(graph, [])
        for key, t in (
            ("setup", total), ("edges", t_edges), ("csr", t_csr),
            ("process_first", t_proc), ("dist_first", t_dist),
            ("serve_init", t_serve),
        ):
            self.series[key].append(t.seconds)
        if self.oracle is None:
            self.oracle = LabelOracle(graph, rec)
            self.counts = input_counts(edges, graph)
        else:
            self.tally.record(same_csr(graph, self.graph), "rebuilt CSR")
        self.graph = graph
        for what, labels in (
            ("process first call", first_proc.labels),
            ("distributed first call", first_dist.labels),
            ("service epoch 0", service.labels()),
        ):
            self.tally.record(self.oracle.agrees(labels), what)

    def check_identity(self) -> dict:
        """Bit-identity with the registry's graph, and the graph's fingerprint."""
        with self.rec.span("generators.load_dataset", "repro.generators"):
            registry = load_dataset(self.workload.dataset, self.tier, seed=DATASET_SEED)
        self.tally.record(same_csr(self.graph, registry), "CSR identical to load_dataset")
        del registry
        with self.rec.span("obs.fingerprint_graph", "repro.obs"):
            return fingerprint_graph(self.graph)

    def session(self) -> None:
        """One closed-loop session on a freshly built service."""
        epochs: list = []
        with self.rec.span("serve.init", "repro.serve") as t:
            service = serving.new_service(self.graph, epochs)
        self.series["serve_init"].append(t.seconds)
        session = serving.run_session(service, epochs, self.ops, self.rec)
        with self.rec.span("check session", BENCH_LAYER):
            serving.check_session(
                session, service, self.ops, self.epoch_oracle, self.tally
            )
        kinds = [op[0] for op in self.ops]
        self.sessions.append(
            {
                "seconds": session.seconds,
                "requests": len(self.ops),
                "query": [s for s, k in zip(session.latency, kinds) if k != "update"],
                "update": [s for s, k in zip(session.latency, kinds) if k == "update"],
                "epochs": service.epoch,
                "counters": session.counters,
            }
        )

    def cycle(self, seconds: float, order: list[str]) -> None:
        """Call the series in ``order``, cyclically, until ``seconds`` have
        passed and every call in ``order`` has run at least once."""
        tasks = {
            "solve": batch.solve, "fastsv": batch.fastsv, "auto": batch.auto,
            "process": batch.process, "dist": batch.dist, "verify": batch.verify,
            "session": Run.session,
        }
        t_end = time.perf_counter() + seconds
        for i in itertools.count():
            if i >= len(order) and time.perf_counter() >= t_end:
                return
            tasks[order[i % len(order)]](self)

    def clear_series(self) -> None:
        for key in ("solve", "fastsv", "auto", "process", "dist", "wire_bytes",
                    "verify", "scipy", "canonical"):
            self.series[key].clear()
        self.sessions.clear()

    def execute(self, seconds: float) -> dict:
        """The whole run; returns every figure it measured."""
        rec = self.rec
        try:
            with rec.span("workload", BENCH_LAYER) as wall:
                for _ in range(SETUP_REPEATS):
                    self.setup()
                fingerprint = self.check_identity()
                self.ops = serving.request_stream(self.seed, self.graph.num_vertices)
                self.epoch_oracle = serving.EpochOracle(
                    self.oracle, self.ops, rec, self.workload.resolve_epochs
                )
                order = self.workload.round_order()
                with rec.span("warm-up", BENCH_LAYER):
                    # Warm the machine: every series at least once, all
                    # discarded, before the first timed call.
                    self.cycle(min(WARMUP_SECONDS, seconds), list(dict.fromkeys(order)))
                    self.clear_series()
                with rec.span("timed", BENCH_LAYER):
                    self.cycle(seconds, order)
                layers = batch.layer_probes(self) if rec.enabled else {}
        finally:
            self.close_backends()
        return {
            "fingerprint": fingerprint,
            "layers": layers,
            "wall_seconds": wall.seconds,
            "self_seconds": rec.layer_self_seconds(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
