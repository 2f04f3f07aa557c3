"""Closed-loop serving sessions over ``ConnectivityService``.

One client thread replays a seeded request stream (the mix of
``repro.bench.serving.build_workload``, in exact counts: 80 % pair
queries, 10 % size queries, 10 % 32-edge insertion bursts) against a
``ConnectivityServer`` and keeps :data:`WINDOW` requests outstanding: the next request goes out
only when an earlier one has completed.  Epochs publish every
:data:`RECOMPRESS_EVERY` absorbed stream edges.

Every session of a run replays the same stream on a freshly built
service, so each session publishes the same epochs; the answers of every
request and every epoch's labels are checked after the session ends.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.serving import build_workload
from repro.graph.csr import CSRGraph
from repro.serve import ConnectivityServer, ConnectivityService, Snapshot

from perfbench.oracle import LabelOracle, Tally
from perfbench.spans import Recorder

#: Requests in one session's stream.
REQUESTS = 1024
#: Shares of pair queries and of size queries; the rest are updates.
QUERY_FRAC = 0.8
SIZE_FRAC = 0.1
#: Requests a client keeps outstanding.
WINDOW = 4
#: Stream edges absorbed between published epochs.
RECOMPRESS_EVERY = 1024
#: Requests the server drains per wake-up (its coalescing window).
MAX_BATCH = 128
#: Seconds the client waits for a free slot before it abandons the run.
REQUEST_TIMEOUT = 30.0

Op = tuple


def request_stream(seed: int, num_vertices: int) -> list[Op]:
    """The session stream; the same ``seed`` gives the same stream.

    ``build_workload`` draws each request's kind at random, so the number
    of insertion bursts, and with it the number of published epochs,
    would vary by about 15 % from seed to seed.  An update costs about ten
    queries, so that alone would spread ``serve_rps`` over seeds.  The
    stream is therefore built from exact counts of each kind, drawn by
    ``build_workload`` one kind at a time, and shuffled by the seed.
    """
    rng = np.random.default_rng([seed, 0x5E55])
    n_same = round(QUERY_FRAC * REQUESTS)
    n_sizes = round(SIZE_FRAC * REQUESTS)
    ops = (
        build_workload(rng, num_vertices, n_same, query_frac=1.0)
        + build_workload(rng, num_vertices, n_sizes, query_frac=0.0, size_frac=1.0)
        + build_workload(
            rng, num_vertices, REQUESTS - n_same - n_sizes,
            query_frac=0.0, size_frac=0.0,
        )
    )
    return [ops[i] for i in rng.permutation(len(ops))]


def new_service(graph: CSRGraph, epochs: list[Snapshot]) -> ConnectivityService:
    """A service over ``graph`` that appends every epoch to ``epochs``."""
    service = ConnectivityService(
        graph, recompress_every=RECOMPRESS_EVERY, on_epoch=epochs.append
    )
    epochs.append(service.snapshot)
    return service


@dataclass
class Session:
    """What one session left behind for the metrics and the checks."""

    seconds: float
    latency: list[float]
    futures: list
    epochs: list[Snapshot]
    counters: dict[str, int]


def run_session(
    service: ConnectivityService,
    epochs: list[Snapshot],
    ops: list[Op],
    rec: Recorder,
) -> Session:
    """Replay ``ops`` through a server over ``service``, closed loop."""
    server = ConnectivityServer(
        service, max_batch=MAX_BATCH, max_queue=4 * WINDOW, record=False
    )
    slots = threading.Semaphore(WINDOW)
    latency = [0.0] * len(ops)
    futures = []

    def take_slot() -> None:
        if not slots.acquire(timeout=REQUEST_TIMEOUT):
            raise TimeoutError(f"no request completed within {REQUEST_TIMEOUT} s")

    def on_done(i: int, t0: float):
        def done(_fut) -> None:
            latency[i] = time.perf_counter() - t0
            slots.release()

        return done

    with rec.span("serve.session", "repro.serve"):
        server.start()
        try:
            t_start = time.perf_counter()
            for i, op in enumerate(ops):
                take_slot()
                t0 = time.perf_counter()
                if op[0] == "same":
                    fut = server.submit_same(op[1], op[2])
                elif op[0] == "sizes":
                    fut = server.submit_sizes(op[1])
                else:
                    fut = server.submit_update(op[1], op[2])
                fut.add_done_callback(on_done(i, t0))
                futures.append(fut)
            for _ in range(WINDOW):
                take_slot()
            seconds = time.perf_counter() - t_start
        finally:
            server.stop(timeout=REQUEST_TIMEOUT)
    return Session(
        seconds=seconds,
        latency=latency,
        futures=futures,
        epochs=list(epochs),
        counters=service.metrics.counters_snapshot(),
    )


class EpochOracle:
    """Reference labels for every stream prefix a session published."""

    def __init__(
        self, oracle: LabelOracle, ops: list[Op], rec: Recorder, resolve: bool
    ) -> None:
        self.oracle = oracle
        self.rec = rec
        self.resolve = resolve
        updates = [op for op in ops if op[0] == "update"]
        self.src = np.concatenate([op[1] for op in updates])
        self.dst = np.concatenate([op[2] for op in updates])
        self._reference: dict[int, np.ndarray] = {}
        self._resolved: dict[int, np.ndarray] = {}

    def reference(self, applied: int) -> np.ndarray:
        if applied not in self._reference:
            with self.rec.span("oracle.with_stream", "repro.graph"):
                self._reference[applied] = self.oracle.with_stream(
                    self.src[:applied], self.dst[:applied]
                )
        return self._reference[applied]

    def resolved(self, service: ConnectivityService, applied: int) -> np.ndarray:
        if applied not in self._resolved:
            with self.rec.span("serve.batch_resolve", "repro.serve"):
                self._resolved[applied] = service.batch_resolve(applied)
        return self._resolved[applied]


def check_session(
    session: Session,
    service: ConnectivityService,
    ops: list[Op],
    epochs: EpochOracle,
    tally: Tally,
) -> None:
    """Check every epoch and every answer of a finished session."""
    by_epoch: dict[int, np.ndarray] = {}
    for snap in session.epochs:
        ref = epochs.reference(snap.edges_applied)
        ok = np.array_equal(snap.labels, ref)
        if ok and epochs.resolve:
            ok = np.array_equal(
                snap.labels, epochs.resolved(service, snap.edges_applied)
            )
        tally.record(ok, f"epoch {snap.epoch} ({snap.edges_applied} edges)")
        by_epoch[snap.epoch] = ref
    sizes = {e: np.bincount(lab, minlength=lab.shape[0]) for e, lab in by_epoch.items()}
    published = {snap.epoch: snap.edges_applied for snap in session.epochs}
    epoch = 0
    applied = 0
    for i, (op, fut) in enumerate(zip(ops, session.futures)):
        if fut.exception() is not None:
            tally.record(False, f"request {i} ({op[0]}): {fut.exception()!r}")
            continue
        answer = fut.result()
        if op[0] == "update":
            # Updates execute in stream order on the single worker, so the
            # epoch an update reports is the one every later query reads
            # until the next update.  It must trail the stream prefix by
            # less than one publication interval.
            applied += int(op[1].shape[0])
            last, epoch = epoch, int(answer)
            lag = applied - published.get(epoch, -RECOMPRESS_EVERY)
            ok = epoch >= last and 0 <= lag < RECOMPRESS_EVERY
            tally.record(ok, f"request {i} (update): epoch {epoch}")
            continue
        labels = by_epoch.get(epoch)
        if labels is None:
            tally.record(False, f"request {i} ({op[0]}): unknown epoch {epoch}")
            continue
        if op[0] == "same":
            expected = labels[op[1]] == labels[op[2]]
        else:
            expected = sizes[epoch][labels[op[1]]]
        tally.record(
            bool(np.array_equal(answer, expected)), f"request {i} ({op[0]})"
        )
