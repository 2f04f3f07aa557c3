"""Tests for the worker-scaling curve and the CI smoke benchmark."""

import json

import numpy as np
import pytest

from repro.bench.runner import run_algorithm, worker_scaling_curve
from repro.bench.smoke import check_against_oracle, main as smoke_main, run_smoke
from repro.errors import ConfigurationError
from repro.generators.powerlaw import barabasi_albert_graph


@pytest.fixture(scope="module")
def small_graph():
    return barabasi_albert_graph(400, edges_per_vertex=3, seed=6)


class TestWorkerScaling:
    def test_curve_has_one_entry_per_worker_count(self, small_graph):
        curve = worker_scaling_curve(small_graph, "afforest", (1, 2), repeats=2)
        assert sorted(curve) == ["1", "2"]
        assert all(t > 0 for t in curve.values())

    def test_run_algorithm_records_curve_in_extra(self, small_graph):
        rec = run_algorithm(
            small_graph, "afforest", "ba", repeats=2, scaling_workers=(1, 2)
        )
        assert rec.extra["worker_scaling"].keys() == {"1", "2"}
        # The record itself still carries the base (vectorized) timing.
        assert rec.median_seconds > 0

    def test_no_scaling_key_without_request(self, small_graph):
        rec = run_algorithm(small_graph, "afforest", "ba", repeats=2)
        assert "worker_scaling" not in rec.extra

    def test_unsupported_algorithm_raises(self, small_graph):
        with pytest.raises(ConfigurationError, match="process backend"):
            worker_scaling_curve(small_graph, "sequential", (1,), repeats=2)

    def test_curve_is_json_serializable(self, small_graph):
        curve = worker_scaling_curve(small_graph, "sv", (1,), repeats=2)
        assert json.loads(json.dumps(curve)) == curve


class TestSmoke:
    def test_oracle_check_accepts_correct_labels(self, small_graph):
        from repro.unionfind import sequential_components

        labels = np.asarray(sequential_components(small_graph))
        assert check_against_oracle(small_graph, labels)

    def test_oracle_check_rejects_wrong_labels(self, small_graph):
        labels = np.zeros(small_graph.num_vertices, dtype=np.int64)
        # A single-component labeling is wrong whenever the graph has >1.
        from repro.unionfind import sequential_components

        ref = np.asarray(sequential_components(small_graph))
        if len(np.unique(ref)) > 1:
            assert not check_against_oracle(small_graph, labels)

    def test_run_smoke_passes_and_reports(self):
        report, failures = run_smoke(repeats=1, workers=2)
        assert failures == 0
        assert report["failures"] == 0
        combos = {
            (r["dataset"], r["algorithm"], r["backend"])
            for r in report["records"]
            if "backend" in r
        }
        # Full matrix: graphs x algorithms x backends (7 algorithms since
        # the fused fastsv hot path joined the smoke set).
        from repro.bench.smoke import (
            SMOKE_ALGORITHMS,
            SMOKE_BACKENDS,
            SMOKE_GRAPHS,
        )

        assert len(combos) == (
            len(SMOKE_GRAPHS) * len(SMOKE_ALGORITHMS) * len(SMOKE_BACKENDS)
        )
        assert len(SMOKE_ALGORITHMS) == 7
        assert all(r.get("matches_oracle", True) for r in report["records"])
        # Plan provenance: each record names the plan that ran.
        plans = {
            (r["dataset"], r["algorithm"]): r["plan"]
            for r in report["records"]
            if "plan" in r
        }
        assert plans[("powerlaw-5k", "auto")] == "kout+settle"
        assert plans[("lattice-70x70", "auto")] == "kout+settle"
        assert plans[("powerlaw-5k", "kout+sv")] == "kout+sv"

    def test_baseline_compare_flags_semantic_drift(self):
        from repro.bench.smoke import compare_against_baseline

        record = {
            "dataset": "g",
            "algorithm": "auto",
            "backend": "vectorized",
            "median_seconds": 1.0,
            "num_components": 3,
            "plan": "kout+settle",
        }
        same, _ = compare_against_baseline(
            {"records": [record]}, {"records": [record]}
        )
        assert same == []
        drifted = dict(record, num_components=4, plan="none+lp")
        failures, notes = compare_against_baseline(
            {"records": [drifted]}, {"records": [record]}
        )
        assert len(failures) == 2  # component count + plan choice
        missing, _ = compare_against_baseline(
            {"records": []}, {"records": [record]}
        )
        assert missing and "missing" in missing[0]

    def test_smoke_cli_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = smoke_main(["--repeats", "1", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["failures"] == 0
        assert report["records"]

    def test_smoke_trace_export(self, tmp_path, capsys):
        from repro.bench.smoke import export_smoke_trace

        path = tmp_path / "smoke-trace.json"
        export_smoke_trace(str(path), workers=2)
        events = json.loads(path.read_text())
        assert isinstance(events, list)
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert "total" in names
        assert any(e.get("tid", 0) != 0 for e in events if e.get("ph") == "X")


class TestRecordTelemetry:
    def test_profiled_sample_attaches_trace_and_extras(self, small_graph):
        from repro.engine import ProcessParallelBackend

        with ProcessParallelBackend(workers=2) as backend:
            rec = run_algorithm(
                small_graph, "afforest", "ba", repeats=2, backend=backend
            )
        assert rec.trace is not None
        assert rec.extra["phase_seconds"].keys() == rec.trace.phase_seconds().keys()
        assert "worker_skew" in rec.extra
        assert all(s["skew"] >= 1.0 for s in rec.extra["worker_skew"].values())
        assert "histograms" in rec.extra
        assert "block_imbalance" in rec.extra["histograms"]
        # Everything in extra (not the trace) must stay JSON-serializable.
        assert json.loads(json.dumps(rec.extra))

    def test_vectorized_record_has_no_worker_skew(self, small_graph):
        rec = run_algorithm(small_graph, "afforest", "ba", repeats=2)
        assert rec.trace is not None
        assert "worker_skew" not in rec.extra
