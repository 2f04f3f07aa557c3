"""Ablation A3 — CSR vs edge-list data layout for SV.

Proxy for the paper's GPU discussion (Sec. VI-B): Soman et al. implement
SV over edge lists, trading memory volume for uniform per-edge work, while
the paper's CSR-based variants win when vertex degrees are narrow (road,
osm-eur).  Here the edge-list variant receives pre-flattened arrays while
the CSR variant pays the expansion, so the report quantifies the layout
overhead; both must be exactly equivalent.
"""

import numpy as np
import pytest

from repro import engine
from repro.bench.report import format_table
from repro.bench.runner import median_time
from repro.engine import VectorizedBackend
from repro.engine.finish import sv_pipeline_edges
from repro.generators.datasets import GPU_SUITE

from conftest import bench_size, register_report


@pytest.fixture(scope="module")
def table(size):
    # The layout comparison is the paper's *GPU* experiment, so it runs on
    # the GPU dataset suite (kron-gpu/urand-gpu replace the CPU-sized
    # kron/urand, as in the paper).
    from repro.bench.datasets import evaluation_suite

    gpu_suite = evaluation_suite(size, names=GPU_SUITE)
    rows = []
    data = {}
    for name, g in gpu_suite.items():
        src, dst = g.edge_array()
        csr_med, _, _, _ = median_time(
            lambda: engine.run("sv", g), repeats=9
        )
        el_med, _, _, _ = median_time(
            lambda: sv_pipeline_edges(
                VectorizedBackend(), g.num_vertices, src, dst
            ),
            repeats=9,
        )
        a = engine.run("sv", g)
        b = sv_pipeline_edges(VectorizedBackend(), g.num_vertices, src, dst)
        data[name] = (a, b, csr_med, el_med)
        rows.append(
            [
                name,
                round(csr_med * 1000, 3),
                round(el_med * 1000, 3),
                round(csr_med / el_med, 2),
                a.iterations,
            ]
        )
    text = format_table(
        "Ablation A3 — SV layout: CSR (with expansion) vs edge list",
        ["dataset", "csr_ms", "edgelist_ms", "csr/el", "iterations"],
        rows,
    )
    register_report("ablation a3 layout", text)
    return data


def test_ablation_layout(table, suite, benchmark):
    for name, (a, b, csr_med, el_med) in table.items():
        # Exact equivalence regardless of layout.
        assert np.array_equal(a.labels, b.labels), name
        assert a.iterations == b.iterations, name
        # The edge-list variant skips the CSR source expansion, so it can
        # only be faster or equal — up to scheduler noise on a shared
        # single-core box, hence the generous sanity margin.
        assert el_med <= csr_med * 1.6, name

    g = suite["kron"]
    src, dst = g.edge_array()
    benchmark(
        lambda: sv_pipeline_edges(VectorizedBackend(), g.num_vertices, src, dst)
    )
