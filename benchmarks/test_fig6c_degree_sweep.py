"""Fig. 6c — runtime vs average degree on Kronecker graphs.

Paper shape: SV and LP runtime *grows* with average degree (they reprocess
every edge per iteration), DOBFS *shrinks* (denser graphs mean fewer BFS
levels and more bottom-up early exits), and Afforest stays ~flat (its work
is dominated by the O(|V|) sampled subgraph).

Both wall-clock medians and the architecture-independent work counters
(edges processed) are reported; the shape assertions run on the work
counters, which is what the paper's reasoning is actually about.
"""

import time

import pytest

import repro
from repro import engine
from repro.bench.report import format_series
from repro.bench.runner import median_time
from repro.generators import kronecker_graph

from conftest import bench_size, register_report

DEGREES = [4, 8, 16, 32, 64]
_SCALES = {"tiny": 9, "small": 12, "default": 14, "large": 15}


@pytest.fixture(scope="module")
def sweep(size):
    scale = _SCALES[size]
    times: dict[str, list[float]] = {a: [] for a in ("sv", "lp", "dobfs", "afforest")}
    work: dict[str, list[int]] = {a: [] for a in ("sv", "lp", "dobfs", "afforest")}
    for d in DEGREES:
        g = kronecker_graph(scale, edge_factor=d / 2.0, seed=1)

        runners = {
            "sv": lambda: engine.run("sv", g),
            "lp": lambda: engine.run("lp", g),
            "dobfs": lambda: engine.run("dobfs", g),
            "afforest": lambda: engine.run("afforest", g),
        }
        for name, fn in runners.items():
            med, _, _, _ = median_time(fn, repeats=5)
            times[name].append(round(med * 1000, 3))

        work["sv"].append(engine.run("sv", g).edges_processed)
        work["lp"].append(engine.run("lp", g).edges_processed)
        work["dobfs"].append(engine.run("dobfs", g).edges_processed)
        r = engine.run("afforest", g)
        work["afforest"].append(r.edges_touched)

    text = format_series(
        f"Fig 6c — runtime (ms) vs average degree, kron scale {scale}",
        "avg_degree",
        DEGREES,
        times,
    )
    text += "\n\n" + format_series(
        "Fig 6c (work) — directed edges processed vs average degree",
        "avg_degree",
        DEGREES,
        work,
    )
    register_report("fig6c degree sweep", text)
    return times, work


def test_fig6c_shapes(sweep, size, benchmark):
    times, work = sweep

    # SV and LP work grows strongly with degree.
    assert work["sv"][-1] > 4 * work["sv"][0]
    assert work["lp"][-1] > 4 * work["lp"][0]

    # Afforest's work grows far slower than the degree itself (16x degree
    # increase -> paper shows a ~flat runtime curve).
    afforest_growth = work["afforest"][-1] / max(work["afforest"][0], 1)
    sv_growth = work["sv"][-1] / max(work["sv"][0], 1)
    assert afforest_growth < sv_growth / 2

    # DOBFS per-edge efficiency improves with density: its processed-edge
    # fraction of the graph shrinks as degree grows.
    scale = _SCALES[size]
    m_low = work["dobfs"][0] / (4 * 2**scale)
    m_high = work["dobfs"][-1] / (64 * 2**scale)
    assert m_high < m_low

    # Wall-clock: afforest fastest at the high-degree end.
    assert times["afforest"][-1] < times["sv"][-1]
    assert times["afforest"][-1] < times["lp"][-1]

    g = kronecker_graph(_SCALES[size], edge_factor=16, seed=1)
    benchmark(lambda: engine.run("afforest", g))
