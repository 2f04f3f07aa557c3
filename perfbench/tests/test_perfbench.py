"""Self-tests of the benchmark: every workload at the ``tiny`` tier.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import REPO_ROOT, ensure_library_importable

assert ensure_library_importable(), "library sources missing under src/"

from repro import engine  # noqa: E402

from perfbench import metrics, run  # noqa: E402
from perfbench.workload import WORKLOADS  # noqa: E402

#: Counts that must repeat exactly for a seed: (trace flag, metric name).
EXACT_COUNTS = (
    (0, "wire_bytes"),
    (1, "graph.edges_out"),
    (1, "engine.skip_frac"),
    (1, "distributed.supersteps"),
    (1, "serve.epochs"),
)


def _run(workload: str, trace: int, seed: int = 3) -> tuple[int, list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(
            [
                "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                "--trace", str(trace), "--tier", "tiny",
            ]
        )
    lines = buf.getvalue().strip().splitlines()
    return rc, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def first_runs() -> dict:
    return {
        (w, trace): _run(w, trace) for w in WORKLOADS for trace in (0, 1)
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(first_runs, workload, trace):
    rc, lines, result = first_runs[(workload, trace)]
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(
            line.split()[:1] == [name] and line.split()[2] == unit for line in lines
        ), f"{name} not printed with its unit {unit}"
    assert any(line.startswith("failed_frac") for line in lines)


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_traced_layers_sum_to_wall_time(first_runs):
    for workload in WORKLOADS:
        _, _, result = first_runs[(workload, 1)]
        shares = [
            result["metrics"][name]["value"] for name in metrics.LAYERS.values()
        ]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def _flip_one_label(labels: np.ndarray) -> np.ndarray:
    """Split one non-root vertex off into a class of its own.

    The result is still a valid parent array, so every consumer accepts it;
    only the partition is wrong.
    """
    labels = labels.copy()
    v = int(np.flatnonzero(labels != np.arange(labels.shape[0]))[0])
    labels[v] = v
    return labels


def test_flipped_label_counts_as_failure(monkeypatch):
    real_run = engine.run

    def corrupted(name, graph=None, **kwargs):
        result = real_run(name, graph, **kwargs)
        if name == "afforest" and kwargs.get("backend") is None:
            result.labels = _flip_one_label(result.labels)
        return result

    monkeypatch.setattr(engine, "run", corrupted)
    rc, _, result = _run("road-batch", 0)
    assert rc != 0
    assert not result["correct"]
    assert result["failed"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(first_runs, workload):
    again = {trace: _run(workload, trace)[2] for trace in (0, 1)}
    for trace, name in EXACT_COUNTS:
        first = first_runs[(workload, trace)][2]["metrics"][name]["value"]
        assert again[trace]["metrics"][name]["value"] == first, name


def _session_processes(sid: int) -> list[int]:
    """Pids of the live processes in session ``sid``, from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_no_process_outlives_the_run():
    # A new session makes every process the run starts findable by the
    # session id, which is the child's pid.
    child = subprocess.Popen(
        [
            sys.executable, "perfbench/run.py", "--workload", "kron-batch",
            "--seed", "3", "--seconds", "0.5", "--trace", "0", "--tier", "tiny",
        ],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _, err = child.communicate(timeout=180)
    assert child.returncode == 0, err
    assert _session_processes(child.pid) == []


def test_fails_without_library_sources(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        REPO_ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "kron-batch",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
