"""Probabilistic identification of the largest intermediate component.

Paper Sec. IV-E: after the neighbour rounds (and their compress), the
algorithm "performs a probabilistic search for determining the largest
identified component ... by randomly sampling π a constant number of times
and finding the most referenced value."  Because all trees are depth-1 at
that point, sampling π directly samples component labels proportionally to
component size, so the giant component's label is the sample mode with
overwhelming probability.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_SKIP_SAMPLE_SIZE
from repro.errors import ConfigurationError
from repro.nputil import sorted_unique


def most_frequent_element(
    values: np.ndarray,
    sample_size: int = DEFAULT_SKIP_SAMPLE_SIZE,
    *,
    rng: np.random.Generator | None = None,
) -> int:
    """Mode of ``sample_size`` uniform random probes into ``values``.

    With a giant component covering fraction ``q`` of the vertices, the
    probability that its label is not the sample mode decays exponentially
    in ``sample_size`` (Chernoff); 1024 probes make misidentification
    vanishingly rare for ``q >= 0.3`` — and a *wrong* answer only costs
    performance, never correctness (skipping any single tree is safe by
    Theorem 3).
    """
    if values.shape[0] == 0:
        raise ConfigurationError("cannot sample an empty array")
    if sample_size < 1:
        raise ConfigurationError(f"sample_size must be >= 1, got {sample_size}")
    if rng is None:
        rng = np.random.default_rng(0)
    idx = rng.integers(0, values.shape[0], size=sample_size)
    sample = values[idx]
    uniq, counts = sorted_unique(sample, return_counts=True)
    return int(uniq[np.argmax(counts)])


def approximate_largest_label(
    pi: np.ndarray,
    sample_size: int = DEFAULT_SKIP_SAMPLE_SIZE,
    *,
    rng: np.random.Generator | None = None,
) -> int:
    """The giant component's (probable) label in a compressed parent array.

    Thin wrapper over :func:`most_frequent_element` with the π-specific
    contract: callers must have run ``compress`` first so entries are root
    labels (depth-1 trees) — otherwise probes return interior vertices and
    the mode underestimates the giant component.
    """
    return most_frequent_element(pi, sample_size, rng=rng)


def exact_largest_label(pi: np.ndarray) -> int:
    """Exact giant-component label (full scan; analysis/testing reference)."""
    if pi.shape[0] == 0:
        raise ConfigurationError("cannot scan an empty array")
    counts = np.bincount(pi)
    return int(np.argmax(counts))
