"""Graph serialization: edge-list text, METIS, and binary ``.npz``.

Three interchange formats cover the ecosystems the paper's datasets come
from:

- **edge-list text** (``.el`` — the GAP loader's plain format): one
  ``u v`` pair per line, ``#`` comments allowed;
- **METIS** (``.graph``): header ``n m`` then one line of (1-based)
  neighbours per vertex;
- **npz binary**: the CSR arrays verbatim, the fastest round-trip.

The edge-list and npz paths additionally support **chunked / out-of-core
loading** for datasets too large to stage as a whole COO edge list
(2^24-vertex synthetics and beyond): ``read_edge_list(path,
chunk_edges=...)`` streams fixed-size edge blocks through the two-pass
:func:`build_csr_streaming` assembly (degree count, then direct CSR
placement — the peak footprint is the CSR itself plus one block), and
``save_npz(graph, path, chunk_edges=...)`` splits ``indices`` into
bounded archive members that :func:`load_npz` streams back into a
preallocated array one member at a time.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError
from repro.graph.builder import csr_from_edge_keys, from_edge_array
from repro.graph.coo import packed_key_base
from repro.graph.csr import CSRGraph
from repro.nputil import sorted_unique

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "iter_edge_list_chunks",
    "build_csr_streaming",
    "read_metis",
    "write_metis",
    "load_npz",
    "save_npz",
    "load_graph",
    "save_graph",
]


# --------------------------------------------------------------------- #
# edge-list text
# --------------------------------------------------------------------- #


def _parse_edge_line(line: str, lineno: int) -> tuple[int, int] | None:
    """One edge-list line -> ``(u, v)``, or ``None`` for comments/blanks."""
    line = line.strip()
    if not line or line[0] in "#%":
        return None
    parts = line.split()
    if len(parts) < 2:
        raise GraphFormatError(
            f"edge list line {lineno}: expected at least two columns"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(
            f"edge list line {lineno}: non-integer endpoint"
        ) from exc


def iter_edge_list_chunks(
    fh: TextIO, chunk_edges: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream an open edge-list file as ``(src, dst)`` array blocks of at
    most ``chunk_edges`` edges, with the same comment/column semantics as
    :func:`read_edge_list`."""
    if chunk_edges < 1:
        raise GraphFormatError(
            f"chunk_edges must be >= 1, got {chunk_edges}"
        )
    src_l: list[int] = []
    dst_l: list[int] = []
    for lineno, line in enumerate(fh, 1):
        parsed = _parse_edge_line(line, lineno)
        if parsed is None:
            continue
        src_l.append(parsed[0])
        dst_l.append(parsed[1])
        if len(src_l) >= chunk_edges:
            yield (
                np.asarray(src_l, dtype=VERTEX_DTYPE),
                np.asarray(dst_l, dtype=VERTEX_DTYPE),
            )
            src_l, dst_l = [], []
    if src_l:
        yield (
            np.asarray(src_l, dtype=VERTEX_DTYPE),
            np.asarray(dst_l, dtype=VERTEX_DTYPE),
        )


def _place_chunk(
    buf: np.ndarray, cursor: np.ndarray, u: np.ndarray, v: np.ndarray
) -> None:
    """Scatter one direction of an edge block into the CSR slab: every
    ``v`` lands in row ``u``'s next free slots (duplicate rows within the
    block get consecutive positions)."""
    if u.shape[0] == 0:
        return
    order = np.argsort(u, kind="stable")
    us = u[order]
    uniq, first, cnt = sorted_unique(us, return_index=True, return_counts=True)
    within = np.arange(us.shape[0], dtype=np.int64) - np.repeat(first, cnt)
    buf[cursor[us] + within] = v[order]
    cursor[uniq] += cnt


def build_csr_streaming(
    chunk_factory: Callable[[], Iterable[tuple[np.ndarray, np.ndarray]]],
    num_vertices: int | None = None,
) -> CSRGraph:
    """Two-pass out-of-core CSR assembly from an edge-block stream.

    ``chunk_factory`` is called twice and must each time yield the same
    sequence of ``(src, dst)`` edge blocks (re-reading a file, re-seeding
    a generator).  Pass one counts degrees (and discovers ``num_vertices``
    when not given); pass two scatters both edge directions straight into
    the CSR slab.  The final compaction packs the slab into the same int64
    keys ``row * n + neighbour`` that
    :func:`~repro.graph.builder.build_csr` sorts, so one sort plus an
    adjacent-duplicate mask reproduces its default normalisation
    (symmetrize, drop self loops, dedup, sorted neighbours) bit-exactly —
    but the whole COO edge list is never materialised: peak memory is the
    raw CSR slab plus one block.
    """
    if num_vertices is not None:
        packed_key_base(num_vertices)  # refuse an overflowing n up front
    # Pass 1: degree counts (both directions, self loops dropped).
    counts = np.zeros(
        0 if num_vertices is None else num_vertices, dtype=np.int64
    )
    for src, dst in chunk_factory():
        if src.shape[0] == 0:
            continue
        if src.min() < 0 or dst.min() < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        # Vertex-count discovery sees raw endpoints (before the self-loop
        # filter) to match from_edge_array's ``max(endpoint) + 1``.
        hi = int(max(src.max(), dst.max())) + 1
        if num_vertices is None:
            if hi > counts.shape[0]:
                counts = np.concatenate(
                    [counts, np.zeros(hi - counts.shape[0], dtype=np.int64)]
                )
        elif hi > num_vertices:
            raise GraphFormatError(
                f"vertex id {hi - 1} out of range for {num_vertices} vertices"
            )
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if src.shape[0] == 0:
            continue
        counts += np.bincount(src, minlength=counts.shape[0])
        counts += np.bincount(dst, minlength=counts.shape[0])
    n = counts.shape[0]
    base = packed_key_base(n)
    raw_indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
    np.cumsum(counts, out=raw_indptr[1:])
    m_raw = int(raw_indptr[-1])

    # Pass 2: direct placement of both directions into the slab.
    buf = np.empty(m_raw, dtype=VERTEX_DTYPE)
    cursor = raw_indptr[:-1].astype(np.int64)
    for src, dst in chunk_factory():
        keep = src != dst
        src, dst = src[keep], dst[keep]
        _place_chunk(buf, cursor, src, dst)
        _place_chunk(buf, cursor, dst, src)
    if not np.array_equal(cursor, raw_indptr[1:]):
        raise GraphFormatError(
            "chunk_factory yielded different edges across passes"
        )
    if m_raw == 0:
        return CSRGraph(raw_indptr, buf, validate=False)

    # Compaction: sort each row and drop duplicate neighbours, as one sort
    # of the packed keys.
    keys = np.repeat(np.arange(n, dtype=np.int64) * base, counts)
    keys += buf
    del buf
    return csr_from_edge_keys(keys, n)


def read_edge_list(
    path: str | os.PathLike | TextIO,
    *,
    chunk_edges: int | None = None,
    **build_kwargs,
) -> CSRGraph:
    """Read a whitespace-separated edge-list file into a CSR graph.

    Lines starting with ``#`` or ``%`` are comments; blank lines are
    skipped.  Extra columns beyond the first two (e.g. weights) are ignored.

    ``chunk_edges`` switches to the out-of-core path: the file is parsed
    twice in blocks of that many edges through
    :func:`build_csr_streaming`, producing a bit-identical graph without
    ever staging the whole edge list in memory.  The chunked path applies
    the default normalisation only, so it accepts no ``build_kwargs``.
    """
    if chunk_edges is not None:
        if build_kwargs:
            raise GraphFormatError(
                "chunked edge-list loading supports only the default "
                f"normalisation; got {sorted(build_kwargs)}"
            )
        if isinstance(path, (str, os.PathLike)):
            def chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
                with open(path, "r", encoding="utf-8") as fh:
                    yield from iter_edge_list_chunks(fh, chunk_edges)
        else:
            def chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
                path.seek(0)
                yield from iter_edge_list_chunks(path, chunk_edges)
        return build_csr_streaming(chunks)
    close = False
    if isinstance(path, (str, os.PathLike)):
        fh: TextIO = open(path, "r", encoding="utf-8")
        close = True
    else:
        fh = path
    try:
        src_l: list[int] = []
        dst_l: list[int] = []
        for lineno, line in enumerate(fh, 1):
            parsed = _parse_edge_line(line, lineno)
            if parsed is None:
                continue
            src_l.append(parsed[0])
            dst_l.append(parsed[1])
    finally:
        if close:
            fh.close()
    src = np.asarray(src_l, dtype=VERTEX_DTYPE)
    dst = np.asarray(dst_l, dtype=VERTEX_DTYPE)
    return from_edge_array(src, dst, **build_kwargs)


def write_edge_list(graph: CSRGraph, path: str | os.PathLike | TextIO) -> None:
    """Write each undirected edge once as a ``u v`` line."""
    close = False
    if isinstance(path, (str, os.PathLike)):
        fh: TextIO = open(path, "w", encoding="utf-8")
        close = True
    else:
        fh = path
    try:
        src, dst = graph.undirected_edge_array()
        buf = io.StringIO()
        for u, v in zip(src, dst):
            buf.write(f"{u} {v}\n")
        fh.write(buf.getvalue())
    finally:
        if close:
            fh.close()


# --------------------------------------------------------------------- #
# METIS
# --------------------------------------------------------------------- #


def read_metis(path: str | os.PathLike) -> CSRGraph:
    """Read a METIS ``.graph`` file (unweighted, 1-based vertex ids)."""
    with open(path, "r", encoding="utf-8") as fh:
        header: list[str] | None = None
        rows: list[list[int]] = []
        for line in fh:
            line = line.strip()
            if line.startswith("%"):
                continue
            if header is None:
                if not line:
                    continue  # leading blank lines before the header
                header = line.split()
                continue
            # After the header every non-comment line is a vertex row; a
            # blank line is a vertex with no neighbours.
            rows.append([int(tok) for tok in line.split()])
    if header is None:
        raise GraphFormatError("METIS file has no header line")
    if len(header) < 2:
        raise GraphFormatError("METIS header must contain 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(header) >= 3 and header[2] not in ("0", "00", "000"):
        raise GraphFormatError("weighted METIS graphs are not supported")
    if len(rows) != n:
        raise GraphFormatError(
            f"METIS header declares {n} vertices but file has {len(rows)} rows"
        )
    indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
    for v, row in enumerate(rows):
        indptr[v + 1] = indptr[v] + len(row)
    indices = np.fromiter(
        (w - 1 for row in rows for w in row),
        dtype=VERTEX_DTYPE,
        count=int(indptr[-1]),
    )
    graph = CSRGraph(indptr, indices)
    if graph.num_edges != m:
        raise GraphFormatError(
            f"METIS header declares {m} edges but adjacency encodes {graph.num_edges}"
        )
    return graph


def write_metis(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write a METIS ``.graph`` file (unweighted, 1-based vertex ids)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for v in range(graph.num_vertices):
            fh.write(" ".join(str(int(w) + 1) for w in graph.neighbors(v)))
            fh.write("\n")


# --------------------------------------------------------------------- #
# npz binary
# --------------------------------------------------------------------- #


def save_npz(
    graph: CSRGraph,
    path: str | os.PathLike,
    *,
    chunk_edges: int | None = None,
) -> None:
    """Save the CSR arrays to a compressed ``.npz`` file.

    With ``chunk_edges`` the ``indices`` array is split into archive
    members ``indices_00000``, ``indices_00001``, ... of at most that many
    entries, so :func:`load_npz` can decompress one bounded member at a
    time instead of inflating the whole adjacency in one shot.
    """
    if chunk_edges is None:
        np.savez_compressed(
            Path(path), indptr=graph.indptr, indices=graph.indices
        )
        return
    if chunk_edges < 1:
        raise GraphFormatError(
            f"chunk_edges must be >= 1, got {chunk_edges}"
        )
    members = {
        f"indices_{i:05d}": graph.indices[lo : lo + chunk_edges]
        for i, lo in enumerate(
            range(0, max(graph.indices.shape[0], 1), chunk_edges)
        )
    }
    np.savez_compressed(Path(path), indptr=graph.indptr, **members)


def load_npz(path: str | os.PathLike) -> CSRGraph:
    """Load a graph previously saved with :func:`save_npz`.

    Detects both layouts: a monolithic ``indices`` array, or the chunked
    ``indices_NNNNN`` members, which are streamed sequentially into a
    preallocated array (peak extra memory: one decompressed chunk).
    """
    with np.load(Path(path)) as data:
        if "indptr" not in data:
            raise GraphFormatError("npz file missing 'indptr'/'indices' arrays")
        if "indices" in data:
            return CSRGraph(data["indptr"], data["indices"])
        chunk_names = sorted(
            name for name in data.files if name.startswith("indices_")
        )
        if not chunk_names:
            raise GraphFormatError("npz file missing 'indptr'/'indices' arrays")
        expected = [f"indices_{i:05d}" for i in range(len(chunk_names))]
        if chunk_names != expected:
            raise GraphFormatError(
                "chunked npz has non-contiguous indices members: "
                f"{chunk_names}"
            )
        indptr = np.ascontiguousarray(data["indptr"], dtype=VERTEX_DTYPE)
        if indptr.ndim != 1 or indptr.shape[0] < 1:
            raise GraphFormatError("npz indptr must be a 1-D array")
        total = int(indptr[-1])
        indices = np.empty(total, dtype=VERTEX_DTYPE)
        cursor = 0
        for name in chunk_names:
            chunk = data[name]
            end = cursor + chunk.shape[0]
            if end > total:
                raise GraphFormatError(
                    f"chunked npz indices overflow indptr[-1]={total}"
                )
            indices[cursor:end] = chunk
            cursor = end
        if cursor != total:
            raise GraphFormatError(
                f"chunked npz indices truncated: got {cursor} of {total}"
            )
        return CSRGraph(indptr, indices)


# --------------------------------------------------------------------- #
# extension dispatch
# --------------------------------------------------------------------- #

_LOADERS = {
    ".el": read_edge_list,
    ".txt": read_edge_list,
    ".edges": read_edge_list,
    ".graph": read_metis,
    ".metis": read_metis,
    ".npz": load_npz,
}

_SAVERS = {
    ".el": write_edge_list,
    ".txt": write_edge_list,
    ".edges": write_edge_list,
    ".graph": write_metis,
    ".metis": write_metis,
    ".npz": save_npz,
}


def load_graph(path: str | os.PathLike) -> CSRGraph:
    """Load a graph, dispatching on file extension."""
    suffix = Path(path).suffix.lower()
    loader = _LOADERS.get(suffix)
    if loader is None:
        raise GraphFormatError(f"unrecognised graph file extension: {suffix!r}")
    return loader(path)


def save_graph(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Save a graph, dispatching on file extension."""
    suffix = Path(path).suffix.lower()
    saver = _SAVERS.get(suffix)
    if saver is None:
        raise GraphFormatError(f"unrecognised graph file extension: {suffix!r}")
    saver(graph, path)
