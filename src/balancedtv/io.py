"""File formats: edge lists, label CSVs and feature matrices.

Edge list: whitespace-separated lines ``i j w`` with 0-based node indices,
one undirected edge per line (the loader adds both directions); ``#`` starts
a comment line.  Labels: CSV ``node,label`` with a header.  Features: CSV of
floats, one row per point, no header.
"""

from __future__ import annotations

import warnings

import numpy as np

from .graph import SparseGraph

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "load_labels",
    "load_label_pairs",
    "save_labels",
    "load_features",
    "save_features",
]

WEIGHT_SUM_LIMIT = np.finfo(np.float64).max / 4  # keeps every degree and 2m finite


def load_edge_list(path) -> SparseGraph:
    """Parse an edge-list file into a :class:`SparseGraph` whose node count
    is the largest index + 1.

    Malformed lines, node indices outside [0, 2^63 - 1), negative or
    non-finite weights and a weight that makes the total overflow are
    reported with their 1-based line number, as is the largest index when
    the graph it sizes does not fit in memory.
    """
    rows, cols, weights = [], [], []
    total, n_nodes, top_line = 0.0, 0, 0  # top_line: where the largest index is
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'i j w', got {text!r}"
                )
            try:
                i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse 'i j w' from {text!r}"
                ) from None
            if i < 0 or j < 0:
                raise ValueError(f"{path}: line {lineno}: negative node index")
            if max(i, j) >= np.iinfo(np.int64).max:  # the node count must fit int64
                raise ValueError(f"{path}: line {lineno}: node index {max(i, j)} too large")
            if not 0 <= w < np.inf:
                raise ValueError(f"{path}: line {lineno}: weight {w} is not a "
                                 "finite nonnegative number")
            total += w
            if total > WEIGHT_SUM_LIMIT:
                raise ValueError(f"{path}: line {lineno}: total edge weight overflows")
            if max(i, j) >= n_nodes:
                n_nodes, top_line = max(i, j) + 1, lineno
            rows.append(i)
            cols.append(j)
            weights.append(w)
    try:
        return SparseGraph.from_coo(n_nodes, rows, cols, weights)
    except MemoryError:
        raise ValueError(f"{path}: line {top_line}: node index {n_nodes - 1} asks "
                         f"for a {n_nodes}-node graph, too large for memory") from None


def save_edge_list(path, graph: SparseGraph) -> None:
    """Write one line per undirected edge (upper triangle of W)."""
    i = graph.row_index()
    j = graph.col_indices
    upper = i < j
    with open(path, "w") as fh:
        fh.write("# i j w\n")
        for a, b, w in zip(i[upper], j[upper], graph.weights[upper]):
            fh.write(f"{a} {b} {float(w)!r}\n")


def load_labels(path) -> np.ndarray:
    """Read a ``node,label`` CSV covering nodes 0..N-1 into a label vector."""
    nodes, labels = load_label_pairs(path)
    if nodes.size and nodes.max() >= nodes.size:
        raise ValueError(f"{path}: missing node ids (expected 0..{nodes.max()})")
    out = np.empty(nodes.size, dtype=np.int64)
    out[nodes] = labels
    return out


def load_label_pairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``node,label`` CSV (header required) covering any subset of
    nodes, each at most once; used as is for supervision files.  Entries
    outside [0, 2^63) are reported with their line.  Returns (nodes, labels)
    in file order."""
    line_of, labels = {}, []  # node -> its line, in file order
    with open(path) as fh:
        header = fh.readline()
        if header.strip().lower() != "node,label":
            raise ValueError(f"{path}: expected header 'node,label', got {header.strip()!r}")
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'node,label'")
            try:
                node, label = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer entry") from None
            if node < 0 or label < 0:
                raise ValueError(f"{path}: line {lineno}: negative entry")
            if max(node, label) > np.iinfo(np.int64).max:
                raise ValueError(f"{path}: line {lineno}: entry {max(node, label)} too large")
            if node in line_of:
                raise ValueError(f"{path}: line {lineno}: node {node} already "
                                 f"labeled on line {line_of[node]}")
            line_of[node] = lineno
            labels.append(label)
    return np.asarray(list(line_of), dtype=np.int64), np.asarray(labels, dtype=np.int64)


def save_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    with open(path, "w") as fh:
        fh.write("node,label\n")
        for node, label in enumerate(labels):
            fh.write(f"{node},{label}\n")


def load_features(path) -> np.ndarray:
    """Read a headerless float CSV into an N x d feature matrix; a malformed
    line is reported with its 1-based number."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {_first_bad_feature_line(path) or exc}") from None
    if values.size == 0:
        raise ValueError(f"{path}: empty feature file")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite feature entries")
    return values


def _first_bad_feature_line(path) -> str | None:
    """``line n: why`` for the first line np.loadtxt rejects, read alone."""
    widths = []
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.split("#", 1)[0].rstrip("\n"):  # loadtxt skips other lines
                try:
                    widths.append(np.loadtxt([line], delimiter=",").size)
                except ValueError:
                    return f"line {lineno}: non-numeric entry in {line.strip()!r}"
                if widths[-1] != widths[0]:
                    return f"line {lineno}: {widths[-1]} values, the first row has {widths[0]}"
    return None


def save_features(path, features) -> None:
    np.savetxt(path, np.asarray(features, dtype=np.float64), delimiter=",", fmt="%.17g")
