"""File formats: edge lists, label CSVs and feature matrices.

Edge list: whitespace-separated lines ``i j w`` with 0-based node indices,
one undirected edge per line (the loader adds both directions); ``#`` starts
a comment line.  Labels: CSV ``node,label`` with a header.  Features: CSV of
floats, one row per point, no header.
"""

from __future__ import annotations

import itertools
import mmap
import os
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
    return _numpy_or_per_line(path, _read_edge_list, _parse_edge_lines)


def _read_edge_list(path) -> SparseGraph | None:
    if not os.path.isfile(path):  # a pipe can be read only once
        return None
    edges = np.loadtxt(path, dtype=[("i", np.int64), ("j", np.int64), ("w", np.float64)],
                       comments="#", ndmin=1)
    i, j, w = edges["i"], edges["j"], edges["w"]
    top = max(i.max(initial=0), j.max(initial=0))
    # np.sum is pairwise where _parse_edge_lines adds in file order: half the
    # limit keeps the two from disagreeing near it
    if (not edges.size or min(i.min(), j.min()) < 0 or top >= np.iinfo(np.int64).max
            or not np.all((w >= 0) & (w < np.inf)) or w.sum() > WEIGHT_SUM_LIMIT / 2
            or _data_before_hash(path)):
        return None
    try:
        return SparseGraph.from_coo(int(top) + 1, i, j, w)
    except MemoryError:  # _parse_edge_lines names the line of the largest id
        return None


def _data_before_hash(path) -> bool:
    """Whether data precede a ``#`` on its line, which np.loadtxt reads as a
    comment and _parse_edge_lines rejects.  Python work per ``#``, not per line."""
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as text:
        lo, pos = 0, text.find(b"#")
        while pos != -1:  # a '#' with no line break since the last is in its comment
            brk = max(text.rfind(b"\n", lo, pos), text.rfind(b"\r", lo, pos))
            if (brk != -1 or lo == 0) and text[brk + 1:pos].strip():
                return True
            lo, pos = pos + 1, text.find(b"#", pos + 1)
    return False


def _parse_edge_lines(path) -> SparseGraph:
    """load_edge_list one line at a time, naming the first bad line."""
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
    i, j = graph.row_index(), graph.adjacency.indices
    upper = i < j
    with open(path, "w") as fh:
        fh.write("# i j w\n")
        for a, b, w in zip(i[upper], j[upper], graph.adjacency.data[upper]):
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
    return _numpy_or_per_line(path, _read_label_pairs, _parse_label_lines)


def _read_label_pairs(path) -> tuple[np.ndarray, np.ndarray] | None:
    if not os.path.isfile(path):  # a pipe can be read only once
        return None
    with open(path) as fh:
        if fh.readline().strip().lower() != "node,label":
            return None
    pairs = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2, comments=None)
    if pairs.shape[1] != 2 or pairs.min(initial=0) < 0:
        return None
    nodes, labels = pairs.T
    ordered = np.sort(nodes)  # far faster than np.unique
    return None if np.any(ordered[1:] == ordered[:-1]) else (nodes, labels)


def _parse_label_lines(path) -> tuple[np.ndarray, np.ndarray]:
    """load_label_pairs one line at a time, naming the first bad line."""
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
        fh.writelines(f"{node},{label}\n" for node, label in enumerate(labels.tolist()))


def load_features(path) -> np.ndarray:
    """Read a headerless float CSV into an N x d feature matrix; a malformed
    line, or the first with a non-finite entry, is reported with its 1-based
    number."""
    values = _numpy_or_per_line(
        path, lambda path: np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2),
        _name_bad_feature_line)
    if values.size == 0:
        raise ValueError(f"{path}: empty feature file")
    non_finite = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if non_finite.size:
        lineno, _ = next(itertools.islice(_feature_lines(path), non_finite[0], None))
        raise ValueError(f"{path}: line {lineno}: non-finite feature entry")
    return values


def _numpy_or_per_line(path, read, per_line):
    """read(path): the whole file parsed by np.loadtxt and checked with
    vectorised tests, or None where they are not sure of it.  For that file,
    and where read raises ValueError, per_line(path): the file read again
    line by line, which names the bad line or returns what read would have."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # np.loadtxt warns on an empty file
            result = read(path)
    except ValueError:
        result = None
    return per_line(path) if result is None else result


def _feature_lines(path):
    """Yield (1-based number, text) for each line np.loadtxt reads as a row."""
    with open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.split("#", 1)[0].rstrip("\n"):  # loadtxt skips other lines
                yield lineno, line


def _name_bad_feature_line(path):
    """Raise the error for a feature file np.loadtxt rejects, naming the
    first line it rejects read alone; where no line alone is at fault (an
    undecodable byte inside a comment), numpy's own message."""
    widths = []
    for lineno, line in _feature_lines(path):
        try:
            widths.append(np.loadtxt([line], delimiter=",").size)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric entry in "
                             f"{line.strip()!r}") from None
        if widths[-1] != widths[0]:
            raise ValueError(f"{path}: line {lineno}: {widths[-1]} values, "
                             f"the first row has {widths[0]}")
    try:
        np.loadtxt(path, delimiter=",")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_features(path, features) -> None:
    np.savetxt(path, np.asarray(features, dtype=np.float64), delimiter=",", fmt="%.17g")
